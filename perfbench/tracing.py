"""Span tracing installed from outside the program.

:class:`Tracer` wraps the public entry points of each layer (see
:data:`ENTRY_POINTS`) for the duration of one traced sweep and keeps
every call as a :class:`Span` in memory.  Nothing under ``src/``
knows about it: :meth:`Tracer.install` rebinds functions and methods
in the loaded ``repro`` modules and :meth:`Tracer.uninstall` puts the
originals back, so untraced sweeps run the unmodified code.

Process-pool workers fork after the wrappers are installed.  A worker
drops the spans it inherited, records its own, and returns them with
each cell's result; the parent folds them in when the cell's future
completes.  Span times come from ``time.perf_counter``, which reads the
same monotonic clock in every process.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence


class Span(NamedTuple):
    """One traced call.

    ``parent`` is the index of the enclosing span in the same list, or
    -1 at a root.  ``cpu`` is the process CPU seconds spent inside the
    span, recorded only for the points that ask for it.  ``tag`` holds
    what the call returned that a metric needs (a cache-hit flag, an
    encoded byte count).
    """

    name: str
    start: float
    end: float
    parent: int
    cell: str
    pid: int
    cpu: Optional[float] = None
    tag: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _hit_flag(result) -> bool:
    """``(artifact, was_hit)`` → ``was_hit``."""
    return bool(result[1])


def _found(result) -> bool:
    return result is not None


def _cell_id(engine, preset, spec) -> str:
    return (
        f"{spec.framework}:{spec.attack}:{spec.epsilon}:"
        f"{spec.building or preset.buildings[0]}"
    )


class Point(NamedTuple):
    """One wrapped entry point: ``module:Owner.attr`` or ``module:func``.

    With ``subclasses`` set, every ``repro`` subclass of ``Owner`` that
    defines ``attr`` itself is wrapped under the same span name.
    """

    span: str
    target: str
    subclasses: bool = False
    cpu: bool = False
    tag: Optional[Callable] = None


_ENGINE = "repro.experiments.engine"
_ARTIFACTS = "repro.experiments.artifacts"
_BATCHED = "repro.nn.batched"

ENTRY_POINTS: Sequence[Point] = (
    Point("engine.sweep", f"{_ENGINE}:SweepEngine.run"),
    # the cell boundary: spans inside it carry the cell's id
    Point("engine.cell", f"{_ENGINE}:SweepEngine._run_federation_cell"),
    Point("engine.data", f"{_ARTIFACTS}:ArtifactCache.get_datasets",
          cpu=True, tag=_hit_flag),
    Point("engine.pretrain", f"{_ARTIFACTS}:ArtifactCache.get_pretrained",
          cpu=True, tag=_hit_flag),
    Point("data.protocol", "repro.data.fingerprints:paper_protocol"),
    Point("fl.build_federation", "repro.fl.simulation:build_federation",
          cpu=True),
    Point("engine.federate", "repro.fl.server:FederatedServer.run_rounds",
          cpu=True),
    Point("fl.round", "repro.fl.server:FederatedServer.run_round"),
    Point("fl.client.update", "repro.fl.client:FederatedClient.local_update"),
    Point("fl.cohort.collect",
          "repro.fl.batched_round:ClientCohort.collect_updates"),
    Point("fl.aggregate", "repro.fl.aggregation:AggregationStrategy.aggregate",
          subclasses=True),
    Point("core.saliency.aggregate",
          "repro.core.saliency:SaliencyAggregation.packed_aggregate"),
    Point("baselines.fedls.loo",
          "repro.baselines.fedls:LatentSpaceAggregation.leave_one_out_errors"),
    Point("attacks.poison", "repro.attacks.base:Attack.poison",
          subclasses=True),
    Point("nn.optim.step", "repro.nn.optim:Adam.step", subclasses=True),
    Point("nn.forward", "repro.nn.module:Module.forward", subclasses=True),
    Point("nn.backward", "repro.nn.module:Module.backward", subclasses=True),
    Point("nn.loss", "repro.nn.losses:Loss.forward", subclasses=True),
    Point("nn.loss", "repro.nn.losses:Loss.backward", subclasses=True),
    Point("nn.loss", "repro.nn.losses:CompositeLoss.forward"),
    Point("nn.loss", "repro.nn.losses:CompositeLoss.backward"),
    Point("nn.loss", f"{_BATCHED}:BatchedMSELoss.forward"),
    Point("nn.loss", f"{_BATCHED}:BatchedMSELoss.backward"),
    Point("nn.loss", f"{_BATCHED}:BatchedSparseCrossEntropyLoss.forward"),
    Point("nn.loss", f"{_BATCHED}:BatchedSparseCrossEntropyLoss.backward"),
    Point("metrics.evaluate", "repro.metrics.localization:evaluate_model",
          cpu=True),
    Point("artifacts.round.lookup", f"{_ARTIFACTS}:RoundCache.lookup"),
    Point("artifacts.round.store", f"{_ARTIFACTS}:RoundCache.store"),
    Point("artifacts.round.get_update", f"{_ARTIFACTS}:RoundCache.get_update"),
    # the round-cache counters: one probe per lookup, one store per miss
    Point("artifacts.cache.get_update",
          f"{_ARTIFACTS}:ArtifactCache.get_client_update", tag=_hit_flag),
    Point("artifacts.cache.peek",
          f"{_ARTIFACTS}:ArtifactCache.peek_client_update", tag=_found),
    Point("artifacts.cache.store",
          f"{_ARTIFACTS}:ArtifactCache.store_client_update"),
    Point("artifacts.encode", f"{_ARTIFACTS}:encode_update", tag=len),
    Point("artifacts.decode", f"{_ARTIFACTS}:decode_update"),
)

#: spans that make up a cell's pipeline stages (data → pre-train →
#: federate → evaluate); build_federation is the federate stage's set-up
STAGE_SPANS = frozenset(
    {
        "engine.data",
        "engine.pretrain",
        "fl.build_federation",
        "engine.federate",
        "metrics.evaluate",
    }
)

_TRACE_KEY = "perfbench.spans"


def _resolve(target: str):
    """``module:Owner.attr`` → (owner class or None, module, attr)."""
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    if "." in path:
        owner_name, attr = path.split(".")
        return getattr(module, owner_name), module, attr
    return None, module, path


def _repro_subclasses(cls) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        for sub in current.__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return [sub for sub in found if sub.__module__.startswith("repro.")]


class Tracer:
    """Records spans around the program's layer entry points.

    Only one tracer is installed at a time.  Cells run one at a time
    per thread in every workload, so the open-span stack and the
    current cell id live in thread-local state.  While installed it
    keeps spans as plain tuples (workers' batches apart); ``spans``
    holds them as :class:`Span` records once :meth:`uninstall` ran, so
    the assembly stays out of the timed sweep.
    """

    _installed: Optional["Tracer"] = None
    _fork_hook = False

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._raw: List[Optional[tuple]] = []
        self._batches: List[List[tuple]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pid = os.getpid()
        self._patches: List[tuple] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.cell = ""
        return stack

    def _wrap(self, fn: Callable, point: Point) -> Callable:
        name, want_cpu, tag = point.span, point.cpu, point.tag
        is_cell = name == "engine.cell"
        raw, clock = self._raw, time.perf_counter
        cpu_clock = time.process_time
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            local = tracer._local
            parent = stack[-1] if stack else -1
            with tracer._lock:
                index = len(raw)
                raw.append(None)
            stack.append(index)
            previous_cell = local.cell
            if is_cell:
                local.cell = _cell_id(*args)
            cpu0 = cpu_clock() if want_cpu else 0.0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                cpu = cpu_clock() - cpu0 if want_cpu else None
                stack.pop()
                cell = local.cell
                local.cell = previous_cell
                raw[index] = (name, start, end, parent, cell, tracer._pid, cpu)
            if tag is not None:
                raw[index] += (tag(result),)
            return result

        return traced

    # -- install / uninstall -----------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every entry point; returns ``self``."""
        if Tracer._installed is not None:
            raise RuntimeError("another tracer is installed")
        Tracer._installed = self
        if not Tracer._fork_hook:
            os.register_at_fork(after_in_child=Tracer._after_fork)
            Tracer._fork_hook = True
        for point in ENTRY_POINTS:
            owner, module, attr = _resolve(point.target)
            if owner is None:
                self._patch_function(module, attr, point)
                continue
            owners = [owner]
            if point.subclasses:
                owners += _repro_subclasses(owner)
            for cls in owners:
                if attr in vars(cls):
                    self._patch(cls, attr, self._wrap(vars(cls)[attr], point))
        from repro.experiments import engine, scheduler

        self._patch(engine, "_pool_run_cell", self._worker_entry(engine))
        self._patch(
            scheduler.ProcessBackend,
            "submit",
            self._collecting_submit(vars(scheduler.ProcessBackend)["submit"]),
        )
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, module, attr: str, point: Point) -> None:
        """Rebind a module-level function everywhere it was imported."""
        original = getattr(module, attr)
        wrapped = self._wrap(original, point)
        for name, loaded in list(sys.modules.items()):
            bound = getattr(loaded, attr, None)
            if name.startswith("repro") and bound is original:
                self._patch(loaded, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every original binding and assemble ``spans``."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        Tracer._installed = None
        self.spans = [Span(*raw) for raw in self._raw]
        for batch in self._batches:
            # a batch's parent indices count from its own first span
            offset = len(self.spans)
            self.spans += [
                Span(*raw) if raw[3] < 0 else Span(*raw)._replace(
                    parent=raw[3] + offset
                )
                for raw in batch
            ]

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- process-pool workers ----------------------------------------------
    @staticmethod
    def _after_fork() -> None:
        tracer = Tracer._installed
        if tracer is not None:
            # a forked worker starts an empty record of its own
            tracer._raw.clear()
            tracer._batches.clear()
            tracer._lock = threading.Lock()
            tracer._local = threading.local()
            tracer._pid = os.getpid()

    def _worker_entry(self, engine_module) -> Callable:
        original = engine_module._pool_run_cell
        tracer = self

        def _pool_run_cell(task: Dict) -> Dict:
            outcome = original(task)
            with tracer._lock:
                outcome[_TRACE_KEY] = list(tracer._raw)
                tracer._raw.clear()
            return outcome

        # pickled by reference: the worker resolves the same module name
        _pool_run_cell.__module__ = original.__module__
        _pool_run_cell.__qualname__ = original.__qualname__
        return _pool_run_cell

    def _collecting_submit(self, submit: Callable) -> Callable:
        tracer = self

        @functools.wraps(submit)
        def collecting_submit(backend, index: int, attempt: int):
            future = submit(backend, index, attempt)
            future.add_done_callback(tracer._collect)
            return future

        return collecting_submit

    def _collect(self, future) -> None:
        """Keep a finished worker cell's spans for :meth:`uninstall`."""
        if future.cancelled() or future.exception() is not None:
            return
        with self._lock:
            self._batches.append(future.result().get(_TRACE_KEY, []))


# -- span arithmetic -------------------------------------------------------


def union_length(
    intervals, lo: float = float("-inf"), hi: float = float("inf")
) -> float:
    """Length of the union of ``(start, end)`` intervals clipped to
    ``[lo, hi]``."""
    total, covered_to = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, covered_to), min(end, hi)
        if end > start:
            total += end - start
            covered_to = end
    return total


def children_of(spans: Sequence[Span]) -> Dict[int, List[int]]:
    """Parent index → child indices."""
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(index)
    return children


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children = children_of(spans)
    return [
        span.duration
        - union_length(
            ((spans[c].start, spans[c].end) for c in children.get(i, ())),
            span.start,
            span.end,
        )
        for i, span in enumerate(spans)
    ]


def outermost(spans: Sequence[Span], names) -> List[int]:
    """Indices of spans named in ``names`` with no ancestor named in
    ``names`` — their durations add up without double counting nested
    calls (an override calling ``super()``, a recursive container)."""
    names = {names} if isinstance(names, str) else set(names)
    picked = []
    for index, span in enumerate(spans):
        if span.name not in names:
            continue
        parent = span.parent
        while parent >= 0 and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent < 0:
            picked.append(index)
    return picked


def total_time(spans: Sequence[Span], names) -> float:
    """Summed duration of the outermost spans named in ``names``."""
    return sum(spans[i].duration for i in outermost(spans, names))


def stage_busy(spans: Sequence[Span]) -> float:
    """Seconds covered by stage spans, summed over processes."""
    by_pid: Dict[int, list] = {}
    for span in spans:
        if span.name in STAGE_SPANS:
            by_pid.setdefault(span.pid, []).append((span.start, span.end))
    return sum(union_length(intervals) for intervals in by_pid.values())
