"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-cells --seed 1 \\
        --seconds 33 --trace 0

The run repeats the workload's sweep through ``SweepEngine.run`` until
``--seconds`` are used, each repetition on a fresh engine (a cold
sweep, as a user runs it), then times ``setup_s`` with fresh
interpreters.  ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer metrics of the traced ones.  Every
repetition's outputs are checked; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and the metrics named
in ``BENCHMARK.json``.  The exit code is 0 when every check passed, 1
when one failed and 2 when the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

if __package__ in (None, ""):
    # executed as a script: import this directory as the perfbench
    # package, never as loose top-level modules
    sys.path[0] = ROOT

from perfbench import layers, workloads  # noqa: E402
from perfbench.envinfo import THREAD_ENV, environment  # noqa: E402
from perfbench.tracing import Span, Tracer  # noqa: E402

#: fresh-interpreter set-ups timed per run (after one untimed warm-up
#: that writes the bytecode caches)
SETUP_PROBES = 3

#: the seed whose per-cell outputs ``golden.json`` records
GOLDEN_SEED = 1

OUT_DIR = os.path.join(ROOT, ".perfbench")


class Rep(NamedTuple):
    """One repetition of a workload's sweep."""

    plan: object
    result: object
    sweep_s: float
    cpu_s: float
    spans: Optional[List[Span]]


def load_spec() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _cpu_seconds() -> float:
    """CPU time of this process plus every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Highest RSS of this process or of any reaped child (Linux reports
    ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def time_setup(name: str, seed: int, scale: str, probes: int) -> List[float]:
    """Wall seconds from launching a fresh interpreter until it has
    imported ``repro`` and built the workload's engine and plan."""
    command = [
        sys.executable,
        os.path.join(HERE, "workloads.py"),
        name,
        str(seed),
        scale,
    ]
    samples = []
    for attempt in range(probes + 1):
        start = time.perf_counter()
        completed = subprocess.run(
            command,
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=120,
            check=False,
        )
        elapsed = time.perf_counter() - start
        if completed.returncode != 0:
            raise RuntimeError(
                "set-up probe failed: " + completed.stderr.decode()[-2000:]
            )
        if attempt:
            samples.append(elapsed)
    return samples


def run_sweep(name: str, seed: int, scale: str, traced: bool) -> Rep:
    """One cold sweep on a fresh engine, optionally traced."""
    engine, plan = workloads.build(name, seed, scale)
    tracer = Tracer() if traced else None
    with tracer or contextlib.nullcontext():
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        result = engine.run(plan)
        sweep_s = time.perf_counter() - start
        cpu_s = _cpu_seconds() - cpu0
    return Rep(plan, result, sweep_s, cpu_s, tracer.spans if tracer else None)


def repeat(
    name: str, seed: int, scale: str, seconds: float, trace: bool
) -> List[Rep]:
    """Repetitions until the next one would overrun ``seconds``; with
    ``trace`` they alternate untraced / traced, starting untraced."""
    pattern = (False, True) if trace else (False,)
    reps: List[Rep] = []
    lengths: List[float] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        traced = pattern[len(reps) % len(pattern)]
        reps.append(run_sweep(name, seed, scale, traced))
        lengths.append(time.perf_counter() - began)
        if len(reps) < len(pattern):
            continue
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(lengths) > seconds:
            return reps


def check_outputs(
    name: str, seed: int, scale: str, reps: Sequence[Rep]
) -> List[str]:
    """Every output check of a run; returns the problems found."""
    problems: List[str] = []
    for index, rep in enumerate(reps):
        problems += [
            f"rep {index}: {p}"
            for p in workloads.check_shape(name, rep.plan, rep.result)
        ]
    untraced = [r for r in reps if r.spans is None]
    reference = workloads.result_fingerprint(untraced[0].result)
    for index, rep in enumerate(reps):
        if workloads.result_fingerprint(rep.result) != reference:
            kind = "traced" if rep.spans is not None else "untraced"
            problems.append(f"rep {index} ({kind}) differs from rep 0")
        if rep.spans is not None:
            problems += [
                f"rep {index}: {p}" for p in trace_consistency(rep)
            ]
    if seed == GOLDEN_SEED and scale == "bench":
        with open(os.path.join(HERE, "golden.json")) as handle:
            golden = json.load(handle).get(name)
        observed = workloads.cell_outcomes(untraced[0].result)
        if golden != observed:
            problems.append(
                f"seed {seed} outputs {observed} != recorded {golden}"
            )
    return problems


def trace_consistency(rep: Rep) -> List[str]:
    """The tracer's counts must equal the engine's own stage counters."""
    stats = rep.result.stats
    counts = layers.round_cache_counts(rep.spans)
    federate = stats.get("federate", {})
    hits = federate.get("hits", 0)
    problems = []
    if (
        counts["lookups"] != hits + federate.get("misses", 0)
        or counts["hits"] != hits
    ):
        problems.append(f"traced round cache {counts} != counters {federate}")
    pretrain = [s for s in rep.spans if s.name == "engine.pretrain"]
    if len(pretrain) != sum(stats.get("pretrain", {}).values()):
        problems.append(
            f"{len(pretrain)} traced pre-trains != counters "
            f"{stats.get('pretrain')}"
        )
    return problems


def lower_quartile(values) -> float:
    """The value a quarter of the way up the sorted ``values``.

    Run-level timings use it instead of the median: co-tenants on a
    shared host slow whole 10-25 s stretches of a run by up to 60%,
    which drags a median whenever such a stretch covers half the
    repetitions; the lower quartile moves only when it covers three
    quarters of them.  Slowdowns the program causes shift every
    repetition, so they move this statistic as much as the median.
    """
    values = list(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def cell_counts(reps: Sequence[Rep]) -> Tuple[int, int]:
    """``(attempted, failed)`` cells over every repetition."""
    failed = sum(len(r.result.failures) for r in reps)
    return sum(len(r.result.cells) for r in reps) + failed, failed


def compute_metrics(
    name: str,
    reps: Sequence[Rep],
    setup: Sequence[float],
    peak_rss_mb: float,
) -> Dict[str, float]:
    """Every metric of the run, end-to-end and (when traced) per-layer."""
    untraced = [r for r in reps if r.spans is None]
    traced = [r for r in reps if r.spans is not None]
    attempted, failed = cell_counts(reps)
    metrics: Dict[str, float] = {
        "sweep_s": lower_quartile(r.sweep_s for r in untraced),
        "cpu_s": lower_quartile(r.cpu_s for r in untraced),
        "setup_s": lower_quartile(setup),
        "peak_rss_mb": peak_rss_mb,
        "cell_fail_ratio": failed / attempted,
    }
    metrics.update(layers.error_metrics(untraced[0].result))
    if traced:
        workers = workloads.WORKLOADS[name].workers
        rows = [
            layers.traced_metrics(r.spans, r.result, workers, r.sweep_s)
            for r in traced
        ]
        for key in rows[0]:
            metrics[key] = lower_quartile(row[key] for row in rows)
        metrics["trace.overhead_ratio"] = (
            lower_quartile(r.sweep_s for r in traced) / metrics["sweep_s"]
            - 1.0
        )
    return metrics


def write_record(
    path_stem: str, record: Dict, spans: Optional[List[Span]]
) -> None:
    """Persist the run's record (and the last traced sweep's spans)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, path_stem + ".json"), "w") as handle:
        json.dump(record, handle, indent=1, default=str)
        handle.write("\n")
    if spans is not None:
        path = os.path.join(OUT_DIR, path_stem + ".spans.jsonl")
        with open(path, "w") as handle:
            for span in spans:
                handle.write(json.dumps(span._asdict(), default=str) + "\n")


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(workloads.WORKLOADS)
    )
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=workloads.SCALES,
        default="bench",
        help="'smoke' shrinks every workload to seconds (the benchmark's "
        "own tests)",
    )
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    try:
        workloads.ensure_importable()
        spec = load_spec()
    except (FileNotFoundError, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    reps = repeat(
        args.workload, args.seed, args.scale, args.seconds, bool(args.trace)
    )
    # read before the set-up probes, which are children too
    peak_rss_mb = _peak_rss_mb()
    setup = time_setup(args.workload, args.seed, args.scale, SETUP_PROBES)
    problems = check_outputs(args.workload, args.seed, args.scale, reps)
    metrics = compute_metrics(args.workload, reps, setup, peak_rss_mb)

    units = {
        m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]
    }
    emitted = {}
    for entry in spec["per_layer" if args.trace else "end_to_end"]:
        value = metrics.get(entry["name"])
        if value is None or not math.isfinite(value):
            problems.append(f"metric {entry['name']} not measured")
            continue
        emitted[entry["name"]] = {"value": value, "unit": entry["unit"]}

    workload = workloads.WORKLOADS[args.workload]
    traced = [r for r in reps if r.spans is not None]
    record = {
        "environment": {
            **environment(ROOT),
            "workload": args.workload,
            "seed": args.seed,
            "scale": args.scale,
            "executor": workload.executor,
            "jobs": workload.jobs,
            "preset": reps[0].plan.preset.to_dict(),
        },
        "trace": args.trace,
        "setup_s": setup,
        "reps": [
            {"traced": r.spans is not None, "sweep_s": r.sweep_s,
             "cpu_s": r.cpu_s}
            for r in reps
        ],
        "cells": workloads.cell_outcomes(reps[0].result),
        "metrics": metrics,
        "problems": problems,
    }
    write_record(
        f"{args.workload}-seed{args.seed}-trace{args.trace}",
        record,
        traced[-1].spans if traced else None,
    )

    attempted, failed = cell_counts(reps)
    print(
        f"perfbench {args.workload} seed={args.seed} scale={args.scale}: "
        f"{len(reps) - len(traced)} untraced + {len(traced)} traced sweeps, "
        f"{attempted} cells"
    )
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for key in sorted(metrics):
        print(f"  {key:28s} {metrics[key]:>14.6g} {units.get(key, '')}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": emitted,
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    # one BLAS thread per process unless the caller chose otherwise: on
    # a small shared host two threads per process made repetition times
    # swing with outside load
    for _name in THREAD_ENV:
        os.environ.setdefault(_name, "1")
    sys.exit(main())
