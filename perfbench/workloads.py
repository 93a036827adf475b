"""The benchmark's workloads: sweep plans on the public engine path.

Each workload is a :class:`~repro.experiments.engine.SweepPlan` plus the
:class:`~repro.experiments.engine.SweepEngine` knobs it runs under.  The
workload seed becomes the preset seed, so one seed always yields the
same buildings, surveys, models and attacks.  ``LAYERS.md`` next to this
file gives the reason for each workload.

Run as a script, ``python3 perfbench/workloads.py <workload> <seed>
<scale>`` builds one workload's engine and plan in a fresh interpreter
and exits: the set-up probe that ``setup_s`` times.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PAPER_BUILDINGS = (
    "building1",
    "building2",
    "building3",
    "building4",
    "building5",
)

#: run scales: ``bench`` is what the benchmark measures, ``smoke`` the
#: seconds-long shrink its own tests run
SCALES = ("bench", "smoke")

#: ``smoke``-scale preset overrides shared by every workload
_SMOKE = {
    "pretrain_epochs": 4,
    "num_rounds": 1,
    "client_epochs": 1,
    "malicious_epochs": 2,
}


def ensure_importable() -> None:
    """Put the checkout's ``src`` directory on ``sys.path``.

    Raises:
        FileNotFoundError: when the checkout holds no ``src/repro``
            package (the benchmark files were copied without the code
            they measure).
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise FileNotFoundError(
            f"no repro package under {src}: run the benchmark from a "
            "checkout of the repository"
        )
    if src not in sys.path:
        sys.path.insert(0, src)


@dataclass(frozen=True)
class Workload:
    """One named workload.

    Attributes:
        name: Workload name (``--workload``).
        base_preset: Registered preset the workload starts from.
        overrides: ``bench``-scale preset field overrides.
        smoke: Further overrides at the ``smoke`` scale.
        executor / jobs: Sweep executor knobs.
        cells: ``(preset, scale) -> cells`` of the plan.
    """

    name: str
    base_preset: str
    overrides: Dict[str, object]
    smoke: Dict[str, object]
    executor: str
    jobs: Optional[int]
    cells: Callable[[object, str], Tuple[object, ...]]

    @property
    def workers(self) -> int:
        """Cells that can run at once (the idle-ratio denominator)."""
        return self.jobs if self.executor == "process" and self.jobs else 1


def _paper_cells(preset, scale: str):
    from repro.experiments.engine import scenario

    return tuple(
        scenario("safeloc", attack="fgsm", epsilon=0.5, building=building)
        for building in preset.buildings
    )


def _fedls_wide(preset, scale: str):
    from repro.experiments.engine import scenario

    clients, attackers = (24, 3) if scale == "bench" else (16, 2)
    return (
        scenario(
            "fedls",
            attack="label_flip",
            epsilon=1.0,
            num_clients=clients,
            num_malicious=attackers,
        ),
    )


def _eps_grid(preset, scale: str):
    from repro.experiments.engine import scenario

    grid = (0.1, 0.2, 0.5, 1.0) if scale == "bench" else (0.2, 1.0)
    return tuple(
        scenario("safeloc", attack=attack, epsilon=epsilon)
        for attack in ("fgsm", "label_flip")
        for epsilon in grid
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="paper-cells",
            base_preset="fast",
            overrides={
                "buildings": PAPER_BUILDINGS,
                "pretrain_epochs": 120,
                "num_rounds": 2,
                "client_engine": "serial",
            },
            smoke={"buildings": PAPER_BUILDINGS[:2]},
            executor="serial",
            jobs=None,
            cells=_paper_cells,
        ),
        Workload(
            name="fedls-wide",
            base_preset="tiny",
            overrides={
                "pretrain_epochs": 40,
                "num_rounds": 1,
                "client_engine": "batched",
            },
            smoke={},
            executor="serial",
            jobs=None,
            cells=_fedls_wide,
        ),
        Workload(
            name="eps-grid",
            base_preset="fast",
            overrides={"pretrain_epochs": 120, "num_rounds": 2},
            smoke={},
            executor="process",
            jobs=2,
            cells=_eps_grid,
        ),
    )
}


def build(name: str, seed: int, scale: str = "bench"):
    """The ``(engine, plan)`` pair of one workload at one seed.

    Raises:
        KeyError: for an unknown workload or scale.
    """
    if name not in WORKLOADS:
        raise KeyError(
            f"unknown workload {name!r}; choices: {list(WORKLOADS)}"
        )
    if scale not in SCALES:
        raise KeyError(f"unknown scale {scale!r}; choices: {list(SCALES)}")
    from repro.experiments.engine import SweepEngine, SweepPlan
    from repro.experiments.scenarios import get_preset

    workload = WORKLOADS[name]
    fields = dict(workload.overrides)
    if scale == "smoke":
        fields.update(_SMOKE)
        fields.update(workload.smoke)
    preset = replace(
        get_preset(workload.base_preset, seed),
        name=f"{name}.{scale}",
        **fields,
    )
    plan = SweepPlan(
        name=name, preset=preset, cells=workload.cells(preset, scale)
    )
    engine = SweepEngine(
        jobs=workload.jobs, executor=workload.executor, on_error="continue"
    )
    return engine, plan


def cell_outcomes(result) -> List[List[object]]:
    """Per-cell ``[mean_m, worst_m, dropped_per_round]`` in plan order."""
    return [
        [
            cell.error_summary.mean,
            cell.error_summary.worst,
            list(cell.dropped_per_round),
        ]
        for cell in result.cells
    ]


def result_fingerprint(result) -> Tuple:
    """Every number a sweep returns except timings, for bit-identity
    checks between repetitions and between traced and untraced runs."""
    return tuple(
        (
            cell.building,
            tuple(sorted(vars(cell.error_summary).items())),
            tuple(cell.flagged_per_round),
            tuple(cell.dropped_per_round),
            cell.parameter_count,
            tuple(sorted(cell.metrics.items())),
        )
        for cell in result.cells
    )


def check_shape(name: str, plan, result) -> List[str]:
    """Problems with one sweep's outputs; empty when they are correct.

    Every cell must return with finite errors, and the stage counters
    must match the workload's sharing shape.
    """
    problems: List[str] = []
    if result.failures:
        problems.append(f"{len(result.failures)} cell(s) failed")
    if len(result.cells) != len(plan.cells):
        problems.append(
            f"{len(result.cells)} of {len(plan.cells)} cells returned"
        )
    for cell in result.cells:
        summary = cell.error_summary
        if summary is None or not (
            math.isfinite(summary.mean) and math.isfinite(summary.worst)
        ):
            problems.append(f"cell on {cell.building}: non-finite errors")
    stats = result.stats
    count = len(plan.cells)

    def counter(stage: str, kind: str) -> int:
        return stats.get(stage, {}).get(kind, 0)

    if counter("cells", "misses") != count:
        problems.append(f"cells counter {stats.get('cells')} != {count}")
    if name == "paper-cells":
        for stage in ("data", "pretrain"):
            if counter(stage, "misses") != count or counter(stage, "hits"):
                problems.append(
                    f"{stage} counter {stats.get(stage)}: expected "
                    f"{count} misses and no hits"
                )
        if counter("federate", "hits"):
            problems.append(f"round cache hit: {stats.get('federate')}")
    elif name == "eps-grid":
        if not counter("federate", "hits"):
            problems.append(f"no round cache hit: {stats.get('federate')}")
    elif name == "fedls-wide":
        if not any(sum(cell.dropped_per_round) for cell in result.cells):
            problems.append("FEDLS dropped no update in any round")
    return problems


if __name__ == "__main__":
    ensure_importable()
    build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
