"""Tests for the benchmark's own code: the metric declarations, the span
arithmetic, and a smoke-scale run of every workload."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import layers, run, workloads
from perfbench.tracing import (
    Span,
    Tracer,
    outermost,
    self_times,
    stage_busy,
    total_time,
    union_length,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


def span(name, start, end, parent=-1, pid=1, tag=None, cpu=None):
    return Span(name, start, end, parent, "cell", pid, cpu, tag)


# -- declarations ----------------------------------------------------------


def test_metric_names_and_units_are_valid(spec):
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_time_metrics_are_in_seconds(spec):
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if metric["name"].endswith("_s") or "_s." in metric["name"]:
            assert metric["unit"] == "s", metric


def test_declared_workloads_are_the_implemented_ones(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"])
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]


# -- span arithmetic -------------------------------------------------------


def test_union_length_merges_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 10)], 2, 5) == 3
    assert union_length([(0, 1)], 2, 5) == 0
    assert union_length([(6, 8), (0, 3)], 2, 5) == 1
    assert union_length([]) == 0


def test_self_time_subtracts_only_direct_child_coverage():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 3.0, 6.0, parent=0),  # overlaps a: counted once
        span("grandchild", 1.5, 2.5, parent=1),
        span("late", 9.0, 12.0, parent=0),  # clipped at the parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)


def test_nested_same_name_spans_count_once():
    spans = [
        span("fl.aggregate", 0.0, 4.0),
        span("fl.aggregate", 1.0, 3.0, parent=0),  # an override's super()
        span("other", 5.0, 6.0),
        span("fl.aggregate", 5.2, 5.7, parent=2),
    ]
    assert outermost(spans, "fl.aggregate") == [0, 3]
    assert total_time(spans, "fl.aggregate") == pytest.approx(4.5)


def test_stage_busy_sums_processes():
    spans = [
        span("engine.pretrain", 0.0, 2.0, pid=1),
        span("engine.federate", 1.0, 3.0, pid=1),
        span("engine.pretrain", 0.0, 2.0, pid=2),
        span("nn.forward", 0.0, 9.0, pid=2),
    ]
    assert stage_busy(spans) == pytest.approx(5.0)


def test_idle_ratio():
    assert layers.idle_ratio([2.0, 3.0], 2, 4.0) == pytest.approx(0.375)
    assert layers.idle_ratio([4.0], 1, 4.0) == pytest.approx(0.0)


def test_round_cache_counts_cover_both_client_engines():
    spans = [
        span("artifacts.cache.get_update", 0, 1, tag=False),
        span("artifacts.cache.get_update", 1, 2, tag=True),
        span("artifacts.cache.peek", 2, 3, tag=None),
        span("artifacts.cache.peek", 3, 4, tag=True),
        span("artifacts.cache.store", 4, 5),
    ]
    assert layers.round_cache_counts(spans) == {
        "lookups": 4,
        "hits": 2,
        "stores": 2,
    }


def test_store_time_counts_serial_engine_encodes():
    spans = [
        span("artifacts.round.store", 0.0, 2.0),
        span("artifacts.encode", 0.5, 1.5, parent=0, tag=10),
        span("artifacts.round.get_update", 3.0, 5.0),
        span("artifacts.encode", 3.5, 4.0, parent=2, tag=5),
    ]
    metrics = layers.span_metrics(spans)
    assert metrics["artifacts.round.store_s"] == pytest.approx(2.5)
    assert metrics["artifacts.encode_s"] == pytest.approx(1.5)
    assert metrics["artifacts.encode_bytes"] == 15


# -- tracer ----------------------------------------------------------------


def test_tracer_restores_every_binding():
    from repro.experiments import engine
    from repro.nn.layers import Linear

    protocol, forward = engine.paper_protocol, Linear.forward
    with Tracer():
        assert engine.paper_protocol is not protocol
        assert Linear.forward is not forward
    assert engine.paper_protocol is protocol
    assert Linear.forward is forward


# -- smoke runs ------------------------------------------------------------


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric(
    name, spec, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    code = run.main(
        ["--workload", name, "--seed", "5", "--seconds", "0",
         "--trace", "1", "--scale", "smoke"]
    )
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert code == 0, out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    record = json.loads(
        (tmp_path / f"{name}-seed5-trace1.json").read_text()
    )
    for metric in spec["end_to_end"]:
        assert record["metrics"][metric["name"]] > 0, metric
    assert (tmp_path / f"{name}-seed5-trace1.spans.jsonl").stat().st_size
    if workloads.WORKLOADS[name].executor == "serial":
        assert result["metrics"]["trace.stage_coverage"]["value"] >= 0.9


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        run.HERE,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eps-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 2
    assert completed.stdout == ""


def test_failed_check_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(
        workloads, "check_shape", lambda name, plan, result: ["injected"]
    )
    code = run.main(
        ["--workload", "fedls-wide", "--seed", "5", "--seconds", "0",
         "--trace", "0", "--scale", "smoke"]
    )
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 1
    assert json.loads(out[-1])["correct"] is False
    assert "CHECK FAILED: rep 0: injected" in out
