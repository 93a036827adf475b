"""Per-layer metrics of one traced sweep, from its spans and result.

Every function here is pure arithmetic on :class:`~perfbench.tracing.Span`
lists and :class:`~repro.experiments.engine.SweepResult` fields, so the
tests can feed it synthetic spans.  ``LAYERS.md`` maps each metric to
the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import statistics
from typing import Dict, Sequence

from perfbench.tracing import (
    Span,
    outermost,
    self_times,
    stage_busy,
    total_time,
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def idle_ratio(
    cell_seconds: Sequence[float], workers: int, sweep_s: float
) -> float:
    """1 − Σ cell time / (workers × sweep wall time): the share of the
    executor's capacity no cell used."""
    return 1.0 - _ratio(sum(cell_seconds), workers * sweep_s)


def round_cache_counts(spans: Sequence[Span]) -> Dict[str, int]:
    """Round-cache lookups, hits and stores.

    The serial client engine probes through
    ``ArtifactCache.get_client_update`` (a miss computes and stores);
    the batched engine peeks first and stores each trained miss.
    """
    lookups = hits = stores = 0
    for span in spans:
        if span.name == "artifacts.cache.get_update":
            lookups += 1
            hits += bool(span.tag)
            stores += not span.tag
        elif span.name == "artifacts.cache.peek":
            lookups += 1
            hits += bool(span.tag)
        elif span.name == "artifacts.cache.store":
            stores += 1
    return {"lookups": lookups, "hits": hits, "stores": stores}


def _outside(spans: Sequence[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return False
        parent = spans[parent].parent
    return True


def span_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """The per-layer metrics the trace alone determines."""
    own = self_times(spans)

    def self_total(name: str) -> float:
        return sum(t for span, t in zip(spans, own) if span.name == name)

    def calls(name: str) -> int:
        return len(outermost(spans, name))

    pretrain = [s for s in spans if s.name == "engine.pretrain"]
    rounds = [s.duration for s in spans if s.name == "fl.round"]
    counts = round_cache_counts(spans)
    encodes = [
        i for i, s in enumerate(spans) if s.name == "artifacts.encode"
    ]
    # the serial engine stores inside get_update, where the store's
    # cost is its encode call
    store_s = total_time(spans, "artifacts.round.store") + sum(
        spans[i].duration
        for i in encodes
        if _outside(spans, i, "artifacts.round.store")
    )
    return {
        "data.protocol_s": total_time(spans, "data.protocol"),
        "engine.pretrain_s": sum(s.duration for s in pretrain),
        "engine.pretrain_cpu_s": sum(s.cpu or 0.0 for s in pretrain),
        "engine.pretrain_hit_ratio": _ratio(
            sum(bool(s.tag) for s in pretrain), len(pretrain)
        ),
        "engine.federate_s": total_time(spans, "engine.federate"),
        "metrics.evaluate_s": total_time(spans, "metrics.evaluate"),
        "fl.round_s.p50": statistics.median(rounds) if rounds else 0.0,
        "fl.rounds": len(rounds),
        "fl.client.update_s": total_time(spans, "fl.client.update"),
        "fl.client.updates": calls("fl.client.update"),
        "fl.cohort.collect_s": total_time(spans, "fl.cohort.collect"),
        "fl.aggregate_s": total_time(spans, "fl.aggregate"),
        "fl.build_federation_s": total_time(spans, "fl.build_federation"),
        "core.saliency.aggregate_s": total_time(
            spans, "core.saliency.aggregate"
        ),
        "baselines.fedls.loo_s": total_time(spans, "baselines.fedls.loo"),
        "attacks.poison_s": total_time(spans, "attacks.poison"),
        "attacks.poison_calls": calls("attacks.poison"),
        "nn.optim.step_s": total_time(spans, "nn.optim.step"),
        "nn.optim.steps": calls("nn.optim.step"),
        "nn.forward_s": self_total("nn.forward"),
        "nn.backward_s": self_total("nn.backward"),
        "nn.loss_s": self_total("nn.loss"),
        "artifacts.round.lookups": counts["lookups"],
        "artifacts.round.hits": counts["hits"],
        "artifacts.round.hit_ratio": _ratio(counts["hits"], counts["lookups"]),
        "artifacts.decode_s": total_time(spans, "artifacts.decode"),
        "artifacts.round.stores": counts["stores"],
        "artifacts.round.store_s": store_s,
        "artifacts.encode_s": total_time(spans, "artifacts.encode"),
        "artifacts.encode_bytes": sum(spans[i].tag or 0 for i in encodes),
        "artifacts.round.read_ratio": _ratio(counts["hits"], counts["stores"]),
    }


def sweep_metrics(result, workers: int, sweep_s: float) -> Dict[str, float]:
    """Scheduler metrics from a sweep's own result record."""
    durations = [cell.duration_s for cell in result.cells]
    return {
        "scheduler.cell_s.p50": (
            statistics.median(durations) if durations else 0.0
        ),
        "scheduler.cell_s.max": max(durations, default=0.0),
        "scheduler.idle_ratio": idle_ratio(durations, workers, sweep_s),
        "scheduler.retried": result.retried,
        "scheduler.timed_out": result.timed_out,
    }


def error_metrics(result) -> Dict[str, float]:
    """Pooled mean and largest worst-case localization error (metres)."""
    summaries = [cell.error_summary for cell in result.cells]
    samples = sum(s.count for s in summaries)
    return {
        "mean_error_m": _ratio(
            sum(s.mean * s.count for s in summaries), samples
        ),
        "worst_error_m": max((s.worst for s in summaries), default=0.0),
    }


def traced_metrics(
    spans: Sequence[Span], result, workers: int, sweep_s: float
) -> Dict[str, float]:
    """Every per-layer metric of one traced sweep except the ones that
    compare it with untraced sweeps."""
    metrics = span_metrics(spans)
    metrics.update(sweep_metrics(result, workers, sweep_s))
    metrics["trace.stage_coverage"] = _ratio(
        stage_busy(spans), workers * sweep_s
    )
    return metrics
