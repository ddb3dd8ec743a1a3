"""Per-layer metrics of a traced run.

Times and counts are means per traced op; shares and rates are ratios of
sums over the traced ops.  Simulated device seconds (``gpu.sim_*``,
``runtime.sim_makespan_s``, ``feti.sim_apply_s``) come from the
program's own counters and are never mixed with host time.
"""

from __future__ import annotations

import statistics
import threading
from collections import defaultdict

from harness import Loop
from spans import SpanRecorder, outermost_seconds, root_seconds, self_seconds

QUEUE_SPANS = ("queue.submit", "queue.claim", "queue.heartbeat", "queue.complete")
PROBE_METRICS = ("feti.block_probe_solves", "feti.block_unconverged",
                 "feti.block2d_probe_solves", "feti.block2d_failed")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def warm_cold(records) -> tuple[float, float]:
    """Median wall of warm and of cold ops (0.0 where there are none)."""
    warm = [r.wall for r in records if r.tags.get("cold") is False]
    cold = [r.wall for r in records if r.tags.get("cold") is True]
    return (statistics.median(warm) if warm else 0.0,
            statistics.median(cold) if cold else 0.0)


def span_table(loop: Loop, rec: SpanRecorder) -> tuple[dict, dict, dict, float]:
    """Per-name calls, inclusive and self seconds summed over traced ops,
    plus the summed unattributed seconds (op wall no root span covers)."""
    by_op = defaultdict(list)
    for index, span in enumerate(rec.spans):
        by_op[span.op].append((index, span))
    main = threading.get_ident()
    calls, incl, own = defaultdict(int), defaultdict(float), defaultdict(float)
    unattributed = 0.0
    for r in loop.records:
        if not r.traced:
            continue
        op_spans = by_op[r.index]
        for _, span in op_spans:
            calls[span.name] += 1
        for name, sec in outermost_seconds(op_spans, rec.spans).items():
            incl[name] += sec
        for name, sec in self_seconds(op_spans).items():
            own[name] += sec
        unattributed += r.wall - root_seconds(op_spans, main)
    return calls, incl, own, unattributed


def layer_metrics(
    loop: Loop, rec: SpanRecorder, ref_samples: list[float], probe: dict[str, int]
) -> dict[str, float]:
    """Every ``per_layer`` metric of ``BENCHMARK.json``, by name.  *probe*
    holds the known-defect probe's counts; those it lacks read 0."""
    traced = [r for r in loop.records if r.traced]
    untraced = [r for r in loop.records if not r.traced]
    n = len(traced)
    wall = sum(r.wall for r in traced)
    calls, incl, _, unattributed = span_table(loop, rec)
    ctr: dict[str, float] = defaultdict(float)
    for r in traced:
        for name, value in rec.counters[r.index].items():
            ctr[name] += value
        for name, value in r.tags.items():
            if name.startswith("store_"):
                ctr[name] += value

    def per_op(name: str) -> float:
        return incl[name] / n

    warm_p50, cold_p50 = warm_cold(untraced)
    return {
        "fem.build_s": per_op("fem.build"),
        "dd.decompose_s": per_op("dd.decompose"),
        "part.mesh_s": per_op("part.mesh"),
        "sparse.relabel_s": per_op("sparse.relabel"),
        "sparse.relabel_calls": calls["sparse.relabel"] / n,
        "sparse.factor_s": per_op("sparse.factor"),
        "sparse.factor_calls": calls["sparse.factor"] / n,
        "sparse.prep_share": _ratio(incl["sparse.relabel"] + incl["sparse.factor"], wall),
        "batch.analyze_s": per_op("batch.analyze"),
        "batch.execute_s": (incl["batch.assemble"] - incl["batch.analyze"]) / n,
        "batch.groups": ctr["batch.groups"] / n,
        "batch.members_per_group": _ratio(ctr["batch.members"], ctr["batch.groups"]),
        "batch.cache_hit_rate": _ratio(
            ctr["batch.cache_hits"], ctr["batch.cache_hits"] + ctr["batch.cache_misses"]
        ),
        "batch.exec_fallbacks": ctr["batch.exec_fallbacks"] / n,
        "gpu.launches": ctr["gpu.launches"] / n,
        "gpu.sim_assembly_s": ctr["gpu.sim_assembly_s"] / n,
        "gpu.sim_factorization_s": ctr["gpu.sim_factorization_s"] / n,
        "runtime.schedule_s": per_op("runtime.schedule"),
        "runtime.sim_makespan_s": ctr["runtime.sim_makespan_s"] / n,
        "feti.preprocess_s": per_op("feti.preprocess"),
        "feti.iterate_s": (incl["feti.block_pcpg"] + incl["feti.pcpg"]) / n,
        "feti.apply_s": per_op("feti.apply"),
        "feti.apply_calls": calls["feti.apply"] / n,
        "feti.precond_s": per_op("feti.precond"),
        "feti.other_s": (
            incl["feti.solve_block"] - incl["feti.block_pcpg"] - incl["feti.pcpg"]
        ) / n,
        "feti.apply_share": _ratio(incl["feti.apply"], wall),
        "feti.iterations": ctr["feti.iterations"] / n,
        "feti.launches_per_iter": ctr["feti.launches_per_iter"] / n,
        "feti.sim_apply_s": ctr["feti.sim_apply_s"] / n,
        **{name: probe.get(name, 0) for name in PROBE_METRICS},
        "store.get_s": per_op("store.get"),
        "store.get_calls": calls["store.get"] / n,
        "store.put_s": per_op("store.put"),
        "store.put_calls": calls["store.put"] / n,
        "store.put_bytes": ctr["store.put_bytes"] / n,
        "store.hit_rate": _ratio(
            ctr["store_hits"], ctr["store_hits"] + ctr["store_misses"]
        ),
        "store.retries": ctr["store_retries"] / n,
        "store.queue_s": sum(incl[name] for name in QUEUE_SPANS) / n,
        "store.worker_overhead_s": (incl["worker.run"] - incl["worker.job"]) / n,
        "store.warm_op_p50_s": warm_p50,
        "store.cold_op_p50_s": cold_p50,
        "store.warm_cold_ratio": _ratio(warm_p50, cold_p50),
        "host.ref_s": statistics.median(ref_samples),
        "obs.tracing_overhead": (
            statistics.median(r.ref for r in traced)
            / statistics.median(r.ref for r in untraced) - 1.0
        ),
        "obs.unattributed_share": _ratio(unattributed, wall),
    }
