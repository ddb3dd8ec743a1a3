"""Closed-loop op runner with failure accounting and drift normalisation.

One caller: the next op starts when the previous one has returned and
been checked.  A reference-kernel sample is taken between consecutive
ops, so every op is flanked by one sample before and one after it.
"""

from __future__ import annotations

import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from refkernel import ReferenceKernel
from spans import SpanRecorder, install

#: Fewest timed ops per run, so that a tail percentile with ten ops
#: beyond it always exists.
MIN_OPS = 11
#: Consecutive ops traced (and untraced) in turn in a traced run.
TRACE_BLOCK = 4


@dataclass
class OpRecord:
    index: int
    wall: float
    cpu: float
    error: str | None
    traced: bool = False
    ref: float = 0.0  #: wall / mean of the flanking reference samples
    tags: dict = field(default_factory=dict)


def run_op(workload, index: int) -> OpRecord:
    """Run and check one op; an exception or a failed check is an error."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        out = workload.op(index)
    except Exception:
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        traceback.print_exc(file=sys.stderr)
        return OpRecord(index, wall, cpu, f"op {index} raised")
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    error = workload.check(index, out)
    if error is not None:
        print(f"op {index} failed: {error}", file=sys.stderr)
    return OpRecord(index, wall, cpu, error, tags=workload.tags(index, out))


@dataclass
class Loop:
    records: list[OpRecord]
    wall: float  #: whole loop, reference samples included
    ref_seconds: float  #: time spent in reference samples inside the loop


def measure(
    workload,
    seconds: float,
    ref: ReferenceKernel,
    min_ops: int = MIN_OPS,
    recorder: SpanRecorder | None = None,
) -> Loop:
    """Run ops until *seconds* have passed and at least *min_ops* ran.

    With a *recorder*, ops alternate in blocks of :data:`TRACE_BLOCK`
    between traced (wrappers installed) and untraced.
    """
    records: list[OpRecord] = []
    t_start = time.perf_counter()
    before = ref.sample()
    ref_seconds = time.perf_counter() - t_start
    while time.perf_counter() - t_start < seconds or len(records) < min_ops:
        index = 1 + len(records)  # op 0 is the set-up's warm-up
        traced = recorder is not None and (len(records) // TRACE_BLOCK) % 2 == 1
        if traced:
            recorder.op = index
            uninstall = install(recorder)
        try:
            record = run_op(workload, index)
        finally:
            if traced:
                uninstall()
                recorder.op = None
        t_ref = time.perf_counter()
        after = ref.sample()
        ref_seconds += time.perf_counter() - t_ref
        record.traced = traced
        record.ref = record.wall / (0.5 * (before + after))
        records.append(record)
        before = after
    return Loop(records, time.perf_counter() - t_start, ref_seconds)


def tail(values: list[float]) -> tuple[float, float]:
    """``(value, percentile)`` at the highest percentile with ten ops
    beyond it (``MIN_OPS`` guarantees there are at least eleven)."""
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(loop: Loop, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    """The bounded end-to-end metrics.  Op times are in reference-kernel
    units, which cancel machine drift."""
    ratios = [r.ref for r in loop.records]
    return {
        "setup_s": setup_s,
        "op_p50_ref": statistics.median(ratios),
        "op_tail_ref": tail(ratios)[0],
        "peak_rss_mb": peak_rss_mb,
    }


def raw_walls(loop: Loop) -> dict[str, float]:
    """Raw host times of the same ops (``op_p50_s``, ``op_tail_s`` in s,
    ``ops_per_s`` in 1/s, ``cpu_per_op_s`` in s): printed and recorded,
    not bounded, because they move with the machine's drift."""
    walls = [r.wall for r in loop.records]
    n = len(walls)
    return {
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail(walls)[0],
        "ops_per_s": n / (loop.wall - loop.ref_seconds),
        "cpu_per_op_s": sum(r.cpu for r in loop.records) / n,
    }
