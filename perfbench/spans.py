"""Benchmark-side spans around calls into each layer's public functions.

:func:`install` wraps the public entry points of every layer where the
program looks them up (module attribute, class attribute or handler
table), so nothing under ``src/`` changes; the returned callable puts the
originals back.  Each span records its name, start, end, parent and the
op it belongs to.  Post-call hooks read the counters the program returns
(``BatchStats``, ``SolveStats``, pipeline makespans, store puts) into the
current op's counter table.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span list plus per-op counters; ``op`` tags new spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[int | None, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.op: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, name: str, value: float) -> None:
        self.counters[self.op][name] += value

    def wrap(self, name: str, fn: Callable, post: Callable | None = None) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, recorder.op,
                        threading.get_ident())
            with recorder._lock:
                index = len(recorder.spans)
                recorder.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if post is not None:
                post(recorder, args, kwargs, result)
            return result

        return wrapper


# -- post-call hooks: counts from what the program returns ------------------


def _batch_stats(rec: SpanRecorder, args, kwargs, result) -> None:
    st = result.stats
    rec.add("batch.groups", st.n_groups)
    rec.add("batch.members", st.n_subdomains)
    rec.add("batch.cache_hits", st.hits)
    rec.add("batch.cache_misses", st.misses)
    rec.add("batch.exec_fallbacks", st.n_exec_fallbacks)
    rec.add("gpu.launches", st.kernel_launches)
    rec.add("gpu.sim_assembly_s", st.assembly_seconds)
    rec.add("gpu.sim_factorization_s", st.factorization_seconds)


def _makespan(rec: SpanRecorder, args, kwargs, result) -> None:
    rec.add("runtime.sim_makespan_s", result.makespan)


def _solve_stats(rec: SpanRecorder, args, kwargs, result) -> None:
    st = result.stats
    rec.add("feti.iterations", st.iterations)
    rec.add("feti.launches_per_iter", st.launches_per_iteration)
    rec.add("feti.sim_apply_s", st.apply_seconds)


def _put_bytes(rec: SpanRecorder, args, kwargs, result) -> None:
    if result:
        store, key, kind = args[:3]
        rec.add("store.put_bytes", store.path_for(key, kind).stat().st_size)


def install(rec: SpanRecorder) -> Callable[[], None]:
    """Wrap every traced entry point; returns the function that unwraps."""
    from repro.batch import BatchAssembler
    from repro.feti import FetiSolver
    from repro.feti.operator import GroupedDualOperator
    from repro.feti.preconditioner import StackedPreconditioner
    from repro.store import ArtifactStore, JobQueue

    mod = importlib.import_module
    fem, part, dd = mod("repro.fem"), mod("repro.part"), mod("repro.dd")
    store, worker = mod("repro.store"), mod("repro.store.worker")
    targets = [
        (fem, "heat_transfer_2d", "fem.build", None),
        (fem, "heat_transfer_3d", "fem.build", None),
        (fem, "heat_problem", "fem.build", None),
        (part, "make_mesh", "part.mesh", None),
        (dd, "decompose", "dd.decompose", None),
        (mod("repro.batch"), "items_from_decomposition", "batch.items", None),
        (mod("repro.sparse.canonical"), "canonical_relabeling", "sparse.relabel", None),
        (mod("repro.feti.operator"), "factorize_subdomain", "sparse.factor", None),
        (mod("repro.feti.dual_approaches"), "factorize_subdomain", "sparse.factor", None),
        (BatchAssembler, "analyze", "batch.analyze", None),
        (BatchAssembler, "assemble_batch", "batch.assemble", _batch_stats),
        (BatchAssembler, "schedule", "runtime.schedule", _makespan),
        (FetiSolver, "preprocess", "feti.preprocess", None),
        (FetiSolver, "solve_block", "feti.solve_block", _solve_stats),
        (mod("repro.feti.block_pcpg"), "block_pcpg", "feti.block_pcpg", None),
        (mod("repro.feti.solver"), "pcpg", "feti.pcpg", None),
        (GroupedDualOperator, "apply_panel", "feti.apply", None),
        (StackedPreconditioner, "apply", "feti.precond", None),
        (ArtifactStore, "get", "store.get", None),
        (ArtifactStore, "put", "store.put", _put_bytes),
        (JobQueue, "submit", "queue.submit", None),
        (JobQueue, "claim", "queue.claim", None),
        (JobQueue, "heartbeat", "queue.heartbeat", None),
        (JobQueue, "complete", "queue.complete", None),
        (store, "run_worker", "worker.run", None),
        (worker.JOB_HANDLERS, "assemble", "worker.job", None),
    ]
    undo = []
    for owner, attr, name, post in targets:
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = rec.wrap(name, original, post)
            undo.append(functools.partial(owner.__setitem__, attr, original))
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, rec.wrap(name, original, post))
            undo.append(functools.partial(setattr, owner, attr, original))

    def uninstall() -> None:
        for restore in reversed(undo):
            restore()

    return uninstall


# -- per-op analysis ----------------------------------------------------------


def outermost_seconds(op_spans: list[tuple[int, Span]], spans: list[Span]) -> dict[str, float]:
    """Inclusive seconds per span name, counting only spans with no
    ancestor of the same name (so recursion is not counted twice)."""
    out: dict[str, float] = defaultdict(float)
    for _, span in op_spans:
        parent = span.parent
        while parent is not None and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent is None:
            out[span.name] += span.seconds
    return out


def self_seconds(op_spans: list[tuple[int, Span]]) -> dict[str, float]:
    """Self seconds per span name: duration minus direct children."""
    child_time: dict[int, float] = defaultdict(float)
    for _, span in op_spans:
        if span.parent is not None:
            child_time[span.parent] += span.seconds
    out: dict[str, float] = defaultdict(float)
    for index, span in op_spans:
        out[span.name] += span.seconds - child_time[index]
    return out


def root_seconds(op_spans: list[tuple[int, Span]], thread: int) -> float:
    """Seconds covered by root spans of *thread* (they never overlap)."""
    return sum(s.seconds for _, s in op_spans if s.parent is None and s.thread == thread)
