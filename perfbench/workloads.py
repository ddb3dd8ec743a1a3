"""The benchmark's three workloads.

Each workload builds its inputs from the run seed in :meth:`setup`, runs
one op per :meth:`op` call (closed loop, one caller) and judges the op's
output in :meth:`check`, which returns ``None`` for a correct output and
a one-line reason otherwise.  :meth:`tags` names per-op facts the report
splits on (cold/warm, store counter deltas).

Layer entry points are looked up on their modules at call time
(``fem.heat_transfer_3d``, not a local import), so the traced run's
wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro.batch as batch
import repro.core as core
import repro.dd as dd
import repro.fem as fem
import repro.feti as feti
import repro.store as store

#: Tier-1 tolerance of per-member vs batched Schur complements.
SC_RTOL = 1e-9
SC_ATOL = 1e-10
#: Column-0 error bound of the panel solve against the direct solve.
SOLVE_RTOL = 1e-8


class Workload:
    """Defaults for workloads with no per-op tags and nothing to release."""

    def tags(self, index: int, out) -> dict:
        return {}

    def close(self) -> None:
        pass


def op_seed(seed: int, index: int) -> int:
    """Per-op seed: a fixed function of the run seed and the op index."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class Assemble3D(Workload):
    """``repro batch`` defaults on a floating 12^3 cube split 3x3x3.

    27 subdomains in 4 canonical pattern groups; the op rebuilds the
    problem, factorizes every subdomain (canonical relabeling on) and
    assembles with a fresh engine and cache.  The input is fixed; the seed
    changes nothing in it.
    """

    name = "assemble-3d"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.config = core.default_config("gpu", 3)
        self.reference: list[np.ndarray] = []

    @staticmethod
    def _items():
        problem = fem.heat_transfer_3d(12, dirichlet=())
        return batch.items_from_decomposition(dd.decompose(problem, grid=(3, 3, 3)))

    def setup(self) -> None:
        ref = core.SchurAssembler(config=self.config)
        self.reference = [ref.assemble(it.factor, it.bt).f for it in self._items()]

    def op(self, index: int):
        engine = batch.BatchAssembler(config=self.config, cache=batch.PatternCache())
        result = engine.assemble_batch(self._items(), execution="auto", n_workers=1)
        engine.schedule(result.work, mode="mix", n_threads=16, n_streams=16)
        return result

    def check(self, index: int, result) -> str | None:
        if len(result.results) != len(self.reference):
            return f"{len(result.results)} results for {len(self.reference)} subdomains"
        for k, (res, expect) in enumerate(zip(result.results, self.reference)):
            scale = max(1.0, float(np.abs(expect).max(initial=0.0)))
            if (
                res is None
                or res.f.shape != expect.shape
                or not np.allclose(res.f, expect, rtol=SC_RTOL, atol=SC_ATOL * scale)
            ):
                return f"subdomain {k}: Schur complement differs from the per-member reference"
        return None


class SolvePanel(Workload):
    """``repro solve --grid 6x6 --rhs 4 --sequential``: 48^2 square, left
    edge fixed.

    Set-up builds the decomposition and the direct reference once; one op
    is a fresh solver, its preprocessing and a 4-column panel solve whose
    load panel comes from the per-op seed.  The columns run one after the
    other through scalar PCPG, each iteration a one-column grouped apply
    and stacked preconditioner.  Block PCPG is not timed here: on random
    panels it fails a few ops in a hundred (see :meth:`probe`).
    """

    name = "solve-2d-panel"
    #: Load-panel seeds on which 4-column block PCPG fails on this
    #: decomposition (stalls above ``tol`` until ``max_iter=200``); found
    #: by a scan of seeds 0-149.
    BLOCK_STALL_SEEDS = (41, 73, 122)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.max_iter = 1000

    def setup(self) -> None:
        self.problem = fem.heat_transfer_2d(48, dirichlet=("left",))
        self.decomposition = dd.decompose(self.problem, grid=(6, 6))
        self.direct = self.problem.solve_direct()

    def op(self, index: int):
        solver = feti.FetiSolver(self.decomposition, max_iter=self.max_iter)
        solver.preprocess()
        return solver.solve_block(n_rhs=4, block=False, seed=op_seed(self.seed, index))

    def check(self, index: int, sol) -> str | None:
        if not sol.converged:
            return f"PCPG stopped unconverged after {sol.stats.iterations} iterations"
        scale = float(np.abs(self.direct).max())
        err = float(np.abs(sol.u[:, 0] - self.direct).max()) / scale
        if not err <= SOLVE_RTOL:
            return f"column-0 relative error {err:.2e} > {SOLVE_RTOL:.0e}"
        return None

    def probe(self) -> dict[str, int]:
        """Known-defect probe of 4-column block PCPG, ``max_iter=200``.

        3-D: a 12^3 cube split 2x2x2 at load-panel seeds 0-3, counting
        unconverged solves.  2-D: this workload's decomposition at
        :data:`BLOCK_STALL_SEEDS`, counting solves that raise or fail
        :meth:`check`.
        """
        problem = fem.heat_transfer_3d(12, dirichlet=("left",))
        solver = feti.FetiSolver(dd.decompose(problem, grid=(2, 2, 2)), max_iter=200)
        solver.preprocess()
        seeds = range(4)
        unconverged = sum(not solver.solve_block(n_rhs=4, seed=s).converged for s in seeds)

        solver = feti.FetiSolver(self.decomposition, max_iter=200)
        solver.preprocess()
        failed = 0
        for s in self.BLOCK_STALL_SEEDS:
            try:
                failed += self.check(0, solver.solve_block(n_rhs=4, seed=s)) is not None
            except Exception:
                failed += 1
        return {
            "feti.block_probe_solves": len(seeds),
            "feti.block_unconverged": unconverged,
            "feti.block2d_probe_solves": len(self.BLOCK_STALL_SEEDS),
            "feti.block2d_failed": failed,
        }


@dataclass
class ServiceOp:
    job: object
    cold: bool
    mesh_seed: int
    digest: str | None
    store_delta: dict


class ServiceMixed(Workload):
    """One ``assemble`` job through the queue and a worker, per op.

    Jittered 2-D mesh, 24 cells, RCB into 16 parts, per-member execution.
    Every 4th op (index % 4 == 0) uses a fresh mesh seed, so the store
    misses and writes; the others reuse a seed already seen, so the store
    hits.  A warm job's ``sc_digest`` must equal its cold job's.
    """

    name = "service-mixed"
    PAYLOAD = {"mesh": "jittered", "cells": 24, "partitioner": "rcb", "parts": 16,
               "execution": "per-member"}

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.root: Path | None = None
        self.queue = None

    def setup(self) -> None:
        self.close()
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="service-", dir=self.workdir))
        self.store = store.ArtifactStore(self.root / "store")
        self.queue = store.JobQueue(self.root / "queue.db")
        self.digests: dict[int, str] = {}

    def _counters(self) -> dict:
        st = self.store.stats
        return {"hits": st.hits, "misses": st.misses, "retries": st.transient_retries}

    def op(self, index: int) -> ServiceOp:
        rng = np.random.default_rng(op_seed(self.seed, index))
        cold = index % 4 == 0 or not self.digests
        if cold:
            mesh_seed = int(rng.integers(2**31))
        else:
            mesh_seed = int(rng.choice(sorted(self.digests)))
        before = self._counters()
        job_id = self.queue.submit("assemble", {**self.PAYLOAD, "seed": mesh_seed})
        store.run_worker(self.queue, self.store, owner="bench", max_jobs=1)
        job = self.queue.get(job_id)
        after = self._counters()
        digest = job.result["sc_digest"] if job.status == "done" else None
        if cold and digest is not None:
            self.digests.setdefault(mesh_seed, digest)
        delta = {k: after[k] - before[k] for k in after}
        return ServiceOp(job, cold, mesh_seed, digest, delta)

    def check(self, index: int, out: ServiceOp) -> str | None:
        if out.job.status != "done":
            return f"job {out.job.id} ended {out.job.status}: {out.job.error}"
        expect = self.digests.get(out.mesh_seed)
        if out.digest != expect:
            return f"job {out.job.id}: sc_digest differs from the cold job of seed {out.mesh_seed}"
        return None

    def tags(self, index: int, out: ServiceOp) -> dict:
        return {"cold": out.cold, **{f"store_{k}": v for k, v in out.store_delta.items()}}

    def close(self) -> None:
        if self.queue is not None:
            self.queue.close()
            self.queue = None
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None


WORKLOADS = {cls.name: cls for cls in (Assemble3D, SolvePanel, ServiceMixed)}
