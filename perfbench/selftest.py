"""Forced-failure self-test of the benchmark's output checks.

For each workload: set up, then run two timed ops through
:func:`harness.measure`, the second one broken on purpose, and require
exactly one failed op of two attempted.

* ``assemble-3d``: one assembled Schur complement is perturbed;
* ``solve-2d-panel``: the solve runs with ``max_iter=2``;
* ``service-mixed``: a warm job reports a wrong ``sc_digest``.

Run from the repository root: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness
import workloads
from refkernel import ReferenceKernel

BAD_INDEX = 2


def perturb_block(result):
    f = result.results[5].f
    f[0, 0] += 1e-6 * max(1.0, float(abs(f).max()))
    return result


def wrong_digest(out):
    out.digest = "0" * 64
    return out


def break_op(workload, transform=None, max_iter=None):
    """Make op ``BAD_INDEX`` fail: transform its output, or solve it with
    *max_iter* iterations."""
    op = workload.op

    def broken(index):
        if index != BAD_INDEX:
            return op(index)
        if max_iter is not None:
            saved, workload.max_iter = workload.max_iter, max_iter
            try:
                return op(index)
            finally:
                workload.max_iter = saved
        return transform(op(index))

    workload.op = broken


def main() -> int:
    workdir = Path.cwd() / ".perfbench" / "selftest"
    cases = {
        "assemble-3d": {"transform": perturb_block},
        "solve-2d-panel": {"max_iter": 2},
        "service-mixed": {"transform": wrong_digest},
    }
    ok = True
    try:
        for name, fault in cases.items():
            workload = workloads.WORKLOADS[name](0, workdir)
            workload.setup()
            try:
                warm = harness.run_op(workload, 0)
                break_op(workload, **fault)
                loop = harness.measure(workload, 0.0, ReferenceKernel(), min_ops=2)
            finally:
                workload.close()
            failed = [r.index for r in loop.records if r.error is not None]
            passed = warm.error is None and len(loop.records) == 2 and failed == [BAD_INDEX]
            ok &= passed
            print(f"{name:16s} attempted {len(loop.records)} failed {failed} "
                  f"{'ok' if passed else 'WRONG'}: "
                  f"{[r.error for r in loop.records if r.error]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
