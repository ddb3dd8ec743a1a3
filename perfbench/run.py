"""End-to-end and per-layer benchmark of the Schur-complement pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload assemble-3d --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` alternates blocks of traced and untraced ops and reports the
per-layer metrics instead (see ``perfbench/README.md``).  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is the run manifest.  The full result,
with per-op records (and, traced, the spans) is written under
``.perfbench/`` in the working directory.
"""

from __future__ import annotations

import time

T_ENTRY = time.perf_counter()

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

#: BLAS threads: the hot paths are single-threaded Python around small
#: dense blocks, where extra BLAS threads only add contention.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per run; ``setup_s`` takes their median.
SETUP_REPEATS = 3


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("assemble-3d", "solve-2d-panel", "service-mixed"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _src_digest() -> str:
    """SHA-256 over ``src/`` Python sources: identifies the code measured
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _manifest(args, setups: list[float], import_s: float, loop, tail_pct: float) -> dict:
    import numpy
    import scipy

    from repro.obs import get_tracer

    def blas(cfg) -> str:
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    traced = sum(r.traced for r in loop.records)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "repro_tracer_enabled": get_tracer().enabled,
        "import_s": import_s,
        "setup_repeats_s": setups,
        "ops_timed": len(loop.records),
        "ops_traced": traced,
        "ops_untraced": len(loop.records) - traced,
        "tail_percentile": tail_pct,
        "loop_wall_s": loop.wall,
        "ref_kernel_s": loop.ref_seconds,
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure ({ROOT / 'src' / 'repro'} is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = Path.cwd() / ".perfbench"
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workdir / "tmp")

    import harness
    import layers
    import workloads
    from refkernel import ReferenceKernel
    from repro.obs import get_tracer
    from spans import SpanRecorder

    import_s = time.perf_counter() - T_ENTRY
    if get_tracer().enabled:
        print("perfbench: the program's own tracer must be off", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir / "tmp")
    recorder = SpanRecorder() if args.trace else None
    setups, warmups = [], []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            warmups.append(harness.run_op(workload, 0))
            setups.append(time.perf_counter() - t0)
        ref = ReferenceKernel()
        ref.sample()  # first call pays numpy's lazy set-up
        setup_s = import_s + statistics.median(setups)
        loop = harness.measure(workload, args.seconds, ref, recorder=recorder)
        probe = {}
        if args.trace and args.workload == "solve-2d-panel":
            probe = workload.probe()
    finally:
        workload.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checked = warmups + loop.records
    failed = sum(r.error is not None for r in checked)
    _, tail_pct = harness.tail([r.wall for r in loop.records])
    manifest = _manifest(args, setups, import_s, loop, tail_pct)

    if args.trace:
        values = layers.layer_metrics(loop, recorder, ref.samples, probe)
        calls, incl, own, unattributed = layers.span_table(loop, recorder)
        n = manifest["ops_traced"]
        print(f"{'span (per traced op)':24s} {'calls':>8s} {'incl ms':>10s} {'self ms':>10s}")
        for name in sorted(incl, key=lambda k: -own[k]):
            print(f"{name:24s} {calls[name] / n:8.1f} {incl[name] / n * 1e3:10.2f} "
                  f"{own[name] / n * 1e3:10.2f}")
        print(f"{'(unattributed)':24s} {'':8s} {'':10s} {unattributed / n * 1e3:10.2f}")
        detail = {"spans": [asdict(s) for s in recorder.spans]}
    else:
        values = harness.end_to_end(loop, setup_s, peak_rss_mb)
        manifest["raw"] = harness.raw_walls(loop)
        warm, cold = layers.warm_cold(loop.records)
        if cold:
            manifest["raw"]["store.warm_cold_ratio"] = warm / cold
        for name, value in manifest["raw"].items():
            print(f"{name:28s} {value:14.6g}  (raw, not bounded)")
        detail = {}

    # BENCHMARK.json is the single source of metric names and units.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:14.6g} {m['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": metrics,
    }
    out = workdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "manifest": manifest, **result,
        "ops": [asdict(r) for r in checked], "ref_samples_s": ref.samples, **detail,
    }, indent=1))
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
