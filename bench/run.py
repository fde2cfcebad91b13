#!/usr/bin/env python3
"""Run one treecut benchmark workload and print its metrics.

    python3 bench/run.py --workload exact_families --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
One process runs one workload: set-up (import, one BLAS warm-up call,
writing input files) is timed seven times, six times in fresh child
processes and once here, and ``setup_s`` is the median.  After one
untimed warm-up job, jobs repeat while the next one is expected to finish
within ``--seconds`` (at least one is timed).

``--trace 0`` alternates the jobs with the workload's calibration kernel
(``calibrate.py``) and reports the end-to-end metrics: ``job_ref_s`` (mean
job time over mean calibration time, in seconds of the reference
machine), ``setup_s`` and ``peak_rss_mb``.  ``--trace 1`` alternates an
untraced and a traced job and reports the per-layer metrics of
``layers.py``, medians over the traced jobs, with the tracing overhead.
Every job's output is checked (``checks.py``); ``failed / attempted`` is
the error rate.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the environment, every metric with its unit, and the error rate.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7

import calibrate  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"job_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def setup(workload: str, workdir: Path, seed: int):
    """Import the program, warm BLAS up once and make the inputs; timed."""
    t0 = time.perf_counter()
    import numpy as np
    import treecut  # noqa: F401  (the program under test)
    a = np.random.default_rng(seed).random((256, 256))
    np.linalg.eigh(a + a.T)
    inputs = workloads.WORKLOADS[workload][0](workdir, seed)
    return time.perf_counter() - t0, inputs


def setup_in_child(workload: str, workdir: Path, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          cwd=ROOT, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def measure(workload: str, inputs, seed: int, seconds: float, trace: bool):
    """Repeat the job; return job times, calibration times, per-layer runs
    and check results.

    Job 0 is a warm-up: it is checked but its time is left out.  Untraced,
    a calibration runs before every timed job and once after the last, so
    the calibrations cover the same stretch of time as the jobs.
    """
    from layers import layer_metrics
    from spans import Tracer, instrumented
    _, job, summarize = workloads.WORKLOADS[workload]
    reference = checks.load_reference(workload)
    walls, cals, layer_runs, results = [], [], [], []
    start = time.perf_counter()
    for k in itertools.count():
        ref = reference if checks.reference_applies(workload, seed, k) else None
        if k > 0 and not trace:
            cals.append(calibrate.calibrate(workload))
        t0 = time.perf_counter()
        raw = job(inputs, k)
        wall = time.perf_counter() - t0
        if k > 0:
            walls.append(wall)
        results += checks.run_checks(workload, summarize(raw), ref)
        del raw
        if trace and k > 0:
            tracer = Tracer()
            with instrumented(tracer):
                t0 = time.perf_counter()
                raw = job(inputs, k)
                traced = time.perf_counter() - t0
            results += checks.run_checks(workload, summarize(raw), ref)
            del raw
            layer_runs.append(layer_metrics(tracer.spans, tracer.counters, traced, wall))
        elapsed = time.perf_counter() - start
        if walls and elapsed + elapsed / (k + 1) > seconds:
            if not trace:
                cals.append(calibrate.calibrate(workload))
            return walls, cals, layer_runs, results


def environment() -> dict:
    import numpy as np
    import treecut
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "treecut").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_rev = None
    return {
        "git_revision": git_rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "treecut_backend": treecut.BACKEND,
    }


def _blas_threads():
    """Thread count OpenBLAS reports, or the environment's setting if unknown."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def job_ref_s(workload: str, walls, cals) -> float:
    """Mean job time in units of mean calibration time, in reference seconds."""
    return (statistics.fmean(walls) / statistics.fmean(cals)
            * calibrate.REFERENCE_S[workload])


def _median_metrics(runs) -> dict:
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "treecut" / "__init__.py").is_file():
        print(f"error: no treecut sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        elapsed, _ = setup(args.workload, Path(args.workdir), args.seed)
        print(json.dumps({"setup_s": elapsed}))
        return 0

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        samples = [setup_in_child(args.workload, workdir / f"child{i}", args.seed)
                   for i in range(SETUP_SAMPLES - 1)]
        elapsed, inputs = setup(args.workload, workdir / "main", args.seed)
        samples.append(elapsed)
        walls, cals, layer_runs, results = measure(args.workload, inputs, args.seed,
                                                   args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    failed = [name for name, ok in results if not ok]
    end_to_end = {
        "setup_s": statistics.median(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = {"wall_s": "s", **END_TO_END}
    if args.trace:
        from layers import METRICS
        metrics = _median_metrics(layer_runs)
        units.update({name: unit for name, (unit, _) in METRICS.items()})
    else:
        end_to_end = {"job_ref_s": job_ref_s(args.workload, walls, cals), **end_to_end}
        metrics = end_to_end

    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "jobs": len(walls),
                      "setup_samples_s": samples, "job_walls_s": walls,
                      "calibrations_s": cals}))
    shown = {"wall_s": statistics.median(walls), **end_to_end, **metrics}
    for name, value in shown.items():
        print(f"{name:40s} {value:16.6g} {units[name]}")
    print(f"{'error_rate':40s} {len(failed) / len(results):16.6g} ratio "
          f"(failed {len(failed)} of {len(results)} checks)")
    for name in failed[:20]:
        print(f"check failed: {name}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed, "attempted": len(results), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
