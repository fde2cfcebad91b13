"""Calibration kernels: the machine's speed, now, on a workload's kind of work.

The host this benchmark was built on lends each run a share of cores that
other tenants also load, so its speed drifts by up to 1.8x within minutes.
Raw job times then spread across runs of the same code by more than the
benchmark's bounds.  A run therefore alternates its jobs with a fixed
calibration kernel and reports job time in units of kernel time, scaled to
seconds by the kernel's time on the reference machine (``REFERENCE_S``).

A kernel uses numpy and plain Python only, never treecut, so a change to
the program cannot move it.  Each workload gets the kernel that matches
the work it spends its time on:

* ``python_loop``: interpreter-bound integer and list work, like the
  rejection sampler of ``gw_reps`` and the per-level tree passes and JSON
  emission of ``large_bounds``;
* ``dense_blas``: dense ``eigh`` and GEMM at BLAS's default thread count,
  like the exact path of ``exact_families``.
"""

from __future__ import annotations

import time

import numpy as np

M64 = (1 << 64) - 1
_RNG = np.random.default_rng(0)
_SYM = _RNG.random((300, 300))
_SYM = _SYM + _SYM.T
_SQUARE = _RNG.random((400, 400))


def python_loop() -> int:
    """SplitMix64-style integer hashing into a list: pure interpreter work."""
    x, out = 12345, []
    for _ in range(50_000):
        x = (x + 0x9E3779B97F4A7C15) & M64
        z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
        out.append(z >> 60)
    return sum(out)


def dense_blas() -> float:
    """One symmetric eigendecomposition and one GEMM on fixed matrices."""
    w = np.linalg.eigh(_SYM)[0]
    return float(w[0] + (_SQUARE @ _SQUARE)[0, 0])


# workload -> (kernel, calls per calibration); a calibration takes about a
# tenth of one job, so the run spends most of its time on jobs
KERNELS = {
    "exact_families": (dense_blas, 16),
    "gw_reps": (python_loop, 3),
    "large_bounds": (python_loop, 8),
}

# median time of one calibration on the reference machine, all three
# measured together: a 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4 with
# its bundled OpenBLAS at 2 threads
REFERENCE_S = {
    "exact_families": 0.18,
    "gw_reps": 0.073,
    "large_bounds": 0.19,
}


def calibrate(workload: str) -> float:
    """Run the workload's calibration once; return its wall time."""
    kernel, calls = KERNELS[workload]
    t0 = time.perf_counter()
    for _ in range(calls):
        kernel()
    return time.perf_counter() - t0
