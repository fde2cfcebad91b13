"""Exact total-variation mixing via heat kernels, and hitting-time bounds.

The transition kernel of the variable-speed walk is P_t = U exp(-t L) U^T
with (L, U) the eigendecomposition of the Laplacian, shared with
:mod:`treecut.spectral` through its per-tree cache.  The worst-case
total-variation distance d(t) = max over starts of the TV distance to the
uniform measure is non-increasing, so the epsilon-mixing time comes from a
bisection on d.

Expected hitting times come from the paper's identity: hitting the root
from v takes exactly the sum of subtree sizes along the root path of v
(the path load), so hitting a target is the path load of the tree
re-rooted there, an exact integer from two O(n) tree passes.  The test
suite verifies the identity against a dense solve of (D - A) h = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .errors import ValidationError
from .spectral import Eigensystem, decompose
from .tree import (RootedTree, center_of_mass, compute_metrics, max_path_load,
                   reroot)

__all__ = [
    "MixingResult", "HittingProfile", "MixingUpperReport", "MixingLowerBounds",
    "heat_kernel_tv", "tv_from_start", "mixing_time", "tv_curve",
    "hitting_profile", "mixing_upper_report", "mixing_lower_bounds",
]


def _kernel_matrix(tree: RootedTree, t: float, eig: Eigensystem) -> np.ndarray:
    """P_t as W W^T with W = U exp(-t L / 2); one GEMM per evaluation."""
    W = eig.vectors * np.exp(-0.5 * t * eig.values)[None, :]
    return W @ W.T


def heat_kernel_tv(tree: RootedTree, t: float,
                   eig: Optional[Eigensystem] = None) -> float:
    """Worst-case total-variation distance to uniform at time t."""
    if t < 0:
        raise ValidationError(f"time must be >= 0, got {t}")
    if eig is None:
        eig = decompose(tree)
    return _kernels.tv_from_kernel(_kernel_matrix(tree, t, eig), 1.0 / tree.n)


def tv_from_start(tree: RootedTree, t: float, start: int,
                  eig: Optional[Eigensystem] = None) -> float:
    """Total-variation distance to uniform at time t from one start."""
    if t < 0:
        raise ValidationError(f"time must be >= 0, got {t}")
    if not 0 <= start < tree.n:
        raise ValidationError(f"start vertex {start} out of range")
    if eig is None:
        eig = decompose(tree)
    row = (eig.vectors[start] * np.exp(-t * eig.values)) @ eig.vectors.T
    return 0.5 * float(np.abs(row - 1.0 / tree.n).sum())


@dataclass(frozen=True)
class MixingResult:
    """epsilon-mixing time with the evaluated points of the TV curve.

    ``tv_curve`` holds the (t, d(t)) pairs visited while bracketing and
    bisecting, sorted by t; ``worst_start`` attains the max at t_mix.
    """

    epsilon: float
    t_mix: float
    worst_start: int
    tv_curve: np.ndarray


def mixing_time(tree: RootedTree, epsilon: float, start: Optional[int] = None,
                rtol: float = 1e-8) -> MixingResult:
    """First time the (worst-start) TV distance drops to epsilon.

    Bisection on the monotone d(t) to relative tolerance ``rtol``, with the
    bracket grown geometrically from the relaxation time.  epsilon at or
    above the t=0 distance 1 - 1/n yields 0.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValidationError(f"epsilon must be in (0, 1), got {epsilon}")
    eig = decompose(tree)

    if start is None:
        d = lambda t: heat_kernel_tv(tree, t, eig)
    else:
        d = lambda t: tv_from_start(tree, t, start, eig)

    samples = []

    def eval_d(t):
        val = d(t)
        samples.append((t, val))
        return val

    d0 = eval_d(0.0)
    if epsilon >= d0:
        return MixingResult(epsilon, 0.0, tree.root if start is None else start,
                            np.array(samples))

    t_rel = 1.0 / float(eig.values[1])
    lo, hi = 0.0, t_rel
    grow = 0
    while eval_d(hi) > epsilon:
        lo, hi = hi, 2.0 * hi
        grow += 1
        if grow > 400:
            raise ValidationError("TV distance failed to drop below epsilon "
                                  "(is epsilon representable at this size?)")
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        if eval_d(mid) <= epsilon:
            hi = mid
        else:
            lo = mid

    if start is None:
        P = _kernel_matrix(tree, hi, eig)
        worst = int(np.argmax(np.abs(P - 1.0 / tree.n).sum(axis=1)))
    else:
        worst = start
    curve = np.array(sorted(set(samples)))
    return MixingResult(epsilon=epsilon, t_mix=hi, worst_start=worst,
                        tv_curve=curve)


def tv_curve(tree: RootedTree, n_samples: int, t_max: Optional[float] = None,
             start: Optional[int] = None) -> np.ndarray:
    """Uniform (t, tv) samples on [0, t_max] for plotting or CSV export.

    Without an explicit t_max the range extends to 1.5x the 0.01-mixing
    time, which shows the full drop of the curve.
    """
    if n_samples < 2:
        raise ValidationError("need at least two samples")
    eig = decompose(tree)
    if t_max is None:
        t_max = 1.5 * mixing_time(tree, 0.01, start=start).t_mix
    ts = np.linspace(0.0, float(t_max), n_samples)
    if start is None:
        vals = [heat_kernel_tv(tree, float(t), eig) for t in ts]
    else:
        vals = [tv_from_start(tree, float(t), start, eig) for t in ts]
    return np.column_stack([ts, vals])


@dataclass(frozen=True)
class HittingProfile:
    """Expected times to hit ``target`` from every vertex."""

    target: int
    expected: np.ndarray
    max_vertex: int


def hitting_profile(tree: RootedTree, target: int) -> HittingProfile:
    """Exact expected hitting times of ``target``: the path loads of the
    tree re-rooted at the target.

    These solve (D - A) h = 1 on the complement of the target (h = 0
    there); the values are integers, returned as float64.
    """
    if not 0 <= target < tree.n:
        raise ValidationError(f"target vertex {target} out of range")
    h = compute_metrics(reroot(tree, target)).path_load.astype(np.float64)
    return HittingProfile(target=target, expected=h,
                          max_vertex=int(np.argmax(h)))


@dataclass(frozen=True)
class MixingUpperReport:
    """Order comparators for the hitting-time upper bound on mixing.

    The universal prefactor of the hitting-time bound is not numeric, so
    these are comparators for trend checks, not certified bounds:
    the worst expected root-hitting time, twice the maximal path load
    (which dominates it), and the vertex-count-times-diameter form.
    """

    max_hitting: float
    double_path_load: float
    sites_times_diameter: float


def mixing_upper_report(tree: RootedTree) -> MixingUpperReport:
    metrics = compute_metrics(tree)
    if tree.n == 1:
        return MixingUpperReport(0.0, 0.0, 0.0)
    hp = hitting_profile(tree, tree.root)
    return MixingUpperReport(
        max_hitting=float(hp.expected.max()),
        double_path_load=2.0 * max_path_load(metrics).value,
        sites_times_diameter=float(tree.n * metrics.diameter),
    )


@dataclass(frozen=True)
class MixingLowerBounds:
    """Certified lower bounds: t_mix(eps/2) >= hitting_bound >= degree_bound."""

    epsilon: float
    delta: float
    center: int
    recentered: bool
    hitting_bound: float
    degree_bound: float


def mixing_lower_bounds(tree: RootedTree, epsilon: float) -> MixingLowerBounds:
    """Hitting-time lower bounds on t_mix(eps/2), after recentering.

    The argument requires the root to be a balanced split vertex and
    epsilon at most the achieved delta, so the tree is re-rooted at its
    center of mass first (the mixing time does not depend on the root).
    """
    com = center_of_mass(tree)
    if epsilon > com.delta + 1e-12:
        raise ValidationError(
            f"epsilon {epsilon} exceeds the center-of-mass delta {com.delta}")
    recentered = com.vertex != tree.root
    base = reroot(tree, com.vertex) if recentered else tree
    hp = hitting_profile(base, com.vertex)
    metrics = compute_metrics(base)
    max_hit = float(hp.expected.max())
    return MixingLowerBounds(
        epsilon=epsilon, delta=com.delta, center=com.vertex,
        recentered=recentered,
        hitting_bound=0.5 * epsilon * max_hit,
        degree_bound=epsilon / (2.0 * metrics.max_degree)
        * max_path_load(metrics).value,
    )
