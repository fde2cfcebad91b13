"""Birth-and-death projection of the walk on a spherically symmetric tree.

A spherically symmetric tree whose root has at least two children projects
onto a nearest-neighbor chain on states 1..2n-1 (n-1 = leaf depth): the
center state n is the root, the two halves mirror two marked root subtrees,
and moving away from the center at distance k runs at rate deg_k - 1 while
moving toward it runs at rate 1.  The gap eigenfunction is simple and
changes sign once (Gantmacher-Krein oscillation theorem), so with the rates
palindromic it is antisymmetric about the center.  It lifts to an
eigenfunction of the tree walk supported on the two marked subtrees, so the
chain gap is an exact tree eigenvalue and 1/gap lower-bounds the tree
relaxation time.

Degree sequences that start with a unary stretch are stripped back to the
first branching vertex before projecting (the number of removed levels is
reported on the chain).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from . import _kernels
from .errors import ResourceLimitError, ValidationError, _check_array, _check_count
from .tree import RootedTree, compute_metrics

__all__ = ["BDChain", "BDSpectrum", "LiftResult", "strip_to_first_branching",
           "project", "bd_spectrum", "lift", "cs_lower_bound"]


@dataclass(frozen=True)
class BDChain:
    """Chain on states 1..size with size = 2*half - 1 and center state half.

    ``up_rate[i]`` is the rate from state i+1 to i+2 (0 at the top),
    ``down_rate[i]`` from state i+1 to i (0 at the bottom).  ``stationary``
    solves detailed balance exactly and sums to one.  ``stripped`` counts
    the unary levels removed before projecting.
    """

    size: int
    half: int
    up_rate: np.ndarray
    down_rate: np.ndarray
    stationary: np.ndarray
    degrees: tuple
    stripped: int


def strip_to_first_branching(degrees: Sequence[int]) -> Tuple[list, int]:
    """Drop the unary stretch above the first branching vertex.

    Returns the degree sequence rooted at the first vertex with at least
    two children, plus the number of levels removed.  The new root absorbs
    one degree unit for its deleted parent edge.
    """
    degrees = [_check_count(d, f"degree at depth {k}", 1) for k, d in enumerate(degrees)]
    if not degrees:
        raise ValidationError("degree sequence must be nonempty")
    if degrees[0] >= 2:
        return degrees, 0
    for j in range(1, len(degrees)):
        if degrees[j] >= 3:
            return [degrees[j] - 1] + degrees[j + 1:], j
    raise ValidationError("no branching vertex: the tree is a bare segment, "
                          "which has no two-sided projection")


def project(degrees: Sequence[int], n: int) -> BDChain:
    """Chain on 1..2n-1 for the tree with leaves at depth n-1.

    ``degrees[k]`` is the graph degree at depth k of the underlying tree
    (so the tree is ``spherically_symmetric(degrees[:n-1])``).  Unary
    prefixes are stripped first; n shrinks by the stripped amount.
    ``ResourceLimitError`` if a stationary weight underflows.
    """
    degrees, stripped = strip_to_first_branching(degrees)
    n = _check_count(n, "n", 2 + stripped) - stripped
    if len(degrees) < n - 1:
        raise ValidationError(
            f"degree sequence too short: need {n - 1} levels, have {len(degrees)}")
    used = [degrees[0]] + [_check_count(d, f"degree at depth {k}", 2)  # k: unstripped depth
                           for k, d in enumerate(degrees[1:n - 1], start=stripped + 1)]

    # up: 1 to the center, deg - 1 above it, 0 at the top; down: the same, reversed
    up = np.concatenate((np.ones(n), np.array(used[1:]) - 1.0, [0.0]))
    down = up[::-1].copy()

    weights = np.concatenate(([1.0], np.cumprod(up[:-1] / down[1:])))
    stationary = weights / weights.sum()
    if stationary.min() < np.finfo(np.float64).tiny:  # 0, or subnormal with digits lost
        raise ResourceLimitError(f"a stationary weight underflows at half {n}")
    return BDChain(size=2 * n - 1, half=n, up_rate=up, down_rate=down,
                   stationary=stationary, degrees=tuple(used), stripped=stripped)


@dataclass(frozen=True)
class BDSpectrum:
    """Gap of the chain generator with an antisymmetric eigenfunction.

    ``eigenfunction[i]`` is the value at state i+1, normalized to sup-norm
    one with a positive first entry; its value at the center state is 0.
    """

    gap: float
    eigenfunction: np.ndarray


def bd_spectrum(chain: BDChain) -> BDSpectrum:
    """Gap and antisymmetric gap eigenfunction of the chain.

    Antisymmetry (module docstring) kills the center: the gap is the bottom
    eigenvalue of the m = half - 1 states below it, whose generator,
    symmetrized by pi, is the tridiagonal S with diagonal ``up + down`` and
    off-diagonal ``-sqrt(up[i] * down[i+1])``.  Its bottom eigenvector v gives
    the eigenfunction ``(g, 0, -g[::-1])``, ``g = v / sqrt(pi)``.  A gap not
    above eigh's error bound m * eps * ||S||_1 (Weyl) raises ResourceLimitError.
    """
    m = chain.half - 1
    up, down = chain.up_rate[:m], chain.down_rate[:m]
    off = -np.sqrt(up[:-1] * down[1:])
    S = np.diag(up + down) + np.diag(off, 1) + np.diag(off, -1)
    vals, vecs = np.linalg.eigh(S)
    gap = float(vals[0])
    bound = m * np.finfo(np.float64).eps * float(np.abs(S).sum(axis=0).max())
    if not gap > bound:
        raise ResourceLimitError(f"chain gap {gap:.3g} is within eigh's error bound {bound:.3g}")
    g = vecs[:, 0] / np.sqrt(chain.stationary[:m])
    g /= np.copysign(np.abs(g).max(), g[0])  # sup-norm 1, first entry positive
    return BDSpectrum(gap=gap, eigenfunction=np.concatenate((g, [0.0], -g[::-1])))


@dataclass(frozen=True)
class LiftResult:
    """Tree eigenfunction lifted from the chain, with its generator residual."""

    values: np.ndarray
    residual: float


def _level_degrees(tree: RootedTree) -> list:
    """The one degree of each depth, root first; ``ValidationError`` at the
    first depth whose degrees differ."""
    metrics = compute_metrics(tree)
    depth, degree = metrics.depth, metrics.degree
    lo = np.full(tree.height + 1, metrics.max_degree)
    np.minimum.at(lo, depth, degree)
    hi = np.zeros_like(lo)
    np.maximum.at(hi, depth, degree)
    mixed = np.flatnonzero(lo != hi)
    if mixed.size:
        raise ValidationError(f"tree is not spherically symmetric at depth {mixed[0]}")
    return lo.tolist()


def lift(tree: RootedTree, chain: BDChain, f: np.ndarray) -> LiftResult:
    """Extend a chain eigenfunction to the tree walk.

    The value at a vertex of depth d is f at state n-d in the first marked
    root subtree, f at state n+d in the second, and 0 elsewhere; the
    returned residual is the sup-norm of (A - D) F + gap * F computed from
    the chain's gap via ``bd_spectrum``.  The tree must be spherically
    symmetric with the chain's degrees and leaves at depth n-1; f finite.
    """
    f = _check_array(f, "eigenfunction", shape=(chain.size,), ends="()")
    level_deg = _level_degrees(tree)
    n = chain.half
    if len(level_deg) != n:
        raise ValidationError(
            f"tree has leaves at depth {len(level_deg) - 1}, chain expects {n - 1}")
    expected = list(chain.degrees) + [1]
    if level_deg != expected[:len(level_deg)]:
        raise ValidationError(
            f"degree mismatch: tree levels {level_deg}, chain {expected[:len(level_deg)]}")
    kids = tree.children(tree.root)
    if len(kids) < 2:
        raise ValidationError("root must have at least two children to mark")

    depth = compute_metrics(tree).depth
    mark = np.zeros(tree.n, dtype=np.int64)
    mark[kids[:2]] = [1, 2]
    side = _kernels.ancestor_sum(tree, mark)
    F = np.zeros(tree.n)
    marked = side > 0  # side 1 reads state n - depth, side 2 state n + depth
    F[marked] = f[n - 1 + (2 * side[marked] - 3) * depth[marked]]

    gap = bd_spectrum(chain).gap
    QF = tree.degrees() * F
    nonroot = np.nonzero(tree.parent >= 0)[0]
    pars = tree.parent[nonroot]
    QF[nonroot] -= F[pars]
    np.subtract.at(QF, pars, F[nonroot])
    residual = float(np.abs(gap * F - QF).max())
    return LiftResult(values=F, residual=residual)


def cs_lower_bound(chain: BDChain, max_degree: int) -> float:
    """Stationary-mass lower bound on the chain relaxation time.

    (1/(16 * max_degree)) times the sum of reciprocal stationary weights
    over the lower half of the chain; always at most 1/gap.
    """
    max_degree = _check_count(max_degree, "max degree", 1)
    return float((1.0 / chain.stationary[:chain.half]).sum()) / (16.0 * max_degree)
