"""Birth-and-death projection of the walk on a spherically symmetric tree.

A spherically symmetric tree whose root has at least two children projects
onto a nearest-neighbor chain on states 1..2n-1 (n-1 = leaf depth): the
center state n is the root, the two halves mirror two marked root subtrees,
and moving away from the center at distance k runs at rate deg_k - 1 while
moving toward it runs at rate 1.  The chain's gap eigenfunction, taken
antisymmetric about the center, lifts to an eigenfunction of the tree walk
supported on the two marked subtrees, so the chain gap is an exact tree
eigenvalue and 1/gap lower-bounds the tree relaxation time.

Degree sequences that start with a unary stretch are stripped back to the
first branching vertex before projecting (the number of removed levels is
reported on the chain).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from . import _kernels
from .errors import DegenerateInputError, ValidationError, _check_array, _check_count
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
    """
    degrees, stripped = strip_to_first_branching(degrees)
    n = _check_count(n, "n", 2 + stripped) - stripped
    if len(degrees) < n - 1:
        raise ValidationError(
            f"degree sequence too short: need {n - 1} levels, have {len(degrees)}")
    used = [degrees[0]] + [_check_count(d, f"degree at depth {k}", 2)  # k: unstripped depth
                           for k, d in enumerate(degrees[1:n - 1], start=stripped + 1)]

    size = 2 * n - 1
    # up: 1 to the center, deg - 1 above it, 0 at the top; down: the same, reversed
    up = np.concatenate((np.ones(n), np.array(used[1:]) - 1.0, [0.0]))
    down = up[::-1].copy()

    weights = np.ones(size, dtype=np.float64)
    for i in range(size - 1):
        weights[i + 1] = weights[i] * up[i] / down[i + 1]
    stationary = weights / weights.sum()
    return BDChain(size=size, half=n, up_rate=up, down_rate=down,
                   stationary=stationary, degrees=tuple(used), stripped=stripped)


def generator_matrix(chain: BDChain) -> np.ndarray:
    """Dense chain generator G, rows summing to zero."""
    G = np.diag(chain.up_rate[:-1], 1) + np.diag(chain.down_rate[1:], -1)
    np.fill_diagonal(G, -(chain.up_rate + chain.down_rate))
    return G


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

    The generator is symmetrized by the stationary weights and solved
    densely.  If the computed eigenvector is not already antisymmetric
    about the center, its reversal is subtracted (the rates are palindromic
    so the reversal is again an eigenfunction); a vanishing difference
    means the gap eigenspace holds no antisymmetric function, which is
    reported instead of guessed around.
    """
    G = generator_matrix(chain)
    sqrt_pi = np.sqrt(chain.stationary)
    S = (sqrt_pi[:, None] * -G) / sqrt_pi[None, :]
    S = 0.5 * (S + S.T)  # symmetric up to roundoff by detailed balance
    vals, vecs = np.linalg.eigh(S)
    gap = float(vals[1])
    f = vecs[:, 1] / sqrt_pi
    rev = f[::-1]
    sup = float(np.abs(f).max())
    if float(np.abs(f + rev).max()) > 1e-10 * sup:
        anti = f - rev
        if float(np.abs(anti).max()) <= 1e-10 * sup:
            raise DegenerateInputError(
                "antisymmetrization failed: the gap eigenspace is symmetric")
        f = anti
    f = f / np.abs(f).max()
    if f[0] < 0:
        f = -f
    f[chain.half - 1] = 0.0
    return BDSpectrum(gap=gap, eigenfunction=f)


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
    for m, sign_offset in ((1, -1), (2, +1)):
        below = side == m
        F[below] = f[n + sign_offset * depth[below] - 1]

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
