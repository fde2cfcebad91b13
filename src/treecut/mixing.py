"""Exact total-variation mixing via heat kernels, and hitting-time bounds.

The transition kernel of the variable-speed walk is
P_t = sum_j exp(-t lambda_j) u_j u_j^T over the eigenpairs of the
Laplacian (Levin-Peres-Wilmer, *Markov Chains and Mixing Times*, ch. 12).
Near the mixing time almost every mode is negligible, so each TV
evaluation keeps only the first k modes, k the smallest count whose tail
1/2 sqrt(n) exp(-t lambda_k) is at most ``TAIL_TOL``; that tail bounds the
change of every start's TV distance and needs no eigenvector.  One start
then costs O(n k).  Mode 0 is the exact constant, whose term of the
kernel is exactly 1/n, so a row of P_t - 1/n needs only the other kept
modes.  The all-starts check bounds every start's TV in O(n k) by the
triangle inequality over those modes and computes exact rows, O(n k) each,
only for the m starts whose bound can reach the maximum: O(n k) + O(m n k),
in row blocks of ``BLOCK_ELEMENTS`` entries, never the n x n kernel.  It
names the lowest start within a few ulps of the maximum, so that which of
the starts an automorphism swaps (they tie exactly) it names does not
depend on how BLAS rounds a block.

So the search needs only the eigenpairs below a floor.  From
``PARTIAL_MIN_VERTICES`` vertices up to the dense cap, and from
``TALL_MIN_VERTICES`` on for tall trees (height^2 >= n), they come from
``spectral.bottom_pairs`` (Lanczos on the pseudo-inverse, restarted through
repeated eigenvalues, completeness certified by an inertia count), with the
floor set so that every time from t_rel / 2 on is covered; the full
``decompose`` serves smaller trees and trees whose bottom pairs the
restarts cannot certify within their step budget, and takes over a search
that reaches an earlier time.

Symmetric trees need neither: the walk lumps exactly onto orbits
(Levin-Peres-Wilmer, section 2.3.1).  The automorphisms that fix the root
and a start x keep the law of the walk from x constant on their orbits,
the classes (root orbit, depth of the lowest common ancestor with x),
where the root orbits come from ``tree.root_orbits``.  So TV from x is
1/2 sum_B |P_B(t) - |B|/n| over the classes B, exactly, and P_B(t) comes
from the lumped chain: reversible with respect to |B|/n, symmetrised by
sqrt|B|, one row per class, solved by ``eigh``.  One start per root orbit
suffices: starts in one orbit are equally far from uniform, so the worst
start is the worst of them, and every eigenvalue of Q is one of some
start's quotient (averaging an eigenvector f with f(x) != 0 over the
stabiliser of x leaves a class-constant one), so the gap is the least
second eigenvalue among them.  ``_modes`` takes this path from
``ORBIT_MIN_VERTICES`` vertices on when the starts times the largest
quotient stay within ``ORBIT_RATIO`` n; that product is at least
(height + 1)^2, so deep trees are never classified.

The worst-case distance d(t) = max over starts x of TV_x(t) is
non-increasing, and so is every TV_x.  ``mixing_time`` brackets the
epsilon crossing of a single candidate start x: TV_x(t) > epsilon proves
d(t) > epsilon, so such a t is a safe lower end.  The bracket shrinks by
Illinois regula falsi on log TV_x, which is nearly linear in t past the
knee of the curve (7 evaluations per search in the median, where
bisection needs 29).  The upper end is accepted only after one all-starts
check at the final bracket, which also names the worst start; if that
check fails, its time becomes the lower end, its worst start the
candidate, and the bracket grows again.  Every path serves the search
through the same two start oracles: TV of one start, and the all-starts
check, which takes the candidate's own value from the first oracle, so
that the two cannot disagree about it by a rounding.  The oracles hold
every TV formula (``_EigenStarts`` the truncated eigenpair rows and
their bounds, ``_Orbits`` the quotient sums); ``heat_kernel_tv`` and
``tv_from_start`` validate their arguments and call them.

One chooser, ``_modes``, decides for every tree what serves it: orbit
quotients, bottom pairs or ``decompose`` up to the dense cap, a refusal
above it.  Apart from ``decompose``'s own guard, it is the only place
that compares n with the cap and the size thresholds.  It reads the cap
on every call and makes its choice under the cap once per tree, from the
tree alone, so a number does not depend on which queries ran before.
Every gap and TV number comes from what it chose, the CLI's gap and
``tv_curve`` included; a curve from t = 0 starts on bottom pairs too, and
its oracles switch to ``decompose`` at the first time they do not cover.
On a refusal the start oracles raise ``ResourceLimitError``, and only
``_gap`` answers, with ``spectral.gap_iterative``.

Expected hitting times come from the paper's identity: hitting the root
from v takes exactly the sum of subtree sizes along the root path of v
(the path load L(v)); through the lowest common ancestor, hitting t takes
h_t(v) = L(v) - L(t) + n (depth t - depth lca(v, t)), an exact integer
from the tree's own path loads and one ``tree._lca_depth`` pass, with no
re-rooted tree.  The hitting-time bounds read the largest path load
directly.  The test suite checks h against a dense solve of (D - A) h = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .errors import (DegenerateInputError, ResourceLimitError, ValidationError,
                     _check_count, _check_real, _shown)
from .spectral import (_over_cap, _recentered, Eigensystem, bottom_pairs,
                       decompose, dense_cap, gap_iterative)
from .tree import (RootedTree, _check_vertex, _lca_depth, _per_tree,
                   compute_metrics, max_path_load, root_orbits)

__all__ = [
    "MixingResult", "HittingProfile", "MixingLowerBounds",
    "heat_kernel_tv", "tv_from_start", "mixing_time", "tv_curve",
    "hitting_profile", "mixing_lower_bounds",
]


TAIL_TOL = 1e-12  # certified truncation error allowed per TV evaluation
# From PARTIAL_MIN_VERTICES up to the dense cap the search runs on bottom
# pairs (shallow random recursive trees, their slowest case, reach parity
# with the dense eigh at 400-500 vertices), and on tall trees (height^2 >= n)
# from TALL_MIN_VERTICES: gap plus t_mix on ten GW trees, four tall random
# trees and four with equal legs took 0.47-0.90 times the dense time at 320
# vertices, 0.59-1.06 at 300 and 0.72-1.31 at 250.
PARTIAL_MIN_VERTICES = 512
TALL_MIN_VERTICES = 320
# From this size up to the dense cap the search runs on orbit quotients when
# the starts times the largest quotient are at most ORBIT_RATIO n.  Measured
# against the dense eigh: stars and spherically symmetric trees reach parity
# at 130-160 vertices; binary_of_size(500) (5.9 n) still loses, 0.76 times
# the speed, and binary_of_size(1000) (4.4 n) wins fourfold.
ORBIT_MIN_VERTICES = 160
ORBIT_RATIO = 5
# entries of P_t that the all-starts check computes at once (1 MB)
BLOCK_ELEMENTS = 1 << 17
CURVE_SAMPLE_CAP = 1_000_000  # samples of tv_curve, each a TV evaluation

def _modes(tree: RootedTree) -> Union[Eigensystem, "_Orbits", ResourceLimitError]:
    """The chooser: what serves the tree's gap and TV numbers, by its size
    and shape, for every n.

    Above the dense cap it refuses: it returns, unraised, the
    ``ResourceLimitError`` that ``decompose`` would raise there.  Up to the
    cap, from ``ORBIT_MIN_VERTICES`` vertices on, the orbit quotients when
    ``_orbit_quotients`` finds them small.  Otherwise, from
    ``PARTIAL_MIN_VERTICES`` on, and from ``TALL_MIN_VERTICES`` on where
    height^2 >= n, ``bottom_pairs`` with the floor
    sigma = 2 ln(sqrt(n) / TAIL_TOL) times the gap, where the tail
    1/2 sqrt(n) exp(-t sigma) is TAIL_TOL / 2 at t = t_rel / 2, so it
    serves every time from t_rel / 2 on; earlier times, a curve from t = 0
    among them, switch to ``decompose`` in ``_EigenStarts._kept``.  Below
    those sizes and wherever ``bottom_pairs`` cannot certify its pairs, it is
    ``decompose``.  The cap is read on every call, the choice under it made
    once per tree.
    """
    cap = dense_cap()
    if tree.n > cap:
        return _over_cap(tree.n, cap)
    return _chosen(tree)


@_per_tree
def _chosen(tree: RootedTree) -> Union[Eigensystem, "_Orbits"]:
    modes = None
    if ORBIT_MIN_VERTICES <= tree.n:
        modes = _orbit_quotients(tree)
    if modes is None and (PARTIAL_MIN_VERTICES <= tree.n or
                          TALL_MIN_VERTICES <= tree.n <= tree.height ** 2):
        modes = bottom_pairs(tree, 2.0 * np.log(np.sqrt(tree.n) / TAIL_TOL))
    return decompose(tree) if modes is None else modes


def _starts(tree: RootedTree):
    """The start oracles of the search on ``_modes``; its refusal above the
    dense cap is raised (``ResourceLimitError``)."""
    modes = _modes(tree)
    if isinstance(modes, ResourceLimitError):
        raise modes
    return modes if isinstance(modes, _Orbits) else _EigenStarts(tree, modes)


def _gap(tree: RootedTree) -> Tuple[float, str]:
    """The spectral gap and the path that computed it (``method``): the
    start oracles' where ``_modes`` serves the tree, ``gap_iterative``
    (``"iterative"``) where it refuses."""
    if tree.n < 2:
        raise DegenerateInputError("the spectral gap is undefined for a single vertex")
    if isinstance(_modes(tree), ResourceLimitError):
        return gap_iterative(tree), "iterative"
    starts = _starts(tree)
    return starts.gap, starts.method


class _EigenStarts:
    """The start oracles on eigenpairs of Q (``decompose`` or ``bottom_pairs``),
    named ``"partial"`` or ``"dense"`` by the floor they were built with.

    Mode 0 is the exact constant (``Eigensystem``), whose term of P_t is
    exactly 1/n, so row y of P_t - 1/n for the k kept modes is
    W[y] W^T with W = U[:, 1:k] exp(-t lambda[1:k] / 2) (``_weights``).
    ``tv(x, t)`` is the TV of one such row, O(n k).  ``worst(t, x, tv_x)``
    is d(t) and a worst start, from the rows of the starts whose
    ``bound`` can reach d(t): O(n k) for the bounds and O(m n k) for m such
    starts; start x, when given, counts with the value ``tv_x`` that ``tv``
    gave it.  ``rows`` is the number of kernel rows the last ``worst``
    computed.  The first candidate is where the slowest mode peaks.
    """

    def __init__(self, tree: RootedTree, eig: Eigensystem):
        self.tree, self.eig, self.rows = tree, eig, 0
        self.method = "partial" if eig.floor < np.inf else "dense"
        if tree.n > 1:  # a single vertex has no gap
            self.gap = float(eig.values[1])
            self.first = int(np.argmax(np.abs(eig.vectors[:, 1])))

    def _kept(self, t: float):
        """Smallest mode count k whose dropped tail is <= TAIL_TOL, and that tail.

        Dropping the modes j >= k leaves row x of P_t short by
        r = sum_{j>=k} exp(-t lambda_j) u_j(x) u_j, and |r|_2 <= exp(-t lambda_k)
        since the u_j are orthonormal, so every start's TV distance moves by
        at most 1/2 |r|_1 <= 1/2 sqrt(n) exp(-t lambda_k).  Once every stored
        mode is kept, lambda_k is the eigensystem's floor (the tail is 0 for
        a full one); where even that tail exceeds TAIL_TOL, the oracles run
        on ``decompose`` from then on.  The tail covers the dropped modes
        only, not the kept bottom pairs' own error (relative Ritz residual
        ``spectral.LANCZOS_TOL``).  The values ascend, so the tails are
        evaluated only up to the first value past ln(sqrt(n) / (2 TAIL_TOL)) / t
        by a relative 1e-9, whose tail is below TAIL_TOL whatever the rounding."""
        eig, half = self.eig, 0.5 * math.sqrt(self.tree.n)
        cut = math.log(half / TAIL_TOL) / t * (1.0 + 1e-9) if t > 0 else math.inf
        tails = half * np.exp(-t * eig.values[:eig.values.searchsorted(cut) + 1])
        if tails.size == eig.values.size:  # every stored mode: the floor bounds the rest
            tails = np.append(tails, half * np.exp(-t * eig.floor) if eig.floor < np.inf else 0.0)
        k = int(np.argmax(tails <= TAIL_TOL))
        if tails[k] > TAIL_TOL:
            self.eig = decompose(self.tree)
            return self._kept(t)
        return k, float(tails[k])

    def tv(self, x: int, t: float) -> float:
        k, _ = self._kept(t)
        U = self.eig.vectors[:, 1:k]
        row = U @ (U[x] * np.exp(-t * self.eig.values[1:k]))
        return 0.5 * float(np.abs(row).sum())

    def _weights(self, t: float) -> np.ndarray:
        k, _ = self._kept(t)
        return self.eig.vectors[:, 1:k] * np.exp(-0.5 * t * self.eig.values[1:k])

    @staticmethod
    def bound(W: np.ndarray) -> np.ndarray:
        """Per start y, a bound on the TV distance of row y of W W^T as
        ``worst`` computes it, O(n k) for all starts.

        By the triangle inequality over the modes, that TV is at most
        B_y = 1/2 sum_j |W_yj| |W_j|_1 = 1/2 sum_{1<=j<k} e_j |u_j(y)| |u_j|_1,
        e_j = exp(-t lambda_j).  Rounding: an entry W[y] W[z]^T, a dot product
        of k - 1 terms, is off by at most (k - 1) 2^-53 sum_j |W_yj W_zj|, so
        the row's TV by (k - 1) 2^-53 B_y, plus about log2(n) 2^-53 B_y from
        its sum over the row, and B_y's own computation by as much again.
        The returned B_y + TAIL_TOL + (k + 2) 2^-52 (1 + B_y) covers that.
        For a start ``worst`` screens out (B_y < tau <= m <= 1, m the
        maximum) it stays more than (k + 2) 2^-52 above the computed TV,
        TAIL_TOL being far above the log2(n) terms; that is at least the tie
        width (k + 2) 2^-53 (1 + m), so a screened start cannot tie.
        """
        k = W.shape[1] + 1
        A = np.abs(W)
        b = 0.5 * (A @ A.sum(axis=0))
        return b + TAIL_TOL + (k + 2) * 2.0 ** -52 * (1.0 + b)

    def worst(self, t: float, x: Optional[int], tv_x: Optional[float]):
        """d(t) and a worst start, by a screened, blocked check.

        Only starts whose ``bound`` reaches the threshold get a row:
        tau = ``tv_x`` with a candidate x, else the TV of the start x of
        largest bound.  A screened start's TV is below tau, at most the
        maximum m, and counts as -inf.  Rows other than x's come
        ``BLOCK_ELEMENTS // n`` at a time; ``rows`` counts every row made.
        Starts swapped by an automorphism tie exactly, but the last bits
        of a row depend on the block BLAS computes it in.  So the start
        named is the lowest whose value lies within the tie width
        delta = (k + 2) 2^-53 (1 + m) of m, and d is its value: the same
        start for every block size, and when it is the candidate, d is
        ``tv_x`` even where a start that ties with it rounds higher.
        """
        W = self._weights(t)
        n, k = self.tree.n, W.shape[1] + 1

        def tvs(rows):
            P = W[rows] @ W.T
            return 0.5 * np.abs(P, out=P).sum(axis=1)

        bound = self.bound(W)
        self.rows = int(x is None)
        if x is None:
            x = int(np.argmax(bound))
            tv_x = float(tvs([x])[0])
        live = np.flatnonzero(bound >= tv_x)
        live = live[live != x]
        dist = np.full(n, -np.inf)
        height = max(1, BLOCK_ELEMENTS // n)
        for s in range(0, live.size, height):
            rows = live[s:s + height]
            dist[rows] = tvs(rows)
        self.rows += live.size
        dist[x] = tv_x
        top = dist.max()
        worst = int(np.argmax(dist >= top - (k + 2) * 2.0 ** -53 * (1.0 + top)))
        return float(dist[worst]), worst

    def tail(self, t: float) -> float:
        return self._kept(t)[1]


@dataclass(frozen=True, eq=False)
class _Orbits:
    """The orbit quotients of a tree (module docstring), with the start
    oracles of ``_EigenStarts``.

    ``starts`` holds the smallest vertex of every root orbit and ``orbit``
    the index of each vertex's orbit in it.  ``quotients[i]`` holds, for
    start i, the eigenvalues lambda of its quotient, the amplitudes a with
    P_B(t) = sum_j a_Bj exp(-t lambda_j), and the masses |B| / n.  Every
    mode is kept, so no tail is dropped; the first candidate is the worst
    start at t_rel.
    """

    method = "orbits"
    starts: np.ndarray
    orbit: np.ndarray
    quotients: tuple

    @property
    def gap(self) -> float:
        return float(min(values[1] for values, _, _ in self.quotients))

    @property
    def first(self) -> int:
        return self.worst(1.0 / self.gap, None, None)[1]

    def _tv(self, i: int, t: float) -> float:
        values, amplitudes, masses = self.quotients[i]
        return 0.5 * float(np.abs(amplitudes @ np.exp(-t * values) - masses).sum())

    def tv(self, x: int, t: float) -> float:
        return self._tv(self.orbit[x], t)

    def worst(self, t: float, x: Optional[int], tv_x: Optional[float]):
        # the candidate's orbit gives tv_x again, bit for bit: tv is _tv
        tvs = [self._tv(i, t) for i in range(self.starts.size)]
        i = int(np.argmax(tvs))
        return tvs[i], int(self.starts[i])

    def tail(self, t: float) -> float:
        return 0.0


def _orbit_quotients(tree: RootedTree) -> Optional[_Orbits]:
    """The orbit quotients of every start, or None where they are not small.

    Built only when the starts (root orbits) times the largest quotient
    stay within ``ORBIT_RATIO`` n; ``_modes`` asks only from
    ``ORBIT_MIN_VERTICES`` vertices on.  Every root orbit meets a class of
    every quotient, so that product is at least starts^2; the vertices of
    a root orbit share their depth and subtree size, so starts are at
    least the pairs of those, and at least height + 1.  The tree is
    classified only if pairs^2 is within the bound, and the classes of
    each start are found only if starts^2 is, deepest start first (lowest
    vertex first among equals): the longest root path meets the most
    depths, so a tree turned down tends to stop at its first pass, where
    ``binary_of_size(200)`` took six in orbit order.  The classes of start
    x are (root orbit, depth of the lowest common ancestor with x), that
    depth read off ``tree._lca_depth``.
    """
    limit = ORBIT_RATIO * tree.n
    pairs = np.unique(compute_metrics(tree).subtree_size * tree.n + tree.depth).size
    if pairs ** 2 > limit:
        return None
    orbit = root_orbits(tree)
    starts = np.unique(orbit, return_index=True)[1]
    if starts.size ** 2 > limit:
        return None
    partitions = [None] * starts.size
    for i in np.lexsort((starts, -tree.depth[starts])):
        x = starts[i]
        key = orbit * (tree.depth[x] + 1) + _lca_depth(tree, x)
        blocks = (np.cumsum(np.bincount(key) > 0) - 1)[key]
        if starts.size * (blocks.max() + 1) > limit:
            return None
        partitions[i] = blocks
    quotients = []
    for x, blocks in zip(starts, partitions):
        sizes, generator = _lump(tree, blocks)
        if sizes[blocks[x]] != 1:
            raise ValidationError(f"start {x} is not alone in its class")
        values, vectors = np.linalg.eigh(generator)
        amplitudes = np.sqrt(sizes)[:, None] * vectors * vectors[blocks[x]]
        quotients.append((values, amplitudes, sizes / tree.n))
    return _Orbits(starts=starts, orbit=orbit, quotients=tuple(quotients))


def _lump(tree: RootedTree, blocks: np.ndarray):
    """Class sizes and the symmetrised generator of the walk lumped onto a
    partition (a class 0..m-1 per vertex); ``ValidationError`` unless the
    partition is equitable.

    Equitable means every vertex of a class A has the same number c(A, B)
    of neighbours in each class B.  Then Q S = S Q_B for the class
    indicators S, with Q_B = diag(deg_A) - c, and the lumped chain is
    reversible with respect to |B| / n; symmetrised by sqrt|B|, its
    off-diagonal entries are -c(A, B) |A| / sqrt(|A| |B|), the edge count
    between A and B over sqrt(|A| |B|).  One sort of the 2 (n - 1) directed
    edges, keyed by class pair and tail vertex, finds every count.
    """
    n, m = tree.n, int(blocks.max()) + 1
    sizes = np.bincount(blocks, minlength=m)
    child = np.flatnonzero(tree.parent >= 0)
    tail = np.concatenate((child, tree.parent[child]))
    head = np.concatenate((tree.parent[child], child))
    keys, counts = np.unique((blocks[tail] * m + blocks[head]) * n + tail,
                             return_counts=True)
    pairs = keys // n
    first = np.flatnonzero(np.diff(pairs, prepend=-1))
    members = np.diff(first, append=pairs.size)
    if (members != sizes[pairs[first] // m]).any() or \
            (counts != np.repeat(counts[first], members)).any():
        raise ValidationError("the partition is not equitable")
    c = np.zeros((m, m))
    c.flat[pairs[first]] = counts[first]
    root = np.sqrt(sizes)
    return sizes, np.diag(c.sum(axis=1)) - c * sizes[:, None] / np.outer(root, root)


def _check_epsilon(epsilon: float) -> float:
    """``epsilon`` as a float; ``ValidationError`` unless 1e-8 <= epsilon < 1.  The floor,
    1e4 TAIL_TOL, keeps the TAIL_TOL a TV evaluation may drop (all of a TV that reads 0
    once no mode is kept) within 1e-4 epsilon, so that a crossing is certified."""
    return _check_real(epsilon, "epsilon", 1e4 * TAIL_TOL, 1, "[)")


def heat_kernel_tv(tree: RootedTree, t: float) -> float:
    """Worst-case total-variation distance to uniform at time t, on the
    start oracles of ``mixing_time``."""
    t = _check_real(t, "time", 0, ends="[)")
    return _starts(tree).worst(t, None, None)[0]


def tv_from_start(tree: RootedTree, t: float, start: int) -> float:
    """Total-variation distance to uniform at time t from one start, on the
    start oracles of ``mixing_time``."""
    t = _check_real(t, "time", 0, ends="[)")
    start = _check_vertex(tree, start, "start vertex")
    return _starts(tree).tv(start, t)


@dataclass(frozen=True)
class MixingResult:
    """epsilon-mixing time with the evaluated points of the TV curve.

    ``tv_curve`` holds the (t, TV) pairs of the start the search followed
    last, sorted by t; each is a lower bound on d(t).  ``worst_start``
    attains the max at t_mix: on eigenpairs, the lowest start within a few
    ulps of it (``_EigenStarts.worst``), so that it does not depend on BLAS
    rounding.  ``tail_bound`` is the certified truncation
    error of the TV evaluation that accepted t_mix (0 when t_mix = 0): it
    covers the dropped modes only, not the error of kept bottom pairs
    (relative Ritz residual ``spectral.LANCZOS_TOL``), which can exceed it.
    """

    epsilon: float
    t_mix: float
    worst_start: int
    tv_curve: np.ndarray
    tail_bound: float = 0.0


def mixing_time(tree: RootedTree, epsilon: float, start: Optional[int] = None,
                rtol: float = 1e-8) -> MixingResult:
    """First time the (worst-start) TV distance drops to epsilon.

    A bracket on one candidate start x, grown geometrically from the
    relaxation time and then shrunk to relative width ``rtol`` (in
    [1e-15, 1)) by regula falsi on log TV_x (``_refine``).  A time
    with TV_x > epsilon is a proven lower end, since d >= TV_x.  Without
    ``start``, the upper end is accepted only if d <= epsilon there over
    all starts; otherwise that time becomes the lower end, the worst start
    there the candidate, and the bracket grows again.  epsilon at or above
    the t=0 distance 1 - 1/n yields 0, below 1e-8 an error.  The search runs
    on the start oracles of ``_modes`` (``_starts``); from a time before the
    floor of a partial eigensystem covers, they run on ``decompose``.
    """
    epsilon = _check_epsilon(epsilon)
    # a bracket a few ulps of t wide cannot shrink any further
    rtol = _check_real(rtol, "rtol", 1e-15, 1, "[)")
    start = None if start is None else _check_vertex(tree, start, "start vertex")
    d0 = 1.0 - 1.0 / tree.n  # P_0 = I: every start sits at 1 - 1/n
    if epsilon >= d0:
        return MixingResult(epsilon, 0.0, tree.root if start is None else start,
                            np.array([(0.0, d0)]))

    return _search(tree, epsilon, start, rtol, _starts(tree))


def _search(tree: RootedTree, epsilon: float, start: Optional[int], rtol: float,
            starts) -> MixingResult:
    """``mixing_time``'s bracket search on the start oracles ``starts``:
    ``tv(x, t)``, ``worst(t, x, tv_x)``, the relaxation time 1 / ``gap``
    where the bracket starts, the ``first`` candidate and the ``tail``
    dropped at a time."""
    d0 = 1.0 - 1.0 / tree.n
    x = start if start is not None else starts.first
    samples = [(0.0, d0)]

    def tv_x(t):
        val = starts.tv(x, t)
        samples.append((t, val))
        return val

    lo, tv_lo, hi = 0.0, d0, 1.0 / starts.gap
    doublings = 0

    def widen(tv_hi):
        nonlocal lo, tv_lo, hi, doublings
        lo, tv_lo, hi = hi, tv_hi, 2.0 * hi
        doublings += 1
        if doublings > 400:
            raise ValidationError("TV distance failed to drop below epsilon "
                                  "(is epsilon representable at this size?)")

    while True:
        while (tv_hi := tv_x(hi)) > epsilon:
            widen(tv_hi)
        hi, tv_hi = _refine(tv_x, epsilon, lo, tv_lo, hi, tv_hi, rtol)
        if start is not None:
            worst = start
            break
        d, worst = starts.worst(hi, x, tv_hi)
        if d <= epsilon:
            break
        x, samples = worst, [(0.0, d0), (hi, d)]
        widen(d)

    return MixingResult(epsilon=epsilon, t_mix=hi, worst_start=worst,
                        tv_curve=np.array(sorted(set(samples))),
                        tail_bound=starts.tail(hi))


def _refine(tv_x, epsilon: float, lo: float, tv_lo: float, hi: float,
            tv_hi: float, rtol: float):
    """Shrink a bracket TV_x(lo) > epsilon >= TV_x(hi) to hi - lo <= rtol hi;
    the new hi and TV_x there.

    Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971) on
    f(t) = log(TV_x(t) / epsilon), which is nearly linear in t once the
    slowest modes dominate: each probe is where the chord through the two
    ends crosses 0, and an end kept twice in a row has its stored f halved,
    so that end moves next.  A probe stays 0.45 rtol hi inside the bracket,
    so one next to the crossing closes it; it is the midpoint instead when
    the chord gives no finite point or the bracket has not halved in three
    steps.  Each end is decided by comparing TV_x itself with epsilon.
    """
    def f(tv):
        return math.log(tv / epsilon) if tv > 0 else -math.inf

    f_lo, f_hi = f(tv_lo), f(tv_hi)
    kept = None  # the end the last probe left in place
    width, stalled = hi - lo, 0
    while hi - lo > rtol * hi:
        t = math.nan
        if stalled < 3 and f_lo > f_hi:
            t = hi + f_hi * (hi - lo) / (f_lo - f_hi)
        if not math.isfinite(t):
            t = 0.5 * (lo + hi)
        margin = 0.45 * rtol * hi
        t = min(max(t, lo + margin), hi - margin)
        tv = tv_x(t)
        if tv <= epsilon:
            hi, tv_hi, f_hi = t, tv, f(tv)
            if kept == "lo":
                f_lo *= 0.5
            kept = "lo"
        else:
            lo, f_lo = t, f(tv)
            if kept == "hi":
                f_hi *= 0.5
            kept = "hi"
        if hi - lo <= 0.5 * width:
            width, stalled = hi - lo, 0
        else:
            stalled += 1
    return hi, tv_hi


def tv_curve(tree: RootedTree, n_samples: int, t_max: Optional[float] = None,
             start: Optional[int] = None) -> np.ndarray:
    """Uniform (t, tv) samples on [0, t_max] for plotting or CSV export.

    Without an explicit t_max the range extends to 1.5x the 0.01-mixing
    time, which shows the full drop of the curve.  More than
    ``CURVE_SAMPLE_CAP`` (10**6) samples raise ``ResourceLimitError``
    before anything is allocated.
    """
    n_samples = _check_count(n_samples, "sample count", 2)
    if n_samples > CURVE_SAMPLE_CAP:
        raise ResourceLimitError(f"sample count {_shown(n_samples)} above the cap {CURVE_SAMPLE_CAP}")
    t_max = None if t_max is None else _check_real(t_max, "t_max", 0, ends="[)")
    start = None if start is None else _check_vertex(tree, start, "start vertex")
    starts = _starts(tree)
    if t_max is None:
        t_max = 1.5 * mixing_time(tree, 0.01, start=start).t_mix
    ts = np.linspace(0.0, t_max, n_samples)
    if start is None:
        vals = [starts.worst(t, None, None)[0] for t in ts.tolist()]
    else:
        vals = [starts.tv(start, t) for t in ts.tolist()]
    return np.column_stack([ts, vals])


@dataclass(frozen=True)
class HittingProfile:
    """Expected times to hit ``target`` from every vertex."""

    target: int
    expected: np.ndarray
    max_vertex: int


def hitting_profile(tree: RootedTree, target: int) -> HittingProfile:
    """Exact expected hitting times of ``target``, from the path loads L
    and the depths of the lowest common ancestors with the target:
    h(v) = L(v) - L(target) + n (depth target - depth lca(v, target)).

    These solve (D - A) h = 1 on the complement of the target (h = 0
    there); the values are integers, returned as float64.
    """
    target = _check_vertex(tree, target, "target vertex")
    load, lca = compute_metrics(tree).path_load, _lca_depth(tree, target)
    h = (load - load[target] + tree.n * (tree.depth[target] - lca)).astype(np.float64)
    return HittingProfile(target=target, expected=h,
                          max_vertex=int(np.argmax(h)))


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
    center of mass first (the mixing time does not depend on the root); the
    hitting times of the center are the path loads of the re-rooted tree.
    ``ValidationError`` unless 0 < epsilon <= delta.
    """
    com, base = _recentered(tree)
    epsilon = _check_real(epsilon, "epsilon", 0, com.delta + 1e-12, "(]")
    metrics = compute_metrics(base)
    load = max_path_load(metrics).value
    return MixingLowerBounds(
        epsilon=epsilon, delta=com.delta, center=com.vertex,
        recentered=com.vertex != tree.root,
        hitting_bound=0.5 * epsilon * load,
        degree_bound=epsilon / (2.0 * max(metrics.max_degree, 1)) * load,
    )
