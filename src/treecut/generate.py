"""Constructions of every tree family the analysis runs on.

Deterministic families: segments, level-filled binary trees, spherically
symmetric trees, retractions along a root path, the inverse-square comb
(CLI family ``cor15``), and the doubly-exponential comb of Peres and Sousi.
Random families: branching-process (Galton-Watson) trees truncated at a
generation, conditioned on reaching a generation, conditioned on total
size, and the size-biased spine (Kesten) tree for critical offspring laws.

All random generators are pure functions of ``(parameters, seed)`` driven
by the SplitMix64 stream in :mod:`treecut.rng`; reference outputs are
frozen in the test fixtures.  Vertices are numbered breadth-first and each
vertex below the depth limit takes one draw, its child count, in that
order.  The draws are taken as arrays: a branching tree one generation at
a time (breadth-first order is generation order), and the size-conditioned
sampler a block of rejection attempts at a time, with every attempt on its
own derived stream.  :meth:`OffspringDistribution.counts` turns a whole
array of uniforms into the counts that inverting one uniform at a time
gives, so the trees are those of a vertex-by-vertex loop, bit for bit.

Size conventions: a "segment of size n" has n edges, so vertices sit at
distances 0..n from the root.  ``binary_of_size(m)`` fills levels left to
right and may leave the last level partial.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .errors import (RejectionCapError, ResourceLimitError, ValidationError,
                     _check_array, _check_count, _check_real, _shown)
from .rng import SplitMix64, derive_seed, derive_seeds, uniforms
from .tree import (RootedTree, _check_vertex, compute_metrics,
                   from_parents, reroot, root_path)

__all__ = [
    "OffspringDistribution", "Contour", "segment", "binary_of_size",
    "spherically_symmetric", "retraction", "hanging_sizes", "cor15_tree",
    "peres_sousi", "gw_tree", "gw_survival_truncated", "gw_conditioned_size",
    "kesten_tree", "contour", "normalized_contour",
]

DEFAULT_VERTEX_CAP = 1_000_000
DEFAULT_ATTEMPT_CAP = 1_000_000
HARD_VERTEX_CAP = 20_000_000  # refuse constructions beyond this, whatever max_vertices says
# the scalar Poisson sampler gives up past k = 10_000_000 and returns this
_POISSON_BREAK = 10_000_001
# pmf_table stops once the tail is below this, or after this many terms
_PMF_TAIL_TOL = 1e-15
_PMF_CAP = 100_000


# ---------------------------------------------------------------------------
# offspring distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)  # not a tuple: its cumulative table is a cached_property
class OffspringDistribution:
    """Offspring law with finite mean and variance.

    ``kind`` is one of ``geometric`` (p, counts failures before success),
    ``poisson`` (rate), or ``table`` (finite support, probabilities summing
    to one within 1e-12).
    """

    kind: str
    params: tuple
    mean: float
    variance: float

    @staticmethod
    def geometric(p: float) -> "OffspringDistribution":
        p = _check_real(p, "geometric parameter", 0, 1, "(]")
        q = 1.0 - p
        return OffspringDistribution("geometric", (p,), q / p, q / p**2)

    @staticmethod
    def poisson(lam: float) -> "OffspringDistribution":
        lam = _check_real(lam, "poisson rate", 0, ends="[)")
        if math.exp(-lam) == 0.0:
            raise ValidationError(f"poisson rate {lam} too large: exp(-rate) underflows to 0")
        return OffspringDistribution("poisson", (lam,), lam, lam)

    @staticmethod
    def table(probs: Sequence[float]) -> "OffspringDistribution":
        probs = tuple(_check_real(p, "table probability", 0, ends="[)") for p in probs)
        if not probs:
            raise ValidationError("table probabilities must be nonempty")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ValidationError(f"table probabilities sum to {sum(probs)}, not 1")
        mean = sum(j * p for j, p in enumerate(probs))
        var = sum(j * j * p for j, p in enumerate(probs)) - mean**2
        return OffspringDistribution("table", probs, mean, var)

    def counts(self, u: np.ndarray, cap: int) -> np.ndarray:
        """Offspring counts for uniforms ``u``, each clipped to ``cap``.

        Entry i is ``min(cap, c)``, as int64, where c is the count one uniform u[i] gives
        by inversion, one draw per count (the scalar samplers in ``tests/util.py`` do it
        one draw at a time): ``floor(log1p(-u) / log1p(-p))`` for the geometric law, the
        first k whose running sum of probabilities reaches u for the Poisson law, and the
        first index whose running sum exceeds u for a table.  Geometric counts come from
        ``np.log1p``, in place on one copy of u; ratios within 1e-9 (relative) of an
        integer are recomputed with ``math.log1p``, as the two may differ in the last ulp
        and only there can that move the floor.  Poisson and table counts are
        ``searchsorted`` into a cumulative table built with the scalar inversion's own
        float operations.  (``geometric(1)`` takes no draw in the scalar inversion, so
        array draws run ahead of it; that is never seen, as with this law every tree is
        a lone root and nothing is drawn after it.)
        """
        cap = _check_count(cap, "cap", 0)
        if self.kind == "geometric":
            p = self.params[0]
            if p >= 1.0:
                return np.zeros(u.shape, dtype=np.int64)
            denom = math.log1p(-p)
            ratio = np.negative(u)
            np.divide(np.log1p(ratio, out=ratio), denom, out=ratio)
            near = abs(np.rint(ratio) - ratio) <= np.maximum(ratio, 1.0) * 1e-9
            ratio[near] = [math.log1p(-x) / denom for x in u[near].tolist()]
            return np.minimum(np.floor(ratio, out=ratio), cap, out=ratio).astype(np.int64)
        if self.kind == "poisson":
            k = np.searchsorted(self._cumulative, u, side="left")
            k[k == self._cumulative.size] = _POISSON_BREAK
        else:
            k = np.searchsorted(self._cumulative, u, side="right")
            np.minimum(k, self._cumulative.size - 1, out=k)
        return np.minimum(k, cap).astype(np.int64)

    def _terms(self):
        """P(0), P(1), ... of the geometric or Poisson law, each term from the last."""
        x = self.params[0]
        term = x if self.kind == "geometric" else math.exp(-x)
        for k in itertools.count(1):
            yield term
            term *= 1.0 - x if self.kind == "geometric" else x / k

    @cached_property
    def _cumulative(self) -> np.ndarray:
        """Running sums the scalar Poisson or table sampler compares u with.

        Poisson: the terms added in turn, stopped once no uniform (at most
        ``1 - 2**-53``) can pass the sum, the terms have underflowed to
        zero, or at the scalar break.
        """
        if self.kind == "table":
            return np.fromiter(itertools.accumulate(self.params), dtype=np.float64)
        sums, cum = [], 0.0
        for k, term in enumerate(self._terms()):
            cum += term
            sums.append(cum)
            if not (cum < 1.0 - 2.0**-53 and term > 0.0 and k < _POISSON_BREAK):
                return np.array(sums)

    def pmf_table(self) -> list:
        """Probabilities P(0), P(1), ..., truncated once the tail is below
        ``_PMF_TAIL_TOL`` or after ``_PMF_CAP`` terms."""
        if self.kind == "table":
            return list(self.params)
        probs, cum = [], 0.0
        for term in self._terms():
            if not (cum < 1.0 - _PMF_TAIL_TOL and len(probs) < _PMF_CAP):
                return probs
            probs.append(term)
            cum += term

    def size_biased_table(self) -> list:
        """P(j) proportional to j * pmf(j); requires positive mean."""
        if self.mean <= 0:
            raise ValidationError("size biasing needs an offspring law with positive mean")
        base = self.pmf_table()
        weights = [j * p for j, p in enumerate(base)]
        total = sum(weights)
        return [w / total for w in weights]

    def extinction_probability(self) -> float:
        """Smallest fixed point of the generating function, by iteration."""
        probs = self.pmf_table()
        s = 0.0
        for _ in range(10_000):
            nxt = sum(p * s**j for j, p in enumerate(probs))
            if abs(nxt - s) < 1e-14:
                return nxt
            s = nxt
        return s


# ---------------------------------------------------------------------------
# deterministic families
# ---------------------------------------------------------------------------

def _check_size(total: int) -> None:
    """Refuse a construction of ``total`` vertices (a lower bound will do)
    above ``HARD_VERTEX_CAP``; called before anything is allocated."""
    if total > HARD_VERTEX_CAP:
        raise ResourceLimitError(
            f"construction would have at least {_shown(total)} vertices, above the "
            f"hard cap {HARD_VERTEX_CAP}")


def segment(n: int) -> RootedTree:
    """Path with n edges (n+1 vertices), rooted at an endpoint."""
    n = _check_count(n, "segment edge count", 0)
    _check_size(n + 1)
    return from_parents(n + 1, np.arange(-1, n))


def binary_of_size(m: int) -> RootedTree:
    """Complete binary tree with exactly m vertices, filled level by level."""
    m = _check_count(m, "binary tree size", 1)
    _check_size(m)
    return from_parents(m, (np.arange(m) - 1) // 2)  # the root gets -1 // 2 == -1


def spherically_symmetric(degrees: Sequence[int]) -> RootedTree:
    """Tree whose vertex degree depends only on the depth.

    ``degrees[k]`` is the graph degree at depth k: the root gets
    ``degrees[0]`` children, a depth-k vertex gets ``degrees[k] - 1``
    children for 1 <= k < len(degrees), and depth ``len(degrees)`` holds
    the leaves.  Interior levels need degree >= 2 so no level dies early.
    """
    kids = [_check_count(d, "root degree", 1) for d in degrees[:1]] + [  # children per vertex
        _check_count(d, f"interior degree at depth {k}", 2) - 1
        for k, d in enumerate(degrees[1:], start=1)]
    total = width = 1
    for c in kids:
        width *= c
        total += width
        if total > HARD_VERTEX_CAP:
            break  # the count only grows: stop before it gets huge
    _check_size(total)
    # vertices numbered level by level, each vertex's children contiguous:
    # every non-leaf vertex, in that order, is the parent of its count
    kids = np.array(kids, dtype=np.int64)
    widths = np.cumprod(np.concatenate(([1], kids)))[:-1]
    counts = np.repeat(kids, widths)
    return from_parents(total, np.concatenate(([-1], np.repeat(np.arange(counts.size), counts))))


def hanging_sizes(tree: RootedTree, v: int) -> np.ndarray:
    """Vertex counts hanging off each root-path vertex, path excluded.

    Entry i counts the vertices reachable from the depth-i path vertex
    without using the path, i.e. the material a retraction replaces.
    """
    size = compute_metrics(tree).subtree_size
    path = root_path(tree, v)
    sizes = size[path] - 1
    sizes[:-1] -= size[path[1:]]  # the next path vertex's subtree is not hanging
    return sizes


def _segment_with_binaries(seg_edges: int, sizes) -> RootedTree:
    """Segment 0..seg_edges with a level-filled binary tree of ``sizes[i]``
    vertices hanging at distance i (size 0 attaches nothing), built as one
    int64 parent array: binary vertex j of a block starting at vertex b has
    parent b + (j - 1) // 2, and its root the segment vertex.  The sizes
    must fit int64; callers refuse larger requests on Python ints first."""
    sizes = np.asarray(sizes, dtype=np.int64)
    _check_size(seg_edges + 1 + int(np.minimum(sizes, HARD_VERTEX_CAP + 1).sum()))
    dist = np.flatnonzero(sizes)
    size = sizes[dist]
    start = np.repeat(np.cumsum(size) - size, size)  # block start, per binary vertex
    local = np.arange(start.size) - start
    hang = np.where(local == 0, np.repeat(dist, size),
                    seg_edges + 1 + start + (local - 1) // 2)
    parent = np.concatenate((np.arange(-1, seg_edges), hang))
    return from_parents(parent.size, parent)


def retraction(tree: RootedTree, v: int) -> RootedTree:
    """Replace everything hanging off the root path to ``v`` by binary trees.

    The result is a segment of length depth(v) rooted at one end with a
    level-filled binary tree of matching size at each path position, so the
    total vertex count and the hanging-size sequence are both preserved.
    """
    if _check_vertex(tree, v) == tree.root:
        raise ValidationError("retraction needs a vertex different from the root")
    sizes = hanging_sizes(tree, v)
    return _segment_with_binaries(sizes.size - 1, sizes)


def cor15_tree(n: int) -> RootedTree:
    """Segment of n edges with a binary tree of size floor(n/(i+1)^2) at
    distance i from the root, for every i in 0..n; the sizes are 0 from
    i = isqrt(n) on, so only the first isqrt(n) are listed, once the
    segment alone is known to fit."""
    n = _check_count(n, "segment edge count", 1)
    _check_size(n + 1)
    i = np.arange(math.isqrt(n), dtype=np.int64)
    return _segment_with_binaries(n, n // (i + 1) ** 2)


def peres_sousi(k: int) -> RootedTree:
    """Doubly-exponential comb: segment of length 2^(2^k) with binary trees
    of size N = (2^(2^k))^3 at the root and N / 2^(2^i) at distance 2^(2^i)
    for i = k/2..k.  Requires k even and >= 2."""
    k = _check_count(k, "parameter k", 2)
    if k % 2:
        raise ValidationError(f"parameter k must be even, got {_shown(k)}")
    _check_size(2 ** 2 ** min(k, 6))  # k >= 6 is refused before 2 ** 2 ** k is made
    n_k = 2 ** (2 ** k)
    big = n_k ** 3
    dist = [0] + [2 ** (2 ** i) for i in range(k // 2, k + 1)]
    size = [big] + [big // d for d in dist[1:]]
    _check_size(n_k + 1 + sum(size))  # on Python ints: these overflow int64 from k = 6
    sizes = np.zeros(n_k + 1, dtype=np.int64)
    sizes[dist] = size
    return _segment_with_binaries(n_k, sizes)


# ---------------------------------------------------------------------------
# random families
# ---------------------------------------------------------------------------

_READ_AHEAD = 64  # fewest draws whose counts are computed at once


def _count_reader(rng: SplitMix64, dist: OffspringDistribution, cap: int):
    """``take(k)``: the offspring counts, clipped to ``cap``, of the next k
    draws of ``rng``, which advances past them.

    Counts are computed for at least ``_READ_AHEAD`` draws at a time, since
    most generations of a critical tree are small; ``rng`` itself moves
    only past the draws taken, so after drawing from it directly a caller
    makes a new reader.
    """
    ahead, used = np.zeros(0, dtype=np.int64), 0

    def take(k: int) -> np.ndarray:
        nonlocal ahead, used
        if used + k > ahead.size:
            ahead, used = dist.counts(rng.peek_array(max(k, _READ_AHEAD)), cap), 0
        rng.skip(k)
        used += k
        return ahead[used - k:used]

    return take


def _grow_branching(take, max_gen: int, room: int) -> Optional[np.ndarray]:
    """Parent array of a branching tree truncated at generation ``max_gen``,
    or None once it has more than ``room`` vertices besides the root.

    Vertices are numbered breadth-first, which is generation order, so one
    ``take`` per generation (see ``_count_reader``, whose cap must exceed
    ``room``) hands every vertex the draw a vertex-by-vertex breadth-first
    loop would; vertices at depth ``max_gen`` draw nothing.
    """
    counts = []
    width, grown = 1, 0
    for _ in range(max_gen):
        if not width:
            break
        c = take(width)
        width = int(c.sum())
        grown += width
        if grown > room:
            return None
        counts.append(c)
    counts = np.concatenate(counts) if counts else np.zeros(0, dtype=np.int64)
    return np.concatenate(([-1], np.repeat(np.arange(counts.size), counts)))


def gw_tree(dist: OffspringDistribution, max_gen: int, seed: int,
            max_vertices: int = DEFAULT_VERTEX_CAP) -> RootedTree:
    """Branching-process tree truncated at generation ``max_gen``."""
    max_gen = _check_count(max_gen, "generation cap", 0)
    cap = min(_check_count(max_vertices, "vertex cap", 0), HARD_VERTEX_CAP)
    room = max(cap - 1, 0)
    parent = _grow_branching(_count_reader(SplitMix64(seed), dist, room + 1), max_gen, room)
    if parent is None:
        raise ResourceLimitError(f"branching process exceeded the vertex cap {cap}")
    return from_parents(parent.size, parent)


def gw_survival_truncated(dist: OffspringDistribution, n: int, seed: int,
                          max_attempts: int = DEFAULT_ATTEMPT_CAP,
                          max_vertices: int = DEFAULT_VERTEX_CAP) -> RootedTree:
    """Supercritical tree conditioned to reach generation n, truncated there.

    Implemented by rejection: regenerate until some vertex sits at depth n.
    Conditioning on reaching generation n stands in for conditioning on
    survival forever; for finite-depth diagnostics the two laws agree on
    everything the truncation keeps.
    """
    if dist.mean <= 1.0:
        raise ValidationError(f"needs a supercritical law, mean {dist.mean} <= 1")
    n = _check_count(n, "target generation", 0)
    max_attempts = _check_count(max_attempts, "attempt cap", 0)
    _check_count(max_vertices, "vertex cap", 0)  # before any attempt
    for attempt in range(max_attempts):
        tree = gw_tree(dist, n, derive_seed(seed, attempt), max_vertices)
        if tree.height == n:
            return tree
    survival = 1.0 - dist.extinction_probability()
    raise RejectionCapError(
        f"no tree reached generation {n} in {max_attempts} attempts "
        f"(asymptotic survival probability ~ {survival:.3g})",
        attempts=max_attempts, acceptance_estimate=survival)


_BLOCK = 1024  # rejection attempts scored together
_FIRST_DRAWS = 8  # draws per live attempt in the first pass; each later pass doubles
_PASS_DRAWS = 1 << 20  # most draws one scoring pass takes, whatever n is


def _first_accepted(dist: OffspringDistribution, n: int, seeds: np.ndarray) -> Optional[int]:
    """The first stream in ``seeds`` whose breadth-first growth ends with
    exactly n vertices, or None.

    Draw j of a stream is the child count c_j of vertex j-1.  With
    ``T_k = 1 + c_1 + ... + c_k`` vertices after k of them are processed,
    the growth stops at the first k with ``T_k = k``, so it ends with
    exactly n vertices iff ``k < T_k <= n`` for every k < n and
    ``T_n = n``; that is ``min(k, n-1) < T_k <= n`` for k = 1..n.  The rule
    is checked a pass at a time on the live attempts: a C-ordered (draws x
    attempts) array of at most ``_PASS_DRAWS`` entries (or one row), summed
    and tested down its columns.  T never decreases, so a pass's last row
    alone decides ``T_k <= n``.
    """
    rows, total = np.arange(seeds.size), np.ones(seeds.size, dtype=np.int64)
    k, width = 0, _FIRST_DRAWS
    while rows.size and k < n:
        width = min(width, n - k, max(_PASS_DRAWS // rows.size, 1))
        T = dist.counts(uniforms(seeds[rows], k + 1, width).T, n + 1)
        T[0] += total
        np.cumsum(T, axis=0, out=T)
        floor = np.minimum(np.arange(k + 1, k + width + 1), n - 1)
        alive = (T > floor[:, None]).all(axis=0) & (T[-1] <= n)
        rows, total = rows[alive], T[-1, alive]
        k, width = k + width, 2 * width
    return int(seeds[rows[0]]) if rows.size else None


def _conditioned_tree(dist: OffspringDistribution, n: int, seed: int,
                      max_attempts: int = DEFAULT_ATTEMPT_CAP) -> Tuple[RootedTree, SplitMix64]:
    """The unlabeled tree of ``gw_conditioned_size`` and its stream, past the tree's n draws."""
    n = _check_count(n, "target size", 1)
    max_attempts = _check_count(max_attempts, "attempt cap", 0)
    _check_size(n)
    for a in range(0, max_attempts, _BLOCK):
        hit = _first_accepted(dist, n, derive_seeds(seed, a, min(a + _BLOCK, max_attempts)))
        if hit is not None:
            rng = SplitMix64(hit)
            counts = dist.counts(rng.random_array(n), n)
            return from_parents(n, np.concatenate(([-1], np.repeat(np.arange(n), counts)))), rng
    raise RejectionCapError(f"no tree of size exactly {n} in {max_attempts} attempts",
                            attempts=max_attempts)


def gw_conditioned_size(dist: OffspringDistribution, n: int, seed: int,
                        max_attempts: int = DEFAULT_ATTEMPT_CAP,
                        reroot_at_label_one: bool = False,
                        ) -> Tuple[RootedTree, np.ndarray]:
    """Branching-process tree conditioned on exactly n vertices, plus a
    uniform labeling by 1..n.

    Rejection sampling: attempt a grows a tree breadth-first from the
    stream ``derive_seed(seed, a)``, one draw per vertex, and the first
    attempt that ends with exactly n vertices is kept; its labels come from
    a Fisher-Yates shuffle that continues the same stream.  Attempts are
    scored as arrays, 1024 at a time, each live one only as far as it can
    still succeed.  Acceptance decays like n^-3/2 for critical laws.  On a
    2-vCPU Xeon host, one ``python -m timeit -n 1 -r 1`` call per seed 1-10
    took a median of 0.07 s for a ``geometric(0.5)`` tree of 1000 vertices
    and 0.78 s for one of 3000, where seeds 6 and 10 run out of the default
    10^6 attempts.  The tree stays rooted at the progenitor unless
    ``reroot_at_label_one`` re-roots it at the vertex labeled 1.
    """
    tree, rng = _conditioned_tree(dist, n, seed, max_attempts)
    labels = list(range(1, tree.n + 1))
    rng.shuffle(labels)
    labels = np.array(labels, dtype=np.int64)
    if reroot_at_label_one:
        tree = reroot(tree, int(np.nonzero(labels == 1)[0][0]))
    return tree, labels


def kesten_tree(dist: OffspringDistribution, n: int, seed: int,
                max_vertices: int = DEFAULT_VERTEX_CAP) -> RootedTree:
    """Size-biased spine tree for a (sub)critical law, truncated at depth n.

    The spine runs from the root to depth n.  Each spine vertex above the
    bottom draws a size-biased offspring count, one uniformly chosen child
    continues the spine, and every other child grows an ordinary branching
    subtree truncated at total depth n.  The subtrees draw from the same
    stream, one after another, each numbered breadth-first after the
    vertices already built.
    """
    if dist.mean > 1.0:
        raise ValidationError(f"needs mean <= 1, got {dist.mean}")
    n = _check_count(n, "spine depth", 0)
    max_vertices = min(_check_count(max_vertices, "vertex cap", 0), HARD_VERTEX_CAP)
    spine_law = OffspringDistribution.table(dist.size_biased_table())
    rng = SplitMix64(seed)
    parent = [np.array([-1])]
    size = 1
    spine = 0
    for d in range(n):
        count = int(spine_law.counts(rng.random_array(1),
                                     len(spine_law.params))[0])
        kids = range(size, size + count)
        parent.append(np.full(count, spine))
        size += count
        if size > max_vertices:
            raise ResourceLimitError(f"spine tree exceeded the vertex cap {max_vertices}")
        pos = rng.below(count)
        take = _count_reader(rng, dist, max_vertices + 1)
        for idx, child in enumerate(kids):
            if idx == pos:
                continue
            sub = _grow_branching(take, n - d - 1, max_vertices - size)
            if sub is None:
                raise ResourceLimitError(
                    f"spine tree exceeded the vertex cap {max_vertices}")
            # subtree vertex i >= 1 becomes size + i - 1; its root is ``child``
            sub = sub[1:]
            parent.append(np.where(sub == 0, child, sub + size - 1))
            size += sub.size
        spine = kids[pos]
    parent = np.concatenate(parent)
    return from_parents(parent.size, parent)


# ---------------------------------------------------------------------------
# contour functions
# ---------------------------------------------------------------------------

class Contour(NamedTuple):
    """Depth-first walk of a tree: 2n-1 vertex steps, each edge crossed twice."""

    steps: np.ndarray
    depths: np.ndarray
    n: int


def contour(tree: RootedTree, labels: Sequence[int]) -> Contour:
    """Contour walk visiting children in ascending label order.

    ``labels`` must be a permutation of 1..n indexed by vertex.  Each step
    is placed, not walked to: with the children of every vertex ordered by
    label, the preorder number pre(v) sums, along the root path of v, one
    plus the subtree sizes of the earlier siblings (one ``ancestor_sum``).
    The walk first reaches v at step 2 pre(v) - depth(v), and steps from v
    back to its parent 2 |subtree(v)| - 1 steps later.
    """
    labels = _check_array(labels, "labels", shape=(tree.n,), integer=True, low=1, high=tree.n)
    if np.unique(labels).size != tree.n:
        raise ValidationError("labels must be a permutation of 1..n, one per vertex")
    metrics = compute_metrics(tree)
    size, depth = metrics.subtree_size, metrics.depth
    # after the root's -1, each child list by label, from where searchsorted finds its parent
    kids = np.lexsort((labels, tree.parent))[1:]
    up = tree.parent[kids]
    before = np.cumsum(size[kids]) - size[kids]
    own = np.zeros(tree.n, dtype=np.int64)
    own[kids] = 1 + before - before[np.searchsorted(up, up)]
    first = 2 * _kernels.ancestor_sum(tree, own) - depth
    steps = np.empty(2 * tree.n - 1, dtype=np.int64)
    steps[first] = np.arange(tree.n)
    steps[first[kids] + 2 * size[kids] - 1] = up
    return Contour(steps=steps, depths=depth[steps], n=tree.n)


def normalized_contour(cont: Contour, c: float = 1.0) -> np.ndarray:
    """Sample table of the rescaled contour on [0, 1].

    Row i holds (i/2n, c * n^(-1/2) * depth(step i)) for i = 1..2n-1, with
    zero endpoints pinned at 0 and 1; linear interpolation between rows
    recovers the full function.
    """
    c = _check_real(c, "normalization constant", 0, ends="()")
    n = cont.n
    xs = np.arange(2 * n + 1, dtype=np.float64) / (2 * n)
    ys = np.zeros(2 * n + 1, dtype=np.float64)
    ys[1:2 * n] = c * n ** -0.5 * cont.depths
    return np.column_stack([xs, ys])
