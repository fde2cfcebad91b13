"""Constructions of every tree family the analysis runs on.

Deterministic families: segments, level-filled binary trees, spherically
symmetric trees, retractions along a root path, the inverse-square comb
(CLI family ``cor15``), and the doubly-exponential comb of Peres and Sousi.
Random families: branching-process (Galton-Watson) trees truncated at a
generation, conditioned on reaching a generation, conditioned on total
size, and the size-biased spine (Kesten) tree for critical offspring laws.

All random generators are pure functions of ``(parameters, seed)`` driven
by the SplitMix64 stream in :mod:`treecut.rng`; reference outputs are
frozen in the test fixtures.  Sampling order is breadth-first over the
vertices created so far, so two runs with the same seed build identical
parent arrays.

Size conventions: a "segment of size n" has n edges, so vertices sit at
distances 0..n from the root.  ``binary_of_size(m)`` fills levels left to
right and may leave the last level partial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import RejectionCapError, ResourceLimitError, ValidationError
from .rng import SplitMix64, derive_seed
from .tree import RootedTree, compute_metrics, from_parents, reroot, root_path

__all__ = [
    "OffspringDistribution", "Contour", "segment", "binary_of_size",
    "spherically_symmetric", "retraction", "hanging_sizes", "cor15_tree",
    "peres_sousi", "gw_tree", "gw_survival_truncated", "gw_conditioned_size",
    "kesten_tree", "contour", "normalized_contour",
]

DEFAULT_VERTEX_CAP = 1_000_000
DEFAULT_ATTEMPT_CAP = 1_000_000
HARD_VERTEX_CAP = 20_000_000  # refuse constructions beyond this outright


# ---------------------------------------------------------------------------
# offspring distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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
        if not 0.0 < p <= 1.0:
            raise ValidationError(f"geometric parameter must be in (0, 1], got {p}")
        q = 1.0 - p
        return OffspringDistribution("geometric", (p,), q / p, q / p**2)

    @staticmethod
    def poisson(lam: float) -> "OffspringDistribution":
        if lam < 0:
            raise ValidationError(f"poisson rate must be >= 0, got {lam}")
        if math.exp(-lam) == 0.0:
            raise ValidationError(f"poisson rate {lam} too large: exp(-rate) underflows to 0")
        return OffspringDistribution("poisson", (lam,), lam, lam)

    @staticmethod
    def table(probs: Sequence[float]) -> "OffspringDistribution":
        probs = tuple(float(p) for p in probs)
        if not probs or any(p < 0 for p in probs):
            raise ValidationError("table probabilities must be nonnegative and nonempty")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ValidationError(f"table probabilities sum to {sum(probs)}, not 1")
        mean = sum(j * p for j, p in enumerate(probs))
        var = sum(j * j * p for j, p in enumerate(probs)) - mean**2
        return OffspringDistribution("table", probs, mean, var)

    def sample(self, rng: SplitMix64) -> int:
        if self.kind == "geometric":
            return rng.geometric(self.params[0])
        if self.kind == "poisson":
            return rng.poisson(self.params[0])
        return rng.from_table(self.params)

    def pmf_table(self, tail_tol: float = 1e-15, cap: int = 100_000) -> list:
        """Probabilities P(0), P(1), ... truncated once the tail is < tail_tol."""
        if self.kind == "table":
            return list(self.params)
        probs = []
        if self.kind == "geometric":
            p = self.params[0]
            cum, j, term = 0.0, 0, p
            while cum < 1.0 - tail_tol and j < cap:
                probs.append(term)
                cum += term
                term *= 1.0 - p
                j += 1
        else:
            lam = self.params[0]
            term = math.exp(-lam)
            cum, j = 0.0, 0
            while cum < 1.0 - tail_tol and j < cap:
                probs.append(term)
                cum += term
                j += 1
                term *= lam / j
        return probs

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

def segment(n: int) -> RootedTree:
    """Path with n edges (n+1 vertices), rooted at an endpoint."""
    if n < 0:
        raise ValidationError(f"segment edge count must be >= 0, got {n}")
    return from_parents(n + 1, np.arange(-1, n))


def binary_of_size(m: int) -> RootedTree:
    """Complete binary tree with exactly m vertices, filled level by level."""
    if m < 1:
        raise ValidationError(f"binary tree size must be >= 1, got {m}")
    return from_parents(m, (np.arange(m) - 1) // 2)  # the root gets -1 // 2 == -1


def spherically_symmetric(degrees: Sequence[int]) -> RootedTree:
    """Tree whose vertex degree depends only on the depth.

    ``degrees[k]`` is the graph degree at depth k: the root gets
    ``degrees[0]`` children, a depth-k vertex gets ``degrees[k] - 1``
    children for 1 <= k < len(degrees), and depth ``len(degrees)`` holds
    the leaves.  Interior levels need degree >= 2 so no level dies early.
    """
    degrees = [int(d) for d in degrees]
    if not degrees:
        return from_parents(1, [-1])
    if degrees[0] < 1:
        raise ValidationError(f"root degree must be >= 1, got {degrees[0]}")
    for k, d in enumerate(degrees[1:], start=1):
        if d < 2:
            raise ValidationError(f"interior degree at depth {k} must be >= 2, got {d}")
    parent = [-1]
    level = [0]
    for k, d in enumerate(degrees):
        kids_per = d if k == 0 else d - 1
        nxt = []
        for v in level:
            for _ in range(kids_per):
                nxt.append(len(parent))
                parent.append(v)
        level = nxt
    return from_parents(len(parent), parent)


def hanging_sizes(tree: RootedTree, v: int) -> np.ndarray:
    """Vertex counts hanging off each root-path vertex, path excluded.

    Entry i counts the vertices reachable from the depth-i path vertex
    without using the path, i.e. the material a retraction replaces.
    """
    metrics = compute_metrics(tree)
    path = root_path(tree, v)
    on_path = set(path)
    sizes = np.zeros(len(path), dtype=np.int64)
    for i, u in enumerate(path):
        sizes[i] = sum(int(metrics.subtree_size[c]) for c in tree.children(u)
                       if int(c) not in on_path)
    return sizes


def _segment_with_binaries(seg_edges: int, attachments) -> RootedTree:
    """Segment 0..seg_edges with a level-filled binary tree of the given
    size hanging at each listed distance (size 0 attaches nothing)."""
    total = seg_edges + 1 + sum(max(size, 0) for _, size in attachments)
    if total > HARD_VERTEX_CAP:
        raise ResourceLimitError(
            f"construction would have {total} vertices, above the hard cap "
            f"{HARD_VERTEX_CAP}")
    parent = [-1] + list(range(seg_edges))
    for dist, size in attachments:
        if size <= 0:
            continue
        base = len(parent)
        parent.append(dist)  # binary root hangs off the segment vertex
        parent.extend(base + (i - 1) // 2 for i in range(1, size))
    return from_parents(len(parent), parent)


def retraction(tree: RootedTree, v: int) -> RootedTree:
    """Replace everything hanging off the root path to ``v`` by binary trees.

    The result is a segment of length depth(v) rooted at one end with a
    level-filled binary tree of matching size at each path position, so the
    total vertex count and the hanging-size sequence are both preserved.
    """
    if v == tree.root:
        raise ValidationError("retraction needs a vertex different from the root")
    sizes = hanging_sizes(tree, v)
    k = len(sizes) - 1
    return _segment_with_binaries(k, list(enumerate(int(s) for s in sizes)))


def cor15_tree(n: int) -> RootedTree:
    """Segment of n edges with a binary tree of size floor(n/(i+1)^2) at
    distance i from the root, for every i in 0..n."""
    if n < 1:
        raise ValidationError(f"family parameter must be >= 1, got {n}")
    return _segment_with_binaries(n, [(i, n // (i + 1) ** 2) for i in range(n + 1)])


def peres_sousi(k: int) -> RootedTree:
    """Doubly-exponential comb: segment of length 2^(2^k) with binary trees
    of size N = (2^(2^k))^3 at the root and N / 2^(2^i) at distance 2^(2^i)
    for i = k/2..k.  Requires k even and >= 2."""
    if k < 2 or k % 2:
        raise ValidationError(f"parameter must be even and >= 2, got {k}")
    n_k = 2 ** (2 ** k)
    big = n_k ** 3
    attachments = [(0, big)]
    attachments += [(2 ** (2 ** i), big // 2 ** (2 ** i)) for i in range(k // 2, k + 1)]
    return _segment_with_binaries(n_k, attachments)


# ---------------------------------------------------------------------------
# random families
# ---------------------------------------------------------------------------

def _grow_branching(rng: SplitMix64, sample, max_gen: int,
                    max_vertices: int, abort_over: Optional[int] = None):
    """Breadth-first branching process; returns the parent list or None when
    ``abort_over`` is exceeded (used by the rejection samplers)."""
    parent = [-1]
    depth = [0]
    head = 0
    while head < len(parent):
        v = head
        head += 1
        if depth[v] >= max_gen:
            continue
        for _ in range(sample(rng)):
            parent.append(v)
            depth.append(depth[v] + 1)
            if abort_over is not None and len(parent) > abort_over:
                return None
            if len(parent) > max_vertices:
                raise ResourceLimitError(
                    f"branching process exceeded the vertex cap {max_vertices}")
    return parent


def gw_tree(dist: OffspringDistribution, max_gen: int, seed: int,
            max_vertices: int = DEFAULT_VERTEX_CAP) -> RootedTree:
    """Branching-process tree truncated at generation ``max_gen``."""
    if max_gen < 0:
        raise ValidationError(f"generation cap must be >= 0, got {max_gen}")
    rng = SplitMix64(seed)
    parent = _grow_branching(rng, dist.sample, max_gen, max_vertices)
    return from_parents(len(parent), parent)


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
    if n < 0:
        raise ValidationError(f"target generation must be >= 0, got {n}")
    for attempt in range(max_attempts):
        rng = SplitMix64(derive_seed(seed, attempt))
        parent = _grow_branching(rng, dist.sample, n, max_vertices)
        tree = from_parents(len(parent), parent)
        if tree.height == n:
            return tree
    survival = 1.0 - dist.extinction_probability()
    raise RejectionCapError(
        f"no tree reached generation {n} in {max_attempts} attempts "
        f"(asymptotic survival probability ~ {survival:.3g})",
        attempts=max_attempts, acceptance_estimate=survival)


def gw_conditioned_size(dist: OffspringDistribution, n: int, seed: int,
                        max_attempts: int = DEFAULT_ATTEMPT_CAP,
                        reroot_at_label_one: bool = False,
                        ) -> Tuple[RootedTree, np.ndarray]:
    """Branching-process tree conditioned on exactly n vertices, plus a
    uniform labeling by 1..n.

    Rejection sampling with early abort once a draft exceeds n vertices;
    practical for n up to a few hundred (acceptance decays like n^-3/2 for
    critical laws).  The tree stays rooted at the progenitor unless
    ``reroot_at_label_one`` re-roots it at the vertex labeled 1.
    """
    if n < 1:
        raise ValidationError(f"target size must be >= 1, got {n}")
    for attempt in range(max_attempts):
        rng = SplitMix64(derive_seed(seed, attempt))
        parent = _grow_branching(rng, dist.sample, max_gen=n + 1,
                                 max_vertices=n + 2, abort_over=n)
        if parent is None or len(parent) != n:
            continue
        tree = from_parents(n, parent)
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        labels = np.array(labels, dtype=np.int64)
        if reroot_at_label_one:
            tree = reroot(tree, int(np.nonzero(labels == 1)[0][0]))
        return tree, labels
    raise RejectionCapError(
        f"no tree of size exactly {n} in {max_attempts} attempts",
        attempts=max_attempts)


def kesten_tree(dist: OffspringDistribution, n: int, seed: int,
                max_vertices: int = DEFAULT_VERTEX_CAP) -> RootedTree:
    """Size-biased spine tree for a (sub)critical law, truncated at depth n.

    The spine runs from the root to depth n.  Each spine vertex above the
    bottom draws a size-biased offspring count, one uniformly chosen child
    continues the spine, and every other child grows an ordinary branching
    subtree truncated at total depth n.
    """
    if dist.mean > 1.0:
        raise ValidationError(f"needs mean <= 1, got {dist.mean}")
    sb_table = dist.size_biased_table()
    rng = SplitMix64(seed)
    parent = [-1]
    spine = 0
    for d in range(n):
        count = rng.from_table(sb_table)
        kids = []
        for _ in range(count):
            kids.append(len(parent))
            parent.append(spine)
        pos = rng.below(count)
        for idx, child in enumerate(kids):
            if idx == pos:
                continue
            # ordinary subtree below this child, depth-limited to n overall
            queue = [(child, d + 1)]
            head = 0
            while head < len(queue):
                v, dv = queue[head]
                head += 1
                if dv >= n:
                    continue
                for _ in range(dist.sample(rng)):
                    queue.append((len(parent), dv + 1))
                    parent.append(v)
                    if len(parent) > max_vertices:
                        raise ResourceLimitError(
                            f"spine tree exceeded the vertex cap {max_vertices}")
        spine = kids[pos]
    return from_parents(len(parent), parent)


# ---------------------------------------------------------------------------
# contour functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Contour:
    """Depth-first walk of a tree: 2n-1 vertex steps, each edge crossed twice."""

    steps: np.ndarray
    depths: np.ndarray
    n: int
    scale: float = 1.0


def contour(tree: RootedTree, labels: Sequence[int]) -> Contour:
    """Contour walk visiting children in ascending label order.

    ``labels`` must be a permutation of 1..n indexed by vertex.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (tree.n,) or sorted(labels.tolist()) != list(range(1, tree.n + 1)):
        raise ValidationError("labels must be a permutation of 1..n, one per vertex")
    depth = compute_metrics(tree).depth
    steps = []
    # stack holds (vertex, iterator over its children sorted by label)
    order_children = lambda v: sorted((int(c) for c in tree.children(v)),
                                      key=lambda c: labels[c])
    stack = [(tree.root, iter(order_children(tree.root)))]
    steps.append(tree.root)
    while stack:
        v, it = stack[-1]
        child = next(it, None)
        if child is None:
            stack.pop()
            if stack:
                steps.append(stack[-1][0])
        else:
            steps.append(child)
            stack.append((child, iter(order_children(child))))
    steps = np.array(steps, dtype=np.int64)
    return Contour(steps=steps, depths=depth[steps], n=tree.n)


def normalized_contour(cont: Contour, c: Optional[float] = None) -> np.ndarray:
    """Sample table of the rescaled contour on [0, 1].

    Row i holds (i/2n, c * n^(-1/2) * depth(step i)) for i = 1..2n-1, with
    zero endpoints pinned at 0 and 1; linear interpolation between rows
    recovers the full function.
    """
    scale = cont.scale if c is None else float(c)
    if scale <= 0:
        raise ValidationError(f"normalization constant must be positive, got {scale}")
    n = cont.n
    xs = np.arange(2 * n + 1, dtype=np.float64) / (2 * n)
    ys = np.zeros(2 * n + 1, dtype=np.float64)
    ys[1:2 * n] = scale * n ** -0.5 * cont.depths
    return np.column_stack([xs, ys])
