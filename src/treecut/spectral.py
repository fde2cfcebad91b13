"""Spectra of the variable-speed walk generator and the spectral bounds.

The walk moves along every edge at rate 1, so its generator is A - D and
the spectral gap equals the second-smallest eigenvalue of the Laplacian
Q = D - A.  Everything here is derived from Q: exact dense spectra (below a
configurable vertex cap), an iterative gap solver for larger trees, the
bottom eigenpairs certified by an inertia count, the discrete Hardy
characterization with its two-sided interval, weighted-path upper bounds
on the relaxation time, and the exact constrained-minimum ``nu`` of
squared edge weights covering a vertex set.

Dense eigendecompositions use the LAPACK symmetric solver and are cached
per tree.  The dense cap defaults to 4096 vertices and can be overridden
with the ``TREECUT_MAX_VERTICES`` environment variable.  Every other
eigenvalue comes from one Lanczos solver over tree passes: the gap above
the cap, the Hardy constants, and the eigenpairs below a floor
(``bottom_pairs``, which the mixing module searches on for larger and
tall trees under the cap, restarted through repeated eigenvalues).
``count_below`` counts the eigenvalues below a shift by Sylvester's law
of inertia, in one leaves-to-root elimination; it certifies that
``bottom_pairs`` missed none.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .errors import (DegenerateInputError, ResourceLimitError, ValidationError,
                     _check_array, _check_count, _check_real)
from .rng import SplitMix64, derive_seed
from .tree import (CenterOfMass, RootedTree, _lca_depth,
                   _per_tree, center_of_mass, compute_metrics, from_parents, max_edge_load,
                   max_path_load, reroot, root_path, tail_profile)

__all__ = [
    "Eigensystem", "SpectrumResult", "HardyCertificate", "HardyLowerBound",
    "dense_cap", "laplacian", "decompose", "spectrum",
    "gap_iterative", "count_below", "bottom_pairs",
    "hardy_constant", "hardy_interval", "retraction_weights", "weighted_path_bound",
    "bound_log_diameter", "bound_summable_weights", "bound_path_load",
    "bound_tail", "hardy_lower", "nu_exact",
]

DEFAULT_DENSE_CAP = 4096


def dense_cap() -> int:
    """Vertex cap for dense eigensolves; TREECUT_MAX_VERTICES overrides."""
    raw = os.environ.get("TREECUT_MAX_VERTICES")
    if raw is None:
        return DEFAULT_DENSE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValidationError(f"TREECUT_MAX_VERTICES is not an integer: {raw!r}") from None
    return _check_count(cap, "TREECUT_MAX_VERTICES", 1)


def _over_cap(n: int, cap: int) -> ResourceLimitError:
    """The refusal of a tree of n vertices above the dense cap ``cap``."""
    return ResourceLimitError(
        f"tree has {n} vertices, above the dense cap {cap}; "
        "use gap_iterative for gap-only queries or raise TREECUT_MAX_VERTICES")


@dataclass(frozen=True, eq=False)
class Eigensystem:
    """Eigenpairs of Q = D - A, values ascending, vectors as columns.

    The first pair is exactly the constant mode: eigenvalue 0.0 and every
    entry of its vector 1 / sqrt(n).  ``decompose`` gives all of them;
    ``bottom_pairs`` only those below ``floor``, which every omitted
    eigenvalue is at least (infinite when none is omitted).
    """

    values: np.ndarray
    vectors: np.ndarray
    floor: float = np.inf


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray
    gap: float
    t_rel: float


def laplacian(tree: RootedTree) -> np.ndarray:
    """Dense symmetric Laplacian Q = D - A; every row sums to zero."""
    Q = np.diag(tree.degrees().astype(np.float64))
    nonroot = np.nonzero(tree.parent >= 0)[0]
    pars = tree.parent[nonroot]
    Q[nonroot, pars] = -1.0
    Q[pars, nonroot] = -1.0
    return Q


def decompose(tree: RootedTree) -> Eigensystem:
    """Dense eigendecomposition, made once per tree; refuses trees above the
    dense cap, cached or not.

    ``eigh``'s first pair (eigenvalue about 1e-15, a near-constant vector)
    is replaced by the exact constant mode.
    """
    cap = dense_cap()
    if tree.n > cap:
        raise _over_cap(tree.n, cap)
    return _eigh(tree)


@_per_tree
def _eigh(tree: RootedTree) -> Eigensystem:
    values, vectors = np.linalg.eigh(laplacian(tree))
    values[0], vectors[:, 0] = 0.0, 1.0 / np.sqrt(tree.n)
    return Eigensystem(values=values, vectors=vectors)


def spectrum(tree: RootedTree) -> SpectrumResult:
    """Eigenvalues of Q, the spectral gap, and the relaxation time 1/gap."""
    if tree.n < 2:
        raise DegenerateInputError("the spectral gap is undefined for a single vertex")
    eig = decompose(tree)
    gap = float(eig.values[1])
    return SpectrumResult(eigenvalues=eig.values, gap=gap, t_rel=1.0 / gap)


LANCZOS_TOL = 1e-10  # relative Ritz residual at which a solve stops
LANCZOS_MAX_STEPS = 1000
LANCZOS_SEED = 0x5EED  # start vector of the gap solve


def _lanczos_top(apply: Callable[[np.ndarray], np.ndarray],
                 project: Callable[[np.ndarray], None], start,
                 wanted: Optional[Callable[[np.ndarray, np.ndarray], int]] = None):
    """Top Ritz pairs of a symmetric positive semi-definite operator.

    Lanczos from ``start`` with two-pass full reorthogonalization; ``project``
    maps a vector in place onto the operator's subspace and is applied to
    the start and to each new Lanczos vector.  A check solves the
    tridiagonal matrix and tells ``wanted(thetas, done)`` the Ritz values,
    descending, and which of them have relative Ritz residual at most
    ``LANCZOS_TOL``; it names how many top pairs k the caller needs (one by
    default).  The run stops once those have all converged (k = 0 stops it
    at once), when the Krylov space is exhausted, or after
    ``LANCZOS_MAX_STEPS`` steps.  The next check comes ceil(k/4) steps
    later (every step for one pair), or at once if the new residual norm
    is small enough against a Gershgorin bound of the matrix that the
    space may be exhausted.  The basis starts with 32 rows, enough for
    one-pair solves, and doubles as it fills.
    Returns ``thetas``, ``done`` and the Ritz vectors of the pairs last
    wanted, as columns.
    """
    q = np.array(start, dtype=np.float64)
    project(q)
    q /= np.linalg.norm(q)
    basis = np.empty((32, q.size))
    alphas, betas = [], []
    check, bound = 1, 0.0
    for j in range(LANCZOS_MAX_STEPS):
        if j == len(basis):
            basis = np.concatenate([basis, np.empty_like(basis)])
        basis[j] = q
        w = apply(q)
        alphas.append(float(w @ q))
        w -= alphas[j] * q
        if j > 0:
            w -= betas[j - 1] * basis[j - 1]
        for _ in range(2):
            w -= basis[:j + 1].T @ (basis[:j + 1] @ w)
        project(w)
        beta = float(np.linalg.norm(w))
        betas.append(beta)
        bound = max(bound, alphas[j] + (betas[j - 1] if j else 0.0) + beta)
        if j + 1 < min(check, LANCZOS_MAX_STEPS) and beta > 1e-14 * max(bound, 1.0):
            q = w / beta
            continue
        T = np.diag(alphas) + np.diag(betas[:j], 1) + np.diag(betas[:j], -1)
        vals, vecs = np.linalg.eigh(T)
        thetas, vecs = vals[::-1], vecs[:, ::-1]
        done = np.abs(beta * vecs[-1]) <= LANCZOS_TOL * np.maximum(thetas, 1e-300)
        k = wanted(thetas, done) if wanted else 1
        if (k <= j + 1 and done[:k].all()) or beta <= 1e-14 * max(thetas[0], 1.0):
            break
        check = j + 1 + -(-k // 4)
        q = w / beta
    return thetas, done, basis[:j + 1].T @ vecs[:, :k]


def _pinv_top(tree: RootedTree, wanted=None, run: int = 0, found=None):
    """``_lanczos_top`` on the pseudo-inverse of Q over the mean-zero
    subspace, from a seeded start: its top Ritz pairs are the bottom
    eigenpairs of Q.  Each application is one O(n) tree solve: the
    Dirichlet solve of Q with the root pinned to 0, ``(D - A) x = w`` on the
    other rows, is the subtree sums of w accumulated down the root paths,
    since child-to-parent elimination leaves every pivot 1 (no fill-in on a
    tree).  Run 0 starts from the SplitMix64 vector of ``LANCZOS_SEED``, run
    r from that of ``derive_seed(LANCZOS_SEED, r)``; the columns of
    ``found`` (orthonormal, mean zero) are projected out of every vector,
    twice, so the run sees Q deflated by them."""
    def apply_pinv(v):
        w = v - v.mean()
        x = _kernels.ancestor_sum(tree, _kernels.subtree_sum(tree, w))
        return x - x.mean()

    def project(v):
        v -= v.mean()
        if found is not None:
            for _ in range(2):
                v -= found @ (found.T @ v)

    seed = derive_seed(LANCZOS_SEED, run) if run else LANCZOS_SEED
    start = SplitMix64(seed).random_array(tree.n) - 0.5
    return _lanczos_top(apply_pinv, project, start, wanted)


def gap_iterative(tree: RootedTree) -> float:
    """Spectral gap without a dense solve, for trees above the dense cap.

    The gap is 1/theta for the top Ritz value theta of the pseudo-inverse
    of Q on the mean-zero subspace (``_pinv_top``), converged to relative
    Ritz residual ``LANCZOS_TOL`` like every Lanczos solve here.
    """
    if tree.n < 2:
        raise DegenerateInputError("the spectral gap is undefined for a single vertex")
    theta = float(_pinv_top(tree)[0][0])
    if theta <= 0:
        raise ResourceLimitError("iterative gap solver failed to find a positive Ritz value")
    return 1.0 / theta


def count_below(tree: RootedTree, sigma: float) -> int:
    """Number of eigenvalues of Q below ``sigma``, by Sylvester's law of inertia.

    Eliminating Q - sigma I from the leaves to the root leaves one pivot
    per vertex; the number of negative pivots is the number of eigenvalues
    below sigma (Jacobs & Trevisan, "Locating the eigenvalues of trees",
    Linear Algebra Appl. 434, 2011).  The pivots are carried in
    differential form: ``e_v = d_v - 1 = -sigma + sum_c e_c / (1 + e_c)``
    over the children c of a non-root v (pivot ``1 + e_v``), the root's
    pivot being that sum itself.  This avoids the cancellation of
    ``d_v = deg_v - sigma - sum_c 1/d_c`` when sigma is small.  A zero pivot
    at a child sends its term, and so its parent's pivot, to -inf; as in
    Jacobs & Trevisan, that parent counts as negative and its edge upward
    is cut: it passes only the 1 its degree adds.  One vectorized step per
    level, deepest first.  ``ValidationError`` unless sigma is a real number, not NaN.
    """
    sigma = _check_real(sigma, "sigma")
    order = np.argsort(tree.depth, kind="stable")
    ends = np.cumsum(np.bincount(tree.depth))
    position = np.empty(tree.n, dtype=np.int64)
    position[order] = np.arange(tree.n)
    up = position[tree.parent[order[1:]]]  # parent position, by position - 1
    acc = np.full(tree.n, -sigma)   # e_v so far, by position
    pivot = np.empty(tree.n)
    with np.errstate(divide="ignore", invalid="ignore"):
        for d in range(len(ends) - 1, 0, -1):
            lo, hi = ends[d - 1], ends[d]
            e = acc[lo:hi]
            np.add(e, 1.0, out=pivot[lo:hi])
            term = e / pivot[lo:hi]
            term[np.isnan(term)] = 1.0  # -inf / -inf: a cut edge still counts in the degree
            np.add.at(acc, up[lo - 1:hi - 1], term)
    pivot[0] = acc[0]  # the root
    return int(np.count_nonzero(pivot < 0))


def bottom_pairs(tree: RootedTree, span: float) -> Optional[Eigensystem]:
    """Every eigenpair of Q with eigenvalue below ``span`` times the gap.

    ``_pinv_top`` runs until its top pair (the gap) converges, which fixes
    the floor ``sigma = span * gap``; ``count_below(sigma)`` then says how
    many eigenvalues p lie below it, and the run goes on until p Ritz pairs
    have converged, each inside the floor by more than its residual, or for
    ``3 p + 40`` steps (about 2.5 steps per pair suffice without repeats).
    One Krylov space holds one vector per distinct eigenvalue, so repeated
    eigenvalues below the floor (stars, spherically symmetric trees, equal
    legs on a vertex) leave the count unmet.  Then the converged pairs
    inside the floor are kept, and deflated restarts (Parlett, *The
    Symmetric Eigenvalue Problem*, ch. 13) seek the m still missing: runs of
    ``_pinv_top`` from new seeds with the kept pairs projected out, each for
    at most ``3 m + 40`` steps.  None is returned, for the caller to use
    ``decompose``, if the gap never converges or at either exit of the
    restarts: a run that converges no new pair (a stall), or the count
    unmet after ``LANCZOS_MAX_STEPS`` steps over all runs (the step
    budget).  Otherwise the result holds eigenvalue 0 with the constant
    vector and the pairs found, ascending, with ``floor`` sigma: every
    eigenvalue it omits is at least sigma.  ``ValidationError`` unless span > 1.
    """
    span = _check_real(span, "span", 1, ends="(]")
    if tree.n < 2:
        return None
    need = []  # [sigma, number of nonzero eigenvalues below it], once known
    thetas, pairs = np.empty(0), np.empty((tree.n, 0))  # kept so far
    left = LANCZOS_MAX_STEPS  # steps the runs may still take

    def inside(values, done):
        return done & (values * (1.0 - LANCZOS_TOL) > 1.0 / need[0])

    def wanted(values, done):
        if not need:
            if not done[0]:
                return 1
            sigma = span / values[0]
            need.extend((sigma, count_below(tree, sigma) - 1))
        m = need[1] - thetas.size
        if len(values) <= min(3 * m + 40, left):
            return m
        # past the run's limit: stop on the leading converged pairs inside
        return min(m, int(np.argmin(np.append(inside(values, done), False))))

    run = 0
    while True:
        values, done, vectors = _pinv_top(tree, wanted, run, pairs if run else None)
        if not need:
            return None
        left -= values.size
        ok = inside(values[:vectors.shape[1]], done[:vectors.shape[1]])
        if not ok.any():  # a stall
            return None
        thetas = np.concatenate((thetas, values[:ok.size][ok]))
        pairs = np.hstack((pairs, vectors[:, ok]))
        if thetas.size == need[1]:
            break
        if left <= 0:  # the step budget
            return None
        run += 1
    sigma, p = need
    order = np.argsort(-thetas, kind="stable")
    const = np.full((tree.n, 1), 1.0 / np.sqrt(tree.n))
    return Eigensystem(values=np.concatenate(([0.0], 1.0 / thetas[order])),
                       vectors=np.hstack([const, pairs[:, order]]),
                       floor=sigma if p < tree.n - 1 else np.inf)


# ---------------------------------------------------------------------------
# the discrete Hardy inequality on a rooted tree
# ---------------------------------------------------------------------------

def _hardy_top(tree: RootedTree) -> float:
    """Top eigenvalue of the Gram operator of the ancestor-incidence map
    (vertices versus edges, the root pinned to 0), whose entry (e, f)
    counts the vertices below both edges: block-diagonal over the components
    of the tree minus its root.  A Ritz value from the edge indicator, so a
    lower bound, converged to relative residual ``LANCZOS_TOL``."""
    def gram(g):
        return _kernels.subtree_sum(tree, _kernels.ancestor_sum(tree, g))

    def on_edges(g):
        g[tree.root] = 0.0

    return float(_lanczos_top(gram, on_edges, np.ones(tree.n))[0][0])


def hardy_constant(tree: RootedTree, part: Iterable[int]) -> float:
    """Optimal constant of the Hardy inequality restricted to a root part.

    ``part`` must induce a subtree containing the root.  The constant is
    the top eigenvalue of the Gram operator of the ancestor-incidence map
    of the part, which is relabelled as a tree of its own for ``_hardy_top``.
    """
    part = np.unique(_check_array(part, "part", integer=True, low=0, high=tree.n - 1))
    is_root = part == tree.root
    if not is_root.any():
        raise ValidationError("the part must contain the root")
    # position of each vertex's parent in the sorted part (the root's -1 lands at 0)
    parent = tree.parent[part]
    sub_parent = np.searchsorted(part, parent)
    orphans = ~is_root & (part[np.minimum(sub_parent, part.size - 1)] != parent)
    if orphans.any():
        raise ValidationError(
            f"part is not a subtree: parent of {part[orphans][0]} is missing")
    if part.size == 1:
        return 0.0
    sub_parent[is_root] = -1
    return _hardy_top(from_parents(part.size, sub_parent))


@dataclass(frozen=True)
class HardyCertificate:
    """Two-sided enclosure of the gap from the Hardy constants of a split.

    ``interval = [1/A, 1/(delta*A)]`` for the split at ``vertex`` with
    balance ``delta``; the exact gap of the walk lies inside it.  ``A`` is
    the larger Hardy constant of the two parts, from one Lanczos solve
    (``hardy_interval``): a Ritz value, so a lower bound on the exact
    constant, converged to relative residual ``LANCZOS_TOL``.
    """

    A: float
    interval: Tuple[float, float]
    delta: float
    vertex: int


def hardy_interval(tree: RootedTree) -> HardyCertificate:
    """Enclose the gap by splitting at the computed center of mass.

    The split vertex is recomputed from the tree's own balance, not taken
    from the stored root, and the delta actually achieved is reported.
    Each part is the split vertex x plus whole components of T - x, so one
    ``_hardy_top`` on T re-rooted at x gives the larger part constant.
    """
    if tree.n < 2:
        raise DegenerateInputError("no gap to enclose for a single vertex")
    com, base = _recentered(tree)
    A = _hardy_top(base)
    return HardyCertificate(A=A, interval=(1.0 / A, 1.0 / (com.delta * A)),
                            delta=com.delta, vertex=com.vertex)


def _recentered(tree: RootedTree) -> Tuple[CenterOfMass, RootedTree]:
    """The center-of-mass split and the tree re-rooted at its vertex, where
    ``hardy_interval``, ``hardy_lower`` and ``mixing_lower_bounds`` start;
    made once per tree."""
    com, base = _split(tree)
    return com, tree if base is None else base


@_per_tree
def _split(tree: RootedTree) -> Tuple[CenterOfMass, Optional[RootedTree]]:
    com = center_of_mass(tree)
    base = reroot(tree, com.vertex)
    # None in place of the tree itself (its split vertex is its root): a
    # cached value that refers to its own tree keeps that tree alive
    return com, None if base is tree else base


# ---------------------------------------------------------------------------
# weighted-path upper bounds on the relaxation time
# ---------------------------------------------------------------------------

def retraction_weights(tree: RootedTree, v: int) -> np.ndarray:
    """The comb weights for ``weighted_path_bound``, one per vertex, along
    the spine that is the root path of ``v``.

    depth^(-1/2) along the spine, and 1/(sqrt(max(i,1)) * (depth - i)^2)
    inside the subtree hanging at spine position i; the root's entry is 0.
    """
    depth = tree.depth
    # spine position i = the depth of the lowest common ancestor with v
    anchor = _lca_depth(tree, v)
    a = np.zeros(tree.n, dtype=np.float64)
    spine = (anchor == depth) & (depth > 0)
    a[spine] = depth[spine] ** -0.5
    off = (depth > 0) & ~spine
    i = anchor[off]
    a[off] = 1.0 / (np.maximum(i, 1) ** 0.5 * (depth[off] - i) ** 2)
    return a


def weighted_path_bound(tree: RootedTree, weights: Sequence[float]) -> float:
    """Upper bound on the relaxation time from positive edge weights.

    ``weights[v]`` weighs the edge from v to its parent; the root's entry
    is ignored.  The bound is the max over edges e of a_e^{-1} times the
    sum, over the vertices below e, of the weight sums along their root
    paths: one downward and one upward pass.  ``ValidationError`` unless
    there is one weight per vertex, none NaN, every edge's finite and positive.
    """
    a = _check_array(weights, "edge weights", shape=(tree.n,))
    nonroot = np.nonzero(tree.parent >= 0)[0]
    _check_array(a[nonroot], "edge weights", low=0, ends="()")  # the root's is ignored
    a[tree.root] = 0.0
    G = _kernels.subtree_sum(tree, _kernels.ancestor_sum(tree, a))
    return float((G[nonroot] / a[nonroot]).max(initial=0.0))


def bound_log_diameter(tree: RootedTree) -> float:
    """(log(diam) + 1) times the maximum edge load."""
    metrics = compute_metrics(tree)
    if metrics.diameter < 1:
        return 0.0
    return float((np.log(metrics.diameter) + 1.0) * max_edge_load(metrics).value)


def bound_summable_weights(tree: RootedTree,
                           func: Callable[[np.ndarray], np.ndarray]) -> float:
    """Partial sum of 1/func up to the height, times max func(depth)*|subtree|.

    On a finite tree the summability assumption reduces to the partial sum
    actually used, which is what gets multiplied in.  ``func`` is called
    once, on the int64 depths ``1..height`` as an array, and returns one
    value per depth; ``ValidationError`` unless each is finite and positive.
    """
    metrics = compute_metrics(tree)
    height = int(metrics.depth.max())
    if height == 0:
        return 0.0
    fvals = _check_array(func(np.arange(1, height + 1, dtype=np.int64)),
                         "weight function values", shape=(height,), low=0, ends="()")
    C = float((1.0 / fvals).sum())
    nonroot = metrics.depth > 0
    best = float((fvals[metrics.depth[nonroot] - 1]
                  * metrics.subtree_size[nonroot]).max())
    return C * best


def bound_path_load(tree: RootedTree) -> float:
    """The subtree weighting collapses to the maximal path load."""
    return float(max_path_load(compute_metrics(tree)).value)


def bound_tail(tree: RootedTree) -> float:
    """32 times the maximal k * (number of vertices at depth >= k)."""
    return 32.0 * tail_profile(compute_metrics(tree)).value


def _upper_bounds(tree: RootedTree) -> dict:
    """The four closed-form upper bounds on the relaxation time, by the
    paper's labels (``cor25`` with weights k^2): what ``treecut bounds``
    prints, and what a sweep row takes the minimum of."""
    return {"cor24": bound_log_diameter(tree),
            "cor25": bound_summable_weights(tree, lambda k: k * k),
            "cor26": bound_path_load(tree), "tail32": bound_tail(tree)}


@dataclass(frozen=True)
class HardyLowerBound:
    """delta * max edge load, with the explicit certificate function.

    ``g`` puts 1/depth(edge) on every root-path edge of the maximizing
    edge's lower endpoint (in the recentered tree); ``numerator`` and
    ``denominator`` are the two sums of the Hardy quotient of g, so
    numerator/denominator >= max edge load can be re-verified directly.
    """

    value: float
    delta: float
    edge: Optional[int]
    recentered: RootedTree
    g: np.ndarray
    numerator: float
    denominator: float


def hardy_lower(tree: RootedTree) -> HardyLowerBound:
    """Lower bound delta * max|e||T_e| on the relaxation time.

    The tree is re-rooted at its center of mass first, since the bound
    needs the root to carry the split; the gap itself does not depend on
    the rooting.
    """
    com, base = _recentered(tree)
    metrics = compute_metrics(base)
    mel = max_edge_load(metrics)
    if mel.edge is None:
        return HardyLowerBound(0.0, com.delta, None, base,
                               np.zeros(base.n), 0.0, 0.0)
    d = int(metrics.depth[mel.edge])
    g = np.zeros(base.n, dtype=np.float64)
    g[root_path(base, mel.edge)[1:]] = 1.0 / d
    S = _kernels.ancestor_sum(base, g)
    return HardyLowerBound(value=com.delta * mel.value, delta=com.delta,
                           edge=mel.edge, recentered=base, g=g,
                           numerator=float(S @ S), denominator=float(g @ g))


NU_CAP = 12  # largest |B| that nu_exact enumerates


def nu_exact(tree: RootedTree, B: Iterable[int]) -> float:
    """Exact minimum of sum f(e)^2 subject to unit root-path sums on B.

    Solved by enumerating active constraint subsets: for each nonempty
    subset the minimum-norm solution of the equality system is checked for
    feasibility, and the best feasible candidate is the exact optimum
    (the true active set is among the subsets).  Exponential in |B|, hence
    the cap.
    """
    B = np.unique(_check_array(B, "vertex set B", integer=True, low=0, high=tree.n - 1)).tolist()
    if not B:
        raise ValidationError("B must be nonempty")
    if tree.root in B:
        raise ValidationError("B must not contain the root")
    if len(B) > NU_CAP:
        raise ValidationError(f"|B| = {len(B)} exceeds the enumeration cap {NU_CAP}")

    rows = np.zeros((len(B), tree.n))  # edge e by its lower endpoint; root column unused
    for r, v in enumerate(B):
        rows[r, root_path(tree, v)[1:]] = 1.0
    best = np.inf
    for mask in range(1, 1 << len(B)):
        sel = [i for i in range(len(B)) if mask >> i & 1]
        f, *_ = np.linalg.lstsq(rows[sel], np.ones(len(sel)), rcond=None)
        if np.all(rows @ f >= 1.0 - 1e-9):
            best = min(best, float(f @ f))
    return best
