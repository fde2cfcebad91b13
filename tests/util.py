"""Shared helpers: seeded random trees, independent brute-force oracles, and
the checkout root and environment for tests that start a fresh interpreter.

The oracles deliberately avoid the library's own traversal machinery:
depths walk the parent chain one step at a time, subtree sizes run an
undirected flood fill from the far side of each edge, and so on.  They are
slow and obviously correct, which is the point.  The level-synchronous
``subtree_sum``/``ancestor_sum`` (one numpy call per depth, over levels
found by a breadth-first search of their own) are the oracle for the
pointer-doubling kernels.  The breadth-first branching loop, one scalar
draw per vertex, is the oracle for the array samplers of the random
families.
"""

import math
import os
from pathlib import Path

import numpy as np

from treecut import from_parents, laplacian
from treecut.errors import RejectionCapError, ResourceLimitError, ValidationError
from treecut.generate import _segment_with_binaries
from treecut.rng import SplitMix64, derive_seed

REPO_ROOT = Path(__file__).resolve().parents[1]


def subprocess_env(base=None):
    """Environment for a child interpreter that imports treecut from this checkout.

    Starts from ``base`` (default: this process's environment) and puts the
    absolute path of ``src/`` first on ``PYTHONPATH``, so the child finds the
    package whatever its working directory and even when the parent's
    ``PYTHONPATH`` holds the relative ``src``.
    """
    env = dict(os.environ if base is None else base)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def listed(obj):
    """``obj`` with every ndarray ``.tolist()``'d."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: listed(v) for k, v in obj.items()}
    return obj


def random_tree(n, seed, tall=False):
    """Random attachment tree; ``tall`` biases 70% of edges onto a chain."""
    rng = SplitMix64(seed)
    parent = [-1]
    for i in range(1, n):
        if tall and rng.random() < 0.7:
            parent.append(i - 1)
        else:
            parent.append(rng.below(i))
    return from_parents(n, parent)


def grafted_tree(n, seed, copies=4):
    """A random tree with ``copies`` copies of one random subtree grafted on,
    two of them on one vertex, so that it has a symmetric part."""
    rng = SplitMix64(seed)
    parent = random_tree(n, seed).parent.tolist()
    graft = random_tree(2 + rng.below(8), derive_seed(seed, 1)).parent.tolist()
    hosts = [rng.below(n) for _ in range(copies - 1)]
    for host in hosts + hosts[:1]:
        offset = len(parent)
        parent += [host if p < 0 else offset + p for p in graft]
    return from_parents(len(parent), parent)


def power_comb(n, power=2):
    """Segment of n edges with a level-filled binary tree of
    floor(n^power / (i+1)^2) vertices at distance i, for every i in 0..n:
    the n^2 comb keeps its attachments nonzero along the whole segment.
    Its binary trees give repeated eigenvalues below the bottom-pair floor."""
    return _segment_with_binaries(n, [n ** power // (i + 1) ** 2 for i in range(n + 1)])


def legs_tree(n, legs=4, length=60, seed=1):
    """``legs`` paths of ``length`` edges hung on vertex 0 of a random tree
    of n - legs * length vertices: each leg mode repeats legs - 1 times."""
    parent = random_tree(n - legs * length, seed).parent.tolist()
    for _ in range(legs):
        parent += [0] + list(range(len(parent), len(parent) + length - 1))
    return from_parents(len(parent), parent)


def suite_trees(count, max_n, base_seed=0xACE):
    """Deterministic mixed suite of random trees with 2 <= n <= max_n."""
    trees = []
    for i in range(count):
        n = 2 + SplitMix64(derive_seed(base_seed, i)).below(max_n - 1)
        trees.append(random_tree(n, derive_seed(base_seed + 1, i), tall=i % 2 == 0))
    return trees


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def adjacency(tree):
    adj = [[] for _ in range(tree.n)]
    for v in range(tree.n):
        p = int(tree.parent[v])
        if p >= 0:
            adj[v].append(p)
            adj[p].append(v)
    return adj


def brute_depth(tree, v):
    d = 0
    while tree.parent[v] >= 0:
        v = int(tree.parent[v])
        d += 1
    return d


def brute_subtree_size(tree, v):
    """Flood fill below v, entered from its parent side."""
    adj = adjacency(tree)
    blocked = int(tree.parent[v])
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w != blocked and w not in seen:
                # only descend away from the root: w must be a child of u
                if int(tree.parent[w]) == u:
                    seen.add(w)
                    stack.append(w)
    return len(seen)


def brute_path_load(tree, v):
    total = 0
    while tree.parent[v] >= 0:
        total += brute_subtree_size(tree, v)
        v = int(tree.parent[v])
    return total


def _bfs_parents(adj, src):
    """Breadth-first predecessor of every vertex, -1 at ``src``, and distances."""
    parent = {src: -1}
    dist = {src: 0}
    queue = [src]
    for u in queue:
        for w in adj[u]:
            if w not in dist:
                parent[w] = u
                dist[w] = dist[u] + 1
                queue.append(w)
    return parent, dist


def brute_diameter(tree):
    """Largest distance over all pairs: one BFS over ``adjacency`` per vertex."""
    adj = adjacency(tree)
    return max(max(_bfs_parents(adj, s)[1].values()) for s in range(tree.n))


def brute_lca_depth(tree, x):
    """Per vertex, the depth of its lowest common ancestor with ``x``: each
    parent chain is walked up to the first ancestor of ``x`` it meets."""
    ancestors = {x}
    while tree.parent[x] >= 0:
        x = int(tree.parent[x])
        ancestors.add(x)
    lca = []
    for v in range(tree.n):
        while v not in ancestors:
            v = int(tree.parent[v])
        lca.append(brute_depth(tree, v))
    return lca


def brute_reroot_parent(tree, new_root):
    """Parent array oriented toward ``new_root``: each vertex's BFS predecessor."""
    parent, _ = _bfs_parents(adjacency(tree), new_root)
    return [parent[v] for v in range(tree.n)]


def brute_unreachable(parent):
    """How many vertices of a parent list cannot walk up to the ``-1`` root
    within ``len(parent)`` steps, i.e. sit on a cycle or below one."""
    stuck = 0
    for v in range(len(parent)):
        for _ in range(len(parent)):
            if v == -1:
                break
            v = parent[v]
        stuck += v != -1
    return stuck


def bfs_levels(tree):
    """Vertex arrays per depth, root level first, from a breadth-first
    search over child lists built here from the parent array."""
    kids = [[] for _ in range(tree.n)]
    for v, p in enumerate(tree.parent.tolist()):
        if p >= 0:
            kids[p].append(v)
    levels = [[tree.root]]
    while True:
        nxt = [c for v in levels[-1] for c in kids[v]]
        if not nxt:
            return [np.array(level, dtype=np.int64) for level in levels]
        levels.append(nxt)


def _sum_array(x):
    x = np.asarray(x)
    return x.astype(np.int64 if x.dtype.kind in "biu" else np.float64)


def level_subtree_sum(tree, x, levels=None):
    """Level-synchronous subtree sums: children add into parents, deepest
    level first, one ``np.add.at`` per level."""
    G = _sum_array(x)
    for verts in reversed((levels or bfs_levels(tree))[1:]):
        np.add.at(G, tree.parent[verts], G[verts])
    return G


def level_ancestor_sum(tree, x, levels=None):
    """Level-synchronous root-path sums (root excluded), shallowest level
    first, one gather per level."""
    x = _sum_array(x)
    S = np.zeros_like(x)
    for verts in (levels or bfs_levels(tree))[1:]:
        S[verts] = S[tree.parent[verts]] + x[verts]
    return S


def loop_edge_weights(tree, spine):
    """Retraction weights of a spine, one vertex at a time: depth and spine
    position found by walking the parent chain, and each weight computed
    from numpy int64 scalars exactly as the per-vertex formula reads."""
    spine = set(spine)
    a = np.zeros(tree.n)
    for v in range(tree.n):
        if tree.parent[v] < 0:
            continue
        d = np.int64(brute_depth(tree, v))
        if v in spine:
            a[v] = d ** -0.5
        else:
            u, i = v, 0
            while tree.parent[u] >= 0:
                i += u in spine
                u = int(tree.parent[u])
            i = np.int64(i)
            a[v] = 1.0 / (max(i, 1) ** 0.5 * (d - i) ** 2)
    return a


def loop_contour(tree, labels):
    """Contour walk by an explicit depth-first stack, children in ascending
    label order, one step at a time: the steps and their depths."""
    order_children = lambda v: sorted((int(c) for c in tree.children(v)),
                                      key=lambda c: labels[c])
    stack = [(tree.root, iter(order_children(tree.root)))]
    steps = [tree.root]
    while stack:
        child = next(stack[-1][1], None)
        if child is None:
            stack.pop()
            if stack:
                steps.append(stack[-1][0])
        else:
            steps.append(child)
            stack.append((child, iter(order_children(child))))
    return steps, [brute_depth(tree, v) for v in steps]


def loop_bd_generator(chain):
    """Rates and dense generator of a ``bdchain.BDChain``, one state at a
    time from the rate rule: 1 toward the center, deg - 1 away from it.
    Returns ``(up, down, G)``, the rows of G summing to zero."""
    half, used, size = chain.half, chain.degrees, chain.size
    up, down = np.zeros(size), np.zeros(size)
    G = np.zeros((size, size))
    for x in range(1, size + 1):
        if x < size:
            up[x - 1] = used[x - half] - 1 if x > half else 1.0
            G[x - 1, x] = up[x - 1]
        if x > 1:
            down[x - 1] = used[half - x] - 1 if x < half else 1.0
            G[x - 1, x - 2] = down[x - 1]
    np.fill_diagonal(G, -(up + down))
    return up, down, G


def brute_max_edge_load(tree):
    best = 0
    for v in range(tree.n):
        if tree.parent[v] >= 0:
            best = max(best, brute_depth(tree, v) * brute_subtree_size(tree, v))
    return best


def brute_root_orbits(tree):
    """Per vertex, a key that two vertices share exactly when an automorphism
    fixing the root maps one to the other: the canonical parenthesis strings
    of the subtrees along its root path, found by recursion over child lists
    built here from the parent array."""
    kids = [[] for _ in range(tree.n)]
    for v, p in enumerate(tree.parent.tolist()):
        if p >= 0:
            kids[p].append(v)
    memo = {}

    def canon(v):
        if v not in memo:
            memo[v] = "(" + "".join(sorted(canon(c) for c in kids[v])) + ")"
        return memo[v]

    keys = []
    for v in range(tree.n):
        path = [v]
        while tree.parent[path[-1]] >= 0:
            path.append(int(tree.parent[path[-1]]))
        keys.append(tuple(canon(u) for u in path))
    return keys


def brute_tail_value(tree):
    depths = [brute_depth(tree, v) for v in range(tree.n)]
    height = max(depths)
    return max((k * sum(1 for d in depths if d >= k) for k in range(1, height + 1)),
               default=0)


def best_center_split(tree, max_components=20):
    """Exhaustive best min-part fraction over all (vertex, bipartition) pairs.

    For each vertex, enumerates every 2-coloring of the components of the
    tree minus that vertex; skips vertices with more than
    ``max_components`` components (never hit by the random suite).
    """
    n = tree.n
    best = 0.0
    for x in range(n):
        comp_sizes = [brute_subtree_size(tree, int(c)) for c in tree.children(x)]
        if tree.parent[x] >= 0:
            comp_sizes.append(n - brute_subtree_size(tree, x))
        d = len(comp_sizes)
        if d == 0:
            return 1.0
        if d > max_components:
            continue
        # fix the last component on side B; both parts include x
        for mask in range(1 << (d - 1)):
            a_sum = sum(s for i, s in enumerate(comp_sizes[:-1]) if mask >> i & 1)
            best = max(best, min(a_sum + 1, n - a_sum) / n)
    return best


def dense_hardy_constant(tree, part):
    """Top eigenvalue of the dense Gram matrix of the ancestor-incidence map.

    Rows are the vertices of ``part``, columns its edges (each named by its
    lower endpoint); entry 1 where the edge lies on the vertex's root path,
    found by walking the parent chain.  0.0 when the part has no edge.
    """
    part = sorted(set(int(v) for v in part))
    edges = [v for v in part if v != tree.root]
    if not edges:
        return 0.0
    col = {v: i for i, v in enumerate(edges)}
    M = np.zeros((len(part), len(edges)))
    for r, v in enumerate(part):
        while v != tree.root:
            M[r, col[v]] = 1.0
            v = int(tree.parent[v])
    return float(np.linalg.eigvalsh(M.T @ M)[-1])


def dense_tv_rows(tree, t, eig=None):
    """TV distance to uniform at time t from every start, from the full kernel.

    ``eig`` is ``(values, vectors)`` of the Laplacian; by default a fresh
    ``eigh``.  Every mode is kept: P_t = W W^T with W = U exp(-t L / 2).
    """
    values, vectors = np.linalg.eigh(laplacian(tree)) if eig is None else eig
    W = vectors * np.exp(-0.5 * t * values)
    return 0.5 * np.abs(W @ W.T - 1.0 / tree.n).sum(axis=1)


def dense_mixing_time(tree, epsilon, start=None, rtol=1e-8):
    """Reference epsilon-mixing time, worst start or from ``start``.

    Bisection on d(t), the max of ``dense_tv_rows`` (or its ``start`` entry),
    one full n x n GEMM per step, with the bracket grown by doubling from
    the relaxation time.
    """
    eig = np.linalg.eigh(laplacian(tree))
    pick = np.max if start is None else (lambda rows: rows[start])
    d = lambda t: pick(dense_tv_rows(tree, t, eig))
    if epsilon >= d(0.0):
        return 0.0
    lo, hi = 0.0, 1.0 / eig[0][1]
    while d(hi) > epsilon:
        lo, hi = hi, 2.0 * hi
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        if d(mid) <= epsilon:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# random families, one vertex and one scalar draw at a time
# ---------------------------------------------------------------------------

def scalar_geometric(rng, p):
    """Failures before the first success, P(j) = p (1 - p)^j, by inversion
    of one draw of ``rng``; no draw when p >= 1."""
    if p >= 1.0:
        return 0
    u = rng.random()
    return int(math.floor(math.log1p(-u) / math.log1p(-p)))


def scalar_poisson(rng, lam):
    """Poisson(lam) by inversion of one draw of ``rng`` from P(0) = exp(-lam)
    upward; rates whose P(0) underflows to 0 are rejected, since the
    inversion cannot start."""
    term = math.exp(-lam)
    if term == 0.0:
        raise ValidationError(f"poisson rate {lam} too large: exp(-rate) underflows to 0")
    u = rng.random()
    k = 0
    cum = term
    while u > cum:
        k += 1
        term *= lam / k
        cum += term
        if k > 10_000_000:  # numerically unreachable for sane lambda
            break
    return k


def scalar_table(rng, probs):
    """Index of the first running sum of ``probs`` above one draw of ``rng``
    (the last index when none is)."""
    u = rng.random()
    cum = 0.0
    for j, pj in enumerate(probs):
        cum += pj
        if u < cum:
            return j
    return len(probs) - 1


def scalar_offspring(dist, rng):
    """One offspring count of ``dist`` from one draw of ``rng``, by the scalar
    inversions above."""
    if dist.kind == "geometric":
        return scalar_geometric(rng, dist.params[0])
    if dist.kind == "poisson":
        return scalar_poisson(rng, dist.params[0])
    return scalar_table(rng, dist.params)


def loop_grow(rng, dist, max_gen, max_vertices, abort_over=None):
    """Breadth-first branching process over a growing parent list, one
    scalar draw per vertex below depth ``max_gen``.  None as soon as the
    list holds more than ``abort_over`` vertices; ``ResourceLimitError``
    once it holds more than ``max_vertices``."""
    parent = [-1]
    depth = [0]
    head = 0
    while head < len(parent):
        v = head
        head += 1
        if depth[v] >= max_gen:
            continue
        for _ in range(scalar_offspring(dist, rng)):
            parent.append(v)
            depth.append(depth[v] + 1)
            if abort_over is not None and len(parent) > abort_over:
                return None
            if len(parent) > max_vertices:
                raise ResourceLimitError(
                    f"branching process exceeded the vertex cap {max_vertices}")
    return parent


def loop_gw_tree(dist, max_gen, seed, max_vertices=1_000_000):
    """``gw_tree`` from ``loop_grow``: the parent list."""
    return loop_grow(SplitMix64(seed), dist, max_gen, max_vertices)


def loop_gw_survival_truncated(dist, n, seed, max_attempts=1_000_000,
                               max_vertices=1_000_000):
    """``gw_survival_truncated`` from ``loop_grow``: the parent list."""
    for attempt in range(max_attempts):
        parent = loop_grow(SplitMix64(derive_seed(seed, attempt)), dist, n, max_vertices)
        if from_parents(len(parent), parent).height == n:
            return parent
    raise RejectionCapError(f"no tree reached generation {n}", attempts=max_attempts)


def loop_kesten_tree(dist, n, seed, max_vertices=1_000_000):
    """``kesten_tree`` with every side subtree grown by a breadth-first
    queue, one scalar draw per vertex: the parent list."""
    if dist.mean > 1.0:
        raise ValidationError(f"needs mean <= 1, got {dist.mean}")
    sb_table = dist.size_biased_table()
    rng = SplitMix64(seed)
    parent = [-1]
    spine = 0
    for d in range(n):
        count = scalar_table(rng, sb_table)
        kids = []
        for _ in range(count):
            kids.append(len(parent))
            parent.append(spine)
            if len(parent) > max_vertices:
                raise ResourceLimitError(
                    f"spine tree exceeded the vertex cap {max_vertices}")
        pos = rng.below(count)
        for idx, child in enumerate(kids):
            if idx == pos:
                continue
            queue = [(child, d + 1)]
            head = 0
            while head < len(queue):
                v, dv = queue[head]
                head += 1
                if dv >= n:
                    continue
                for _ in range(scalar_offspring(dist, rng)):
                    queue.append((len(parent), dv + 1))
                    parent.append(v)
                    if len(parent) > max_vertices:
                        raise ResourceLimitError(
                            f"spine tree exceeded the vertex cap {max_vertices}")
        spine = kids[pos]
    return parent


def loop_conditioned_sizes(dist, max_n, seed, max_attempts):
    """``gw_conditioned_size`` for every n in 1..max_n at once.

    Attempt a grows ``loop_grow`` from ``derive_seed(seed, a)`` with
    ``abort_over=max_n``.  Growth that ends with exactly n <= max_n vertices
    never held more than n, so it is also what the attempt gives with
    ``abort_over=n``: the first attempt that ends with n vertices is the
    one the sampler keeps for n.  Its labels are ``1..n`` shuffled by the
    same generator after the growth.  Returns ``{n: (attempt, parent,
    labels)}`` for the sizes found within ``max_attempts``.
    """
    found = {}
    for attempt in range(max_attempts):
        rng = SplitMix64(derive_seed(seed, attempt))
        parent = loop_grow(rng, dist, max_n + 1, max_n + 2, abort_over=max_n)
        if parent is None or len(parent) in found:
            continue
        labels = list(range(1, len(parent) + 1))
        rng.shuffle(labels)
        found[len(parent)] = (attempt, parent, labels)
        if len(found) == max_n:
            break
    return found
