"""The two tree primitives against the brute-force oracles, the tree solve
built on them against dense linear algebra, and the rule that no other
module walks the tree one child list at a time."""

import ast

import numpy as np
import pytest

import treecut as T
from treecut import _kernels
from treecut.spectral import laplacian

from util import (REPO_ROOT, bfs_levels, brute_depth, brute_path_load,
                  brute_subtree_size, level_ancestor_sum, level_subtree_sum,
                  random_tree)

PRIMITIVE_TREES = {
    "tall": lambda: random_tree(90, seed=1, tall=True),
    "random": lambda: random_tree(90, seed=2),
    "segment": lambda: T.segment(40),
    "star": lambda: T.spherically_symmetric([50]),
    "single": lambda: T.from_parents(1, [-1]),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_TREES))
def test_primitives_match_oracles_exactly(name):
    t = PRIMITIVE_TREES[name]()
    ones = np.ones(t.n, dtype=np.int64)
    size = _kernels.subtree_sum(t, ones)
    depth = _kernels.ancestor_sum(t, ones)
    load = _kernels.ancestor_sum(t, size)
    assert size.dtype == depth.dtype == load.dtype == np.int64
    assert size.tolist() == [brute_subtree_size(t, v) for v in range(t.n)]
    assert depth.tolist() == [brute_depth(t, v) for v in range(t.n)]
    assert load.tolist() == [brute_path_load(t, v) for v in range(t.n)]


def _check_against_levels(t, seed):
    """Both primitives against the level-synchronous oracle: int64 input
    exactly, float input within 1e-12 of the largest result entry."""
    levels = bfs_levels(t)
    rng = np.random.default_rng(seed)
    ints = rng.integers(-10**6, 10**6, size=t.n)
    floats = rng.standard_normal(t.n) * 10.0 ** rng.integers(-3, 4, size=t.n)
    for prim, oracle in ((_kernels.subtree_sum, level_subtree_sum),
                         (_kernels.ancestor_sum, level_ancestor_sum)):
        got, want = prim(t, ints), oracle(t, ints, levels)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        got, want = prim(t, floats), oracle(t, floats, levels)
        assert got.dtype == np.float64 and got.shape == (t.n,)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_primitives_match_level_oracle_on_random_suite(random_suite):
    for i, t in enumerate(random_suite):
        _check_against_levels(t, i)


@pytest.mark.parametrize("make", [PRIMITIVE_TREES["star"], PRIMITIVE_TREES["single"],
                                  lambda: T.spherically_symmetric([1]),
                                  lambda: T.spherically_symmetric([5000])],
                         ids=["star_50", "single", "star_1", "star_5000"])
def test_primitives_match_level_oracle_on_stars_and_one_vertex(make):
    _check_against_levels(make(), 7)


@pytest.mark.parametrize("make", [lambda: T.segment(100_000),
                                  lambda: T.binary_of_size(200_000)],
                         ids=["segment_100k", "binary_200k"])
def test_primitives_match_level_oracle_on_large_trees(make):
    _check_against_levels(make(), 11)


def scatter_subtree_sum(t, x):
    """subtree_sum of floats in the documented order, one Python addition at
    a time: tables descending, and within a step every slot in index order
    adds its value from before the step onto its ancestor."""
    G = [float(v) for v in x] + [0.0]
    for jump in reversed(t.jumps):
        before = list(G)
        for v, a in enumerate(jump.tolist()):
            G[a] += before[v]
    return np.array(G[:t.n])


@pytest.mark.parametrize("make", list(PRIMITIVE_TREES.values()) + [
    lambda: T.cor15_tree(128), lambda: T.binary_of_size(30_000)],
    ids=list(PRIMITIVE_TREES) + ["cor15_128", "binary_30k"])
def test_float_subtree_sum_matches_scatter_bit_for_bit(make):
    t = make()
    rng = np.random.default_rng(t.n)
    for x in (rng.standard_normal(t.n) * 10.0 ** rng.integers(-8, 8, size=t.n),
              rng.random(t.n) - 0.5):
        assert _kernels.subtree_sum(t, x).tobytes() == scatter_subtree_sum(t, x).tobytes()


def test_tree_solve_solves_dirichlet_system():
    # the tree solve of spectral._pinv_top: subtree sums accumulated down
    # the root paths
    t = random_tree(45, seed=8, tall=True)
    Q = laplacian(t)
    b = np.arange(t.n, dtype=float)
    b[t.root] = 0.0
    x = _kernels.ancestor_sum(t, _kernels.subtree_sum(t, b))
    resid = Q @ x - b
    resid[t.root] = 0.0  # the root row is replaced by the pin x[root]=0
    assert np.abs(resid).max() < 1e-9
    assert x[t.root] == 0.0


def test_child_lists_are_walked_only_in_tree():
    # outside tree.py, a tree pass is a kernel call or array arithmetic: no
    # module calls ``.children(...)`` inside a loop or a comprehension
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    walks = []
    for path in sorted((REPO_ROOT / "src" / "treecut").glob("*.py")):
        if path.name == "tree.py":
            continue
        module = ast.parse(path.read_text(encoding="utf-8"))
        for loop in ast.walk(module):
            if isinstance(loop, loops):
                walks += [f"{path.name}:{node.lineno}" for node in ast.walk(loop)
                          if isinstance(node, ast.Call)
                          and isinstance(node.func, ast.Attribute)
                          and node.func.attr == "children"]
    assert not walks, sorted(set(walks))


def test_reroot_only_where_a_rerooted_tree_is_needed():
    # hitting times and orbit classes read the tree's own lowest common
    # ancestors, retraction spines its root paths; only the center-of-mass
    # split and the label-one option of the size-conditioned sampler build a
    # re-rooted tree
    callers = set()
    for path in sorted((REPO_ROOT / "src" / "treecut").glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        for fn in module.body:
            if isinstance(fn, ast.FunctionDef):
                callers |= {f"{path.stem}.{fn.name}" for node in ast.walk(fn)
                            if isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Name) and node.func.id == "reroot"}
    assert callers == {"spectral._split", "generate.gw_conditioned_size"}
