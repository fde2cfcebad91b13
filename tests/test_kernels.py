"""The two tree primitives against the brute-force oracles, and the kernels
built on them against dense linear algebra."""

import numpy as np
import pytest

import treecut as T
from treecut import _kernels
from treecut.spectral import laplacian

from util import (brute_depth, brute_path_load, brute_subtree_size,
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


def test_matvec_against_dense():
    t = random_tree(60, seed=4)
    Q = laplacian(t)
    x = np.sin(np.arange(t.n, dtype=float))
    y = _kernels.laplacian_matvec(t.parent, t.degrees(), x)
    assert np.allclose(y, Q @ x, atol=1e-12)


def test_tree_solve_solves_dirichlet_system():
    t = random_tree(45, seed=8, tall=True)
    Q = laplacian(t)
    b = np.arange(t.n, dtype=float)
    b[t.root] = 0.0
    x = _kernels.tree_solve(t, b)
    resid = Q @ x - b
    resid[t.root] = 0.0  # the root row is replaced by the pin x[root]=0
    assert np.abs(resid).max() < 1e-9
    assert x[t.root] == 0.0
