"""Numeric kernels: the two tree primitives.

Every linear tree pass in the package is one of two sums, or a
composition of them:

``subtree_sum(tree, x)[v]``    sum of ``x`` over the subtree of ``v``
                               (``v`` included);
``ancestor_sum(tree, x)[v]``   sum of ``x`` over the root path of ``v``,
                               ``v`` included and the root excluded, so
                               each non-root vertex stands for the edge to
                               its parent and the root always gets 0.

Subtree sizes are ``subtree_sum(1)``, depths ``ancestor_sum(1)``, path
loads ``ancestor_sum(subtree_sum(1))``; the Dirichlet solve of the tree
Laplacian is ``ancestor_sum(subtree_sum(b))``.  Both primitives run by
pointer doubling over the tree's jump tables (``tree.jumps[k]`` maps each
vertex to its ``2**k``-th ancestor, past the root to a zero sentinel slot):
``ancestor_sum`` gathers ``S += S[jumps[k]]`` with k ascending, and
``subtree_sum``, its transpose, scatters ``G[jumps[k]] += G`` in place with
k descending, one ``np.add.at`` for every dtype: slots in index order add
their values from before the step, so ``a`` gets ``(G[a] + G[v1]) + G[v2]``
from ``v1 < v2`` jumping to it.  Each costs ``height.bit_length()``
vectorized O(n) steps, whatever the shape of the tree, and only adds
disjoint ranges, so nothing is ever subtracted.  Integer input is summed
in int64 and stays exact, any other in float64.

Outside these two kernels the package has just two level passes, one
vectorized step per depth: ``tree.root_orbits`` and ``spectral.count_below``.
Every other tree pass (contour walks, retraction spines, per-level checks)
is a kernel call or plain array arithmetic; none steps through the tree a
vertex or a child list at a time.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BACKEND", "subtree_sum", "ancestor_sum"]

BACKEND = "numpy"


def _as_sum_array(tree, x) -> np.ndarray:
    """A fresh int64 or float64 copy of ``x`` with the sentinel slot 0 appended."""
    x = np.asarray(x)
    out = np.zeros(tree.n + 1, dtype=np.int64 if x.dtype.kind in "biu" else np.float64)
    out[:tree.n] = x
    return out


def subtree_sum(tree, x) -> np.ndarray:
    """G[v] = sum of x over the subtree below and including v."""
    G = _as_sum_array(tree, x)
    for jump in reversed(tree.jumps):
        # numpy already reads an overlapping operand as a copy; this one states
        # the rule.  Sums past the root pile up in the sentinel slot.
        np.add.at(G, jump, G.copy())
    return G[:tree.n]


def ancestor_sum(tree, x) -> np.ndarray:
    """S[v] = sum of x over the root path of v, v included, root excluded."""
    S = _as_sum_array(tree, x)
    S[tree.root] = 0
    for jump in tree.jumps:
        S += S[jump]
    return S[:tree.n]

