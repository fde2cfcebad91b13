"""Rooted trees as parent arrays, their geometry, and the canonical text format.

A tree on ``n`` vertices stores a dense 0-based parent array with a single
``-1`` sentinel at the root, the depths, and the pointer-jumping tables the
numeric kernels consume (``jumps[k][v]`` is the ``2**k``-th ancestor of
``v``, or the sentinel slot ``n`` past the root), and no child lists.
:func:`from_parents` builds them in O(log height) vectorized steps, with no
sort and no per-vertex Python loop.  Instances are immutable and safe to
share across workers.

The quantities computed here are purely combinatorial: depths, subtree
sizes, the per-vertex sum of subtree sizes along the root path ("path
load"), the per-edge product of depth and subtree size ("edge load"), the
per-depth tail sizes, the diameter, and the balanced two-subtree split
around a vertex separator ("center of mass").  Every pass over the tree is
a ``subtree_sum`` or an ``ancestor_sum`` from :mod:`treecut._kernels`;
vertex sets below an anchor are read off an ``ancestor_sum`` of anchor
labels, one call per set of disjoint subtrees; a root path is gathered
through the jump tables in ``depth.bit_length()`` numpy calls, as an int64
array, and walked in one LCA pass: ``_lca_depth``, the depth of each vertex's
lowest common ancestor with its end, one ``ancestor_sum``.  The rule holds
package-wide: outside the two kernels there are only the level
passes ``root_orbits`` (the classes of vertices that an automorphism
fixing the root can exchange) and ``spectral.count_below``.  A child list
is one scan of the parent array, read around one vertex (``center_of_mass``).
"""

from __future__ import annotations

import heapq
import re
import weakref
from dataclasses import dataclass, field
from functools import cached_property, wraps
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import _kernels
from .errors import (CycleError, ParentIndexError, RootCountError,
                     TreeFormatError, ValidationError, _check_count, _shown)

__all__ = [
    "RootedTree", "TreeMetrics", "CenterOfMass", "EdgeLoad", "VertexLoad",
    "TailProfile", "from_parents", "compute_metrics", "max_edge_load",
    "max_path_load", "tail_profile", "center_of_mass", "reroot", "root_path",
    "root_orbits", "to_text", "from_text",
]


@dataclass(frozen=True, eq=False)
class RootedTree:
    """Immutable rooted tree on vertices ``0..n-1``: parent array, depths, jumps.

    ``children(v)`` scans ``parent`` for the sorted child indices of ``v``;
    ``depth`` holds every vertex's distance to the root.  ``jumps`` is what the
    kernels iterate over: ``jumps[k]`` has length ``n + 1`` and maps ``v`` to its
    ``2**k``-th ancestor, or to the sentinel slot ``n`` when that lies past
    the root (``jumps[k][n] == n``).  It holds ``height.bit_length()``
    tables, the last one with ``2**k <= height``.
    """

    n: int
    root: int
    parent: np.ndarray
    depth: np.ndarray = field(repr=False)
    jumps: tuple = field(repr=False)

    def children(self, v: int) -> np.ndarray:
        return np.flatnonzero(self.parent == _check_vertex(self, v))

    @property
    def height(self) -> int:
        return int(self.depth.max())

    def degrees(self) -> np.ndarray:
        # child counts (bin 0 takes the root's -1), plus the edge up
        return np.bincount(self.parent + 1, minlength=self.n + 1)[1:] + (self.parent >= 0)

    def depths(self) -> np.ndarray:
        return self.depth.copy()


def from_parents(n: int, parent: Sequence) -> RootedTree:
    """Validate a parent sequence and build the tree.

    ``parent`` has length ``n``; the root is marked by ``-1`` or ``None``.
    An integer ndarray is read as int64 (an unsigned one wraps modulo
    ``2**64``); otherwise each entry must be ``None`` or an integer other
    than a bool, or :class:`ValidationError` is raised.  Raises
    :class:`RootCountError`, :class:`ParentIndexError` or
    :class:`CycleError` for the respective defects.
    """
    n = _check_count(n, "vertex count", 1)
    if isinstance(parent, np.ndarray) and parent.ndim != 1:
        raise ValidationError(f"parent array must have shape (k,), got {parent.shape}")
    if not isinstance(parent, (np.ndarray, Sequence)):
        raise ValidationError(f"parent array must be a sequence, got {_shown(parent)}")
    if len(parent) != n:
        raise ValidationError(f"parent array has length {len(parent)}, expected {n}")
    if isinstance(parent, np.ndarray) and parent.dtype.kind in "iu":
        par = parent.astype(np.int64)  # always a fresh copy
    else:
        entries = [-1 if p is None else p for p in parent]
        for i, p in enumerate(entries):
            if isinstance(p, bool) or not isinstance(p, (int, np.integer)):
                raise ValidationError(f"parent[{i}] = {_shown(p)} is not an integer")
            if not -1 <= p < n:  # before int64 could overflow
                raise ParentIndexError(f"parent[{i}] = {_shown(int(p))} is out of range")
        par = np.array(entries, dtype=np.int64)
    roots = np.nonzero(par == -1)[0]
    if len(roots) != 1:
        raise RootCountError(f"expected exactly one root sentinel, found {len(roots)}")
    bad = np.nonzero((par < -1) | (par >= n))[0]
    if len(bad):
        raise ParentIndexError(f"parent[{bad[0]}] = {par[bad[0]]} is out of range")
    root = int(roots[0])

    # pointer jumping (Wyllie): each step doubles the jump and adds the
    # depth found at its target; a vertex still short of the sentinel after
    # bit_length(n) steps sits on a cycle or below one
    jump = np.append(par, n)
    jump[root] = n
    depth = np.ones(n + 1, dtype=np.int64)
    depth[[root, n]] = 0
    jumps = []
    for _ in range(n.bit_length()):
        if (jump[:n] == n).all():
            break
        jumps.append(jump)
        depth += depth[jump]
        jump = jump[jump]
    else:
        stuck = int(np.count_nonzero(jump[:n] != n))
        if stuck:
            raise CycleError(f"{stuck} vertices unreachable from the root "
                             "(parent links contain a cycle)")
    depth = depth[:n]

    for arr in (par, depth, *jumps):
        arr.setflags(write=False)
    return RootedTree(n=n, root=root, parent=par, depth=depth, jumps=tuple(jumps))


def _per_tree(fn):
    """``fn(tree)``, computed once per tree: the one cache of values that
    depend on a tree.

    ``_per_tree.table`` maps each tree, weakly, to the values of every
    memoised function on it, so they go when the tree does.  The tree is
    the only key, so a memoised value can depend on nothing else: whatever
    else a query reads (the dense cap) is checked before the memo.  A value
    must not refer to its own tree, which would keep its key alive for good.
    """
    @wraps(fn)
    def memo(tree):
        values = _per_tree.table.get(tree)
        if values is None:
            values = _per_tree.table[tree] = {}
        if fn not in values:
            values[fn] = fn(tree)
        return values[fn]
    return memo


_per_tree.table = weakref.WeakKeyDictionary()


@dataclass(frozen=True, eq=False)
class TreeMetrics:
    """Cached per-tree geometry.

    ``tail_size[k]`` counts the vertices at depth at least ``k`` (the union
    of all subtrees hanging at depth ``k``); ``tail_size[0] == n``.
    """

    depth: np.ndarray
    subtree_size: np.ndarray
    path_load: np.ndarray
    degree: np.ndarray
    max_degree: int
    diameter: int
    tail_size: np.ndarray


class EdgeLoad(NamedTuple):
    value: int
    edge: Optional[int]  # the lower endpoint of the maximizing edge


class VertexLoad(NamedTuple):
    value: int
    vertex: Optional[int]


class TailProfile(NamedTuple):
    value: int
    k: Optional[int]
    table: np.ndarray  # table[k] = k * tail_size[k] for k = 0..height


@_per_tree
def compute_metrics(tree: RootedTree) -> TreeMetrics:
    """All per-tree geometric quantities: the stored depths plus three tree passes."""
    size = _kernels.subtree_sum(tree, np.ones(tree.n, dtype=np.int64))
    load = _kernels.ancestor_sum(tree, size)
    depth = tree.depth
    degree = tree.degrees()

    # diameter by double sweep: a deepest vertex is an end of a longest
    # path; dist(v, far) needs the depth of their lowest common ancestor
    far = int(np.argmax(depth))
    diameter = int((depth + depth[far] - 2 * _lca_depth(tree, far)).max())

    tail = np.cumsum(np.bincount(depth)[::-1])[::-1].astype(np.int64)

    m = TreeMetrics(depth=depth, subtree_size=size, path_load=load,
                    degree=degree, max_degree=int(degree.max()),
                    diameter=diameter, tail_size=tail)
    for arr in (m.depth, m.subtree_size, m.path_load, m.degree, m.tail_size):
        arr.setflags(write=False)
    return m


def max_edge_load(metrics: TreeMetrics) -> EdgeLoad:
    """Maximum over edges of depth(lower endpoint) * subtree size below it.

    Single-vertex trees have no edges and return value 0.  Ties go to the
    smallest lower-endpoint index.
    """
    loads = metrics.depth * metrics.subtree_size  # 0 at the root, >= 1 below it
    e = int(np.argmax(loads))
    return EdgeLoad(int(loads[e]), e) if loads[e] else EdgeLoad(0, None)


def max_path_load(metrics: TreeMetrics) -> VertexLoad:
    v = int(np.argmax(metrics.path_load))
    return VertexLoad(int(metrics.path_load[v]), v)


def tail_profile(metrics: TreeMetrics) -> TailProfile:
    """Per-depth table k * |{v : depth(v) >= k}| and its maximum over k >= 1."""
    ks = np.arange(len(metrics.tail_size), dtype=np.int64)
    table = ks * metrics.tail_size
    table.setflags(write=False)
    k = int(np.argmax(table))  # table[0] is 0, and table[k] >= 1 up to the height
    return TailProfile(int(table[k]), k, table) if k else TailProfile(0, None, table)


@dataclass(frozen=True)
class CenterOfMass:
    """A vertex plus a two-subtree cover of V overlapping only in it.

    ``delta = min(|part_a|, |part_b|) / n``; the separator construction
    guarantees delta >= 1/3 whenever the split vertex is free.  The parts
    are stored as a read-only per-vertex side label (1 for ``part_a``, 2
    for ``part_b``, 0 for the split vertex), which stays out of eq, hash
    and repr; ``part_a`` and ``part_b`` are frozensets built on first read.
    """

    vertex: int
    delta: float
    side: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        self.side.setflags(write=False)

    @cached_property
    def part_a(self) -> frozenset:
        return self._part(1)

    @cached_property
    def part_b(self) -> frozenset:
        return self._part(2)

    def _part(self, label: int) -> frozenset:
        members = self.side == label
        members[self.vertex] = True
        return frozenset(np.flatnonzero(members).tolist())


def center_of_mass(tree: RootedTree, at: Optional[int] = None) -> CenterOfMass:
    """Split the tree into two balanced subtrees overlapping in one vertex.

    With ``at=None`` the split vertex is the smallest-index vertex whose
    removal leaves only components of size <= n/2; grouping the components
    then yields parts of size >= ceil(n/3) each.  Passing ``at`` forces the
    split vertex and reports whatever balance the grouping achieves there.

    Components are grouped largest-first: with two components they become
    the two parts; with three the largest stands alone; with more, the two
    smallest components are merged (or split off once their combined size
    reaches (n-1)/3) until three remain.
    """
    n = tree.n
    x = None if at is None else _check_vertex(tree, at, "split vertex")
    if n == 1:
        return CenterOfMass(tree.root, 1.0, np.zeros(1, dtype=np.int64))

    metrics = compute_metrics(tree)
    size = metrics.subtree_size

    if x is None:
        max_comp = np.append(n - size, 0)  # slot n takes the root's -1
        np.maximum.at(max_comp, tree.parent, size)
        x = int(np.argmax(2 * max_comp[:n] <= n))

    # components of the tree minus x as a min-heap on (size, -neighbor):
    # smallest first, ties to the larger neighbor index; a merged component
    # is keyed by the smallest neighbor it contains
    comps = [(int(size[c]), -int(c), [int(c)]) for c in tree.children(x)]
    if x != tree.root:
        comps.append((n - int(size[x]), -int(tree.parent[x]), [int(tree.parent[x])]))
    heapq.heapify(comps)

    while len(comps) > 3:
        s1 = heapq.heappop(comps)  # smallest
        s2 = heapq.heappop(comps)  # second smallest
        merged_size = s1[0] + s2[0]
        if 3 * merged_size >= n - 1:
            group_a = s1[2] + s2[2]
            group_b = [a for c in comps for a in c[2]]
            break
        heapq.heappush(comps, (merged_size, max(s1[1], s2[1]), s1[2] + s2[2]))
    else:  # at most three components: the largest stands alone
        largest = max(comps)
        group_a = largest[2]
        group_b = [a for c in comps if c is not largest for a in c[2]]

    # one ancestor_sum spreads each child anchor's group mark over its
    # subtree; what stays 0 is x and the component through parent[x]
    mark = np.zeros(n, dtype=np.int64)
    mark[group_a] = 1
    mark[group_b] = 2
    up = int(tree.parent[x])
    up_mark = 0
    if up >= 0:
        up_mark, mark[up] = int(mark[up]), 0
    side = _kernels.ancestor_sum(tree, mark)
    side[side == 0] = up_mark
    side[x] = 0

    # part_a is the smaller part, ties broken as ascending vertex lists:
    # both hold x, so the first entry where they differ is the smaller of
    # their least other vertices (a part of size 1 never ties)
    sizes = np.bincount(side, minlength=3)[1:] + 1
    least = [int(np.argmax(side == m)) for m in (1, 2)]
    if (sizes[0], least[0]) > (sizes[1], least[1]):
        side = np.where(side > 0, 3 - side, 0)
    delta = int(sizes.min()) / n
    return CenterOfMass(x, delta, side)


def reroot(tree: RootedTree, new_root: int) -> RootedTree:
    """Same undirected edges, parent links re-oriented toward ``new_root``.

    Vertex indices are preserved, so per-vertex quantities stay comparable
    across the two rootings.
    """
    new_root = _check_vertex(tree, new_root, "new root")
    if new_root == tree.root:
        return tree
    path = root_path(tree, new_root)
    par = tree.parent.copy()
    par[path[:-1]] = path[1:]
    par[new_root] = -1
    return from_parents(tree.n, par)


def root_path(tree: RootedTree, v: int) -> np.ndarray:
    """Vertices on the path from the root to ``v``, root first, as int64."""
    v = _check_vertex(tree, v)
    # after the step with jumps[k], path[i] is the i-th ancestor of v for
    # i < 2**(k+1); entries past the root are the sentinel n
    path = np.array([v], dtype=np.int64)
    for jump in tree.jumps[:int(tree.depth[v]).bit_length()]:
        path = np.concatenate((path, jump[path]))
    return path[path < tree.n][::-1]


def _lca_depth(tree: RootedTree, x: int) -> np.ndarray:
    """Depth of the lowest common ancestor of every vertex with ``x``, the
    non-root vertices its root path shares with x's: the one whole-tree pass
    over a root path, an ``ancestor_sum`` of its indicator."""
    on_path = np.zeros(tree.n, dtype=np.int64)
    on_path[root_path(tree, x)] = 1
    return _kernels.ancestor_sum(tree, on_path)


def _check_vertex(tree: RootedTree, v, name: str = "vertex") -> int:
    """``v`` as an int; ``ValidationError`` unless an integer in 0..n-1."""
    v = _check_count(v, name, 0)
    if v >= tree.n:
        raise ValidationError(f"{name} must be <= {tree.n - 1}, got {_shown(v)}")
    return v


@_per_tree
def root_orbits(tree: RootedTree) -> np.ndarray:
    """The orbit of every vertex under the automorphisms fixing the root, as
    class ids numbered level by level from the root's 0.

    Two vertices share an orbit exactly when their parents do and their
    subtrees are isomorphic.  Subtrees are compared by AHU canonical codes
    (Aho, Hopcroft & Ullman, *The Design and Analysis of Computer
    Algorithms*, 1974), bottom-up one level at a time: a vertex's code
    numbers the sorted list of its children's codes within its level, by
    ``np.unique`` over the lists padded with -1.  Lists whose lengths share
    a bit length are padded together, so padding at most doubles them.
    Classes are then refined top down by (class of the parent, code).
    Cached per tree.
    """
    counts = np.bincount(tree.depth)
    ends = np.cumsum(counts)
    order = np.argsort(tree.depth, kind="stable")  # level by level
    row = np.empty(tree.n, dtype=np.int64)         # index within the level
    row[order] = np.arange(tree.n) - np.repeat(ends - counts, counts)
    levels = np.split(order, ends[:-1])

    code = np.zeros(tree.n, dtype=np.int64)  # leaves keep 0
    for level, kids in zip(levels[-2::-1], levels[:0:-1]):
        rows, kid_codes = row[tree.parent[kids]], code[kids]
        by_row = np.lexsort((kid_codes, rows))
        rows, kid_codes = rows[by_row], kid_codes[by_row]
        size = np.bincount(rows, minlength=level.size)
        slot = np.arange(rows.size) - np.repeat(np.cumsum(size) - size, size)
        bits = np.frexp(size)[1]
        level_code = np.zeros(level.size, dtype=np.int64)
        for b in np.unique(bits[bits > 0]):
            members = np.flatnonzero(bits == b)
            padded = np.full((members.size, int(size[members].max())), -1, dtype=np.int64)
            mine = bits[rows] == b
            padded[np.searchsorted(members, rows[mine]), slot[mine]] = kid_codes[mine]
            inverse = np.unique(padded, axis=0, return_inverse=True)[1].ravel()
            level_code[members] = level_code.max() + 1 + inverse
        code[level] = level_code

    orbit = np.zeros(tree.n, dtype=np.int64)
    for level in levels[1:]:
        key = orbit[tree.parent[level]] * (code[level].max() + 1) + code[level]
        inverse = np.unique(key, return_inverse=True)[1]
        orbit[level] = orbit.max() + 1 + inverse
    orbit.setflags(write=False)
    return orbit


# ---------------------------------------------------------------------------
# canonical text format: line 1 vertex count, line 2 parent entries, -1 root
# ---------------------------------------------------------------------------

# a number of the text format: an optional minus and 1 to 18 ASCII digits,
# so that it fits int64 (``int`` would also take "+1", "1_0" and other digits)
_COUNT_LINE = re.compile(r"\s*-?[0-9]{1,18}\s*")
_PARENT_BYTES = b"-0123456789 "  # all that a plain parent line holds


def _parse_parents(line: str) -> np.ndarray:
    """The numbers of the parent line, checked and converted in numpy, with
    no Python int per entry (``re`` would keep some 230 bytes of
    backtracking state per entry).  Deleting the allowed bytes (minus,
    digits, space; other whitespace becomes spaces) must leave nothing, a
    minus needs a space before it and a digit after it, and no run of 19
    digits survives five ands of the digit mask with shifted copies."""
    data = line.encode("ascii", "replace")  # a non-ASCII character becomes "?"
    if data.translate(None, _PARENT_BYTES):
        data = " ".join(line.split()).encode("ascii", "replace")  # other separators
        if data.translate(None, _PARENT_BYTES):
            raise TreeFormatError("parent entries must be integers")
    # the appended space ends the last number and, read as b[-1], comes
    # before the first
    b = np.frombuffer(data + b" ", dtype=np.uint8)
    signs = np.flatnonzero(b == ord("-"))
    if not ((b[signs - 1] == ord(" ")) & (b[signs + 1] >= ord("0"))).all():
        raise TreeFormatError("parent entries must be integers")
    run = b >= ord("0")
    for k in (1, 2, 4, 8, 3):  # run[i]: 2, 4, 8, 16, then 19 digits from i on
        run = run[:-k] & run[k:]
    if run.any():
        raise TreeFormatError("parent entries must have at most 18 digits")
    return np.fromstring(data, dtype=np.int64, sep=" ")


def _int_text(values: np.ndarray, sep: str) -> str:
    """``sep.join(map(str, values.tolist()))`` for a signed-integer array,
    built in numpy with no Python int per entry; the inverse of
    :func:`_parse_parents`.  ``sep`` holds no NUL.

    Magnitudes are taken as uint64, exact for the int64 minimum too, then
    in the narrowest unsigned type that holds them (narrow words divide
    faster).  Each entry fills a row of a zeroed byte grid, right-aligned
    before the separator: digits by floor division one column at a time
    (numpy's divide by a constant beats its ``divmod``), only where the
    quotient is nonzero, and a minus left of the first nonzero byte.  The
    grid's bytes without the zeros, less the last separator, are the text.
    """
    neg = values < 0
    mag = values.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)  # modulo 2**64: the magnitude
    top = mag.max(initial=0)
    mag = mag.astype(np.min_scalar_type(top))
    digits = len(str(top))
    cols = digits + int(neg.any())
    row = bytes(cols) + sep.encode("ascii")
    buf = bytearray(row) * values.size
    grid = np.frombuffer(buf, dtype=np.uint8).reshape(-1, len(row))
    for k in range(digits):
        quot = mag // 10
        digit = mag - quot * 10 + ord("0")
        if k:  # the units column is written for 0 too
            digit *= mag != 0
        grid[:, cols - 1 - k] = digit
        mag = quot
    rows = np.flatnonzero(neg)
    grid[rows, (grid[rows, :cols] != 0).argmax(axis=1) - 1] = ord("-")
    text = buf.translate(None, b"\0")
    del text[len(text) - len(sep):]
    return text.decode("ascii")


def to_text(tree: RootedTree) -> str:
    """The canonical two-line text: the vertex count, then the parent
    entries separated by single spaces.  The parent line is written by
    :func:`_int_text` in numpy, and :func:`from_text` reads it back."""
    return f"{tree.n}\n{_int_text(tree.parent, ' ')}\n"


def from_text(text: str) -> RootedTree:
    """Parse the canonical format strictly; trailing tokens are rejected.

    Numbers are an optional minus and at most 18 ASCII digits, separated
    by whitespace.
    """
    lines = text.split("\n")
    if len(lines) < 2:
        raise TreeFormatError("expected two lines: vertex count, parent entries")
    for extra in lines[2:]:
        if extra.strip():
            raise TreeFormatError(f"trailing content after parent line: {extra!r}")
    head, line = lines[:2]
    if not _COUNT_LINE.fullmatch(head):
        raise TreeFormatError(f"first line must hold a single integer vertex count, got {head!r}")
    n = int(head)
    parent = _parse_parents(line)
    if parent.size != n:
        raise TreeFormatError(f"expected {n} parent entries, found {parent.size}")
    return from_parents(n, parent)
