"""Rooted trees as parent arrays, their geometry, and the canonical text format.

A tree on ``n`` vertices is stored as a dense 0-based parent array with a
single ``-1`` sentinel at the root, plus derived structure: children in CSR
form, depths, and the pointer-jumping tables the numeric kernels consume
(``jumps[k][v]`` is the ``2**k``-th ancestor of ``v``, or the sentinel slot
``n`` past the root).  :func:`from_parents` builds all of it in O(log height)
vectorized steps, with no per-vertex Python loop.  Instances are immutable
and safe to share across workers.

The quantities computed here are purely combinatorial: depths, subtree
sizes, the per-vertex sum of subtree sizes along the root path ("path
load"), the per-edge product of depth and subtree size ("edge load"), the
per-depth tail sizes, the diameter, and the balanced two-subtree split
around a vertex separator ("center of mass").  Every pass over the tree is
a ``subtree_sum`` or an ``ancestor_sum`` from :mod:`treecut._kernels`;
vertex sets below an anchor are read off an ``ancestor_sum`` of anchor
labels, one call per set of disjoint subtrees; a root path is gathered
through the jump tables in ``depth.bit_length()`` numpy calls.  The one
pass of another kind, ``root_orbits`` (the classes of vertices that an
automorphism fixing the root can exchange), runs level by level.
"""

from __future__ import annotations

import heapq
import re
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import _kernels
from .errors import (CycleError, ParentIndexError, RootCountError,
                     TreeFormatError, ValidationError)

__all__ = [
    "RootedTree", "TreeMetrics", "CenterOfMass", "EdgeLoad", "VertexLoad",
    "TailProfile", "from_parents", "compute_metrics", "max_edge_load",
    "max_path_load", "tail_profile", "center_of_mass", "reroot", "root_path",
    "root_orbits", "to_text", "from_text",
]


@dataclass(frozen=True, eq=False)
class RootedTree:
    """Immutable rooted tree on vertices ``0..n-1``.

    ``children(v)`` returns the sorted child indices of ``v``; ``depth`` holds
    every vertex's distance to the root.  ``jumps`` is what the kernels
    iterate over: ``jumps[k]`` has length ``n + 1`` and maps ``v`` to its
    ``2**k``-th ancestor, or to the sentinel slot ``n`` when that lies past
    the root (``jumps[k][n] == n``).  It holds ``height.bit_length()``
    tables, the last one with ``2**k <= height``.
    """

    n: int
    root: int
    parent: np.ndarray
    child_ptr: np.ndarray = field(repr=False)
    child_flat: np.ndarray = field(repr=False)
    depth: np.ndarray = field(repr=False)
    jumps: tuple = field(repr=False)

    def children(self, v: int) -> np.ndarray:
        return self.child_flat[self.child_ptr[v]:self.child_ptr[v + 1]]

    @property
    def height(self) -> int:
        return int(self.depth.max())

    def degrees(self) -> np.ndarray:
        deg = np.diff(self.child_ptr).astype(np.int64)
        deg[np.arange(self.n) != self.root] += 1
        return deg

    def depths(self) -> np.ndarray:
        return self.depth.copy()


def from_parents(n: int, parent: Sequence) -> RootedTree:
    """Validate a parent sequence and build the tree.

    ``parent`` has length ``n``; the root is marked by ``-1`` or ``None``.
    Raises :class:`RootCountError`, :class:`ParentIndexError` or
    :class:`CycleError` for the respective defects.
    """
    if n < 1:
        raise ValidationError(f"vertex count must be >= 1, got {n}")
    if len(parent) != n:
        raise ValidationError(f"parent array has length {len(parent)}, expected {n}")
    if isinstance(parent, np.ndarray) and parent.dtype.kind == "i":
        par = parent.astype(np.int64)  # always a fresh copy
    else:
        par = np.array([-1 if p is None else int(p) for p in parent], dtype=np.int64)
    roots = np.nonzero(par == -1)[0]
    if len(roots) != 1:
        raise RootCountError(f"expected exactly one root sentinel, found {len(roots)}")
    bad = np.nonzero((par < -1) | (par >= n))[0]
    if len(bad):
        raise ParentIndexError(f"parent[{bad[0]}] = {par[bad[0]]} is out of range")
    root = int(roots[0])

    # children in CSR form: a stable sort by parent keeps each child list
    # ascending, and the root (parent -1) sorts first
    child_flat = np.argsort(par, kind="stable")[1:]
    child_ptr = np.concatenate(([0], np.cumsum(np.bincount(par[child_flat], minlength=n))))

    # pointer jumping (Wyllie): each step doubles the jump and adds the
    # depth found at its target; a vertex still short of the sentinel after
    # bit_length(n) steps sits on a cycle or below one
    jump = np.append(np.where(par >= 0, par, n), n)
    depth = np.append(par >= 0, False).astype(np.int64)
    jumps = []
    for _ in range(int(n).bit_length()):
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

    for arr in (par, child_ptr, child_flat, depth, *jumps):
        arr.setflags(write=False)
    return RootedTree(n=n, root=root, parent=par, child_ptr=child_ptr,
                      child_flat=child_flat, depth=depth, jumps=tuple(jumps))


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


_metrics_cache: "weakref.WeakKeyDictionary[RootedTree, TreeMetrics]" = \
    weakref.WeakKeyDictionary()


def compute_metrics(tree: RootedTree) -> TreeMetrics:
    """All per-tree geometric quantities: the stored depths plus three tree passes."""
    cached = _metrics_cache.get(tree)
    if cached is not None:
        return cached

    size = _kernels.subtree_sum(tree, np.ones(tree.n, dtype=np.int64))
    load = _kernels.ancestor_sum(tree, size)
    depth = tree.depth
    degree = tree.degrees()

    # diameter by double sweep: a deepest vertex is an end of a longest
    # path; dist(v, far) needs the depth of their lowest common ancestor,
    # which is the number of non-root vertices their root paths share
    far = int(np.argmax(depth))
    on_far_path = np.zeros(tree.n, dtype=np.int64)
    on_far_path[root_path(tree, far)] = 1
    lca_depth = _kernels.ancestor_sum(tree, on_far_path)
    diameter = int((depth + depth[far] - 2 * lca_depth).max())

    tail = np.cumsum(np.bincount(depth)[::-1])[::-1].astype(np.int64)

    m = TreeMetrics(depth=depth, subtree_size=size, path_load=load,
                    degree=degree, max_degree=int(degree.max()),
                    diameter=diameter, tail_size=tail)
    for arr in (m.depth, m.subtree_size, m.path_load, m.degree, m.tail_size):
        arr.setflags(write=False)
    _metrics_cache[tree] = m
    return m


def max_edge_load(metrics: TreeMetrics) -> EdgeLoad:
    """Maximum over edges of depth(lower endpoint) * subtree size below it.

    Single-vertex trees have no edges and return value 0.  Ties go to the
    smallest lower-endpoint index.
    """
    loads = metrics.depth * metrics.subtree_size
    loads = np.where(metrics.depth > 0, loads, -1)
    if loads.max() < 0:
        return EdgeLoad(0, None)
    e = int(np.argmax(loads))
    return EdgeLoad(int(loads[e]), e)


def max_path_load(metrics: TreeMetrics) -> VertexLoad:
    v = int(np.argmax(metrics.path_load))
    return VertexLoad(int(metrics.path_load[v]), v)


def tail_profile(metrics: TreeMetrics) -> TailProfile:
    """Per-depth table k * |{v : depth(v) >= k}| and its maximum over k >= 1."""
    ks = np.arange(len(metrics.tail_size), dtype=np.int64)
    table = ks * metrics.tail_size
    table.setflags(write=False)
    if len(table) == 1:
        return TailProfile(0, None, table)
    k = 1 + int(np.argmax(table[1:]))
    return TailProfile(int(table[k]), k, table)


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
    if n == 1:
        return CenterOfMass(tree.root, 1.0, np.zeros(1, dtype=np.int64))

    metrics = compute_metrics(tree)
    size = metrics.subtree_size

    if at is None:
        max_comp = n - size
        np.maximum.at(max_comp, tree.parent[tree.parent >= 0],
                      size[tree.parent >= 0])
        candidates = np.nonzero(2 * max_comp <= n)[0]
        x = int(candidates[0])
    else:
        if not 0 <= at < n:
            raise ValidationError(f"split vertex {at} out of range")
        x = int(at)

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
    if not 0 <= new_root < tree.n:
        raise ValidationError(f"new root {new_root} out of range")
    if new_root == tree.root:
        return tree
    path = root_path(tree, new_root)
    par = tree.parent.copy()
    par[path[:-1]] = path[1:]
    par[new_root] = -1
    return from_parents(tree.n, par)


def root_path(tree: RootedTree, v: int) -> list:
    """Vertices on the path from the root to ``v``, root first."""
    if not 0 <= v < tree.n:
        raise ValidationError(f"vertex {v} out of range")
    # after the step with jumps[k], path[i] is the i-th ancestor of v for
    # i < 2**(k+1); entries past the root are the sentinel n
    path = np.array([v], dtype=np.int64)
    for jump in tree.jumps[:int(tree.depth[v]).bit_length()]:
        path = np.concatenate((path, jump[path]))
    return path[path < tree.n][::-1].tolist()


_orbit_cache: "weakref.WeakKeyDictionary[RootedTree, np.ndarray]" = \
    weakref.WeakKeyDictionary()


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
    cached = _orbit_cache.get(tree)
    if cached is not None:
        return cached
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
    _orbit_cache[tree] = orbit
    return orbit


# ---------------------------------------------------------------------------
# canonical text format: line 1 vertex count, line 2 parent entries, -1 root
# ---------------------------------------------------------------------------

# a number of the text format: an optional minus and 1 to 18 ASCII digits,
# so that it fits int64 (``int`` would also take "+1", "1_0" and other digits)
_COUNT_LINE = re.compile(r"\s*-?[0-9]{1,18}\s*")
_PARENT_CHARS = re.compile(r"[-0-9 ]*")


def _parse_parents(line: str) -> np.ndarray:
    """The numbers of the parent line, checked and converted in numpy, with
    no Python int per entry.  One regular expression with a group repeated
    per entry would be shorter, but ``re`` keeps some 230 bytes of
    backtracking state for every repetition."""
    if not _PARENT_CHARS.fullmatch(line):
        line = " ".join(line.split())  # separators other than the space
        if not _PARENT_CHARS.fullmatch(line):
            raise TreeFormatError("parent entries must be integers")
    b = np.frombuffer(line.encode("ascii"), dtype=np.uint8)
    digit = b >= ord("0")
    signs = np.flatnonzero(b == ord("-"))
    # a minus opens a number: the line start or a space before it, a digit after
    if not (np.append(digit, False)[signs + 1].all()
            and ((signs == 0) | (b[signs - 1] == ord(" "))).all()):
        raise TreeFormatError("parent entries must be integers")
    edges = np.flatnonzero(np.diff(digit, prepend=False, append=False))
    if (edges[1::2] - edges[::2]).max(initial=0) > 18:
        raise TreeFormatError("parent entries must have at most 18 digits")
    return np.fromstring(line, dtype=np.int64, sep=" ")


_POW10 = np.uint64(10) ** np.arange(1, 20, dtype=np.uint64)  # 10 .. 10**19


def _int_text(values: np.ndarray, sep: str) -> str:
    """``sep.join(map(str, values.tolist()))`` for a signed-integer array,
    built in numpy with no Python int per entry; the inverse of
    :func:`_parse_parents`.

    Each entry's magnitude is taken as uint64, which is exact for the int64
    minimum too, and its digits are counted against powers of ten.  The
    entries fill the rows of one byte grid, right-aligned before the
    separator columns: digits are written one column at a time, right to
    left, by floor division (numpy's divide by a constant is several times
    faster than its ``divmod``), then the minus signs.  The grid is read
    out without each row's padding on the left, and the last separator is
    cut off.
    """
    neg = values < 0
    mag = values.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)  # modulo 2**64: the magnitude
    width = np.searchsorted(_POW10, mag, side="right") + 1 + neg
    cols = int(width.max(initial=0))
    grid = np.empty((values.size, cols + len(sep)), dtype=np.uint8)
    grid[:, cols:] = np.frombuffer(sep.encode("ascii"), dtype=np.uint8)
    for k in range(cols - 1, -1, -1):
        quot = mag // 10
        grid[:, k] = mag - quot * 10 + 48
        mag = quot
    grid[neg, cols - width[neg]] = ord("-")
    text = grid[np.arange(grid.shape[1]) >= cols - width[:, None]].tobytes().decode("ascii")
    return text[:len(text) - len(sep)]


def to_text(tree: RootedTree) -> str:
    """The canonical two-line text: the vertex count, then the parent
    entries separated by single spaces, written by :func:`_int_text`."""
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
