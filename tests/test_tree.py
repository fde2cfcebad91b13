"""Tree construction, geometry, center of mass, rerooting, text format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treecut as T
from treecut.errors import (CycleError, ParentIndexError, RootCountError,
                            TreeFormatError, ValidationError)

from treecut import _kernels
from treecut.tree import _int_text, root_orbits

from util import (best_center_split, brute_depth, brute_diameter,
                  brute_max_edge_load, brute_path_load, brute_reroot_parent,
                  brute_root_orbits, brute_subtree_size, brute_tail_value,
                  brute_unreachable, grafted_tree, random_tree)

# the 14-site tree from the contour illustration: root with four branches
FIG_PARENTS = [-1, 0, 0, 0, 0, 1, 2, 3, 4, 5, 5, 5, 11, 7]


class TestFromParents:
    def test_single_vertex(self):
        t = T.from_parents(1, [None])
        assert t.n == 1 and t.root == 0 and t.height == 0

    def test_three_chain(self):
        t = T.from_parents(3, [None, 0, 1])
        assert t.root == 0
        assert t.parent.tolist() == [-1, 0, 1]
        assert [list(t.children(v)) for v in range(3)] == [[1], [2], []]

    def test_cycle_error(self):
        with pytest.raises(CycleError):
            T.from_parents(4, [-1, 2, 3, 1])

    def test_root_count_errors(self):
        with pytest.raises(RootCountError):
            T.from_parents(3, [1, 0, 0])  # cycle 0<->1 and no sentinel
        with pytest.raises(RootCountError):
            T.from_parents(3, [-1, -1, 0])

    def test_index_error(self):
        with pytest.raises(ParentIndexError):
            T.from_parents(3, [-1, 5, 0])
        with pytest.raises(ParentIndexError):
            T.from_parents(3, [-1, -3, 0])

    def test_bad_length(self):
        with pytest.raises(ValidationError):
            T.from_parents(3, [-1, 0])

    def test_children_sorted(self):
        t = T.from_parents(5, [-1, 0, 0, 0, 2])
        assert list(t.children(0)) == [1, 2, 3]

    @pytest.mark.parametrize("parent", [
        [-1, 0, 2, 2],                               # self-loop with a child
        [-1, 0, 3, 4, 2, 2, 5, 4, 1],                # 3-cycle with subtrees off it
        [-1, 0, 3, 2, 5, 6, 4, 1],                   # two disjoint cycles
        [-1] + list(range(99))                       # long path to the root,
        + [v + 1 for v in range(100, 199)] + [100]   # a 100-cycle,
        + [150] + list(range(200, 299)),             # a long path below it
    ], ids=["self_loop", "cycle_with_subtrees", "two_cycles", "long_cycle"])
    def test_cycle_error_counts_unreachable_vertices(self, parent):
        with pytest.raises(CycleError) as err:
            T.from_parents(len(parent), parent)
        assert int(str(err.value).split()[0]) == brute_unreachable(parent)

    @pytest.mark.parametrize("parent", [[-1], [-1, 0], [1, -1]])
    def test_one_and_two_vertices(self, parent):
        t = T.from_parents(len(parent), parent)
        assert t.depths().tolist() == [brute_depth(t, v) for v in range(t.n)]
        assert t.height == len(parent) - 1 == len(t.jumps)

    @pytest.mark.parametrize("k", range(0, 9))
    def test_depth_at_powers_of_two(self, k):
        # paths of 2**k - 1, 2**k and 2**k + 1 edges, relabelled so the root
        # is not vertex 0 and parents are not below their children
        for edges in (2**k - 1, 2**k, 2**k + 1):
            n = edges + 1
            perm = np.roll(np.arange(n)[::-1], k)
            parent = np.full(n, -1)
            parent[perm[1:]] = perm[:-1]
            t = T.from_parents(n, parent)
            assert t.height == edges == max(brute_depth(t, v) for v in range(n))
            assert t.depths().tolist() == [brute_depth(t, v) for v in range(n)]
            assert len(t.jumps) == edges.bit_length()

    def test_integer_array_input_is_copied(self):
        parent = np.array([-1, 0, 0, 1, 1], dtype=np.int32)
        t = T.from_parents(5, parent)
        parent[4] = 2
        assert t.parent.dtype == np.int64
        assert t.parent.tolist() == [-1, 0, 0, 1, 1]
        assert t.parent.tolist() == T.from_parents(5, [-1, 0, 0, 1, 1]).parent.tolist()


def test_deep_segment_closed_forms():
    # a path of 200k edges: every tree pass is height.bit_length() steps
    seg = T.segment(200_000)
    t = T.from_parents(seg.n, seg.parent)
    n, v = t.n, np.arange(t.n)
    assert len(t.jumps) == (n - 1).bit_length()
    m = T.compute_metrics(t)
    load = v * n - v * (v + 1) // 2
    assert np.array_equal(m.depth, v)
    assert np.array_equal(m.subtree_size, n - v)
    assert np.array_equal(m.path_load, load)
    assert np.array_equal(m.tail_size, n - v)
    assert m.diameter == n - 1
    assert np.array_equal(_kernels.ancestor_sum(t, _kernels.subtree_sum(t, np.ones(n))), load)


class TestMetrics:
    def test_path_of_three(self):
        m = T.compute_metrics(T.segment(2))
        assert m.subtree_size.tolist() == [3, 2, 1]
        assert m.path_load.tolist() == [0, 2, 3]
        assert m.diameter == 2

    def test_star(self):
        m = T.compute_metrics(T.spherically_symmetric([3]))
        assert m.depth.max() == 1
        assert m.diameter == 2
        assert m.max_degree == 3

    def test_depth_sum_equals_subtree_sum(self):
        # two independent traversals of the same double-counting identity
        t = T.from_parents(len(FIG_PARENTS), FIG_PARENTS)
        depth_total = sum(brute_depth(t, v) for v in range(t.n))
        size_total = sum(brute_subtree_size(t, v) for v in range(t.n)
                         if t.parent[v] >= 0)
        assert depth_total == size_total
        m = T.compute_metrics(t)
        assert m.depth.sum() == depth_total
        assert m.subtree_size[t.parent >= 0].sum() == size_total

    def test_diameter_matches_bfs_oracle(self, small_suite):
        extra = [T.from_parents(1, [-1]), T.segment(9),
                 T.spherically_symmetric([7]), T.reroot(T.segment(9), 4)]
        for t in list(small_suite) + extra:
            assert T.compute_metrics(t).diameter == brute_diameter(t)

    def test_path_load_recurrence(self, small_suite):
        for t in small_suite:
            m = T.compute_metrics(t)
            for v in range(t.n):
                p = int(t.parent[v])
                if p >= 0:
                    assert m.path_load[v] == m.path_load[p] + m.subtree_size[v]

    @given(n=st.integers(2, 40), seed=st.integers(0, 2**32), tall=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_subtree_recurrence(self, n, seed, tall):
        t = random_tree(n, seed, tall)
        m = T.compute_metrics(t)
        for v in range(t.n):
            kids = t.children(v)
            assert m.subtree_size[v] == 1 + m.subtree_size[kids].sum()
        assert m.subtree_size[t.root] == t.n


class TestLoads:
    def test_edge_load_path(self):
        # three edges from the root: loads k*(4-k) for k=1..3
        m = T.compute_metrics(T.segment(3))
        assert T.max_edge_load(m) == (4, 2)

    def test_edge_load_star(self):
        m = T.compute_metrics(T.spherically_symmetric([5]))
        assert T.max_edge_load(m).value == 1

    def test_edge_load_single_vertex(self):
        m = T.compute_metrics(T.from_parents(1, [-1]))
        assert T.max_edge_load(m) == (0, None)
        assert T.max_path_load(m).value == 0

    def test_edge_load_against_brute_force(self):
        t = random_tree(50, seed=31337)
        m = T.compute_metrics(t)
        assert T.max_edge_load(m).value == brute_max_edge_load(t)

    def test_path_load_values(self):
        m = T.compute_metrics(T.segment(2))
        assert T.max_path_load(m) == (3, 2)

    def test_path_load_against_brute_force(self):
        t = random_tree(50, seed=99, tall=True)
        m = T.compute_metrics(t)
        assert T.max_path_load(m).value == max(brute_path_load(t, v)
                                               for v in range(t.n))

    def test_tail_profile_path(self):
        tp = T.tail_profile(T.compute_metrics(T.segment(3)))
        assert tp.table.tolist() == [0, 3, 4, 3]
        assert (tp.value, tp.k) == (4, 2)

    def test_tail_profile_star(self):
        tp = T.tail_profile(T.compute_metrics(T.spherically_symmetric([7])))
        assert tp.value == 7

    def test_tail_profile_against_brute_force(self):
        t = T.cor15_tree(64)
        assert T.tail_profile(T.compute_metrics(t)).value == brute_tail_value(t)


class TestCenterOfMass:
    def test_path_of_three(self):
        c = T.center_of_mass(T.segment(2))
        assert c.vertex == 1
        assert {len(c.part_a), len(c.part_b)} == {2}
        assert c.delta == pytest.approx(2 / 3)

    def test_star_with_four_leaves(self):
        c = T.center_of_mass(T.spherically_symmetric([4]))
        assert c.vertex == 0
        assert len(c.part_a) == 3 and len(c.part_b) == 3
        assert c.part_a & c.part_b == {0}
        assert c.delta == pytest.approx(3 / 5)

    def test_merge_order_on_stars(self):
        # equal components merge largest neighbor index first; a merged
        # component is keyed by its smallest neighbor
        c = T.center_of_mass(T.spherically_symmetric([5]))
        assert (sorted(c.part_a), sorted(c.part_b)) == ([0, 4, 5], [0, 1, 2, 3])
        c = T.center_of_mass(T.spherically_symmetric([9]))
        assert (sorted(c.part_a), sorted(c.part_b)) == ([0, 1, 8, 9], [0, 2, 3, 4, 5, 6, 7])
        assert c.delta == pytest.approx(0.4)
        # spider with legs 2,1,1,2,1: leaves 7 and 4 merge into a size-2
        # component keyed 4, so leaf 3 then pairs with the leg at 5, not it
        spider = T.from_parents(8, [-1, 0, 1, 0, 0, 0, 5, 0])
        c = T.center_of_mass(spider, at=0)
        assert (sorted(c.part_a), sorted(c.part_b)) == ([0, 3, 5, 6], [0, 1, 2, 4, 7])

    def test_wide_star_balanced(self):
        for k in (3, 50, 2000):
            c = T.center_of_mass(T.spherically_symmetric([k]))
            assert c.part_a | c.part_b == set(range(k + 1))
            assert c.part_a & c.part_b == {0}
            assert min(len(c.part_a), len(c.part_b)) >= -(-(k + 1) // 3)

    def test_single_vertex(self):
        c = T.center_of_mass(T.from_parents(1, [-1]))
        assert c.part_a == c.part_b == frozenset({0})

    def test_forced_vertex(self):
        t = T.segment(4)
        c = T.center_of_mass(t, at=0)
        assert c.vertex == 0 and c.delta == pytest.approx(1 / 5)

    def test_random_suite_against_exhaustive(self):
        for i in range(200):
            n = 2 + i % 39
            t = random_tree(n, seed=1000 + i, tall=i % 3 == 0)
            c = T.center_of_mass(t)
            # validity: parts cover, overlap only in the split vertex
            assert c.part_a | c.part_b == set(range(n))
            assert c.part_a & c.part_b == {c.vertex}
            assert min(len(c.part_a), len(c.part_b)) >= -(-n // 3)  # ceil(n/3)
            assert c.delta <= best_center_split(t) + 1e-12

    def test_parts_induce_subtrees(self):
        for seed in (4, 14, 24):
            t = random_tree(25, seed=seed)
            c = T.center_of_mass(t)
            adj = [[] for _ in range(t.n)]
            for v in range(t.n):
                p = int(t.parent[v])
                if p >= 0:
                    adj[v].append(p)
                    adj[p].append(v)
            for part in (c.part_a, c.part_b):
                # connected within the part when entered at the split vertex
                seen = {c.vertex}
                stack = [c.vertex]
                while stack:
                    u = stack.pop()
                    for w in adj[u]:
                        if w in part and w not in seen:
                            seen.add(w)
                            stack.append(w)
                assert seen == part


class TestReroot:
    def test_identity(self):
        t = T.segment(3)
        assert T.reroot(t, t.root) is t

    def test_path_middle(self):
        t = T.reroot(T.segment(2), 1)
        assert t.root == 1
        assert sorted(t.children(1)) == [0, 2]

    def test_parent_matches_oracle_at_every_root(self, small_suite):
        for t in small_suite[:4] + [T.segment(5), T.spherically_symmetric([4])]:
            for x in range(t.n):
                r = T.reroot(t, x)
                assert r.root == x
                assert r.parent.tolist() == brute_reroot_parent(t, x)

    def test_degree_multiset_and_diameter_preserved(self, small_suite):
        for t in small_suite[:15]:
            m = T.compute_metrics(t)
            r = T.reroot(t, t.n - 1)
            mr = T.compute_metrics(r)
            assert sorted(m.degree.tolist()) == sorted(mr.degree.tolist())
            assert m.diameter == mr.diameter

    def test_gap_invariant_under_reroot(self, small_suite):
        for t in small_suite[:10]:
            g0 = T.spectrum(t).gap
            g1 = T.spectrum(T.reroot(t, t.n - 1)).gap
            assert abs(g0 - g1) < 1e-10


class TestRootOrbits:
    def assert_orbits(self, tree):
        orbit = root_orbits(tree)
        keys = brute_root_orbits(tree)
        # one class per key, numbered level by level from the root's 0
        pairs = set(zip(orbit.tolist(), keys))
        assert len(pairs) == len(set(orbit.tolist())) == len(set(keys))
        assert orbit[tree.root] == 0
        by_depth = [sorted(set(orbit[tree.depth == d].tolist())) for d in range(tree.height + 1)]
        assert all(a[-1] < b[0] for a, b in zip(by_depth, by_depth[1:]))

    @pytest.mark.parametrize("make", [
        lambda: T.spherically_symmetric([2, 3, 3, 3]),
        lambda: T.spherically_symmetric([3, 2, 4, 2]),
        lambda: T.spherically_symmetric([40]),
        lambda: T.binary_of_size(100),
        lambda: T.segment(7),
        lambda: T.from_parents(1, [-1]),
        lambda: T.reroot(T.spherically_symmetric([2, 3, 3]), 5),
    ])
    def test_families(self, make):
        self.assert_orbits(make())

    def test_random_and_grafted(self, small_suite):
        for tree in small_suite[:20]:
            self.assert_orbits(tree)
        for seed in range(20):
            self.assert_orbits(grafted_tree(12 + seed, seed))

    def test_mixed_child_counts_share_padding(self):
        # child counts 1, 2, 3 and 9 at one level: padded blocks by bit length
        parent = [-1, 0, 0, 0, 0, 0, 0]
        for host, count in ((1, 1), (2, 2), (3, 3), (4, 9), (5, 3), (6, 2)):
            parent += [host] * count
        tree = T.from_parents(len(parent), parent)
        self.assert_orbits(tree)
        orbit = root_orbits(tree)
        assert orbit[3] == orbit[5] and orbit[2] == orbit[6] and orbit[1] != orbit[2]

    def test_cached(self):
        tree = T.binary_of_size(50)
        assert root_orbits(tree) is root_orbits(tree)


class TestTextFormat:
    def test_round_trip(self):
        t = random_tree(17, seed=5)
        assert T.to_text(T.from_text(T.to_text(t))) == T.to_text(t)

    def test_canonical_example(self):
        assert T.to_text(T.segment(3)) == "4\n-1 0 1 2\n"

    def test_rejects_trailing_tokens(self):
        with pytest.raises(TreeFormatError):
            T.from_text("2\n-1 0 0\n")
        with pytest.raises(TreeFormatError):
            T.from_text("2\n-1 0\n7\n")

    def test_rejects_malformed(self):
        with pytest.raises(TreeFormatError):
            T.from_text("x\n-1\n")
        with pytest.raises(TreeFormatError):
            T.from_text("2\n-1 zebra\n")
        with pytest.raises(TreeFormatError):
            T.from_text("3\n-1 0\n")

    def test_allows_trailing_newline_only(self):
        t = T.from_text("3\n-1 0 1\n\n")
        assert t.n == 3

    @pytest.mark.parametrize("text", ["2\n-1 1_0\n", "2\n-1 +0\n", "1_0\n" + "-1" + " 0" * 9 + "\n",
                                      "+2\n-1 0\n", "2\n-1 \u0660\n", "2\n-1 1-0\n",
                                      "2\n-1 -\n", "2\n--1 0\n"],
                             ids=["underscore", "plus", "underscore_count", "plus_count",
                                  "arabic_digit", "inner_minus", "bare_minus", "double_minus"])
    def test_numbers_are_minus_and_ascii_digits(self, text):
        # int() takes "1_0", "+1" and other digits; the format does not
        with pytest.raises(TreeFormatError):
            T.from_text(text)

    @pytest.mark.parametrize("token", ["12345678901234567890", "-" + "9" * 19, "0" * 19 + "1"])
    def test_rejects_oversized_entry(self, token):
        # more than 18 digits may not fit int64; an error, never an overflow
        with pytest.raises(TreeFormatError):
            T.from_text(f"2\n-1 {token}\n")
        with pytest.raises(TreeFormatError):
            T.from_text(f"{token}\n-1\n")

    def test_whitespace_as_str_split_and_leading_zeros(self):
        for text in ("3\r\n-1 0 1\r\n", " 3 \n\t-1\x0b0\x1c1  \n", "3\n-1\u30000\u00a01\n",
                     "03\n-01 000 001\n"):
            assert T.from_text(text).parent.tolist() == [-1, 0, 1]

    @pytest.mark.parametrize("make", [lambda: T.binary_of_size(30_000),
                                      lambda: T.segment(5000),
                                      lambda: random_tree(300, seed=2, tall=True)],
                             ids=["binary_30k", "segment_5k", "random_tall"])
    def test_round_trip_large(self, make):
        t = make()
        back = T.from_text(T.to_text(t))
        assert back.parent.dtype == np.int64
        assert np.array_equal(back.parent, t.parent)


_I64 = np.iinfo(np.int64)
# 0, +-1, both sides of every power of ten up to 10**18, the int64 extremes
_EDGE_INTS = np.array([0, 1, -1, _I64.min, _I64.max, _I64.min + 1, -_I64.max]
                      + [s * (10 ** k + d) for k in range(1, 19) for d in (-1, 0, 1)
                         for s in (1, -1)], dtype=np.int64)


class TestIntText:
    """``_int_text`` is ``sep.join(map(str, values.tolist()))``, byte for byte."""

    SEPS = [" ", ", ", ",\n    "]

    @staticmethod
    def oracle(values, sep):
        return sep.join(map(str, values.tolist()))

    @pytest.mark.parametrize("sep", SEPS, ids=repr)
    def test_edge_values(self, sep):
        assert _int_text(_EDGE_INTS, sep) == self.oracle(_EDGE_INTS, sep)
        for v in _EDGE_INTS:  # alone, so each is also the first and the last item
            assert _int_text(np.array([v]), sep) == str(v)

    @pytest.mark.parametrize("sep", SEPS, ids=repr)
    def test_empty(self, sep):
        assert _int_text(np.array([], dtype=np.int64), sep) == ""

    @pytest.mark.parametrize("sep", SEPS, ids=repr)
    @pytest.mark.parametrize("seed", range(3))
    def test_random(self, sep, seed):
        rng = np.random.default_rng(seed)
        full = rng.integers(_I64.min, _I64.max, 500, endpoint=True)
        # magnitudes spread over every digit count, not only 18-19 digits
        spread = full >> rng.integers(0, 63, 500)
        for values in (full, spread, rng.integers(-20, 20, 500)):
            assert _int_text(values, sep) == self.oracle(values, sep)

    def test_other_signed_widths(self):
        for dtype in (np.int8, np.int16, np.int32):
            info = np.iinfo(dtype)
            values = np.array([info.min, -1, 0, 9, 10, info.max], dtype=dtype)
            assert _int_text(values, " ") == self.oracle(values, " ")


def test_root_path():
    t = T.segment(4)
    assert T.root_path(t, 3) == [0, 1, 2, 3]
    assert T.root_path(t, 0) == [0]
