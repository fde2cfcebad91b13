"""Tree construction, geometry, center of mass, rerooting, text format."""

import importlib
import inspect
import json
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treecut as T
from treecut.errors import (CycleError, ParentIndexError, RootCountError,
                            TreeFormatError, ValidationError, _shown)

from treecut import _kernels, bdchain as bd, cli, criteria as C
from treecut.generate import OffspringDistribution as OD
from treecut.tree import _int_text, _lca_depth, root_orbits

from util import (best_center_split, brute_depth, brute_diameter, brute_lca_depth,
                  brute_max_edge_load, brute_path_load, brute_reroot_parent,
                  brute_root_orbits, brute_subtree_size, brute_tail_value,
                  brute_unreachable, grafted_tree, listed, random_tree)

HUGE = 10**5000  # past 4300 digits, an int Python does not write as text

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
        # the last four, not sequences, raised TypeError or a numpy ValueError
        for n, parent in ((3, [-1, 0]), (3, 5), (2, (p for p in (-1, 0))),
                          (1, np.array(-1)), (2, np.array([[-1, 0], [0, 0]]))):
            with pytest.raises(ValidationError, match="^parent array "):
                T.from_parents(n, parent)

    def test_children_sorted(self):
        t = T.from_parents(5, [-1, 0, 0, 0, 2])
        assert list(t.children(0)) == [1, 2, 3]

    def test_degrees_and_children_match_edges(self, random_suite):
        # counted one edge at a time, against the Laplacian's diagonal and
        # its off-diagonal -1s
        for t in random_suite:
            count, kids = [0] * t.n, [[] for _ in range(t.n)]
            for v, p in enumerate(t.parent.tolist()):
                if p >= 0:
                    count[v] += 1
                    count[p] += 1
                    kids[p].append(v)
            deg, Q = t.degrees(), T.laplacian(t)
            assert deg.dtype == np.int64 and deg.tolist() == count
            assert np.diag(Q).tolist() == count == (Q < 0).sum(axis=1).tolist()
            assert [t.children(v).tolist() for v in range(t.n)] == kids

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

    @pytest.mark.parametrize("parent", [[-1, 0.7], np.array([-1.0, 0.9]), [-1, "0"], [-1, True],
                                        np.array([True, False]), [-1, np.float64(0.0)]],
                             ids=["float", "float_array", "str", "bool", "bool_array",
                                  "numpy_float"])
    def test_non_integer_entries_rejected(self, parent):
        # these used to be truncated to an int, accepted, or end in CycleError
        with pytest.raises(ValidationError, match="is not an integer"):
            T.from_parents(2, parent)

    @pytest.mark.parametrize("big", [2 ** 70, -(2 ** 70), 2 ** 63])
    def test_entry_past_int64_is_out_of_range(self, big):
        # used to escape as a bare OverflowError
        with pytest.raises(ParentIndexError, match=f"parent\\[1\\] = {big} "):
            T.from_parents(2, [-1, big])

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
    def test_signed_arrays_of_every_width(self, dtype):
        assert T.from_parents(3, np.array([1, 2, -1], dtype=dtype)).parent.tolist() == [1, 2, -1]

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int64, np.uint64])
    def test_numpy_integer_entries_with_none_root(self, dtype):
        assert T.from_parents(3, [dtype(1), dtype(2), None]).parent.tolist() == [1, 2, -1]

    def test_unsigned_arrays_read_as_int64(self):
        # uint64 wraps modulo 2**64, so its -1 is the root; narrower
        # unsigned arrays cannot hold a root marker
        assert T.from_parents(3, np.array([-1, 0, 1]).astype(np.uint64)).parent.tolist() == [-1, 0, 1]
        with pytest.raises(ParentIndexError):
            T.from_parents(2, np.array([2 ** 64 - 1, 2 ** 63], dtype=np.uint64))
        with pytest.raises(RootCountError):
            T.from_parents(2, np.array([1, 0], dtype=np.uint8))

    def test_signed_array_is_not_iterated(self):
        class NoIter(np.ndarray):
            def __iter__(self):
                raise AssertionError("iterated per entry")

        t = T.from_parents(3, np.array([-1, 0, 0], dtype=np.int32).view(NoIter))
        assert np.asarray(t.parent).tolist() == [-1, 0, 0]


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

    @pytest.mark.parametrize("where", [0, 1, 2], ids=["start", "middle", "end"])
    def test_digit_limit_at_every_position(self, where):
        tokens = ["-1", "0", "1"]
        sign, value = ("-", "1") if where == 0 else ("", tokens[where])
        for digits, ok in ((18, True), (19, False)):
            tokens[where] = sign + value.rjust(digits, "0")
            text = "3\n" + " ".join(tokens) + "\n"
            if ok:
                assert T.from_text(text).parent.tolist() == [-1, 0, 1]
            else:
                with pytest.raises(TreeFormatError, match="18 digits"):
                    T.from_text(text)

    @pytest.mark.parametrize("line", ["-1 0 1 -", "-1 0 1-", "-1 0\x00 1", "-1 0 \x001",
                                      "\x00-1 0 1", "-1 0 1\x00"],
                             ids=["minus_last", "minus_after_digit", "nul_after", "nul_before",
                                  "nul_first", "nul_last"])
    def test_rejects_trailing_minus_and_nul(self, line):
        with pytest.raises(TreeFormatError):
            T.from_text(f"3\n{line}\n")

    @pytest.mark.parametrize("seed", range(40))
    def test_parser_matches_per_token_oracle(self, seed):
        # a random tree's parent line, each entry with leading zeros up to
        # 19 digits and at times a minus, a stray minus or a NUL, joined by
        # runs of mixed separators; the oracle splits on whitespace and
        # matches each token alone, then builds the tree from the ints
        rng = np.random.default_rng(seed)
        t = random_tree(int(rng.integers(1, 25)), seed=seed)
        tokens = []
        for p in t.parent.tolist():
            digits = str(abs(p)).rjust(int(rng.integers(1, 20)), "0")
            sign = "-" if p < 0 or rng.random() < 0.05 else ""
            token = sign + digits
            if rng.random() < 0.03:
                cut = int(rng.integers(0, len(token) + 1))
                token = token[:cut] + ["-", "\x00"][int(rng.integers(2))] + token[cut:]
            tokens.append(token)
        seps = [" ", "  ", "\t", "\x1c", "\u00a0"]
        line = "".join(tok + "".join(rng.choice(seps, int(rng.integers(1, 3))))
                       for tok in tokens)
        line = line.rstrip() if rng.random() < 0.5 else line
        text = f"{t.n}\n{line}\n"
        words = line.split()
        if all(re.fullmatch(r"-?[0-9]{1,18}", w) for w in words):
            try:
                expected = T.from_parents(t.n, [int(w) for w in words]).parent.tolist()
            except ValidationError as exc:
                with pytest.raises(type(exc)):
                    T.from_text(text)
            else:
                assert T.from_text(text).parent.tolist() == expected
        else:
            with pytest.raises(TreeFormatError):
                T.from_text(text)


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

    @pytest.mark.parametrize("sep", SEPS, ids=repr)
    def test_read_only_strided_view(self, sep):
        values = np.random.default_rng(4).integers(-10 ** 12, 10 ** 12, 300)
        values.setflags(write=False)
        view, before = values[::3], values.copy()
        assert _int_text(view, sep) == self.oracle(view, sep)
        assert np.array_equal(values, before)

    @pytest.mark.parametrize("make", [lambda: T.binary_of_size(30_000), lambda: T.segment(5000)],
                             ids=["binary_30k", "segment_5k"])
    def test_metrics_payload_matches_stdlib(self, make, tmp_path, monkeypatch):
        path = tmp_path / "tree.txt"
        path.write_text(T.to_text(make()), encoding="ascii")
        payloads = []
        monkeypatch.setattr(cli, "_dump", lambda args, payload: payloads.append(payload))
        assert cli.main(["metrics", str(path)]) == 0
        payload, = payloads
        assert cli._json_text(payload) == json.dumps(listed(payload), sort_keys=True, indent=2)


def test_root_path():
    t = T.segment(4)
    assert T.root_path(t, 3).tolist() == [0, 1, 2, 3]
    assert T.root_path(t, 0).tolist() == [0]
    path = T.root_path(t, np.int64(2))
    assert isinstance(path, np.ndarray) and path.dtype == np.int64


def test_lca_depth_matches_parent_walk(random_suite):
    for t in random_suite:
        for x in {t.root, t.n // 2, t.n - 1, int(np.argmax(t.depth))}:
            lca = _lca_depth(t, x)
            assert lca.dtype == np.int64 and lca.tolist() == brute_lca_depth(t, x)


# every entry point that takes a vertex, called on segment(3) with a vertex
# that is not an integer or not in 0..3: the call, the name its message
# starts with, and the parameter
BAD_VERTEX_CALLS = {
    "root_path": (lambda t, v: T.root_path(t, v), "vertex", "v"),
    "reroot": (lambda t, v: T.reroot(t, v), "new root", "new_root"),
    "center_of_mass": (lambda t, v: T.center_of_mass(t, at=v), "split vertex", "at"),
    "hitting_profile": (lambda t, v: T.hitting_profile(t, v), "target vertex", "target"),
    "tv_from_start": (lambda t, v: T.tv_from_start(t, 1.0, v), "start vertex", "start"),
    "mixing_time": (lambda t, v: T.mixing_time(t, 0.25, start=v), "start vertex", "start"),
    "tv_curve": (lambda t, v: T.tv_curve(t, 3, t_max=1.0, start=v), "start vertex", "start"),
    "nu_exact": (lambda t, v: T.nu_exact(t, [1, v]), "vertex", "B"),
    "retraction_weights": (lambda t, v: T.retraction_weights(t, v), "vertex", "v"),
    "hanging_sizes": (lambda t, v: T.hanging_sizes(t, v), "vertex", "v"),
    "retraction": (lambda t, v: T.retraction(t, v), "vertex", "v"),
    "retraction_report": (lambda t, v: T.retraction_report(t, v), "vertex", "v_star"),
    "retraction_alpha": (lambda t, v: T.retraction_alpha(t, v), "vertex", "v"),
    "RootedTree.children": (lambda t, v: t.children(v), "vertex", None),  # a method
}


@pytest.mark.parametrize("bad", [2.5, 2.0, "2", -1, 4, np.int64(4), True,
                                 pytest.param(HUGE, id="huge")])
@pytest.mark.parametrize("call", BAD_VERTEX_CALLS.values(), ids=BAD_VERTEX_CALLS.keys())
def test_vertex_arguments_checked(call, bad):
    fn, name, _ = call
    with pytest.raises(ValidationError, match=f"^{name} "):
        fn(T.segment(3), bad)


@pytest.mark.parametrize("call", BAD_VERTEX_CALLS.values(), ids=BAD_VERTEX_CALLS.keys())
def test_numpy_integer_vertices_accepted(call):
    fn, _, _ = call
    t = T.segment(3)
    assert repr(fn(t, 2)) == repr(fn(t, np.int64(2)))


# every count argument (a size, depth, degree, cap or repetition count),
# keyed function.parameter, with a bracketed note where one parameter has
# several checks: the call, the name its message starts with, the least
# value allowed, and a valid value
BAD_COUNT_CALLS = {
    "from_parents.n": (lambda v: T.from_parents(v, [-1, 0]), "vertex count", 1, 2),
    "segment.n": (T.segment, "segment edge count", 0, 3),
    "binary_of_size.m": (T.binary_of_size, "binary tree size", 1, 5),
    "spherically_symmetric.degrees[root]": (
        lambda v: T.spherically_symmetric([v, 3]), "root degree", 1, 2),
    "spherically_symmetric.degrees[interior]": (
        lambda v: T.spherically_symmetric([2, v]), "interior degree at depth 1", 2, 3),
    "cor15_tree.n": (T.cor15_tree, "segment edge count", 1, 9),
    "peres_sousi.k": (T.peres_sousi, "parameter k", 2, 2),
    "gw_tree.max_gen": (lambda v: T.gw_tree(OD.geometric(0.5), v, 1),
                        "generation cap", 0, 3),
    "gw_tree.max_vertices": (lambda v: T.gw_tree(OD.geometric(0.5), 3, 1, max_vertices=v),
                             "vertex cap", 0, 1000),
    "gw_survival_truncated.n": (lambda v: T.gw_survival_truncated(OD.geometric(0.4), v, 1),
                                "target generation", 0, 3),
    "gw_survival_truncated.max_attempts": (
        lambda v: T.gw_survival_truncated(OD.geometric(0.4), 3, 1, max_attempts=v),
        "attempt cap", 0, 1000),
    "gw_survival_truncated.max_vertices": (
        lambda v: T.gw_survival_truncated(OD.geometric(0.4), 3, 1, max_vertices=v),
        "vertex cap", 0, 1000),
    "gw_conditioned_size.n": (lambda v: T.gw_conditioned_size(OD.geometric(0.5), v, 1),
                              "target size", 1, 5),
    "gw_conditioned_size.max_attempts": (
        lambda v: T.gw_conditioned_size(OD.geometric(0.5), 5, 1, max_attempts=v),
        "attempt cap", 0, 1000),
    "kesten_tree.n": (lambda v: T.kesten_tree(OD.geometric(0.5), v, 1), "spine depth", 0, 4),
    "kesten_tree.max_vertices": (
        lambda v: T.kesten_tree(OD.geometric(0.5), 4, 1, max_vertices=v), "vertex cap", 0, 1000),
    "sweep.sizes": (lambda v: C.sweep("segment", [v]), "size", 0, 4),
    "sweep.reps": (lambda v: C.sweep("segment", [4], reps=v), "reps", 1, 2),
    "sweep.jobs": (lambda v: C.sweep("segment", [4], jobs=v), "jobs", 1, 1),
    "_build_family_member.size[ssym_binary]": (
        lambda v: C._build_family_member("ssym_binary", v, None, None),
        "ssym_binary depth", 1, 2),
    "tv_curve.n_samples": (lambda v: T.tv_curve(T.segment(3), v, t_max=1.0),
                           "sample count", 2, 3),
    "strip_to_first_branching.degrees": (
        lambda v: bd.strip_to_first_branching([1, v, 3]), "degree at depth 1", 1, 2),
    "project.degrees": (lambda v: T.project([2, v, 3], 3), "degree at depth 1", 2, 3),
    "project.n": (lambda v: T.project([2, 3, 3], v), "n", 2, 3),
    "cs_lower_bound.max_degree": (lambda v: T.cs_lower_bound(T.project([2, 3], 3), v),
                                  "max degree", 1, 3),
}
# integer parameters that are neither counts nor vertices
NOT_COUNTS = {"gw_tree.seed", "gw_survival_truncated.seed", "gw_conditioned_size.seed",
              "kesten_tree.seed", "sweep.seed"}  # any int seeds a stream


@pytest.mark.parametrize("bad", [2.5, 2.0, "2", True, np.float64(3.0), None, -HUGE],
                         ids=["2.5", "2.0", "str", "True", "float64", "below", "huge"])
@pytest.mark.parametrize("row", BAD_COUNT_CALLS.values(), ids=BAD_COUNT_CALLS.keys())
def test_count_arguments_checked(row, bad):
    fn, name, low, _ = row
    if bad is None:  # one below the least value allowed
        bad, message = low - 1, f"must be >= {low}, got {low - 1}$"
    elif type(bad) is int:  # its text would raise a plain ValueError; project
        # meets strip_to_first_branching's check, with its own least value, first
        message = r"must be >= \d+, got <int too long to print>$"
    else:
        message = f"must be an integer, got {re.escape(repr(bad))}$"
    with pytest.raises(ValidationError, match=f"^{re.escape(name)} {message}"):
        fn(bad)


@pytest.mark.parametrize("row", BAD_COUNT_CALLS.values(), ids=BAD_COUNT_CALLS.keys())
def test_numpy_integer_counts_accepted(row):
    fn, _, _, good = row
    assert repr(fn(good)) == repr(fn(np.int64(good)))


def _public_parameters(kind):
    """``function.parameter`` for every parameter annotated with ``kind`` of a
    function in some ``__all__``, and ``Class.method.parameter`` for a public
    static method of a class in some ``__all__``."""
    found = set()
    for info in pkgutil.iter_modules(T.__path__, "treecut."):
        if info.name == "treecut.__main__":
            continue
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                fns = {name: obj}
            elif inspect.isclass(obj):
                fns = {f"{name}.{key}": value.__func__ for key, value in vars(obj).items()
                       if isinstance(value, staticmethod) and not key.startswith("_")}
            else:
                continue
            found |= {f"{fn_name}.{p.name}" for fn_name, fn in fns.items()
                      for p in inspect.signature(fn).parameters.values()
                      if re.search(rf"\b(?:{kind})\b", str(p.annotation))}
    return found


def test_every_integer_parameter_is_checked():
    # a new integer parameter of the public API needs a row in one of the
    # two tables above or in BAD_ARRAY_CALLS, or a place in NOT_COUNTS
    covered = {key.split("[")[0] for key in BAD_COUNT_CALLS} | NOT_COUNTS | {
        f"{fn}.{param}" for fn, (_, _, param) in BAD_VERTEX_CALLS.items() if param}
    found = _public_parameters("int")
    assert found - covered - set(BAD_ARRAY_CALLS) == set()
    assert {key for key in covered if not key.startswith("_")} - found == set()


# every scalar real argument, keyed function.parameter: the call, the name
# its message starts with, a value outside its interval (None where only NaN
# is), and a valid value
BAD_REAL_CALLS = {
    "heat_kernel_tv.t": (lambda v: T.heat_kernel_tv(T.segment(3), v), "time", -1.0, 2),
    "tv_from_start.t": (lambda v: T.tv_from_start(T.segment(3), v, 0), "time", -1.0, 2),
    "tv_curve.t_max": (lambda v: T.tv_curve(T.segment(3), 3, t_max=v), "t_max", np.inf, 2),
    "mixing_time.epsilon": (lambda v: T.mixing_time(T.segment(3), v), "epsilon", 1.0, 0.25),
    "mixing_time.rtol": (lambda v: T.mixing_time(T.segment(3), 0.25, rtol=v),
                         "rtol", 1e-16, 0.25),
    "mixing_lower_bounds.epsilon": (lambda v: T.mixing_lower_bounds(T.segment(20), v),
                                    "epsilon", 0.9, 0.25),
    "analyze_tree.epsilon": (lambda v: C.analyze_tree(T.segment(3), v, 4),
                             "epsilon", 0.0, 0.25),
    "analyze_tree.size_label": (lambda v: C.analyze_tree(T.segment(3), 0.25, v),
                                "size label", -1.0, 4),
    "sweep.epsilon": (lambda v: C.sweep("segment", [3], epsilon=v), "epsilon", 1e-9, 0.25),
    "sweep.threshold": (lambda v: C.sweep("segment", [3], threshold=v), "threshold", 0.0, 1),
    "no_cutoff_check.threshold": (lambda v: C.no_cutoff_check([], v), "threshold", np.inf, 1),
    "tail_cutoff_check.threshold": (lambda v: C.tail_cutoff_check([], v),
                                    "threshold", -1.0, 1),
    "retraction_trend.threshold": (lambda v: C.retraction_trend([], v), "threshold", 0.0, 1),
    "count_below.sigma": (lambda v: T.count_below(T.segment(3), v), "sigma", None, 2),
    "bottom_pairs.span": (lambda v: T.bottom_pairs(T.segment(3), v), "span", 1.0, 60),
    "normalized_contour.c": (lambda v: T.normalized_contour(T.contour(T.segment(3),
                                                                      [1, 2, 3, 4]), v),
                             "normalization constant", np.inf, 2),
    "OffspringDistribution.geometric.p": (OD.geometric, "geometric parameter", 1.5, 1),
    "OffspringDistribution.poisson.lam": (OD.poisson, "poisson rate", -1.0, 2),
    "OffspringDistribution.table.probs": (lambda v: OD.table([0, v]),
                                          "table probability", -1.0, 1),
}
OPTIONAL_REALS = {"tv_curve.t_max"}  # None asks for the default


@pytest.mark.parametrize("key", BAD_REAL_CALLS)
def test_real_arguments_checked(key):
    # True used to pass as 1.0, "0.5", None and 1+0j to raise TypeError,
    # 10**400 OverflowError and 10**5000 a plain ValueError (its text); a
    # long value is shown cut in the middle
    fn, name, outside, _ = BAD_REAL_CALLS[key]
    for bad in (True, "0.5", 1 + 0j, 10**400, HUGE) + (() if key in OPTIONAL_REALS else (None,)):
        with pytest.raises(ValidationError, match=(
                f"^{re.escape(name)} must be a real number, got {re.escape(_shown(bad))}$")):
            fn(bad)
    for bad in (np.nan,) if outside is None else (np.nan, outside):
        with pytest.raises(ValidationError, match=(
                f"^{re.escape(name)} must be in [\\[(].*, got {re.escape(str(bad))}$")):
            fn(bad)


@pytest.mark.parametrize("row", BAD_REAL_CALLS.values(), ids=BAD_REAL_CALLS.keys())
def test_numpy_and_integer_reals_accepted(row):
    fn, _, _, good = row
    alike = [np.float32(good), np.float64(good)]
    if isinstance(good, int):
        alike.append(good)
    expected = repr(fn(float(good)))
    assert [repr(fn(value)) for value in alike] == [expected] * len(alike)


def test_every_real_parameter_is_checked():
    # a new real parameter of the public API needs a row in BAD_REAL_CALLS
    # or in BAD_ARRAY_CALLS
    assert _public_parameters("float") - set(BAD_ARRAY_CALLS) == set(BAD_REAL_CALLS)


# every array argument, keyed function.parameter: the call, the name its
# message starts with, whether its entries are integers, a valid value, an
# entry outside its interval (for an edge weight, the (0, inf) of a non-root
# entry), and whether its length is fixed
BAD_ARRAY_CALLS = {
    "weighted_path_bound.weights": (lambda v: T.weighted_path_bound(T.segment(3), v),
                                    "edge weights", False, [0, 1, 2, 3], -1, True),
    "bound_summable_weights.func": (
        lambda v: T.bound_summable_weights(T.segment(3), lambda k: v),
        "weight function values", False, [1, 4, 9], 0, True),
    "hardy_constant.part": (lambda v: T.hardy_constant(T.segment(3), v),
                            "part", True, [0, 1, 2], 4, False),
    "nu_exact.B": (lambda v: T.nu_exact(T.segment(3), v), "vertex set B", True, [1, 3], 4,
                   False),
    "contour.labels": (lambda v: T.contour(T.segment(3), v), "labels", True, [2, 1, 4, 3], 5,
                       True),
    "fit_loglog.xs": (lambda v: C.fit_loglog(v, [1, 2, 5]), "x values", False, [1, 2, 3], 0,
                      False),
    "fit_loglog.ys": (lambda v: C.fit_loglog([1, 2, 3], v), "y values", False, [1, 2, 5], -1,
                      False),
    "lift.f": (lambda v: bd.lift(T.spherically_symmetric([2]), bd.project([2], 2), v),
               "eigenfunction", False, [1, 2, 3], np.inf, True),
}
# array parameters whose entries are checked one at a time, and report rows
NOT_ARRAYS = {"spherically_symmetric.degrees", "strip_to_first_branching.degrees",
              "project.degrees", "sweep.sizes", "OffspringDistribution.table.probs",
              "from_parents.parent",  # ParentIndexError names the entry
              "no_cutoff_check.rows", "tail_cutoff_check.rows", "retraction_trend.reports"}


@pytest.mark.parametrize("key", BAD_ARRAY_CALLS)
def test_array_arguments_checked(key):
    # "1" and 1j used to raise TypeError or ValueError, True to pass as 1,
    # a 2-d part to be flattened, 2.5 labels to be truncated and a NaN
    # eigenfunction to give a NaN residual
    fn, name, integer, valid, outside, fixed = BAD_ARRAY_CALLS[key]
    kind = "integers that fit int64" if integer else "real numbers that fit float64"
    wrong = f"must hold {kind}, got"

    def refused(value, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(name)} {message}$"):
            fn(value)

    for entry in ("1", True, 1j, None, [1]) + ((2.5, np.nan) if integer else ()):
        refused(valid[:-1] + [entry], f"{wrong} {re.escape(repr(entry))}")
    for huge in (2**63 if integer else 10**400, HUGE):
        refused(valid[:-1] + [huge], f"{wrong} {re.escape(_shown(huge))}")
    for dtype in (bool, complex, object, str) + ((np.float64, np.uint64) if integer else ()):
        bad = np.array(valid).astype(dtype)
        refused(bad, f"{wrong} a {re.escape(str(bad.dtype))} array")
    refused(5, "must be an array, got 5")
    refused(np.array([valid]), rf"must have shape .*, got \(1, {len(valid)}\)")
    if fixed:
        refused(valid + valid[-1:], rf"must have shape \({len(valid)},\), got \({len(valid) + 1},\)")
    if not integer:
        refused(valid[:-1] + [np.nan], r"must be in .*, got nan")
    refused(valid[:-1] + [outside], rf"must be in .*, got {re.escape(str(outside))}(\.0)?")


@pytest.mark.parametrize("row", BAD_ARRAY_CALLS.values(), ids=BAD_ARRAY_CALLS.keys())
def test_array_forms_accepted_alike(row):
    fn, _, integer, valid, _, _ = row
    alike = [tuple(valid), np.array(valid, dtype=np.int64), np.array(valid, dtype=np.int32)]
    if not integer:
        alike += [[float(x) for x in valid], np.array(valid, dtype=np.float64),
                  np.array(valid, dtype=np.float32)]
    expected = repr(fn(list(valid)))
    assert [repr(fn(value)) for value in alike] == [expected] * len(alike)


def test_every_array_parameter_is_checked():
    # a new array parameter of the public API needs a row in BAD_ARRAY_CALLS,
    # or a place in NOT_ARRAYS
    assert _public_parameters("Sequence|Iterable|ndarray") == set(BAD_ARRAY_CALLS) | NOT_ARRAYS


@pytest.mark.parametrize("part", [[0, 1.5], [0, 1.0], [0, "1"]])
def test_hardy_part_entries_must_be_integers(part):
    with pytest.raises(ValidationError, match="integers"):
        T.hardy_constant(T.segment(3), part)
