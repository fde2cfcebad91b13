"""Laplacian spectra, Hardy machinery, weighted-path bounds, nu."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import treecut as T
from treecut import mixing
from treecut import spectral as S
from treecut.errors import (DegenerateInputError, ResourceLimitError,
                            ValidationError)
from treecut.rng import SplitMix64
from treecut.tree import root_orbits

from util import (dense_hardy_constant, legs_tree, loop_edge_weights, power_comb,
                  random_tree, suite_trees)

GOLDEN_RATIO_SQ = (3 + np.sqrt(5)) / 2  # top Gram eigenvalue of a 2-edge path


class TestLaplacian:
    def test_two_path(self):
        Q = T.laplacian(T.segment(1))
        assert np.array_equal(Q, [[1, -1], [-1, 1]])

    def test_star(self):
        Q = T.laplacian(T.spherically_symmetric([3]))
        assert np.array_equal(np.diag(Q), [3, 1, 1, 1])
        assert np.all(Q.sum(axis=1) == 0)

    def test_row_sums_zero(self):
        Q = T.laplacian(random_tree(30, seed=1))
        assert np.allclose(Q.sum(axis=1), 0.0)


class TestSpectrum:
    def test_two_path(self):
        res = T.spectrum(T.segment(1))
        assert res.gap == pytest.approx(2.0, abs=1e-12)
        assert res.t_rel == pytest.approx(0.5, abs=1e-12)

    def test_path_closed_form(self):
        for n_edges in (2, 5, 17):
            res = T.spectrum(T.segment(n_edges))
            expect = 4 * np.sin(np.pi / (2 * (n_edges + 1))) ** 2
            assert res.gap == pytest.approx(expect, rel=1e-10)

    def test_star_gap_one(self):
        # eigenvector (1,-1,0,...) on two leaves has eigenvalue 1 by hand
        for m in (3, 9):
            assert T.spectrum(T.spherically_symmetric([m])).gap == \
                pytest.approx(1.0, abs=1e-10)

    def test_invariants(self, small_suite):
        for t in small_suite[:20]:
            res = T.spectrum(t)
            assert res.eigenvalues[0] == 0.0
            assert res.gap > 0
            assert np.all(np.diff(res.eigenvalues) >= -1e-12)

    def test_single_vertex_rejected(self):
        with pytest.raises(DegenerateInputError):
            T.spectrum(T.from_parents(1, [-1]))

    def test_cap_read_before_the_cache(self, monkeypatch):
        # a tree decomposed under a higher cap is refused once the cap falls
        # below its size, and served again, without a second eigh, once the
        # cap rises
        laplacians = []
        monkeypatch.setattr(S, "laplacian",
                            lambda tree, build=S.laplacian: laplacians.append(tree) or build(tree))
        tree = T.segment(40)
        first = T.spectrum(tree)
        monkeypatch.setenv("TREECUT_MAX_VERTICES", "20")
        with pytest.raises(ResourceLimitError, match="TREECUT_MAX_VERTICES"):
            T.spectrum(tree)
        monkeypatch.setenv("TREECUT_MAX_VERTICES", "41")
        again = T.spectrum(tree)
        assert again.eigenvalues is first.eigenvalues and len(laplacians) == 1

    def test_dense_cap(self, monkeypatch):
        monkeypatch.setenv("TREECUT_MAX_VERTICES", "10")
        with pytest.raises(ResourceLimitError):
            T.spectrum(T.segment(12))
        gap = T.gap_iterative(T.segment(12))
        assert gap == pytest.approx(4 * np.sin(np.pi / 26) ** 2, rel=1e-8)
        for cap in ("0", "-5", "ten"):
            # -5 used to refuse every tree as "above the dense cap -5"
            monkeypatch.setenv("TREECUT_MAX_VERTICES", cap)
            with pytest.raises(ValidationError, match="TREECUT_MAX_VERTICES"):
                T.dense_cap()


class TestGapIterative:
    def test_matches_dense(self, small_suite):
        for t in small_suite[:8]:
            dense = T.spectrum(t).gap
            assert T.gap_iterative(t) == pytest.approx(dense, rel=1e-8)

    def test_two_path(self):
        assert T.gap_iterative(T.segment(1)) == pytest.approx(2.0, rel=1e-10)

    def test_non_positive_ritz_value_refused(self, monkeypatch):
        t = T.segment(5)
        monkeypatch.setattr(S, "_lanczos_top", lambda *args: (
            np.array([0.0]), np.array([True]), np.zeros((t.n, 1))))
        with pytest.raises(ResourceLimitError, match="positive Ritz value"):
            T.gap_iterative(t)

    @pytest.mark.parametrize("legs", [[10, 10] + [1] * 30, [8, 8, 8] + [1] * 40],
                             ids=["two_long_legs", "three_long_legs"])
    def test_matches_dense_on_spiders(self, legs):
        # the gap eigenvector has almost no overlap with the center-of-mass
        # split vector: a solve started from that vector would stop at a
        # wrong Ritz value (0.03301 against 0.02234 on the first spider)
        parent = [-1]
        for length in legs:
            parent += [0] + list(range(len(parent), len(parent) + length - 1))
        t = T.from_parents(len(parent), parent)
        assert T.gap_iterative(t) == pytest.approx(T.spectrum(t).gap, rel=1e-8)

    def test_basis_grows_with_the_iteration(self):
        # converges in about 10 steps: the basis must not be sized by the step cap
        t = T.binary_of_size(20_000)
        tracemalloc.start()
        try:
            T.gap_iterative(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * t.n * 8


class TestCountBelow:
    """Sylvester inertia counts against eigvalsh and the path's closed form."""

    def test_shifts_next_to_eigenvalues(self, random_suite):
        for t in random_suite:
            values = np.linalg.eigvalsh(T.laplacian(t))
            for lam in values[1:4]:
                for sigma in (lam - 1e-9, lam + 1e-9):
                    assert T.count_below(t, sigma) == np.count_nonzero(values < sigma)

    def test_zero_pivots(self):
        # at sigma = 1 every leaf pivot is exactly 0; eigenvalue 1 itself is
        # not below it
        trees = suite_trees(100, 30, base_seed=9)
        trees += [T.reroot(T.segment(m), v) for m in range(1, 7) for v in range(m + 1)]
        trees += [T.spherically_symmetric([k]) for k in (1, 2, 5, 40)]
        for t in trees:
            values = np.linalg.eigvalsh(T.laplacian(t))
            assert T.count_below(t, 1.0) == np.count_nonzero(values < 1.0 - 1e-9)

    @pytest.mark.parametrize("m", [2000, 20_000, 100_000])
    def test_long_paths(self, m):
        # the plain recursion d_v = deg_v - sigma - sum 1/d_c miscounts here
        # at r = 1e-12 (m = 2000) and from r = 1e-8 on at m = 100000
        t = T.segment(m)
        gap = 4 * np.sin(np.pi / (2 * (m + 1))) ** 2
        for r in (1e-8, 1e-12):
            assert (T.count_below(t, gap * (1 - r)), T.count_below(t, gap * (1 + r))) == (1, 2)

    def test_extremes(self):
        star = T.spherically_symmetric([9])  # eigenvalues 0, 1 (x8), 10
        assert [T.count_below(star, s) for s in (0.0, 1e-300, 0.5, 1.5, 10.5)] == \
            [0, 1, 1, 9, 10]
        assert T.count_below(T.from_parents(1, [-1]), 0.5) == 1

    def test_infinities_accepted(self):
        # sigma and span keep the closed ends of the real line
        t = T.segment(5)
        assert (T.count_below(t, np.inf), T.count_below(t, -np.inf)) == (t.n, 0)
        eig = T.bottom_pairs(T.segment(600), np.inf)
        assert eig is not None and eig.values.size == 601

    def test_nan_rejected(self):
        # used to return 0
        with pytest.raises(ValidationError, match="sigma"):
            T.count_below(T.segment(3), float("nan"))


class TestBottomPairs:
    SPAN = 60.0

    @pytest.mark.parametrize("span", [1.0, 0.5, -2.0, float("nan")])
    def test_span_must_exceed_one(self, span):
        # used to return None
        with pytest.raises(ValidationError, match=r"^span must be in \(1, inf\]"):
            T.bottom_pairs(T.segment(20), span)

    def test_none_when_the_gap_never_converges(self, monkeypatch):
        monkeypatch.setattr(S, "LANCZOS_MAX_STEPS", 2)
        assert T.bottom_pairs(T.segment(40), self.SPAN) is None

    def test_pairs_below_the_floor(self):
        found = 0
        for seed in range(6):
            t = random_tree(150 + 30 * seed, seed=seed, tall=seed % 2 == 0)
            eig = T.bottom_pairs(t, self.SPAN)
            if eig is None:
                continue
            found += 1
            Q = T.laplacian(t)
            values = np.linalg.eigvalsh(Q)
            k = eig.values.size
            assert eig.floor == pytest.approx(self.SPAN * values[1], rel=1e-10)
            assert np.count_nonzero(values < eig.floor) == k < t.n
            assert np.abs(eig.values - values[:k]).max() <= 1e-10 * values[1]
            assert np.abs(Q @ eig.vectors - eig.vectors * eig.values).max() < 1e-9
            assert np.abs(eig.vectors.T @ eig.vectors - np.eye(k)).max() < 1e-12
        assert found >= 4

    def test_first_pair_is_the_iterative_gap(self):
        t = T.cor15_tree(64)
        assert T.bottom_pairs(t, self.SPAN).values[1] == pytest.approx(
            T.gap_iterative(t), rel=1e-12)

    def test_whole_spectrum_below_the_floor(self):
        eig = T.bottom_pairs(T.segment(2), 1e3)
        assert eig.floor == np.inf
        assert eig.values == pytest.approx([0.0, 1.0, 3.0], abs=1e-12)

    REPEATED = pytest.mark.parametrize(
        "make", [lambda: T.spherically_symmetric([2] + [3] * 7),
                 lambda: T.spherically_symmetric([60])], ids=["ssym_depth8", "star_60"])

    @staticmethod
    def runs(monkeypatch):
        """The step counts of every Lanczos run, as they happen."""
        steps = []
        lanczos = S._lanczos_top

        def counted(*args):
            out = lanczos(*args)
            steps.append(out[0].size)
            return out

        monkeypatch.setattr(S, "_lanczos_top", counted)
        return steps

    @staticmethod
    def assert_matches_decompose(tree, eig):
        """Every eigenvalue below the floor, within 1e-9 relative of the dense
        solve; orthonormal vectors with small residuals."""
        values = T.decompose(tree).values
        k = eig.values.size
        assert np.count_nonzero(values < eig.floor) == k
        assert np.all(np.abs(eig.values[1:] - values[1:k]) <= 1e-9 * values[1:k])
        assert np.abs(eig.vectors.T @ eig.vectors - np.eye(k)).max() <= 1e-12
        Q = T.laplacian(tree)
        assert np.abs(Q @ eig.vectors - eig.vectors * eig.values).max() <= 1e-8 * eig.floor

    @REPEATED
    def test_repeated_eigenvalues_restart(self, make, monkeypatch):
        # one Krylov space holds one vector per distinct eigenvalue; the
        # deflated restarts find the other copies
        tree = make()
        runs = self.runs(monkeypatch)
        eig = T.bottom_pairs(tree, self.SPAN)
        self.assert_matches_decompose(tree, eig)
        assert len(runs) > 1 and sum(runs) <= S.LANCZOS_MAX_STEPS

    @REPEATED
    def test_repeated_eigenvalues_give_none(self, make, monkeypatch):
        # a restart from the first run's own vector, the kept pairs projected
        # out, holds no direction the first run missed: it converges no new
        # pair, and that stall ends the restarts
        monkeypatch.setattr(S, "derive_seed", lambda seed, *keys: seed)
        runs = self.runs(monkeypatch)
        assert T.bottom_pairs(make(), self.SPAN) is None
        assert 1 < len(runs) and sum(runs) < S.LANCZOS_MAX_STEPS

    def test_step_budget_gives_none(self, monkeypatch):
        # a star's leaf modes share one eigenvalue, and each restart finds
        # one of them in two steps: 519 of them need more steps than the
        # runs may take together
        runs = self.runs(monkeypatch)
        assert T.bottom_pairs(T.spherically_symmetric([520]), self.SPAN) is None
        assert sum(runs) >= S.LANCZOS_MAX_STEPS and sum(runs[:-1]) < S.LANCZOS_MAX_STEPS

    @pytest.mark.parametrize("make", [lambda: power_comb(16), lambda: power_comb(32),
                                      lambda: T.binary_of_size(600), lambda: T.binary_of_size(700),
                                      lambda: T.binary_of_size(800), lambda: legs_tree(390)],
                             ids=["comb_16", "comb_32", "binary_600", "binary_700",
                                  "binary_800", "four_legs"])
    def test_restarts_match_decompose(self, make, monkeypatch):
        tree = make()
        runs = self.runs(monkeypatch)
        eig = T.bottom_pairs(tree, 2.0 * np.log(np.sqrt(tree.n) / mixing.TAIL_TOL))
        self.assert_matches_decompose(tree, eig)
        assert len(runs) > 1

    @pytest.mark.parametrize("m", [64, 128, 256, 512])
    def test_no_repeats_one_run(self, m, monkeypatch):
        # cor15 has no repeated eigenvalue below the floor: the first run
        # finds every pair, and its pairs are those of a single run, bit
        # for bit
        tree = T.cor15_tree(m)
        span = 2.0 * np.log(np.sqrt(tree.n) / mixing.TAIL_TOL)
        need = []

        def single(thetas, done):
            if not need:
                if not done[0]:
                    return 1
                need.extend((span / thetas[0], T.count_below(tree, span / thetas[0]) - 1))
            return need[1] if len(thetas) <= 3 * need[1] + 40 else 0

        thetas, done, vectors = S._pinv_top(tree, single)
        sigma, p = need
        assert vectors.shape[1] == p and done[:p].all()
        runs = self.runs(monkeypatch)
        eig = T.bottom_pairs(tree, span)
        assert len(runs) == 1 and eig.floor == sigma
        assert np.array_equal(eig.values, np.concatenate(([0.0], 1.0 / thetas[:p])))
        assert np.array_equal(eig.vectors[:, 1:], vectors)
        self.assert_matches_decompose(tree, eig)

    def test_single_vertex(self):
        assert T.bottom_pairs(T.from_parents(1, [-1]), self.SPAN) is None


class TestHardyConstant:
    def test_single_edge(self):
        assert T.hardy_constant(T.segment(1), [0, 1]) == pytest.approx(1.0)

    def test_two_edge_path_by_hand(self):
        # Gram matrix [[2,1],[1,1]] has top eigenvalue (3+sqrt 5)/2
        assert T.hardy_constant(T.segment(2), [0, 1, 2]) == \
            pytest.approx(GOLDEN_RATIO_SQ, rel=1e-12)

    def test_no_edges(self):
        assert T.hardy_constant(T.segment(2), [0]) == 0.0

    def test_part_validation(self):
        with pytest.raises(ValidationError, match="must contain the root"):
            T.hardy_constant(T.segment(2), [1, 2])
        with pytest.raises(ValidationError, match="must contain the root"):
            T.hardy_constant(T.segment(2), [])
        with pytest.raises(ValidationError, match="parent of 3 is missing"):
            T.hardy_constant(T.segment(3), [0, 1, 3])  # gap in the path
        with pytest.raises(ValidationError, match="parent of 3 is missing"):
            T.hardy_constant(T.segment(6), {6, 5, 3, 1, 0})  # first orphan named
        with pytest.raises(ValidationError, match="parent of 1 is missing"):
            # the missing parent lies above every vertex of the part
            T.hardy_constant(T.from_parents(6, [-1, 5, 0, 0, 0, 0]), [0, 1])
        with pytest.raises(ValidationError, match=r"^part must be in \[0, 3\], got -1$"):
            T.hardy_constant(T.segment(3), [0, 1, 2, -1])  # would alias vertex 3
        with pytest.raises(ValidationError, match=r"^part must be in \[0, 3\], got 7$"):
            T.hardy_constant(T.segment(3), [0, 7])  # beyond the last vertex

    def test_dominates_edge_load_in_part(self):
        # the explicit unit-mass path function certifies A >= |e| |T_e|
        for seed in range(10):
            t = random_tree(30, seed=seed, tall=True)
            part = list(range(t.n))
            m = T.compute_metrics(t)
            A = T.hardy_constant(t, part)
            assert A >= T.max_edge_load(m).value - 1e-9

    def test_matches_dense_gram(self):
        # both halves of the center-of-mass split and the whole tree
        for seed in range(60):
            t = random_tree(10 + 3 * seed, seed=500 + seed, tall=seed % 2 == 0)
            com = T.center_of_mass(t)
            base = T.reroot(t, com.vertex)
            for part in (com.part_a, com.part_b, range(t.n)):
                assert T.hardy_constant(base, part) == \
                    pytest.approx(dense_hardy_constant(base, part), rel=1e-9)


class TestHardyInterval:
    def test_two_path(self):
        cert = T.hardy_interval(T.segment(1))
        assert cert.A == pytest.approx(1.0)
        assert cert.delta == pytest.approx(0.5)
        assert cert.interval == pytest.approx((1.0, 2.0))
        lam = T.spectrum(T.segment(1)).gap
        assert cert.interval[0] - 1e-12 <= lam <= cert.interval[1] + 1e-12

    def test_path_four_edges_middle_root(self):
        t = T.reroot(T.segment(4), 2)
        cert = T.hardy_interval(t)
        lam = T.spectrum(t).gap
        lo, hi = cert.interval
        assert lo * (1 - 1e-8) <= lam <= hi * (1 + 1e-8)

    def test_containment_on_random_trees(self, small_suite):
        for t in small_suite[:25]:
            cert = T.hardy_interval(t)
            lam = T.spectrum(t).gap
            lo, hi = cert.interval
            assert lo * (1 - 1e-8) <= lam <= hi * (1 + 1e-8)

    @pytest.fixture(scope="class")
    def splits(self, small_suite):
        """(tree, split, tree re-rooted at the split vertex) on the small
        suite, cor15_tree(64), ssym depth 5 and a star."""
        named = [T.cor15_tree(64), T.spherically_symmetric([2, 3, 3, 3, 3]),
                 T.spherically_symmetric([25])]
        out = [(t,) + S._recentered(t) for t in list(small_suite) + named]
        assert sum(com.vertex != t.root for t, com, _ in out) >= 20
        return out

    def test_one_solve_is_the_larger_part_constant(self, splits):
        # the Gram operator of the re-rooted tree is block-diagonal over the
        # components of T - x, and each part is x plus some of them
        for t, com, base in splits:
            A = T.hardy_interval(t).A
            parts = (com.part_a, com.part_b)
            assert A == pytest.approx(max(dense_hardy_constant(base, p) for p in parts),
                                      rel=1e-9)
            assert A == pytest.approx(max(T.hardy_constant(base, p) for p in parts),
                                      rel=1e-12)

    def test_one_lanczos_solve_and_no_part_tree(self, splits, monkeypatch):
        calls = []
        solve = S._lanczos_top
        monkeypatch.setattr(S, "_lanczos_top", lambda *a: calls.append(a) or solve(*a))
        monkeypatch.setattr(S, "from_parents", None)  # any call would fail
        for t, com, base in splits:
            calls.clear()
            assert T.hardy_interval(t).vertex == com.vertex  # on the cached split
            assert len(calls) == 1

    def test_split_cache_does_not_pin_trees(self):
        # every memoised function runs on a tree whose center is its root
        # and on one whose center is not; a cache entry holding its own key
        # would keep the tree alive
        for build, center_is_root in ((lambda: T.spherically_symmetric([3, 3]), True),
                                      (lambda: T.segment(4), False)):
            t = build()
            assert (T.center_of_mass(t).vertex == t.root) == center_is_root
            T.compute_metrics(t)
            root_orbits(t)
            T.decompose(t)
            S._recentered(t)
            assert isinstance(mixing._modes(t), S.Eigensystem)
            T.hardy_interval(t)
            T.hardy_lower(t)
            T.mixing_lower_bounds(t, 0.25)
            ref = weakref.ref(t)
            del t
            gc.collect()
            assert ref() is None


class TestWeightedPathBound:
    def test_star_unit_weights_tight(self):
        t = T.spherically_symmetric([4])
        bound = T.weighted_path_bound(t, [0, 1, 1, 1, 1])
        assert bound == pytest.approx(1.0)
        assert bound == pytest.approx(T.spectrum(t).t_rel)

    def test_path_two_edges_subtree_scheme(self):
        t = T.segment(2)
        bound = T.weighted_path_bound(t, T.compute_metrics(t).subtree_size)
        assert bound == pytest.approx(3.0)
        assert bound >= T.spectrum(t).t_rel  # exact value 1

    def test_inverse_depth_below_closed_form(self, small_suite):
        for t in small_suite[:15]:
            with np.errstate(divide="ignore"):  # the root's entry, inf, is ignored
                weighted = T.weighted_path_bound(t, 1.0 / t.depth)
            assert weighted <= T.bound_log_diameter(t) + 1e-9
            assert weighted >= T.spectrum(t).t_rel - 1e-9

    def test_retraction_scheme_on_comb(self):
        t = T.cor15_tree(32)
        bound = T.weighted_path_bound(t, T.retraction_weights(t, 32))
        assert bound >= T.spectrum(t).t_rel - 1e-9
        with pytest.raises(ValidationError):  # the spine's end must be a vertex
            T.retraction_weights(t, t.n)

    def test_nonpositive_weight_rejected(self):
        # zero, negative and non-finite edge weights, and wrong lengths
        for weights in ([0, 1, 0], [0, 1, -1], [0, np.nan, 1], [0, 1, np.inf],
                        [0, 1], [0, 1, 1, 1]):
            with pytest.raises(ValidationError):
                T.weighted_path_bound(T.segment(2), weights)
        with pytest.raises(ValidationError):  # zero at depth 2 of 3
            T.bound_summable_weights(T.segment(3), lambda k: k * (k - 2))

    def test_retraction_matches_vertex_loop(self, small_suite):
        for t in self.trees(small_suite):
            deep = int(np.argmax(t.depth))
            for v in {deep, t.n - 1, t.root}:
                assert np.array_equal(T.retraction_weights(t, v),
                                      loop_edge_weights(t, T.root_path(t, v)))

    def test_summable_matches_depth_loop(self, small_suite):
        # the loop calls func on each depth k as a Python int; numpy's
        # array pow may round k ** 1.5 differently in the last bit
        funcs = [(lambda k: k * k, 0), (lambda k: k ** 1.5 + 1 / 3, 4),
                 (lambda k: np.log1p(k), 0)]
        for t in self.trees(small_suite) + [T.segment(3000)]:
            m = T.compute_metrics(t)
            for func, ulps in funcs:
                f = [float(func(k)) for k in range(1, t.height + 1)]
                C = float((1.0 / np.array(f)).sum())
                best = max(f[d - 1] * s for d, s in zip(m.depth, m.subtree_size) if d > 0)
                bound = T.bound_summable_weights(t, func)
                assert abs(bound - C * best) <= ulps * np.spacing(C * best)

    def test_summable_calls_func_once(self):
        calls = []
        T.bound_summable_weights(T.spherically_symmetric([3, 3, 3]),
                                 lambda k: calls.append(k) or k)
        assert len(calls) == 1
        assert calls[0].dtype == np.int64 and calls[0].tolist() == [1, 2, 3]

    @staticmethod
    def trees(small_suite):
        return [T.cor15_tree(32), T.cor15_tree(64), T.retraction(T.cor15_tree(16), 16),
                T.segment(40), T.spherically_symmetric([3, 2, 2])] + small_suite[:20]


class TestClosedFormBounds:
    def test_summable_weights_path(self):
        # C = 1 + 1/4 + 1/9, max f(|e|)|T_e| = max(3, 8, 9) = 9
        bound = T.bound_summable_weights(T.segment(3), lambda k: k * k)
        assert bound == pytest.approx((1 + 0.25 + 1 / 9) * 9)

    def test_path_load_bound_values(self):
        assert T.bound_path_load(T.segment(2)) == 3.0
        assert T.bound_path_load(T.spherically_symmetric([5])) == 1.0

    def test_tail_bound_values(self):
        assert T.bound_tail(T.segment(3)) == 128.0
        assert T.bound_tail(T.spherically_symmetric([6])) == 32.0 * 6

    def test_all_upper_bounds_dominate_t_rel(self, small_suite):
        for t in small_suite:
            t_rel = T.spectrum(t).t_rel
            for bound in (T.bound_log_diameter(t),
                          T.bound_summable_weights(t, lambda k: k * k),
                          T.bound_path_load(t), T.bound_tail(t)):
                assert bound >= t_rel * (1 - 1e-8)

    @pytest.mark.parametrize("tree", [T.segment(6), T.binary_of_size(40), T.cor15_tree(32),
                                      T.spherically_symmetric([7])],
                             ids=["segment", "binary", "cor15", "star"])
    def test_upper_bounds_are_python_floats(self, tree):
        # bound_log_diameter returned np.float64 into bounds JSON and sweep rows
        bounds = S._upper_bounds(tree)
        assert {name: type(v) for name, v in bounds.items()} == dict.fromkeys(bounds, float)


class TestHardyLower:
    def test_two_path_equality(self):
        lb = T.hardy_lower(T.segment(1))
        assert lb.value == pytest.approx(0.5)
        assert lb.value == pytest.approx(T.spectrum(T.segment(1)).t_rel)

    def test_certificate_sums(self, small_suite):
        for t in small_suite[:15]:
            lb = T.hardy_lower(t)
            if lb.edge is None:
                continue
            m = T.compute_metrics(lb.recentered)
            # the certificate's Hardy quotient reproduces the edge load
            assert lb.numerator / lb.denominator >= T.max_edge_load(m).value - 1e-9

    def test_below_t_rel_on_suite(self, small_suite):
        for t in small_suite:
            assert T.hardy_lower(t).value <= T.spectrum(t).t_rel * (1 + 1e-8)


class TestNuExact:
    def test_singleton_depth_three(self):
        assert T.nu_exact(T.segment(3), [3]) == pytest.approx(1 / 3, abs=1e-12)

    def test_nested_pair_shallower_binds(self):
        assert T.nu_exact(T.segment(3), [2, 3]) == pytest.approx(1 / 2, abs=1e-12)

    def test_star_leaves_independent(self):
        t = T.spherically_symmetric([2])
        assert T.nu_exact(t, [1, 2]) == pytest.approx(2.0, abs=1e-12)

    def test_validation(self):
        t = T.segment(3)
        with pytest.raises(ValidationError):
            T.nu_exact(t, [0, 1])
        with pytest.raises(ValidationError):
            T.nu_exact(t, [])
        with pytest.raises(ValidationError):
            T.nu_exact(T.segment(15), list(range(1, 15)))  # over the cap

    def test_feasibility_of_reported_value(self):
        # nu is attained: reconstruct a feasible f with that norm via the
        # definition on a branching example
        t = T.from_parents(6, [-1, 0, 1, 1, 3, 0])
        nu = T.nu_exact(t, [2, 4, 5])
        assert nu > 0
        # brute grid check: random feasible candidates never beat nu
        rng = SplitMix64(3)
        rows = []
        for v in (2, 4, 5):
            row = np.zeros(6)
            row[T.root_path(t, v)[1:]] = 1.0
            rows.append(row)
        M = np.array(rows)
        for _ in range(3000):
            f = np.array([rng.random() * 2 for _ in range(6)])
            if np.all(M @ f >= 1.0):
                assert f @ f >= nu - 1e-9
