"""Heat-kernel TV distances, mixing times, hitting profiles."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.linalg import expm

import treecut as T
from treecut import bdchain, criteria, spectral
from treecut import mixing as M
from treecut.errors import ResourceLimitError, ValidationError
from treecut.generate import OffspringDistribution as OD
from treecut.spectral import bottom_pairs, decompose
from treecut.tree import _lca_depth, _per_tree, root_orbits

from util import (dense_mixing_time, dense_tv_rows, grafted_tree, legs_tree,
                  loop_bd_generator, power_comb, random_tree)


def tv_by_expm(tree, t):
    """Independent route: matrix exponential of -tQ, then worst-row TV."""
    P = expm(-t * T.laplacian(tree))
    return 0.5 * np.abs(P - 1.0 / tree.n).sum(axis=1).max()


class TestHeatKernel:
    def test_time_zero(self, small_suite):
        for t in small_suite[:10]:
            assert T.heat_kernel_tv(t, 0.0) == pytest.approx(1 - 1 / t.n, abs=1e-12)

    def test_two_path_closed_form(self):
        two = T.segment(1)
        for t in (0.1, 0.5, 1.7):
            assert T.heat_kernel_tv(two, t) == pytest.approx(0.5 * np.exp(-2 * t),
                                                             abs=1e-12)

    def test_decay_at_many_relaxation_times(self, small_suite):
        for tree in small_suite[:5]:
            t_rel = T.spectrum(tree).t_rel
            assert T.heat_kernel_tv(tree, 50 * t_rel) < 1e-10

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            T.heat_kernel_tv(T.segment(1), -0.1)

    def test_matches_expm_oracle(self):
        tree = random_tree(20, seed=3)
        for t in (0.05, 0.4, 2.0):
            assert T.heat_kernel_tv(tree, t) == pytest.approx(tv_by_expm(tree, t),
                                                              abs=1e-10)


class TestMixingTime:
    def test_two_path_closed_form(self):
        res = T.mixing_time(T.segment(1), 0.25)
        assert res.t_mix == pytest.approx(np.log(2) / 2, rel=1e-7)

    def test_epsilon_above_initial_distance(self):
        tree = T.segment(2)  # d(0) = 2/3
        assert T.mixing_time(tree, 0.7).t_mix == 0.0

    def test_epsilon_range(self):
        with pytest.raises(ValidationError):
            T.mixing_time(T.segment(1), 0.0)
        with pytest.raises(ValidationError):
            T.mixing_time(T.segment(1), 1.0)

    def test_epsilon_below_the_tail_floor_rejected(self):
        # 1e-300 used to give t_mix 47.17 on segment(3), where the curve
        # still reads 6e-13: with every mode dropped the truncated TV is 0
        for run in (lambda eps: T.mixing_time(T.segment(3), eps),
                    lambda eps: criteria.analyze_tree(T.segment(3), eps, 3),
                    lambda eps: T.sweep("segment", [3], epsilon=eps)):
            with pytest.raises(ValidationError, match=r"^epsilon must be in \[1e-08, 1\)"):
                run(1e-300)
            with pytest.raises(ValidationError, match="epsilon"):
                run(np.nextafter(1e4 * M.TAIL_TOL, 0))

    def test_epsilon_at_the_tail_floor(self):
        tree = T.segment(3)
        eps = 1e4 * M.TAIL_TOL
        res = T.mixing_time(tree, eps)
        assert res.tail_bound <= 1e-4 * eps
        # the expm oracle has TV above epsilon just before t_mix, at most
        # epsilon (plus rounding) at it
        assert tv_by_expm(tree, res.t_mix * (1 - 1e-6)) > eps
        assert tv_by_expm(tree, res.t_mix) <= eps * (1 + 1e-4)

    def test_search_gives_up_after_400_doublings(self):
        class Stuck:  # start oracles whose TV never drops
            gap, first = 1.0, 0

            def tv(self, x, t):
                return 0.5

        with pytest.raises(ValidationError, match="failed to drop below epsilon"):
            M._search(T.segment(3), 0.25, None, 1e-8, Stuck())

    def test_against_expm_bisection_oracle(self):
        tree = T.segment(2)
        eps = 0.25
        lo, hi = 0.0, 4.0
        assert tv_by_expm(tree, hi) <= eps
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if tv_by_expm(tree, mid) <= eps:
                hi = mid
            else:
                lo = mid
        assert T.mixing_time(tree, eps).t_mix == pytest.approx(hi, rel=1e-6)

    def test_curve_monotone(self, small_suite):
        for tree in small_suite[:10]:
            curve = T.mixing_time(tree, 0.25).tv_curve
            order = np.argsort(curve[:, 0])
            vals = curve[order, 1]
            assert np.all(np.diff(vals) <= 1e-12)

    def test_symmetric_starts_on_centered_path(self):
        tree = T.reroot(T.segment(4), 2)
        a = T.mixing_time(tree, 0.25, start=0).t_mix
        b = T.mixing_time(tree, 0.25, start=4).t_mix
        assert a == pytest.approx(b, abs=1e-9)

    def test_worst_start_is_an_extreme_point(self):
        tree = T.segment(6)
        res = T.mixing_time(tree, 0.25)
        assert res.worst_start in (0, 6)

    def test_tv_curve_shape(self):
        table = T.tv_curve(T.segment(2), 10)
        assert table.shape == (10, 2)
        assert table[0, 1] == pytest.approx(2 / 3, abs=1e-12)
        assert np.all(np.diff(table[:, 1]) <= 1e-12)

    def test_tv_curve_sample_cap(self):
        # refused before the sample times, or anything else, are allocated
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="^sample count 1000001 above the cap 1000000$"):
                T.tv_curve(T.segment(2), M.CURVE_SAMPLE_CAP + 1)
            assert tracemalloc.get_traced_memory()[1] < 100_000
        finally:
            tracemalloc.stop()


class TestPublicTV:
    """``heat_kernel_tv``, ``tv_from_start`` and ``tv_curve`` on the start
    oracles ``mixing_time`` uses."""

    CALLS = {
        "heat_kernel_tv": lambda t: T.heat_kernel_tv(T.segment(5), t),
        "tv_from_start": lambda t: T.tv_from_start(T.segment(5), t, 0),
        "tv_curve": lambda t: T.tv_curve(T.segment(5), 3, t_max=t),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("t", [math.nan, math.inf, -0.1])
    def test_non_finite_or_negative_time_rejected(self, name, t):
        # inf used to give 0.5 and nan nan; t_max=-1 named the sample -0.5
        with pytest.raises(ValidationError, match=f"got {t}$"):
            self.CALLS[name](t)

    def test_single_vertex(self):
        tree = T.segment(0)
        assert T.heat_kernel_tv(tree, 1.0) == 0.0
        assert T.tv_from_start(tree, 1.0, 0) == 0.0
        assert T.tv_curve(tree, 3)[:, 1].tolist() == [0.0, 0.0, 0.0]
        assert T.tv_curve(tree, 3, start=0)[:, 1].tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("make, kind",
                             [(lambda: T.cor15_tree(256), "partial"),
                              (lambda: ssym_binary(7), "orbits")],
                             ids=["cor15_256", "ssym_depth7"])
    def test_matches_dense_rows(self, make, kind):
        tree = make()
        modes = M._modes(tree)
        assert kind == ("orbits" if isinstance(modes, M._Orbits) else "partial")
        assert kind == "orbits" or modes.floor < np.inf
        eig = np.linalg.eigh(T.laplacian(tree))
        t_rel = 1.0 / M._gap(tree)[0]
        for t in (0.1 * t_rel, 0.5 * t_rel, t_rel, 4.0 * t_rel):
            rows = dense_tv_rows(tree, t, eig)
            # the tail covers the dropped modes, 1e-12 sqrt(n) the error of
            # the bottom pairs (relative Ritz residual 1e-10), which the l1
            # norm of a row gathers over n entries: on cor15_tree(256) it
            # reaches 1.1e-11 at 4 t_rel
            bound = M._starts(tree).tail(t) + 1e-12 * np.sqrt(tree.n)
            assert abs(T.heat_kernel_tv(tree, t) - rows.max()) <= bound
            for x in (0, tree.n // 2, tree.n - 1):
                assert abs(T.tv_from_start(tree, t, x) - rows[x]) <= bound

    def test_partial_path_decomposes_only_before_the_floor(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("decompose ran where the bottom pairs certify")

        tree = T.cor15_tree(256)
        t_rel = 1.0 / M._gap(tree)[0]
        monkeypatch.setattr(M, "decompose", fail)
        for t in (0.5 * t_rel, 4.0 * t_rel):
            assert T.tv_from_start(tree, t, 0) <= T.heat_kernel_tv(tree, t)
        with pytest.raises(AssertionError, match="decompose ran"):
            T.heat_kernel_tv(tree, 0.1 * t_rel)

    def test_worst_falls_back_before_the_floor(self):
        # at 0.1 t_rel the bottom pairs certify nothing, and the all-starts
        # check switches to decompose without a single-start TV first
        tree = T.cor15_tree(256)
        eig = bottom_pairs(tree, 2.0 * np.log(np.sqrt(tree.n) / M.TAIL_TOL))
        assert eig.floor < np.inf
        t = 0.1 / eig.values[1]
        d, worst = M._EigenStarts(tree, eig).worst(t, None, None)
        rows = dense_tv_rows(tree, t)
        assert abs(d - rows.max()) <= M.TAIL_TOL + 1e-12
        assert rows.max() - rows[worst] <= 1e-12

    def test_curve_on_orbits_needs_no_eigh_of_the_tree(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("tv_curve ran a tree-wide eigensolver")

        monkeypatch.setattr(spectral, "_lanczos_top", fail)
        monkeypatch.setattr(M, "decompose", fail)
        tree = ssym_binary(10)
        t_rel = 1.0 / M._gap(tree)[0]
        assert 0.0 < T.tv_from_start(tree, t_rel, tree.n - 1) <= T.heat_kernel_tv(tree, t_rel)
        table = T.tv_curve(tree, 5)
        assert table[0, 1] == pytest.approx(1 - 1 / tree.n, abs=1e-12)
        assert np.all(np.diff(table[:, 1]) < 0) and table[-1, 1] < 0.01
        start = int(np.flatnonzero(tree.depth == 10)[0])
        assert np.all(T.tv_curve(tree, 5, start=start)[:, 1] <= table[:, 1] + 1e-12)

    def test_curve_matches_dense_rows(self):
        tree = ssym_binary(8)
        assert isinstance(M._modes(tree), M._Orbits)
        eig = np.linalg.eigh(T.laplacian(tree))
        for t, tv in T.tv_curve(tree, 6):
            assert abs(tv - dense_tv_rows(tree, t, eig).max()) <= 1e-11

    def test_chooser_refuses_above_cap(self, monkeypatch):
        # the cap is read before the cache: a tree served under a higher
        # cap is refused once the cap falls below it
        tree = T.segment(40)
        assert M._gap(tree)[1] == "dense"
        monkeypatch.setenv("TREECUT_MAX_VERTICES", "20")
        assert isinstance(M._modes(tree), ResourceLimitError)
        assert M._gap(tree) == (T.gap_iterative(tree), "iterative")
        for query in (lambda: T.mixing_time(tree, 0.25),
                      lambda: T.heat_kernel_tv(tree, 1.0),
                      lambda: T.tv_from_start(tree, 1.0, 0),
                      lambda: T.tv_curve(tree, 3, t_max=1.0)):
            with pytest.raises(ResourceLimitError, match="TREECUT_MAX_VERTICES"):
                query()

    def test_curve_after_partial_search(self, monkeypatch):
        # a tree searched on bottom pairs keeps them; the curve from t = 0
        # switches to decompose where they cannot certify
        monkeypatch.setattr(M, "PARTIAL_MIN_VERTICES", 2)
        monkeypatch.setattr(_per_tree, "table", weakref.WeakKeyDictionary())
        tree = random_tree(120, seed=2, tall=True)
        t_mix = T.mixing_time(tree, 0.25).t_mix
        partial = M._modes(tree)
        assert partial.floor < np.inf
        table = T.tv_curve(tree, 5, t_max=t_mix)
        assert M._modes(tree) is partial
        eig = np.linalg.eigh(T.laplacian(tree))
        for t, tv in table:
            assert abs(tv - dense_tv_rows(tree, t, eig).max()) <= 1e-12


def assert_matches_dense(tree, eps, start=None, rtol=1e-8):
    """t_mix within rtol of the full-GEMM bisection; worst_start attains d."""
    res = T.mixing_time(tree, eps, start=start, rtol=rtol)
    t_ref = dense_mixing_time(tree, eps, start=start, rtol=rtol)
    assert abs(res.t_mix - t_ref) <= rtol * max(res.t_mix, t_ref)
    assert 0.0 <= res.tail_bound <= M.TAIL_TOL
    if start is None:
        rows = dense_tv_rows(tree, res.t_mix)
        # symmetric starts tie; either one may be returned
        assert rows.max() - rows[res.worst_start] <= 1e-12
    return res


class TestTruncatedSearch:
    """Truncated modes and the single-start bracket search against the dense
    reference."""

    EPSILONS = (0.25, 0.1)

    def test_random_suite(self, random_suite):
        for tree in random_suite:
            for eps in self.EPSILONS:
                assert_matches_dense(tree, eps)

    @pytest.mark.parametrize("size", [64, 128, 256])
    def test_cor15(self, size):
        for eps in self.EPSILONS:
            assert_matches_dense(T.cor15_tree(size), eps)

    @pytest.mark.parametrize("depth", [5, 6, 7, 8])
    def test_spherically_symmetric_binary(self, depth):
        for eps in self.EPSILONS:
            assert_matches_dense(T.spherically_symmetric([2] + [3] * (depth - 1)), eps)

    def test_fixed_start(self):
        for seed in range(4):
            tree = random_tree(50, seed=seed, tall=seed % 2 == 1)
            for start in (0, 17, 49):
                assert_matches_dense(tree, 0.25, start=start)

    def test_rejected_candidate_switches_start(self, monkeypatch):
        # the first candidate is not the worst start at its bracket end, so
        # the all-starts check fails once and the search resumes from there
        checks = []
        worst = M._EigenStarts.worst
        monkeypatch.setattr(M._EigenStarts, "worst",
                            lambda self, t, *candidate:
                            checks.append(t) or worst(self, t, *candidate))
        assert_matches_dense(random_tree(80, seed=0), 0.25)
        assert len(checks) >= 2

    def test_check_agrees_with_bracket_on_candidate(self, random_suite, monkeypatch):
        # the all-starts check takes the candidate's value from the single-start
        # TV that closed the bracket, so it never names the candidate itself
        # above epsilon (its kernel row, summed in another order, used to
        # exceed epsilon by 1e-17..1e-16 and force a second check)
        named = []
        worst_start = M._EigenStarts.worst

        def check(self, t, x, tv_x):
            d, worst = worst_start(self, t, x, tv_x)
            named.append((worst == x, d, tv_x))
            return d, worst

        monkeypatch.setattr(M._EigenStarts, "worst", check)
        for eps in self.EPSILONS:
            named.clear()
            for tree in random_suite:
                T.mixing_time(tree, eps)
            assert len(named) >= len(random_suite)
            assert all(tv_x <= eps for _, _, tv_x in named)
            assert not any(own and d > eps for own, d, _ in named)

    def test_kept_prefix_matches_every_mode(self):
        # _kept evaluates only a prefix of the modes; (k, tail) must be those
        # of the tails of every stored mode plus the floor, bit for bit, on
        # dense and bottom-pair eigensystems (small t sends the latter to
        # decompose, as the full formula does)
        def every_mode(tree, eig, t):
            rest = np.exp(-t * eig.floor) if eig.floor < np.inf else 0.0
            tails = 0.5 * np.sqrt(tree.n) * np.append(np.exp(-t * eig.values), rest)
            k = int(np.argmax(tails <= M.TAIL_TOL))
            if tails[k] > M.TAIL_TOL:
                return every_mode(tree, decompose(tree), t)
            return k, float(tails[k])

        trees = [T.cor15_tree(64), T.segment(300), T.binary_of_size(200)] + [
            T.gw_conditioned_size(OD.geometric(0.5), 30 + seed % 31, seed)[0]
            for seed in range(40)]
        partial = 0
        for tree in trees:
            span = 2.0 * np.log(np.sqrt(tree.n) / M.TAIL_TOL)
            eigs = [eig for eig in (decompose(tree), bottom_pairs(tree, span)) if eig is not None]
            partial += len(eigs) - 1
            for eig in eigs:
                for t in [0.0] + np.geomspace(1e-3, 1e5, 400).tolist():
                    assert M._EigenStarts(tree, eig)._kept(t) == every_mode(tree, eig, t)
        assert partial >= 2

    def test_truncated_tv_within_reported_bound(self):
        for seed in range(6):
            tree = random_tree(30 + 10 * seed, seed=seed, tall=seed % 2 == 0)
            eig = decompose(tree)
            t_rel = 1.0 / eig.values[1]
            for t in (0.02 * t_rel, 0.3 * t_rel, t_rel, 4.0 * t_rel):
                k, bound = M._EigenStarts(tree, eig)._kept(t)
                rows = dense_tv_rows(tree, t, (eig.values, eig.vectors))
                # the bound covers the dropped modes; 1e-14 covers rounding
                assert abs(T.heat_kernel_tv(tree, t) - rows.max()) <= bound + 1e-14
                for x in (0, tree.n // 2, tree.n - 1):
                    assert abs(T.tv_from_start(tree, t, x) - rows[x]) <= bound + 1e-14
            # by 4 t_rel the truncation drops modes
            assert k < tree.n and bound <= M.TAIL_TOL

    def test_bracket_in_tv_curve(self, random_suite):
        # the samples prove the bracket: TV > epsilon within rtol below
        # t_mix, TV <= epsilon at t_mix, both evaluated on the followed start
        rtol = 1e-8
        for tree in random_suite:
            for eps in self.EPSILONS:
                res = T.mixing_time(tree, eps, rtol=rtol)
                ts, tvs = res.tv_curve[:, 0], res.tv_curve[:, 1]
                below = (ts >= res.t_mix * (1 - rtol)) & (ts < res.t_mix)
                assert np.any(tvs[below] > eps)
                assert np.all(tvs[ts == res.t_mix] <= eps) and np.any(ts == res.t_mix)

    def test_few_tv_evaluations(self, random_suite, monkeypatch):
        # bisection to rtol 1e-8 needs about 29 per search.  Near the knee of
        # the curve (epsilon 0.5), where log TV bends most, plain regula
        # falsi without the Illinois halving needs 11.5 in the median.
        calls = []
        tv = M._EigenStarts.tv
        monkeypatch.setattr(M._EigenStarts, "tv",
                            lambda *args: calls.append(1) or tv(*args))

        def counts(eps):
            out = []
            for tree in random_suite:
                calls.clear()
                T.mixing_time(tree, eps)
                out.append(len(calls))
            return out

        assert np.median([c for eps in self.EPSILONS for c in counts(eps)]) <= 8
        assert np.median(counts(0.5)) <= 9

    @pytest.mark.parametrize("rtol", [0.0, -1.0, 1e-17, math.nan, math.inf, 1.0])
    def test_rtol_out_of_range_rejected(self, rtol):
        # rtol 0, -1 or 1e-17 used to hang: the bracket stops shrinking at
        # one ulp; nan skipped the refinement
        with pytest.raises(ValidationError):
            T.mixing_time(T.segment(20), 0.25, rtol=rtol)

    def test_smallest_rtol_terminates(self):
        tree = random_tree(40, seed=3)
        coarse = T.mixing_time(tree, 0.25).t_mix
        fine = T.mixing_time(tree, 0.25, rtol=1e-15)
        assert abs(fine.t_mix - coarse) <= 1e-8 * coarse
        ts = fine.tv_curve[:, 0]
        assert np.any((ts >= fine.t_mix * (1 - 1e-15)) & (ts < fine.t_mix))

    def test_zero_mixing_time_needs_no_kernel(self):
        res = T.mixing_time(T.segment(2), 0.7)
        assert (res.t_mix, res.tail_bound) == (0.0, 0.0)
        assert res.tv_curve.tolist() == [[0.0, 1 - 1 / 3]]


class TestPartialPath:
    """The search on certified bottom eigenpairs against the dense reference."""

    @pytest.fixture
    def partial_everywhere(self, monkeypatch):
        monkeypatch.setattr(M, "PARTIAL_MIN_VERTICES", 2)
        monkeypatch.setattr(_per_tree, "table", weakref.WeakKeyDictionary())

    def test_random_suite(self, random_suite, partial_everywhere):
        partial = 0
        for tree in random_suite:
            for eps in TestTruncatedSearch.EPSILONS:
                assert_matches_dense(tree, eps)
            partial += M._modes(tree) is not decompose(tree)
        assert partial >= 100

    def test_partial_tv_within_reported_bound(self, monkeypatch):
        # the tail bound covers the dropped modes; 1e-11 covers the
        # eigenpairs' own error (relative Ritz residual 1e-10)
        decompositions = []
        monkeypatch.setattr(M, "decompose",
                            lambda tree: decompositions.append(tree) or decompose(tree))
        for seed in (0, 2, 4):
            tree = random_tree(200 + 20 * seed, seed=seed, tall=True)
            eig = bottom_pairs(tree, 2.0 * np.log(np.sqrt(tree.n) / M.TAIL_TOL))
            assert eig.floor < np.inf
            starts = M._EigenStarts(tree, eig)
            t_rel = 1.0 / eig.values[1]
            for t in (0.5 * t_rel, t_rel, 4.0 * t_rel):
                k, bound = starts._kept(t)
                rows = dense_tv_rows(tree, t)
                assert k <= eig.values.size and bound <= M.TAIL_TOL
                assert abs(starts.worst(t, None, None)[0] - rows.max()) <= bound + 1e-11
                for x in (0, tree.n // 2, tree.n - 1):
                    assert abs(starts.tv(x, t) - rows[x]) <= bound + 1e-11
            assert starts.eig is eig and not decompositions
            # before t_rel / 2 the floor no longer certifies the tail: the
            # oracles switch to decompose once, for every later call
            starts.tv(0, 0.25 * t_rel)
            assert starts.eig.floor == np.inf and len(decompositions) == 1
            for t in (0.25 * t_rel, t_rel):
                starts.tv(0, t)
                starts.worst(t, None, None)
            assert len(decompositions) == 1
            decompositions.clear()

    def test_early_time_falls_back_to_dense(self, partial_everywhere):
        # at epsilon 0.6 the search reaches times before t_rel / 2
        tree = random_tree(120, seed=2, tall=True)
        assert M._modes(tree).floor < np.inf
        res = assert_matches_dense(tree, 0.6)
        assert res.t_mix < 0.5 / M._gap(tree)[0]

    @pytest.mark.parametrize("make", [lambda: T.spherically_symmetric([2] + [3] * 7),
                                      lambda: T.spherically_symmetric([300])],
                             ids=["ssym_depth8", "star_300"])
    def test_repeated_eigenvalues_fall_back(self, make, partial_everywhere, monkeypatch):
        # bottom pairs restart through repeated eigenvalues, but these trees
        # take orbit quotients first; without them, a tree whose restarts
        # stall (each from the first run's own vector) falls back to decompose
        tree = make()
        eig = bottom_pairs(tree, 2.0 * np.log(np.sqrt(tree.n) / M.TAIL_TOL))
        assert eig.floor < np.inf and eig.values.size > 1
        assert isinstance(M._modes(tree), M._Orbits)
        assert_matches_dense(tree, 0.25)
        monkeypatch.setattr(M, "ORBIT_MIN_VERTICES", math.inf)
        monkeypatch.setattr(spectral, "derive_seed", lambda seed, *keys: seed)
        tree = make()
        assert M._modes(tree) is decompose(tree)
        assert_matches_dense(tree, 0.25)

    @pytest.mark.parametrize("make", [lambda: power_comb(16), lambda: power_comb(32),
                                      lambda: T.binary_of_size(600), lambda: T.binary_of_size(700),
                                      lambda: T.binary_of_size(800), lambda: legs_tree(390),
                                      lambda: T.cor15_tree(128)],
                             ids=["comb_16", "comb_32", "binary_600", "binary_700",
                                  "binary_800", "four_legs", "cor15_128"])
    def test_restarted_pairs_match_decompose(self, make):
        # bottom pairs found through restarts (all but cor15's): the search
        # on them ends where the search on decompose does, at a worst start
        # in the same root orbit (starts an automorphism swaps are equally
        # far from uniform, and rounding decides which one is named)
        tree = make()
        starts = M._EigenStarts(tree, bottom_pairs(tree, 2.0 * np.log(np.sqrt(tree.n) / M.TAIL_TOL)))
        dense = M._EigenStarts(tree, decompose(tree))
        orbit = root_orbits(tree)
        for eps in (0.25, 0.1):
            res = M._search(tree, eps, None, 1e-8, starts)
            ref = M._search(tree, eps, None, 1e-8, dense)
            assert abs(res.t_mix - ref.t_mix) <= 1e-8 * ref.t_mix
            assert orbit[res.worst_start] == orbit[ref.worst_start]

    @pytest.mark.parametrize("make", [lambda: T.segment(319), lambda: T.cor15_tree(128),
                                      lambda: T.gw_conditioned_size(OD.geometric(0.5), 320, 0)[0],
                                      lambda: T.gw_conditioned_size(OD.geometric(0.5), 400, 4)[0],
                                      lambda: random_tree(450, seed=1, tall=True),
                                      lambda: T.segment(510)],
                             ids=["segment_320", "cor15_128", "gw_320", "gw_400",
                                  "tall_random_450", "segment_511"])
    def test_tall_trees_take_bottom_pairs(self, make):
        # from 320 vertices on, height^2 >= n sends a tree to bottom pairs
        tree = make()
        assert M.TALL_MIN_VERTICES <= tree.n < M.PARTIAL_MIN_VERTICES
        assert tree.height ** 2 >= tree.n
        assert M._modes(tree).floor < np.inf
        assert M._gap(tree)[1] == "partial"
        assert_matches_dense(tree, 0.25)

    @pytest.mark.parametrize("make", [lambda: T.segment(318), lambda: random_tree(400, seed=0),
                                      lambda: T.binary_of_size(300)],
                             ids=["segment_319", "shallow_random_400", "binary_300"])
    def test_short_or_shallow_trees_stay_dense(self, make, monkeypatch):
        monkeypatch.setattr(M, "bottom_pairs", None)  # any call would fail
        tree = make()
        assert tree.n < M.TALL_MIN_VERTICES or tree.height ** 2 < tree.n
        assert M._modes(tree) is decompose(tree)

    def test_numbers_do_not_depend_on_call_order(self):
        # a curve from t = 0 and an early TV switch their own oracles to
        # decompose; the choice cached for the tree stays bottom pairs
        def numbers(tree):
            res = T.mixing_time(tree, 0.25)
            t_rel = 1.0 / M._gap(tree)[0]
            return (res.t_mix, res.worst_start, res.tv_curve.tolist(), M._gap(tree),
                    [T.heat_kernel_tv(tree, c * t_rel) for c in (0.5, 1.0, 4.0)],
                    [T.tv_from_start(tree, c * t_rel, 0) for c in (0.5, 1.0, 4.0)])

        fresh = numbers(T.cor15_tree(256))
        assert fresh[3][1] == "partial"
        used = T.cor15_tree(256)
        T.tv_curve(used, 5)
        T.heat_kernel_tv(used, 0.1 / M._gap(used)[0])
        assert numbers(used) == fresh
        # so the curve ends at exactly 1.5 times the 0.01-mixing time of a
        # fresh tree, as ``mix --curve`` and ``mix --eps 0.01`` print
        t_mix = T.mixing_time(T.cor15_tree(256), 0.01).t_mix
        assert T.tv_curve(T.cor15_tree(256), 3)[-1, 0] == 1.5 * t_mix

    def test_small_trees_never_run_lanczos(self, monkeypatch):
        monkeypatch.setattr(M, "bottom_pairs", None)  # any call would fail
        tree = random_tree(M.PARTIAL_MIN_VERTICES - 1, seed=5)
        assert T.mixing_time(tree, 0.25).t_mix > 0

    @pytest.mark.slow
    def test_cor15_512(self):
        tree = T.cor15_tree(512)
        res = assert_matches_dense(tree, 0.25)
        eig = M._modes(tree)
        assert tree.n >= M.PARTIAL_MIN_VERTICES and eig.floor < np.inf
        assert eig.values.size <= 8
        assert M._gap(tree)[0] == pytest.approx(T.spectrum(tree).gap, rel=1e-9)
        assert res.tail_bound <= M.TAIL_TOL


def one_kernel_rows(starts, t, x=None, tv_x=None):
    """Every start's TV from one n x n kernel of the modes ``starts`` keeps at
    t, the candidate x counted with ``tv_x``: the all-starts check without
    screen or blocks."""
    k, _ = starts._kept(t)
    rows = dense_tv_rows(starts.tree, t, (starts.eig.values[:k], starts.eig.vectors[:, :k]))
    if x is not None:
        rows[x] = tv_x
    return rows


class TestScreenedCheck:
    """The screened, blocked all-starts check of ``_EigenStarts`` against one
    kernel of the same modes."""

    @pytest.fixture(scope="class")
    def cases(self, random_suite):
        """(starts, an early time and t_mix, the worst start at t_mix) on
        eigenpairs: dense below 320 vertices and on shallow trees, bottom
        pairs on the tall trees from 320 vertices on, cor15_tree(128) (326
        vertices) and (256)."""
        named = [T.cor15_tree(64), T.cor15_tree(128), T.cor15_tree(256), T.segment(300),
                 T.binary_of_size(100), T.spherically_symmetric([40])]
        out = []
        for tree in list(random_suite) + named:
            starts = M._starts(tree)
            assert isinstance(starts, M._EigenStarts)
            res = M._search(tree, 0.25, None, 1e-8, starts)
            out.append((starts, (0.3 / starts.gap, res.t_mix), res.worst_start))
        assert sum(s.method == "partial" for s, _, _ in out) == 2
        assert sum(s.method == "dense" for s, _, _ in out) == len(out) - 2
        return out

    @pytest.mark.parametrize("one_row", [False, True], ids=["budget", "one_row"])
    def test_matches_one_kernel(self, cases, one_row, monkeypatch):
        # the named start is the same for every block height: the default
        # budget (one kernel block up to 362 rows) against seven rows at a
        # time, or against one row at a time
        default = M.BLOCK_ELEMENTS
        for starts, times, x_mix in cases:
            n = starts.tree.n
            for t in times:
                k, _ = starts._kept(t)
                for x in (None, x_mix):
                    tv_x = None if x is None else starts.tv(x, t)
                    rows = one_kernel_rows(starts, t, x, tv_x)
                    named = set()
                    for budget in (default, 1 if one_row else 7 * n):
                        monkeypatch.setattr(M, "BLOCK_ELEMENTS", budget)
                        d, worst = starts.worst(t, x, tv_x)
                        assert abs(d - rows.max()) <= 1e-12
                        delta = (k + 2) * 2.0 ** -53 * (1.0 + d)
                        assert rows.max() - rows[worst] <= 2 * delta
                        named.add(worst)
                    assert len(named) == 1

    def test_bound_covers_every_start(self, cases):
        # late times keep one mode besides the constant: there the bound is
        # tight, and only its rounding slack keeps it above the rows
        for starts, times, _ in cases:
            for t in times + (10.0 / starts.gap, 20.0 / starts.gap):
                assert np.all(one_kernel_rows(starts, t) <= starts.bound(starts._weights(t)))

    def test_constant_mode_is_exact(self):
        # both eigensystems hold eigenvalue 0 and the vector 1/sqrt(n) exactly,
        # so the kernel's mode-0 term is exactly 1/n
        for tree in (T.cor15_tree(64), T.segment(300), random_tree(200, seed=4),
                     T.cor15_tree(256)):
            for eig in (decompose(tree), bottom_pairs(tree, 40.0)):
                assert eig.values[0] == 0.0
                assert np.all(eig.vectors[:, 0] == 1.0 / np.sqrt(tree.n))

    def test_few_rows_on_cor15_512(self):
        tree = T.cor15_tree(512)
        starts = M._starts(tree)
        res = M._search(tree, 0.25, None, 1e-8, starts)
        t, x = res.t_mix, res.worst_start
        for candidate in ((x, starts.tv(x, t)), (None, None)):
            assert starts.worst(t, *candidate) == (pytest.approx(0.25, abs=1e-6), x)
            assert starts.rows <= 0.05 * tree.n

    def test_one_row_per_live_start(self, cases):
        # without a candidate the start of largest bound sets the threshold
        # tau and its row is computed once: rows is the number of live
        # starts, and d and the named start are those of a check that
        # computes every live row in blocks
        for starts, times, _ in cases:
            n = starts.tree.n
            for t in times:
                W = starts._weights(t)
                k = W.shape[1] + 1
                bound = starts.bound(W)
                tau = 0.5 * np.abs(W[[int(np.argmax(bound))]] @ W.T).sum()
                live = np.flatnonzero(bound >= tau)
                dist = np.full(n, -np.inf)
                height = max(1, M.BLOCK_ELEMENTS // n)
                for s in range(0, live.size, height):
                    rows = live[s:s + height]
                    dist[rows] = 0.5 * np.abs(W[rows] @ W.T).sum(axis=1)
                delta = (k + 2) * 2.0 ** -53 * (1.0 + dist.max())
                d, worst = starts.worst(t, None, None)
                assert starts.rows == live.size
                assert worst == int(np.argmax(dist >= dist.max() - delta))
                assert abs(d - dist[worst]) <= delta

    @pytest.mark.parametrize("make", [lambda: T.cor15_tree(512), lambda: T.segment(1500)],
                             ids=["cor15_512", "segment_1500"])
    def test_peak_allocation_below_a_quarter_kernel(self, make):
        tree = make()
        starts = M._starts(tree)
        res = M._search(tree, 0.25, None, 1e-8, starts)
        t, x = res.t_mix, res.worst_start
        tracemalloc.start()
        try:
            for candidate in ((x, starts.tv(x, t)), (None, None)):
                tracemalloc.reset_peak()
                starts.worst(t, *candidate)
                assert tracemalloc.get_traced_memory()[1] < tree.n ** 2 * 8 / 4
        finally:
            tracemalloc.stop()


def ssym_binary(depth):
    return T.spherically_symmetric([2] + [3] * (depth - 1))


class TestOrbitQuotients:
    """The search on orbit quotients against the dense reference and the
    birth-and-death chain."""

    @pytest.fixture
    def orbits_everywhere(self, monkeypatch):
        monkeypatch.setattr(M, "ORBIT_MIN_VERTICES", 2)
        monkeypatch.setattr(M, "ORBIT_RATIO", math.inf)
        monkeypatch.setattr(_per_tree, "table", weakref.WeakKeyDictionary())

    def assert_matches_dense(self, tree, epsilons=(0.25, 0.1)):
        assert isinstance(M._modes(tree), M._Orbits)
        gap = np.linalg.eigvalsh(T.laplacian(tree))[1]
        assert abs(M._gap(tree)[0] - gap) <= 1e-9 * gap
        for eps in epsilons:
            assert assert_matches_dense(tree, eps).tail_bound == 0.0

    def assert_bracketed_by_dense(self, tree, epsilons=(0.25, 0.1), rtol=1e-8):
        """t_mix against the dense kernel rows at the two ends of its bracket,
        the comparison ``dense_mixing_time`` makes at every bisection step,
        made at two times instead of some thirty (at ssym depth 9 the dense
        bisection takes 14 s: its products run on subnormal numbers)."""
        assert isinstance(M._modes(tree), M._Orbits)
        eig = np.linalg.eigh(T.laplacian(tree))
        assert abs(M._gap(tree)[0] - eig[0][1]) <= 1e-9 * eig[0][1]
        for eps in epsilons:
            res = T.mixing_time(tree, eps, rtol=rtol)
            rows = dense_tv_rows(tree, res.t_mix, eig)
            assert rows.max() <= eps + 1e-12
            assert rows.max() - rows[res.worst_start] <= 1e-12
            assert dense_tv_rows(tree, res.t_mix * (1 - 2 * rtol), eig).max() > eps - 1e-12

    @pytest.mark.parametrize("depth", [2, 4, 6, 8])
    def test_spherically_symmetric_binary(self, depth, orbits_everywhere):
        self.assert_matches_dense(ssym_binary(depth))

    def test_large_symmetric_trees(self):
        # both take the orbit path at the default thresholds
        self.assert_bracketed_by_dense(ssym_binary(9))
        self.assert_bracketed_by_dense(T.binary_of_size(1000))

    @pytest.mark.parametrize("degrees", [[5], [40], [300], [3, 2, 4, 2], [4, 4, 4]])
    def test_stars_and_other_degrees(self, degrees, orbits_everywhere):
        self.assert_matches_dense(T.spherically_symmetric(degrees))

    @pytest.mark.parametrize("size", [20, 100, 300, 511])
    def test_binary_of_size(self, size, orbits_everywhere):
        self.assert_matches_dense(T.binary_of_size(size))

    def test_grafted_random_trees(self, orbits_everywhere):
        for seed in range(12):
            self.assert_matches_dense(grafted_tree(20 + 3 * seed, seed))

    def test_every_start_and_fixed_starts(self, orbits_everywhere):
        # every vertex, representative or not, reads its orbit's quotient
        tree = grafted_tree(25, 3)
        orbits = M._modes(tree)
        assert orbits.starts.size < tree.n
        for t in np.array([0.3, 1.0, 3.0]) / M._gap(tree)[0]:
            rows = dense_tv_rows(tree, t)
            tvs = np.array([orbits.tv(v, t) for v in range(tree.n)])
            assert np.abs(tvs - rows).max() <= 1e-12
            assert orbits.worst(t, None, None)[0] == pytest.approx(rows.max(), abs=1e-12)
        for start in (0, tree.n - 1, int(orbits.starts[-1])):
            assert_matches_dense(tree, 0.25, start=start)

    @pytest.mark.parametrize("depth", [3, 6, 9])
    def test_root_quotient_is_the_depth_chain(self, depth, orbits_everywhere):
        # the root's quotient lumps an ssym tree onto its levels; the
        # two-sided chain of bdchain restricted to functions symmetric about
        # its center is the same chain, its other half being antisymmetric
        degrees = [2] + [3] * (depth - 1)
        orbits = M._modes(T.spherically_symmetric(degrees))
        values = orbits.quotients[0][0]
        chain = bdchain.project(degrees, depth + 1)
        sqrt_pi = np.sqrt(chain.stationary)
        S = -loop_bd_generator(chain)[2] * sqrt_pi[:, None] / sqrt_pi[None, :]
        chain_values, vectors = np.linalg.eigh(0.5 * (S + S.T))
        f = vectors / sqrt_pi[:, None]
        symmetric = np.abs(f - f[::-1]).max(axis=0) <= 1e-6 * np.abs(f).max(axis=0)
        assert values.size == symmetric.sum() == depth + 1
        assert np.allclose(values, chain_values[symmetric], rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("depth", [9, 10, 11])
    def test_deep_symmetric_trees_need_no_eigh_of_the_tree(self, depth, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the orbit path ran a tree-wide eigensolver")

        monkeypatch.setattr(spectral, "_lanczos_top", fail)
        monkeypatch.setattr(M, "decompose", fail)
        degrees = [2] + [3] * (depth - 1)
        tree = T.spherically_symmetric(degrees)
        res = T.mixing_time(tree, 0.25)
        gap = bdchain.bd_spectrum(bdchain.project(degrees, depth + 1)).gap
        assert M._gap(tree)[0] == pytest.approx(gap, rel=1e-9)
        assert 0.6 < res.t_mix * gap < 0.8 and res.worst_start in np.flatnonzero(
            tree.depth == depth)

    def test_equitable_partitions_only(self):
        tree = ssym_binary(4)
        orbit = root_orbits(tree)
        sizes, generator = M._lump(tree, orbit)
        assert sizes.tolist() == np.bincount(tree.depth).tolist()
        # merging two classes, or a random tree's levels, is not equitable
        for blocks in (np.unique(np.minimum(orbit, 1), return_inverse=True)[1],
                       np.unique(np.where(orbit == 3, 2, orbit), return_inverse=True)[1]):
            with pytest.raises(ValidationError):
                M._lump(tree, blocks)
        with pytest.raises(ValidationError):
            M._lump(random_tree(30, seed=1), random_tree(30, seed=1).depth)

    def test_turned_down_at_the_deepest_start(self, monkeypatch):
        # binary_of_size(200) has 31 starts, 961 <= 5 n; the deepest start's
        # quotient is past the bound, so one start's classes are built, not
        # the six that orbit order built before reaching such a start
        passes = []
        monkeypatch.setattr(M, "_lca_depth", lambda tree, x: passes.append(x) or _lca_depth(tree, x))
        tree = T.binary_of_size(200)
        assert M._orbit_quotients(tree) is None
        assert len(passes) == 1 and tree.depth[passes[0]] == tree.height
        # an accepted tree keeps its starts and quotients in orbit order
        passes.clear()
        tree = ssym_binary(8)
        orbits = M._orbit_quotients(tree)
        assert orbits.starts.tolist() == np.unique(root_orbits(tree), return_index=True)[1].tolist()
        assert sorted(passes) == sorted(orbits.starts.tolist())
        assert np.all(np.diff(tree.depth[passes]) <= 0)

    def test_small_and_deep_families_never_classified(self, monkeypatch):
        calls = []
        monkeypatch.setattr(M, "root_orbits",
                            lambda tree: calls.append(tree.n) or root_orbits(tree))
        criteria.sweep("gw_size", [30, 40, 50, 60], offspring=OD.geometric(0.5),
                       reps=10, seed=1, jobs=1)
        for m in (64, 128, 256, 512, 1024):
            M._modes(T.cor15_tree(m))
        assert calls == []
        M._modes(ssym_binary(8))
        assert calls == [511]


class TestHitting:
    def test_two_path_child_to_root(self):
        hp = T.hitting_profile(T.segment(1), 0)
        assert hp.expected.tolist() == [0.0, 1.0]

    def test_path_two_edges_far_leaf(self):
        hp = T.hitting_profile(T.segment(2), 0)
        assert hp.expected[2] == pytest.approx(3.0, abs=1e-12)
        assert hp.max_vertex == 2

    def test_identity_with_path_load(self, random_suite):
        for tree in random_suite[:60]:
            m = T.compute_metrics(tree)
            hp = T.hitting_profile(tree, tree.root)
            assert np.abs(hp.expected - m.path_load).max() < 1e-10

    def test_against_dense_solve_oracle(self):
        # independent route: full dense linear system with a pinned row
        for seed in (0, 1):
            tree = random_tree(35, seed=seed, tall=seed == 0)
            for target in sorted({tree.root, tree.n // 3, tree.n // 2, tree.n - 1,
                                  int(np.argmax(tree.depth))}):
                Q = T.laplacian(tree)
                A = Q.copy()
                A[target, :] = 0.0
                A[target, target] = 1.0
                b = np.ones(tree.n)
                b[target] = 0.0
                expected = np.linalg.solve(A, b)
                hp = T.hitting_profile(tree, target)
                assert np.abs(hp.expected - expected).max() < 1e-9

    def test_matches_rerooted_path_loads(self, random_suite):
        # the path loads of the tree re-rooted at the target, bit for bit
        for tree in random_suite[:60]:
            for target in range(tree.n):
                expected = T.compute_metrics(T.reroot(tree, target)).path_load
                hp = T.hitting_profile(tree, target)
                assert hp.expected.dtype == np.float64
                assert np.array_equal(hp.expected, expected.astype(np.float64))
                assert hp.max_vertex == int(np.argmax(expected))

    def test_builds_no_tree(self, monkeypatch):
        tree = random_tree(40, seed=5, tall=True)
        expected = T.compute_metrics(T.reroot(tree, 7)).path_load
        tree = T.from_parents(tree.n, tree.parent)  # no cached metrics

        def refuse(*args):
            raise AssertionError("hitting_profile built a tree")
        monkeypatch.setattr(T.tree, "from_parents", refuse)
        monkeypatch.setattr(T.tree, "reroot", refuse)
        assert T.hitting_profile(tree, 7).expected.tolist() == expected.tolist()

    def test_non_root_target_positive(self):
        hp = T.hitting_profile(T.segment(3), 2)
        assert hp.expected[2] == 0.0
        assert np.all(hp.expected[np.arange(4) != 2] > 0)


class TestLowerBounds:
    def test_one_vertex(self):
        lb = T.mixing_lower_bounds(T.from_parents(1, [-1]), 0.5)
        assert (lb.hitting_bound, lb.degree_bound) == (0.0, 0.0)
        assert T.hardy_lower(T.from_parents(1, [-1])).value == 0.0

    def test_two_path(self):
        lb = T.mixing_lower_bounds(T.segment(1), 0.5)
        assert lb.hitting_bound == pytest.approx(0.25)
        t_mix = T.mixing_time(T.segment(1), 0.25).t_mix
        assert t_mix >= lb.hitting_bound

    def test_epsilon_exceeding_delta_rejected(self):
        with pytest.raises(ValidationError):
            T.mixing_lower_bounds(T.segment(1), 0.9)

    @pytest.mark.parametrize("eps", [math.nan, -1.0, 0.0])
    def test_nonpositive_epsilon_rejected(self, eps):
        # -1 used to give hitting_bound -27.5 on segment(20), nan nan
        with pytest.raises(ValidationError, match="epsilon"):
            T.mixing_lower_bounds(T.segment(20), eps)

    def test_bounds_are_the_recentered_path_load(self, small_suite):
        for tree in small_suite[:20]:
            com = T.center_of_mass(tree)
            hp = T.hitting_profile(tree, com.vertex)
            lb = T.mixing_lower_bounds(tree, com.delta)
            assert lb.hitting_bound == 0.5 * com.delta * hp.expected.max()

    def test_comb_family_bound_below_exact(self):
        tree = T.cor15_tree(64)
        lb = T.mixing_lower_bounds(tree, 1 / 6)
        t_mix = T.mixing_time(tree, 1 / 12).t_mix
        assert t_mix >= lb.hitting_bound >= lb.degree_bound

    def test_suite_inequalities(self, small_suite):
        for tree in small_suite[:20]:
            com = T.center_of_mass(tree)
            lb = T.mixing_lower_bounds(tree, com.delta)
            t_mix = T.mixing_time(tree, com.delta / 2).t_mix
            assert t_mix >= lb.hitting_bound * (1 - 1e-12)
            assert lb.hitting_bound >= lb.degree_bound * (1 - 1e-12)
