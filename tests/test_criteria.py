"""Trend fits, cutoff diagnostics, family sweeps."""

import math

import numpy as np
import pytest

import treecut as T
from treecut import criteria as C
from treecut.errors import DegenerateInputError, ValidationError
from treecut.generate import OffspringDistribution as OD
from treecut.mixing import _gap
from treecut.rng import derive_seed

from util import brute_subtree_size, brute_tail_value, power_comb


def product_ratio(tree, epsilon):
    """t_mix(epsilon) times the spectral gap that ``mixing_time`` searches on."""
    return T.mixing_time(tree, epsilon).t_mix * _gap(tree)[0]


def make_rows(family, sizes, eps=0.25):
    return [C.analyze_tree(C._build_family_member(family, s, 0, None), eps, s)
            for s in sizes]


class TestFitLoglog:
    def test_recovers_power_law(self):
        xs = [10, 20, 40, 80]
        ys = [3.0 * x**1.7 for x in xs]
        fit = C.fit_loglog(xs, ys)
        assert fit.slope == pytest.approx(1.7, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            C.fit_loglog([1, 2], [0.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        # a nan or infinite value used to give a nan fit, read as a verdict
        for xs, ys in (([1, 2, bad], [1.0, 2.0, 3.0]), ([1, 2, 3], [1.0, bad, 3.0])):
            with pytest.raises(ValidationError, match=r"^[xy] values must be in \(0, inf\), got"):
                C.fit_loglog(xs, ys)


def test_product_ratio_two_path():
    assert product_ratio(T.segment(1), 0.25) == pytest.approx(np.log(2), rel=1e-7)


def test_product_ratio_bounded_on_segments():
    ratios = [product_ratio(T.segment(n), 0.25) for n in (8, 16, 32)]
    assert max(ratios) / min(ratios) < 1.1


def test_product_ratio_flat_on_stars():
    sizes = (16, 32, 64, 128)
    ratios = [product_ratio(T.spherically_symmetric([m]), 0.25)
              for m in sizes]
    fit = C.fit_loglog([m + 1 for m in sizes], ratios)
    assert fit.slope < 0.05
    assert ratios[-1] == pytest.approx(2 * np.log(2), abs=0.01)


class TestNoCutoffCheck:
    def test_segments_verdict(self):
        rows = make_rows("segment", [8, 16, 32, 64, 128])
        diag = C.no_cutoff_check(rows)
        assert diag.verdict.startswith("consistent with no cutoff")
        assert abs(diag.fit.slope) < 0.05
        # the quotient tends to 2 from below on segments
        assert diag.values[-1] == pytest.approx(2.0, abs=0.05)

    def test_stars_verdict(self):
        rows = make_rows("star", [4, 8, 16, 32])
        diag = C.no_cutoff_check(rows)
        assert diag.verdict.startswith("consistent with no cutoff")
        assert all(v == 1.0 for v in diag.values)

    def test_binary_trees_verdict(self):
        # combinatorial quotient only, so skip the spectral work per row
        rows = []
        for depth in (6, 7, 8, 9):
            t = T.spherically_symmetric([2] + [3] * (depth - 1))
            m = T.compute_metrics(t)
            rows.append(C.FamilyRow(
                n=depth, sites=t.n, max_degree=m.max_degree,
                max_edge_load=T.max_edge_load(m).value,
                max_path_load=T.max_path_load(m).value,
                tail_max=T.tail_profile(m).value, delta=0.25, mode="exact"))
        diag = C.no_cutoff_check(rows)
        assert diag.verdict.startswith("consistent with no cutoff")
        # the quotient approaches 2 from below
        assert diag.values[-1] == pytest.approx(2.0, abs=0.05)

    def test_insufficient_data(self):
        rows = make_rows("segment", [8, 16])
        assert C.no_cutoff_check(rows).verdict == "insufficient data (diagnostic)"


class TestTailCutoffCheck:
    def test_synthetic_vanishing_quotient(self):
        rows = [C.FamilyRow(n=s, sites=s, max_degree=3, max_edge_load=1.0,
                            max_path_load=float(s**2), tail_max=float(s),
                            delta=0.4, mode="exact")
                for s in (10, 20, 40, 80)]
        diag = C.tail_cutoff_check(rows)
        assert diag.verdict.startswith("cutoff predicted")
        assert diag.fit.slope == pytest.approx(-1.0, abs=1e-9)

    def test_segments_not_indicated(self):
        rows = make_rows("segment", [8, 16, 32, 64])
        diag = C.tail_cutoff_check(rows)
        assert diag.verdict.startswith("not indicated")
        # quotient of constant order: k|V_k| and path load are both ~n^2/2
        assert max(diag.values) / min(diag.values) < 1.3

    def test_stars_constant(self):
        rows = make_rows("star", [4, 8, 16, 32])
        diag = C.tail_cutoff_check(rows)
        assert diag.verdict.startswith("not indicated")


class TestRetractionReport:
    def test_comb_path_carries_max_load_exactly(self):
        for n in (32, 64):
            t = T.cor15_tree(n)
            rep = C.retraction_report(t, n)  # vertex n = segment endpoint
            assert rep.path_sum == rep.max_path_load

    def test_segment_only_fails_edge_condition(self):
        # on bare segments the load dominates the sites, but the single
        # worst edge stays comparable to the whole path load
        reports = [C.retraction_report(T.segment(n), n) for n in (16, 32, 64, 128)]
        trend = C.retraction_trend(reports)
        fits = trend["fits"]
        assert fits["load_dominates_sites"].slope > 0.5
        assert fits["path_edge_negligible"].slope > -0.05
        assert trend["verdict"] == "not indicated (diagnostic)"

    def test_sparse_branching_family_needs_retraction(self):
        # degree 3 exactly at depths 2^j - 1: the worst-path-edge quotient
        # falls steadily, yet the walk shows no cutoff trend; only the
        # retraction of such a family can separate mixing from relaxation
        reports = []
        ratios = []
        for depth in (7, 11, 15, 23):
            t = T.spherically_symmetric([3 if (i + 1) & i == 0 else 2
                                         for i in range(depth)])
            deep = int(np.argmax(T.compute_metrics(t).depth))
            reports.append(C.retraction_report(t, deep))
            ratios.append(product_ratio(t, 0.25))
        fits = C.retraction_trend(reports)["fits"]
        assert fits["path_edge_negligible"].slope < -0.05
        assert max(ratios) / min(ratios) < 1.5

    def test_balanced_binary_fails_site_condition(self):
        # spherically symmetric binary trees: load comparable to sites
        reports = []
        for depth in (4, 5, 6, 7):
            t = T.spherically_symmetric([2] + [3] * (depth - 1))
            deep = int(np.argmax(T.compute_metrics(t).depth))
            reports.append(C.retraction_report(t, deep))
        fits = C.retraction_trend(reports)["fits"]
        assert fits["load_dominates_sites"].slope < 0.5


class TestRetractionAlpha:
    def test_binary_attachments_at_most_two(self):
        t = T.cor15_tree(32)
        alpha = C.retraction_alpha(t, 32)
        assert 1.0 <= alpha <= 2.0

    def test_path_attachments(self):
        # segment 0..3 with a 6-vertex path hanging at vertex 1
        parent = [-1, 0, 1, 2] + [1, 4, 5, 6, 7, 8]
        t = T.from_parents(10, parent)
        alpha = C.retraction_alpha(t, 3)
        assert alpha == pytest.approx((6 + 1) / 2)

    def test_no_attachments_defaults_to_one(self):
        t = T.segment(5)
        assert C.retraction_alpha(t, 5) == 1.0

    def test_matches_brute_hanging_subtrees(self, small_suite):
        # each hanging subtree R: path loads summed from its top c down,
        # by flood-fill subtree sizes, over |R|
        for t in small_suite:
            for v in {t.root, int(np.argmax(t.depth)), t.n - 1}:
                spine = T.root_path(t, v)
                worst = 1.0
                for c in range(t.n):
                    if c in spine or int(t.parent[c]) not in spine:
                        continue
                    loads = {c: brute_subtree_size(t, c)}
                    for w in sorted(range(t.n), key=lambda w: t.depth[w]):
                        if int(t.parent[w]) in loads:
                            loads[w] = loads[int(t.parent[w])] + brute_subtree_size(t, w)
                    worst = max(worst, max(loads.values()) / len(loads))
                assert C.retraction_alpha(t, v) == worst

    def test_spine_end_validation(self):
        for v in (-1, 4):
            with pytest.raises(ValidationError):
                C.retraction_alpha(T.segment(3), v)


class TestAnalyzeAndSweep:
    def test_exact_row_fields(self):
        row = C.analyze_tree(T.segment(8), 0.25, 8)
        assert row.mode == "exact"
        assert row.ratio == pytest.approx(row.t_mix / row.t_rel)
        assert row.t_rel_lower <= row.t_rel <= row.t_rel_upper

    def test_bounded_row_above_cap(self, monkeypatch):
        def no_gap(tree):
            raise AssertionError("a bounded row computed a gap")

        monkeypatch.setenv("TREECUT_MAX_VERTICES", "50")
        monkeypatch.setattr(T.spectral, "gap_iterative", no_gap)
        monkeypatch.setattr(T.mixing, "gap_iterative", no_gap)
        # 0.999 >= 1 - 1/65, where mixing_time answers 0 without the chooser
        for eps in (0.25, 0.999):
            row = C.analyze_tree(T.segment(64), eps, 64)
            assert row.mode == "bounded"
            assert row.t_rel is None and row.t_mix is None
            assert row.t_rel_lower <= row.t_rel_upper
            assert row.t_mix_lower > 0

    def test_sweep_segments(self):
        rep = C.sweep("segment", [8, 16, 32, 64])
        assert [r.n for r in rep.rows] == [8, 16, 32, 64]
        assert all(r.mode == "exact" for r in rep.rows)
        assert rep.trends["no_cutoff"].verdict.startswith("consistent")
        assert abs(rep.trends["product_ratio"].slope) < 0.05

    def test_sweep_comb_ratio_increases(self):
        rep = C.sweep("cor15", [64, 128])
        ratios = [r.ratio for r in rep.rows]
        assert ratios[0] < ratios[1]

    def test_sweep_rows_keep_sandwich(self):
        for family, sizes in (("segment", [8, 16, 32]), ("cor15", [16, 32])):
            for row in C.sweep(family, sizes).rows:
                assert row.t_rel_lower <= row.t_rel * (1 + 1e-8)
                assert row.t_rel <= row.t_rel_upper * (1 + 1e-8)

    def test_oversized_construction_refused(self):
        from treecut.errors import ResourceLimitError
        with pytest.raises(ResourceLimitError, match="hard cap"):
            T.peres_sousi(4)  # would need 2^48 vertices

    def test_sweep_random_family_median(self):
        rep = C.sweep("gw_size", [20, 30], seed=5, offspring=OD.geometric(0.5),
                      reps=5)
        assert all(r.sites == r.n for r in rep.rows)  # conditioned on size
        assert all(r.ratio is not None for r in rep.rows)

    def test_median_row_per_field(self):
        rows = [C.analyze_tree(T.segment(m), 0.25, size_label=8) for m in (6, 9, 7)]
        rows.append(C.analyze_tree(T.segment(8), 0.25, size_label=9))
        med = C._median_row(rows)
        assert (med.n, med.mode) == (8, "exact")
        for name in ("sites", "t_rel", "t_mix", "ratio", "t_rel_upper", "delta"):
            assert getattr(med, name) == np.median([getattr(r, name) for r in rows])
        assert med.t_mix_lower is None  # None in every exact row
        bounded = C.FamilyRow(**{**rows[0].__dict__, "mode": "bounded", "t_rel": None})
        med = C._median_row([rows[3], bounded, rows[1]])
        assert (med.n, med.mode, med.t_rel) == (9, "bounded", None)

    def test_sweep_needs_seed_for_random(self):
        with pytest.raises(ValidationError):
            C.sweep("gw_size", [10], offspring=OD.geometric(0.5))

    @pytest.mark.parametrize("family, sizes, reps, seed, offspring, size, rep", [
        ("binary", [1, 2, 3, 4], 1, None, None, 1, 0),
        ("gw_size", [1, 2, 3, 4], 1, 1, OD.geometric(0.5), 1, 0),
        ("gw", [4, 5, 6, 7], 1, 1, OD.geometric(0.5), 4, 0),
        ("gw", [6], 3, 12, OD.geometric(0.5), 6, 2),
        ("gw", [4, 5, 6, 7], 3, 1, OD.poisson(1.5), 5, 0),
    ])
    def test_sweep_names_single_vertex_member(self, family, sizes, reps, seed,
                                              offspring, size, rep):
        # these used to fail inside the gap solver, naming no member
        stream = None if seed is None else derive_seed(seed, size, rep)
        message = (f"sweep member '{family}' size {size} rep {rep} "
                   rf"\(stream seed {stream}\) is a single vertex")
        with pytest.raises(DegenerateInputError, match=message):
            C.sweep(family, sizes, seed=seed, offspring=offspring, reps=reps)

    def test_numpy_reals_come_back_as_python_floats(self):
        row = C.analyze_tree(T.segment(3), np.float32(0.25), np.int64(4))
        assert type(row.n) is float and row.n == 4.0
        diagnostic = C.no_cutoff_check([row], np.float32(0.5))
        assert type(diagnostic.threshold) is float and diagnostic.threshold == 0.5
        report = C.sweep("segment", [3], epsilon=np.float64(0.25), threshold=np.float32(0.5))
        assert type(report.epsilon) is float
        assert type(report.trends["no_cutoff"].threshold) is float

    @pytest.mark.parametrize("cap", ["50", "4096"], ids=["bounded", "exact"])
    @pytest.mark.parametrize("eps", [math.nan, -1.0, 0.0, 1.0, 5.0])
    def test_analyze_tree_rejects_epsilon(self, cap, eps, monkeypatch):
        monkeypatch.setenv("TREECUT_MAX_VERTICES", cap)
        with pytest.raises(ValidationError, match="epsilon"):
            C.analyze_tree(T.segment(64), eps, 64)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -0.05])
    def test_threshold_rejected(self, threshold):
        rows = C.sweep("segment", [8, 16, 32, 64]).rows
        reports = [C.retraction_report(T.segment(m), m) for m in (8, 16, 32, 64)]
        for check in (lambda: C.sweep("segment", [8, 16], threshold=threshold),
                      lambda: C.no_cutoff_check(rows, threshold),
                      lambda: C.tail_cutoff_check(rows[:1], threshold),
                      lambda: C.retraction_trend(reports[:1], threshold)):
            with pytest.raises(ValidationError, match="threshold"):
                check()

    def test_ssym_binary_needs_depth(self):
        with pytest.raises(ValidationError, match="^size must be >= 0, got -1$"):
            C.sweep("ssym_binary", [-1, 2])
        with pytest.raises(ValidationError, match="depth"):
            C.sweep("ssym_binary", [0, 2])
        assert C.sweep("ssym_binary", [1]).rows[0].sites == 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_checks_epsilon_before_building(self, jobs, monkeypatch):
        # epsilon used to be checked per row, after building members and
        # (with jobs > 1) after starting the worker processes
        import concurrent.futures
        calls = []
        build = C._build_family_member
        monkeypatch.setattr(C, "_build_family_member",
                            lambda *args: calls.append(args) or build(*args))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda *args, **kwargs: calls.append("pool"))
        with pytest.raises(ValidationError, match="epsilon"):
            C.sweep("gw_size", [1500], epsilon=math.nan, seed=1,
                    offspring=OD.geometric(0.5), jobs=jobs)
        assert calls == []

    @pytest.mark.parametrize("seed, offspring, match", [
        (None, OD.geometric(0.5), "seed"), (1, None, "offspring")])
    def test_random_family_checked_up_front(self, seed, offspring, match):
        for check in (lambda: C.sweep("kesten", [5], seed=seed, offspring=offspring),
                      lambda: C._build_family_member("kesten", 5, seed, offspring)):
            with pytest.raises(ValidationError, match=match):
                check()

    def test_sweep_unknown_family(self):
        with pytest.raises(ValidationError):
            C.sweep("moebius", [4])

    @pytest.mark.parametrize("jobs, cores, workers", [
        (5000, 4, 3), (2, 4, 2), (5000, 2, 2), (5000, None, None), (1, 4, None)])
    def test_sweep_pool_is_bounded(self, jobs, cores, workers, monkeypatch):
        # the pool used to take max_workers=jobs: with 5,000 tasks, up to
        # 5,000 spawned processes; None means the sweep ran in this process
        import concurrent.futures
        import os
        pools = []

        class Pool:  # starts no process
            def __init__(self, max_workers, mp_context):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        report = C.sweep("segment", [4, 8, 16], jobs=jobs)
        assert pools == ([] if workers is None else [workers])
        assert report.rows == C.sweep("segment", [4, 8, 16]).rows

    def test_sweep_jobs_matches_serial(self):
        serial = C.sweep("segment", [8, 16], epsilon=0.25)
        parallel = C.sweep("segment", [8, 16], epsilon=0.25, jobs=2)
        for a, b in zip(serial.rows, parallel.rows):
            assert a == b


def test_quadratic_mass_comb_shows_cutoff_trend():
    # when the attachment mass along the spine dominates the segment's own
    # quadratic load, the diagnostics do separate mixing from relaxation:
    # the product ratio climbs and the worst-path-edge quotient falls
    ratios = []
    reports = []
    for n in (8, 16, 24, 32):
        t = power_comb(n)
        reports.append(C.retraction_report(t, n))
        ratios.append(product_ratio(t, 0.25))
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] / ratios[0] > 1.25
    fits = C.retraction_trend(reports)["fits"]
    assert fits["path_edge_negligible"].slope <= -0.05
    assert fits["load_dominates_sites"].slope >= 0.05


def test_peres_sousi_tail_against_brute_force():
    t = T.peres_sousi(2)
    assert T.tail_profile(T.compute_metrics(t)).value == brute_tail_value(t)
