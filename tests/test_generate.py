"""Tree family generators, offspring laws, contours."""

import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treecut as T
from treecut import criteria, generate
from treecut.errors import (RejectionCapError, ResourceLimitError,
                            ValidationError)
from treecut.generate import OffspringDistribution as OD
from treecut.rng import SplitMix64

from util import (brute_reroot_parent, loop_conditioned_sizes, loop_contour,
                  loop_gw_survival_truncated, loop_gw_tree, loop_kesten_tree,
                  random_tree, scalar_offspring, scalar_poisson)

FIXTURES = Path(__file__).parent / "fixtures"


class TestOffspring:
    def test_geometric_moments(self):
        d = OD.geometric(0.4)
        assert d.mean == pytest.approx(1.5)
        assert d.variance == pytest.approx(0.6 / 0.16)

    def test_poisson_moments(self):
        d = OD.poisson(1.3)
        assert (d.mean, d.variance) == (1.3, 1.3)

    def test_poisson_rate_with_underflowing_p0_rejected(self):
        OD.poisson(745.0)  # exp(-745) is still a positive subnormal
        with pytest.raises(ValidationError):
            OD.poisson(746.0)
        with pytest.raises(ValidationError):
            scalar_poisson(SplitMix64(1), 746.0)

    def test_table_moments(self):
        d = OD.table([0.25, 0.5, 0.25])
        assert d.mean == pytest.approx(1.0)
        assert d.variance == pytest.approx(0.5)

    def test_table_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            OD.table([0.5, 0.4])

    def test_geometric_parameter_range(self):
        with pytest.raises(ValidationError):
            OD.geometric(0.0)

    @pytest.mark.parametrize("build", [lambda: OD.poisson(float("nan")),
                                       lambda: OD.table([0.5, 0.5, float("nan")]),
                                       lambda: OD.geometric(float("nan"))],
                             ids=["poisson", "table", "geometric"])
    def test_nan_parameters_rejected(self, build):
        # poisson:nan and table:...,nan used to build laws that grew wrong trees
        with pytest.raises(ValidationError):
            build()

    def test_numpy_parameters_stored_as_python_floats(self):
        # geometric(np.float32(0.3)).mean used to be np.float32(2.3333333)
        p = float(np.float32(0.3))
        d = OD.geometric(np.float32(0.3))
        assert (d.params, d.mean, d.variance) == ((p,), (1 - p) / p, (1 - p) / p**2)
        for d in (d, OD.poisson(np.float32(1.5)),
                  OD.table([np.float32(0.5), np.float64(0.25), 0.25])):
            assert {type(x) for x in (*d.params, d.mean, d.variance)} == {float}

    def test_pmf_table_matches_kind(self):
        probs = OD.geometric(0.5).pmf_table()
        assert probs[0] == pytest.approx(0.5)
        assert probs[3] == pytest.approx(0.5**4)
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_size_biased_table(self):
        sb = OD.table([0.5, 0.25, 0.25]).size_biased_table()
        # weights 0, 0.25, 0.5 -> normalized (0, 1/3, 2/3)
        assert sb[0] == 0
        assert sb[1] == pytest.approx(1 / 3)
        assert sb[2] == pytest.approx(2 / 3)

    def test_extinction_probability_supercritical(self):
        # point mass at 2 dies out never; geometric(0.4) has q solving
        # q = 0.4/(1-0.6q) -> q = 2/3
        assert OD.table([0, 0, 1]).extinction_probability() == pytest.approx(0.0)
        assert OD.geometric(0.4).extinction_probability() == pytest.approx(2 / 3, abs=1e-9)


class TestDeterministicFamilies:
    def test_segment_sizes(self):
        assert T.segment(0).n == 1
        assert T.segment(1).n == 2
        assert T.compute_metrics(T.segment(3)).diameter == 3

    def test_binary_of_size(self):
        assert T.binary_of_size(1).n == 1
        t3 = T.binary_of_size(3)
        assert sorted(T.compute_metrics(t3).depth.tolist()) == [0, 1, 1]
        t6 = T.binary_of_size(6)
        assert sorted(T.compute_metrics(t6).depth.tolist()) == [0, 1, 1, 2, 2, 2]

    def test_spherically_symmetric_binary(self):
        t = T.spherically_symmetric([2, 3, 3])
        assert t.n == 15
        m = T.compute_metrics(t)
        assert int(m.depth.max()) == 3

    def test_star(self):
        t = T.spherically_symmetric([3])
        assert t.n == 4 and len(t.children(0)) == 3

    def test_level_size_recursion(self):
        # degree 3 exactly at depths 2^j - 1, else 2, truncated at depth 8
        degs = [3 if (i + 1) & i == 0 else 2 for i in range(8)]
        # i = 2^j - 1  <=>  i+1 is a power of two
        t = T.spherically_symmetric(degs)
        m = T.compute_metrics(t)
        counts = np.bincount(m.depth)
        expected = [1, degs[0]]
        for k in range(1, 8):
            expected.append(expected[-1] * (degs[k] - 1))
        assert counts.tolist() == expected

    @pytest.mark.parametrize("degrees", [[2, 3, 3, 3], [300], [2] + [3] * 7, [1, 3, 3],
                                         [5, 2, 4], []])
    def test_spherically_symmetric_numbering(self, degrees):
        # level by level, each vertex's children contiguous and in its order
        parent, level = [-1], [0]
        for k, d in enumerate(degrees):
            nxt = []
            for v in level:
                for _ in range(d if k == 0 else d - 1):
                    nxt.append(len(parent))
                    parent.append(v)
            level = nxt
        assert T.spherically_symmetric(degrees).parent.tolist() == parent

    def test_interior_degree_validation(self):
        with pytest.raises(ValidationError):
            T.spherically_symmetric([2, 1, 3])

    def test_cor15_small(self):
        t = T.cor15_tree(2)  # floor(2/1)=2 at the root, nothing further
        assert t.n == 5
        assert len(t.children(0)) == 2  # segment child + binary root

    def test_cor15_vertex_count(self):
        n = 64
        expected = (n + 1) + sum(n // (i + 1) ** 2 for i in range(n + 1))
        assert T.cor15_tree(n).n == expected

    def test_cor15_lists_only_nonempty_binaries(self):
        # floor(n/(i+1)^2) is 0 from i = isqrt(n) on: the same trees as
        # with an attachment listed at every distance 0..n
        for n in range(1, 301):
            full = generate._segment_with_binaries(
                n, [n // (i + 1) ** 2 for i in range(n + 1)])
            assert np.array_equal(T.cor15_tree(n).parent, full.parent)

    def test_cor15_root_split_balance(self):
        c = T.center_of_mass(T.cor15_tree(64), at=0)
        assert c.vertex == 0
        assert c.delta >= 1 / 6

    def test_peres_sousi_structure(self):
        t = T.peres_sousi(2)
        assert t.n == 4096 + 1024 + 256 + 17
        m = T.compute_metrics(t)
        # attachment sizes by distance along the segment
        sizes = T.hanging_sizes(t, 16)
        assert sizes[0] == 4096 and sizes[4] == 1024 and sizes[16] == 256
        assert T.max_edge_load(m).value >= 16 * 256

    @pytest.mark.parametrize("build, size", [
        (T.segment, 100),  # n edges, n + 1 vertices
        (T.binary_of_size, 101),
        (lambda depth: T.spherically_symmetric([2] + [3] * (depth - 1)), 6),  # 127
        (lambda leaves: T.spherically_symmetric([leaves]), 100),  # a star
    ], ids=["segment", "binary", "ssym", "star"])
    def test_hard_cap_before_allocation(self, build, size, monkeypatch):
        # only _segment_with_binaries used to check: spherically_symmetric
        # appended one Python int per vertex of a 2^41-vertex request
        monkeypatch.setattr(generate, "HARD_VERTEX_CAP", 100)
        with pytest.raises(ResourceLimitError, match="hard cap"):
            build(size)
        assert build(size - 1).n <= 100

    @pytest.mark.parametrize("build", [
        lambda: T.cor15_tree(200_000),
        lambda: criteria._build_family_member("ssym_binary", 2_000_000, None, None),
        lambda: T.cor15_tree(10**18),
        lambda: T.peres_sousi(6),
        lambda: T.peres_sousi(8),
        lambda: T.peres_sousi(14),
        lambda: T.segment(10**5000),
    ], ids=["cor15", "ssym_binary", "cor15_1e18", "peres_sousi_6", "peres_sousi_8",
            "peres_sousi_14", "segment_huge"])
    def test_refused_before_listing_the_construction(self, build, monkeypatch):
        # cor15 used to list n + 1 attachments (17 MB here), later isqrt(n)
        # of them (10^9 at 10^18), and ssym_binary a degree list of n
        # entries (16 MB) before the cap refused them; peres_sousi's sizes
        # (2^192 and 2^768) overflow any int64 cast made before the check;
        # the sizes of peres_sousi(14) (2^49152) and segment(10^5000) used to
        # end the message in a plain ValueError, as Python writes no int of
        # more than 4300 digits
        monkeypatch.setattr(generate, "HARD_VERTEX_CAP", 100)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="hard cap"):
                build()
            assert tracemalloc.get_traced_memory()[1] < 1_000_000
        finally:
            tracemalloc.stop()

    def test_constructions_match_recorded_digests(self):
        # SHA-256 of the canonical text of each construction, recorded from
        # the list-of-attachments builder that the array builder replaced
        def digest(*trees):
            h = hashlib.sha256()
            for t in trees:
                h.update(T.to_text(t).encode("ascii"))
            return h.hexdigest()

        tall = [random_tree(40, seed=s, tall=True) for s in range(20)]
        assert digest(*map(T.cor15_tree, range(1, 301))) == (
            "85aeafc4eb16887d4ae7d98716f106ea987ce77758f64d714a9306d67188315b")
        assert digest(T.cor15_tree(16384)) == (
            "cd01da7653397b808b39353b2ba82b39e1ede130f4fab8d00e4ca5d0cf4f8798")
        assert digest(T.peres_sousi(2)) == (
            "a90a8332a96964c48001e8c34eed76f44d16330bfe38f227758257ef97b2fa69")
        assert digest(T.retraction(T.cor15_tree(16), 16), T.retraction(T.peres_sousi(2), 16),
                      *(T.retraction(t, int(np.argmax(t.depth))) for t in tall)) == (
            "348b64f727fb0c7c42ea6b81f77c5dce14432244d08ef685a46074176686ec06")

    def test_peres_sousi_validation(self):
        with pytest.raises(ValidationError):
            T.peres_sousi(3)
        with pytest.raises(ValidationError):
            T.peres_sousi(0)


class TestRetraction:
    def test_segment_is_fixed_point(self):
        s = T.segment(4)
        assert T.to_text(T.retraction(s, 4)) == T.to_text(s)

    def test_pendant_path_becomes_binary(self):
        # 3-vertex spine 0-1-2 with a 4-vertex path hanging at vertex 1
        t = T.from_parents(7, [-1, 0, 1, 1, 3, 4, 5])
        r = T.retraction(t, 2)
        assert r.n == 7
        assert T.hanging_sizes(r, 2).tolist() == [0, 4, 0]
        hang = [v for v in r.children(1) if v != 2]
        depths = T.compute_metrics(r).depth
        # spine depths 0,1,2; level-filled block hangs at depth 1: 2,3,3,4
        assert sorted(int(depths[v]) for v in range(r.n)) == [0, 1, 2, 2, 3, 3, 4]
        assert len(hang) == 1

    def test_sizes_and_count_preserved(self):
        t = random_tree(40, seed=11, tall=True)
        deep = int(np.argmax(T.compute_metrics(t).depth))
        r = T.retraction(t, deep)
        assert r.n == t.n
        # in the retraction, the spine is vertices 0..k by construction
        k = len(T.root_path(t, deep)) - 1
        assert T.hanging_sizes(r, k).tolist() == T.hanging_sizes(t, deep).tolist()

    def test_hanging_sizes_match_brute_count(self, random_suite):
        # every vertex off the path hangs at the first path vertex above it
        for tree in random_suite:
            for v in {tree.root, tree.n // 2, tree.n - 1, int(np.argmax(tree.depth))}:
                path = T.root_path(tree, v).tolist()
                count = [0] * len(path)
                for w in range(tree.n):
                    u = w
                    while u not in path:
                        u = int(tree.parent[u])
                    if u != w:
                        count[path.index(u)] += 1
                assert T.hanging_sizes(tree, v).tolist() == count

    def test_root_rejected(self):
        with pytest.raises(ValidationError):
            T.retraction(T.segment(2), 0)


class TestBranchingFamilies:
    def test_point_mass_two_gives_full_binary(self):
        t = T.gw_tree(OD.table([0, 0, 1]), 3, seed=1)
        assert t.n == 15

    def test_point_mass_zero_gives_single_vertex(self):
        assert T.gw_tree(OD.table([1.0]), 5, seed=1).n == 1

    def test_seed_determinism(self):
        a = T.gw_tree(OD.geometric(0.4), 8, seed=42)
        b = T.gw_tree(OD.geometric(0.4), 8, seed=42)
        c = T.gw_tree(OD.geometric(0.4), 8, seed=43)
        assert T.to_text(a) == T.to_text(b)
        assert T.to_text(a) != T.to_text(c)

    def test_vertex_cap(self):
        with pytest.raises(ResourceLimitError):
            T.gw_tree(OD.table([0, 0, 1]), 25, seed=1, max_vertices=1000)

    def test_survival_point_mass_two(self):
        t = T.gw_survival_truncated(OD.table([0, 0, 1]), 4, seed=0)
        assert t.n == 31 and t.height == 4

    def test_survival_height_exactly_n(self):
        for seed in range(10):
            t = T.gw_survival_truncated(OD.poisson(1.2), 6, seed=seed)
            assert t.height == 6

    def test_survival_needs_supercritical(self):
        with pytest.raises(ValidationError):
            T.gw_survival_truncated(OD.geometric(0.5), 4, seed=0)

    def test_conditioned_size_trivial(self):
        t1, lab1 = T.gw_conditioned_size(OD.geometric(0.5), 1, seed=3)
        assert t1.n == 1 and lab1.tolist() == [1]
        t2, _ = T.gw_conditioned_size(OD.geometric(0.5), 2, seed=3)
        assert t2.parent.tolist() == [-1, 0]

    def test_conditioned_size_exact_across_seeds(self):
        for seed in range(100):
            t, labels = T.gw_conditioned_size(OD.geometric(0.5), 30, seed=seed)
            assert t.n == 30
            assert sorted(labels.tolist()) == list(range(1, 31))

    def test_conditioned_size_reroot_option(self):
        t, labels = T.gw_conditioned_size(OD.geometric(0.5), 25, seed=8,
                                          reroot_at_label_one=True)
        assert labels[t.root] == 1

    @pytest.mark.parametrize("build, hard_cap", [
        (lambda: T.gw_conditioned_size(OD.geometric(0.5), 25_000_000, 1, max_attempts=20_480),
         generate.HARD_VERTEX_CAP),
        (lambda: T.gw_tree(OD.poisson(3.0), 40, 1, max_vertices=10**9), 100),
        (lambda: T.gw_survival_truncated(OD.poisson(3.0), 40, 1, max_vertices=10**9), 100),
        (lambda: T.kesten_tree(OD.table([0, 1]), 200, 1, max_vertices=10**9), 100),
    ], ids=["gw_size", "gw", "gw_survival", "kesten"])
    def test_random_samplers_stop_at_the_hard_cap(self, build, hard_cap, monkeypatch):
        # the size-conditioned sampler used to score all 20,480 attempts (a
        # 406 MB traced peak) before its RejectionCapError; the others grew
        # up to max_vertices, and gw_tree here drew a generation of
        # 64,902,096 vertices at the full cap before a MemoryError
        monkeypatch.setattr(generate, "HARD_VERTEX_CAP", hard_cap)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=r"\bcap\b"):  # not RejectionCapError
                build()
            assert tracemalloc.get_traced_memory()[1] < 1_000_000
        finally:
            tracemalloc.stop()

    def test_family_member_skips_the_label_shuffle(self, monkeypatch):
        # sweeps and the CLI keep the tree alone; they used to shuffle labels
        # and drop them
        dist = OD.geometric(0.5)
        expected = [T.gw_conditioned_size(dist, 30, seed)[0].parent.tolist() for seed in range(5)]
        monkeypatch.setattr(SplitMix64, "shuffle", lambda self, items: pytest.fail("shuffled"))
        assert [criteria._build_family_member("gw_size", 30, seed, dist).parent.tolist()
                for seed in range(5)] == expected

    def test_conditioned_size_rejection_cap(self):
        # every draft with point mass 2 blows past 9 vertices
        with pytest.raises(RejectionCapError) as info:
            T.gw_conditioned_size(OD.table([0, 0, 1]), 9, seed=0, max_attempts=40)
        assert info.value.attempts == 40

    def test_survival_truncated_rejection_cap(self):
        dist = OD.geometric(0.4)
        with pytest.raises(RejectionCapError, match="generation 30 in 1 attempts") as info:
            T.gw_survival_truncated(dist, 30, seed=1, max_attempts=1)
        assert info.value.attempts == 1
        assert info.value.acceptance_estimate == 1.0 - dist.extinction_probability()

    def test_kesten_point_mass_one_is_segment(self):
        t = T.kesten_tree(OD.table([0, 1]), 5, seed=0)
        assert t.parent.tolist() == [-1, 0, 1, 2, 3, 4]

    def test_kesten_spine_reaches_depth_n(self):
        for seed in range(5):
            t = T.kesten_tree(OD.geometric(0.5), 12, seed=seed)
            assert t.height == 12

    def test_kesten_negative_depth_rejected(self):
        with pytest.raises(ValidationError, match="depth"):
            T.kesten_tree(OD.geometric(0.5), -2, seed=1)

    def test_kesten_determinism_and_criticality(self):
        a = T.kesten_tree(OD.geometric(0.5), 10, seed=5)
        b = T.kesten_tree(OD.geometric(0.5), 10, seed=5)
        assert T.to_text(a) == T.to_text(b)
        with pytest.raises(ValidationError):
            T.kesten_tree(OD.geometric(0.4), 5, seed=0)  # mean 1.5


class _Replay(SplitMix64):
    """A generator whose ``random()`` returns the given values in turn, so
    the scalar samplers can be run on chosen uniforms."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


def scalar_counts(dist, u):
    rng = _Replay(u.tolist())
    return [scalar_offspring(dist, rng) for _ in range(u.size)]


def _ulps_around(x, k=2):
    out = [x]
    lo = hi = x
    for _ in range(k):
        lo, hi = np.nextafter(lo, -1.0), np.nextafter(hi, 2.0)
        out += [lo, hi]
    return out


def _law_id(value):
    return f"{value.kind}{list(value.params)}" if isinstance(value, OD) else str(value)


_U_MAX = 1.0 - 2.0**-53  # the largest uniform the stream can produce


class TestOffspringCounts:
    """``OffspringDistribution.counts`` against the scalar samplers."""

    @pytest.mark.parametrize("dist", [OD.geometric(0.5), OD.poisson(1.0),
                                      OD.table([0.25, 0.5, 0.25])], ids=_law_id)
    def test_million_draws_match_the_scalar_sampler(self, dist):
        u = SplitMix64(0xD1CE).random_array(10**6)
        assert dist.counts(u, 10**9).tolist() == scalar_counts(dist, u)

    @pytest.mark.parametrize("dist", [
        OD.geometric(0.1), OD.geometric(0.3), OD.geometric(0.5), OD.geometric(0.7),
        OD.geometric(1.0), OD.poisson(0.0), OD.poisson(0.9), OD.poisson(1.0),
        OD.poisson(30.0), OD.table([0.5, 0, 0.5]), OD.table([0.25, 0.5, 0.25]),
        OD.table([0.2, 0.3, 0.5]), OD.table([0.1] * 10)], ids=_law_id)
    def test_count_boundaries(self, dist):
        # u at and next to every place where the count changes
        if dist.kind == "geometric":
            q = 1.0 - dist.params[0]
            edges = [1.0 - q**j for j in range(80)]
        else:
            edges = dist._cumulative.tolist()
        u = [0.0, _U_MAX] + [x for e in edges for x in _ulps_around(e)]
        u = np.array([x for x in u if 0.0 <= x <= _U_MAX])
        assert dist.counts(u, 10**9).tolist() == scalar_counts(dist, u)

    def test_geometric_guard_band(self):
        # u = 0.271, two ulps above 1 - 0.9**3, puts the ratio within 1e-15
        # of 3; np.log1p and math.log1p may differ there in the last ulp, and
        # where they do (AVX-512 numpy builds) the unguarded floor is 3, the
        # scalar count 2
        dist, u = OD.geometric(0.1), 0.271
        ratio = np.log1p(-u) / np.log1p(-0.1)
        assert abs(ratio - 3.0) <= 1e-9 * 3.0
        u = np.array([u])
        assert dist.counts(u, 100).tolist() == scalar_counts(dist, u) == [2]

    def test_counts_clipped_before_the_integer_cast(self):
        dist = OD.geometric(1e-150)
        u = np.array([0.0, 0.5, _U_MAX])
        assert scalar_counts(dist, u)[1] > 2**63
        assert dist.counts(u, 7).tolist() == [0, 7, 7]
        assert OD.poisson(30.0).counts(np.array([0.5, _U_MAX]), 3).tolist() == [3, 3]

    @pytest.mark.parametrize("cap", [2.5, 2.0, True, "3", -1])
    def test_cap_must_be_an_integer(self, cap):
        # 2.5 used to clip to 2, True to 1
        with pytest.raises(ValidationError, match="^cap "):
            OD.geometric(0.1).counts(np.array([0.9]), cap)

    def test_poisson_break(self):
        # the running sum of poisson(1.3) stops below the largest uniform, so
        # the scalar inversion runs 10^7 steps into its break
        dist, u = OD.poisson(1.3), np.array([_U_MAX])
        assert dist._cumulative[-1] < _U_MAX
        assert dist.counts(u, 2**40).tolist() == scalar_counts(dist, u) == [10_000_001]


_ORACLE_ATTEMPTS = 1100  # one full block of attempts and part of a second
_SIZE_LAWS = [OD.geometric(0.3), OD.geometric(0.5), OD.geometric(0.7), OD.geometric(1.0),
              OD.poisson(0.9), OD.poisson(1.0), OD.table([0.5, 0, 0.5]),
              OD.table([0.25, 0.5, 0.25])]


class TestSamplersAgainstLoop:
    """The array samplers give the trees, labels and errors of the
    breadth-first loop with one scalar draw per vertex (``tests/util.py``)."""

    @pytest.mark.parametrize("dist", _SIZE_LAWS, ids=_law_id)
    def test_conditioned_size(self, dist):
        latest = -1
        for seed in range(30):
            found = loop_conditioned_sizes(dist, 60, seed, _ORACLE_ATTEMPTS)
            for n in range(1, 61):
                if n not in found:
                    with pytest.raises(RejectionCapError) as info:
                        T.gw_conditioned_size(dist, n, seed, max_attempts=_ORACLE_ATTEMPTS)
                    assert info.value.attempts == _ORACLE_ATTEMPTS
                    continue
                attempt, parent, labels = found[n]
                latest = max(latest, attempt)
                tree, got = T.gw_conditioned_size(dist, n, seed,
                                                  max_attempts=_ORACLE_ATTEMPTS)
                assert tree.parent.tolist() == parent, (n, seed)
                assert got.tolist() == labels, (n, seed)
                if seed % 10 == 0:
                    rerooted, _ = T.gw_conditioned_size(
                        dist, n, seed, max_attempts=_ORACLE_ATTEMPTS,
                        reroot_at_label_one=True)
                    assert rerooted.parent.tolist() == brute_reroot_parent(
                        tree, labels.index(1))
        if dist.mean > 0:
            assert latest >= generate._BLOCK  # an accepted attempt in the second block

    @pytest.mark.parametrize("cap", [1, 40, 1027])
    def test_rejection_cap_counts_every_attempt(self, cap):
        with pytest.raises(RejectionCapError) as info:
            T.gw_conditioned_size(OD.table([0, 0, 1]), 10, seed=0, max_attempts=cap)
        assert info.value.attempts == cap
        assert str(info.value) == f"no tree of size exactly 10 in {cap} attempts"

    def test_cap_ends_just_before_the_accepted_attempt(self):
        dist = OD.geometric(0.5)
        attempt = loop_conditioned_sizes(dist, 60, 3, 5000)[60][0]
        assert attempt > generate._BLOCK
        with pytest.raises(RejectionCapError):
            T.gw_conditioned_size(dist, 60, 3, max_attempts=attempt)
        T.gw_conditioned_size(dist, 60, 3, max_attempts=attempt + 1)

    @pytest.mark.parametrize("dist", [OD.geometric(0.4), OD.geometric(0.5), OD.poisson(1.3),
                                      OD.table([0.25, 0.5, 0.25]), OD.table([0, 0, 1])],
                             ids=_law_id)
    def test_gw_tree(self, dist):
        for seed in range(40):
            for max_gen in (0, 1, 5, 9):
                assert T.gw_tree(dist, max_gen, seed).parent.tolist() == \
                    loop_gw_tree(dist, max_gen, seed), (seed, max_gen)

    def test_gw_tree_vertex_cap(self):
        dist = OD.geometric(0.4)
        for seed in range(40):
            for cap in (0, 1, 2, 30, 200):
                try:
                    expected = loop_gw_tree(dist, 12, seed, max_vertices=cap)
                except ResourceLimitError as exc:
                    with pytest.raises(ResourceLimitError, match=str(exc)):
                        T.gw_tree(dist, 12, seed, max_vertices=cap)
                else:
                    tree = T.gw_tree(dist, 12, seed, max_vertices=cap)
                    assert tree.parent.tolist() == expected

    @pytest.mark.parametrize("dist,n", [(OD.poisson(1.3), 6), (OD.geometric(0.4), 8),
                                        (OD.table([0.2, 0.3, 0.5]), 5)], ids=_law_id)
    def test_gw_survival_truncated(self, dist, n):
        for seed in range(30):
            assert T.gw_survival_truncated(dist, n, seed).parent.tolist() == \
                loop_gw_survival_truncated(dist, n, seed), seed

    @pytest.mark.parametrize("dist,n", [(OD.geometric(0.5), 12), (OD.poisson(1.0), 10),
                                        (OD.table([0.25, 0.5, 0.25]), 9),
                                        (OD.geometric(0.7), 6)], ids=_law_id)
    def test_kesten_tree(self, dist, n):
        for seed in range(30):
            assert T.kesten_tree(dist, n, seed).parent.tolist() == \
                loop_kesten_tree(dist, n, seed), seed

    @pytest.mark.parametrize("dist,n", [(OD.table([0, 1]), 10), (OD.table([0.5, 0, 0.5]), 3)],
                             ids=_law_id)
    def test_kesten_spine_children_count_toward_the_cap(self, dist, n):
        full = T.kesten_tree(dist, n, 0)
        for cap in (1, full.n - 1):
            for build in (T.kesten_tree, loop_kesten_tree):
                with pytest.raises(ResourceLimitError, match=f"vertex cap {cap}$"):
                    build(dist, n, 0, max_vertices=cap)
        tree = T.kesten_tree(dist, n, 0, max_vertices=full.n)
        assert tree.parent.tolist() == full.parent.tolist() == \
            loop_kesten_tree(dist, n, 0, max_vertices=full.n)

    def test_kesten_vertex_cap(self):
        dist = OD.geometric(0.5)
        for seed in range(30):
            for cap in (1, 5, 20, 60):
                try:
                    expected = loop_kesten_tree(dist, 10, seed, max_vertices=cap)
                except ResourceLimitError as exc:
                    with pytest.raises(ResourceLimitError, match=str(exc)):
                        T.kesten_tree(dist, 10, seed, max_vertices=cap)
                else:
                    tree = T.kesten_tree(dist, 10, seed, max_vertices=cap)
                    assert tree.parent.tolist() == expected


def _conditioned_or_attempts(dist, n, seed):
    """Parents and labels ``gw_conditioned_size`` gives, or the attempts its
    ``RejectionCapError`` counts."""
    try:
        tree, labels = T.gw_conditioned_size(dist, n, seed, max_attempts=_ORACLE_ATTEMPTS)
    except RejectionCapError as exc:
        return exc.attempts
    return tree.parent.tolist(), labels.tolist()


class TestScoringPasses:
    """How ``_first_accepted`` cuts attempts into blocks and draws into
    passes moves no tree, label or attempt count."""

    @pytest.mark.parametrize("dist", _SIZE_LAWS, ids=_law_id)
    def test_block_and_pass_sizes_change_no_sample(self, dist, monkeypatch):
        cases = [(n, seed) for n in (1, 2, 17, 60) for seed in range(3)]
        expected = [_conditioned_or_attempts(dist, n, seed) for n, seed in cases]
        for name, value in [("_BLOCK", 7), ("_BLOCK", 1000), ("_FIRST_DRAWS", 1),
                            ("_FIRST_DRAWS", 3), ("_PASS_DRAWS", 64)]:
            with monkeypatch.context() as patched:
                patched.setattr(generate, name, value)
                assert [_conditioned_or_attempts(dist, n, seed)
                        for n, seed in cases] == expected, (name, value)

    def test_no_pass_takes_more_draws_than_the_budget(self, monkeypatch):
        # without the budget, one pass at each of these seeds took 1,427,160 draws
        taken, counts = [], OD.counts

        def spy(self, u, cap):
            taken.append(u.size)
            return counts(self, u, cap)

        monkeypatch.setattr(OD, "counts", spy)
        for seed in (10, 16, 20):
            with pytest.raises(RejectionCapError):
                T.gw_conditioned_size(OD.geometric(0.5), 10**6, seed, max_attempts=2048)
        assert generate._PASS_DRAWS // 2 < max(taken) <= generate._PASS_DRAWS


class TestContour:
    def test_single_vertex(self):
        c = T.contour(T.from_parents(1, [-1]), [1])
        assert c.steps.tolist() == [0]

    def test_two_vertices(self):
        c = T.contour(T.segment(1), [1, 2])
        assert c.steps.tolist() == [0, 1, 0]
        assert c.depths.tolist() == [0, 1, 0]

    def test_fig_tree_domain(self):
        t = T.from_parents(14, [-1, 0, 0, 0, 0, 1, 2, 3, 4, 5, 5, 5, 11, 7])
        c = T.contour(t, list(range(1, 15)))
        assert len(c.steps) == 27

    def test_label_order_priority(self):
        # two children; the smaller label is visited first
        t = T.from_parents(3, [-1, 0, 0])
        c1 = T.contour(t, [1, 2, 3])
        c2 = T.contour(t, [1, 3, 2])
        assert c1.steps.tolist() == [0, 1, 0, 2, 0]
        assert c2.steps.tolist() == [0, 2, 0, 1, 0]

    def test_labels_validated(self):
        for labels in ([1, 1], [0, 1], [1, 2, 3], [[1, 2]]):
            with pytest.raises(ValidationError):
                T.contour(T.segment(1), labels)

    def test_matches_loop_contour_on_suite(self, random_suite):
        for i, t in enumerate(random_suite):
            labels = list(range(1, t.n + 1))
            SplitMix64(i).shuffle(labels)
            c = T.contour(t, labels)
            assert (c.steps.tolist(), c.depths.tolist()) == loop_contour(t, labels)

    def test_matches_loop_contour_on_labelled_fixture(self):
        t = T.from_text((FIXTURES / "gw_size_geom_p05_n30_seed9.txt").read_text())
        labels = [int(x) for x in
                  (FIXTURES / "gw_size_geom_p05_n30_seed9.labels.txt").read_text().split()]
        # as sampled, and re-rooted at the vertex labelled 1
        for tree in (t, T.reroot(t, labels.index(1))):
            c = T.contour(tree, labels)
            assert (c.steps.tolist(), c.depths.tolist()) == loop_contour(tree, labels)

    @given(n=st.integers(1, 30), seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_contour_invariants(self, n, seed):
        t = random_tree(n, seed)
        labels = list(range(1, n + 1))
        SplitMix64(seed).shuffle(labels)
        c = T.contour(t, labels)
        assert len(c.steps) == 2 * n - 1
        assert c.steps[0] == t.root and c.steps[-1] == t.root
        diffs = np.diff(c.depths)
        assert set(np.abs(diffs).tolist()) <= {1}
        assert (diffs == 1).sum() == n - 1 and (diffs == -1).sum() == n - 1
        # each edge is crossed exactly twice
        crossings = {}
        for a, b in zip(c.steps, c.steps[1:]):
            e = (min(a, b), max(a, b))
            crossings[e] = crossings.get(e, 0) + 1
        assert all(v == 2 for v in crossings.values())
        assert len(crossings) == n - 1

    def test_normalized_single_vertex(self):
        c = T.contour(T.from_parents(1, [-1]), [1])
        table = T.normalized_contour(c, 2.0)
        assert np.all(table[:, 1] == 0.0)

    def test_normalized_segment_peak(self):
        n_edges = 9
        t = T.segment(n_edges)
        c = T.contour(t, list(range(1, n_edges + 2)))
        table = T.normalized_contour(c, 1.0)
        sites = n_edges + 1
        assert table[:, 1].max() == pytest.approx(sites**-0.5 * n_edges)
        assert table[0, 1] == 0.0 and table[-1, 1] == 0.0

    def test_normalized_scaling_linear(self):
        t = random_tree(12, seed=2)
        c = T.contour(t, list(range(1, 13)))
        one = T.normalized_contour(c, 1.0)
        two = T.normalized_contour(c, 2.0)
        assert np.allclose(two[:, 1], 2 * one[:, 1])

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), 0.0, -1.0])
    def test_normalization_constant_must_be_positive(self, c):
        # nan and inf used to give a table holding nan
        cont = T.contour(T.segment(3), [1, 2, 3, 4])
        with pytest.raises(ValidationError, match="normalization constant"):
            T.normalized_contour(cont, c)
