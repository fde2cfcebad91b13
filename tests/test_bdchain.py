"""Projection onto birth-and-death chains, eigenfunction lifting."""

import numpy as np
import pytest

import treecut as T
from treecut import bdchain as bd
from treecut.errors import ResourceLimitError, ValidationError

from util import loop_bd_generator

BINARY = [2] + [3] * 20


class TestProject:
    def test_three_state_unit_chain(self):
        ch = bd.project(BINARY, 2)
        assert ch.size == 3
        assert ch.up_rate.tolist() == [1.0, 1.0, 0.0]
        assert ch.down_rate.tolist() == [0.0, 1.0, 1.0]
        assert np.allclose(ch.stationary, 1 / 3)

    def test_detailed_balance(self):
        for n in range(2, 9):
            ch = bd.project(BINARY, n)
            pi = ch.stationary
            for i in range(ch.size - 1):
                lhs = pi[i] * ch.up_rate[i]
                rhs = pi[i + 1] * ch.down_rate[i + 1]
                assert abs(lhs - rhs) < 1e-12
            assert abs(pi.sum() - 1.0) < 1e-12

    def test_rates_palindromic(self):
        ch = bd.project([3, 4, 4, 4, 4], 4)  # ternary tree
        size = ch.size
        for i in range(size - 1):
            assert ch.up_rate[i] == ch.down_rate[size - 1 - i]

    def test_rates_and_generator_match_state_loop(self):
        # per-state loops over the rate rule: 1 toward the center, deg - 1
        # away; the stationary law is the generator's left null vector
        for degrees, n in (([2, 3], 2), ([3, 4, 4, 4, 4], 4), ([1, 1, 3, 5, 2, 7], 6),
                           ([5, 2, 7, 3, 3, 3], 7)):
            ch = bd.project(degrees, n)
            up, down, G = loop_bd_generator(ch)
            assert ch.up_rate.tolist() == up.tolist()
            assert ch.down_rate.tolist() == down.tolist()
            assert np.abs(ch.stationary @ G).max() < 1e-12

    def test_small_n_rejected(self):
        with pytest.raises(ValidationError):
            bd.project(BINARY, 1)

    def test_short_degree_sequence_rejected(self):
        with pytest.raises(ValidationError):
            bd.project([2, 3], 5)

    def test_stripping_reported(self):
        # unary stretch of two levels before the first branching vertex
        ch = bd.project([1, 2, 3, 3, 3, 3], 6)
        assert ch.stripped == 2
        assert ch.degrees[0] == 2
        assert ch.half == 4

    def test_bare_segment_rejected(self):
        with pytest.raises(ValidationError):
            bd.project([1, 2, 2, 2], 4)


class TestBDSpectrum:
    def test_full_chain_gap_vector_is_the_mirrored_half_chain_one(self):
        # why bd_spectrum solves the lower half only: on seeded random chains
        # the whole chain's gap eigenvector is antisymmetric, its eigenvalue
        # is the half chain's gap, and it is bd_spectrum's eigenfunction up
        # to sign and scale
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(200):
            half = int(rng.integers(2, 16))
            ch = bd.project(rng.integers(2, 8, size=half - 1).tolist(), half)
            sqrt_pi = np.sqrt(ch.stationary)
            S = -loop_bd_generator(ch)[2] * sqrt_pi[:, None] / sqrt_pi[None, :]
            vals, vecs = np.linalg.eigh(0.5 * (S + S.T))
            if vals[1] < 1e-6:
                continue
            checked += 1
            f = vecs[:, 1] / sqrt_pi
            f *= np.sign(f[0]) / np.abs(f).max()
            assert np.abs(f + f[::-1]).max() <= 1e-6
            sp = bd.bd_spectrum(ch)
            assert sp.gap == pytest.approx(vals[1], rel=1e-8)
            assert np.abs(sp.eigenfunction - f).max() <= 1e-6
        assert checked > 100

    @pytest.mark.parametrize("degrees, n", [([2] + [6] * 25, 25), ([2] + [11] * 20, 20),
                                            ([2] + [3] * 1100, 1100)],
                             ids=["gap-below-roundoff", "gap-past-cs-bound", "weight-underflow"])
    def test_unresolved_chains_refused(self, degrees, n):
        # these returned a gap of -5.8e-17, a gap of 3.5e-15 whose inverse is
        # below cs_lower_bound, and a NaN gap with an infinite cs_lower_bound
        with pytest.raises(ResourceLimitError):
            bd.bd_spectrum(bd.project(degrees, n))

    def test_three_state_by_hand(self):
        sp = bd.bd_spectrum(bd.project(BINARY, 2))
        assert sp.gap == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(sp.eigenfunction, [1.0, 0.0, -1.0])

    def test_center_always_zero_and_antisymmetric(self):
        for n in range(2, 11):
            ch = bd.project(BINARY, n)
            f = bd.bd_spectrum(ch).eigenfunction
            assert f[ch.half - 1] == 0.0
            assert np.abs(f + f[::-1]).max() < 1e-9

    def test_gap_matches_dense_generator_oracle(self):
        ch = bd.project(BINARY, 5)  # 9 states
        vals = np.sort(np.linalg.eigvals(-loop_bd_generator(ch)[2]).real)
        assert bd.bd_spectrum(ch).gap == pytest.approx(vals[1], rel=1e-10)


class TestLift:
    def test_binary_depth_one(self):
        ch = bd.project(BINARY, 2)
        sp = bd.bd_spectrum(ch)
        tree = T.spherically_symmetric(ch.degrees)
        res = bd.lift(tree, ch, sp.eigenfunction)
        assert res.residual < 1e-8

    def test_support_confined_to_marked_subtrees(self):
        ch = bd.project(BINARY, 4)
        sp = bd.bd_spectrum(ch)
        tree = T.spherically_symmetric(ch.degrees)
        res = bd.lift(tree, ch, sp.eigenfunction)
        x1, x2 = tree.children(tree.root)[:2]
        marked = set()
        for anchor in (int(x1), int(x2)):
            stack = [anchor]
            while stack:
                v = stack.pop()
                marked.add(v)
                stack.extend(int(c) for c in tree.children(v))
        outside = [v for v in range(tree.n) if v not in marked]
        assert np.all(res.values[outside] == 0.0)
        assert np.abs(res.values).max() > 0

    def test_chain_gap_bounds_tree_relaxation(self):
        for n in range(3, 9):
            ch = bd.project(BINARY, n + 1)  # leaves at tree depth n
            sp = bd.bd_spectrum(ch)
            tree = T.spherically_symmetric(ch.degrees)
            assert bd.lift(tree, ch, sp.eigenfunction).residual < 1e-8
            assert T.spectrum(tree).t_rel >= 1.0 / sp.gap - 1e-8

    def test_residual_matches_dense_laplacian(self):
        # any chain function lifts; its residual is the sup-norm of
        # gap * F - Q F, here against the dense Laplacian
        for n in (3, 5):
            ch = bd.project(BINARY, n)
            tree = T.spherically_symmetric(ch.degrees)
            res = bd.lift(tree, ch, np.sin(np.arange(ch.size, dtype=float)))
            want = np.abs(bd.bd_spectrum(ch).gap * res.values
                          - T.laplacian(tree) @ res.values).max()
            assert want > 0.1
            assert res.residual == pytest.approx(want, rel=1e-12)

    def test_degree_mismatch_rejected(self):
        ch = bd.project(BINARY, 3)
        tree = T.spherically_symmetric([3, 3])  # wrong root degree
        with pytest.raises(ValidationError):
            bd.lift(tree, ch, bd.bd_spectrum(ch).eigenfunction)


class TestCSLowerBound:
    def test_three_state_value(self):
        ch = bd.project(BINARY, 2)
        expect = (1 / ch.stationary[:2]).sum() / 48
        assert bd.cs_lower_bound(ch, 3) == pytest.approx(expect)

    def test_uniform_stationary_algebra(self):
        # unary tree below a 2-child root projects to a unit-rate chain
        n = 6
        ch = bd.project([2] + [2] * (n - 2), n)
        assert np.allclose(ch.stationary, 1 / ch.size)
        expect = n * (2 * n - 1) / (16 * 2)
        assert bd.cs_lower_bound(ch, 2) == pytest.approx(expect)

    def test_below_inverse_gap(self):
        for n in range(2, len(BINARY) + 2):  # half 2..22, all resolved
            ch = bd.project(BINARY, n)
            gap = bd.bd_spectrum(ch).gap
            assert bd.cs_lower_bound(ch, 3) <= 1.0 / gap + 1e-12


def test_no_cutoff_band_small():
    # mixing-to-relaxation stays in a narrow band over growing depth
    ratios = []
    for depth in range(4, 9):
        tree = T.spherically_symmetric([2] + [3] * (depth - 1))
        ratios.append(T.mixing_time(tree, 1 / 8).t_mix * T.spectrum(tree).gap)
    assert max(ratios) / min(ratios) < 3.0
