"""The SplitMix64 stream and the derived-seed scheme."""

import math

import numpy as np
import pytest

from treecut.errors import ValidationError
from treecut.rng import SplitMix64, derive_seed, derive_seeds, mix64, uniforms

from util import scalar_geometric, scalar_poisson, scalar_table

# Published reference outputs of the SplitMix64 sequence for seed 0.
SEED0_REFERENCE = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]


def test_reference_stream_seed0():
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(5)] == SEED0_REFERENCE


def test_mix64_is_a_bijection_probe():
    outs = {mix64(x) for x in range(1000)}
    assert len(outs) == 1000


def test_random_unit_interval():
    g = SplitMix64(123)
    vals = [g.random() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert abs(sum(vals) / len(vals) - 0.5) < 0.02


@pytest.mark.parametrize("seed", [0, 1, 0x5EED, 2**63 + 12345, 2**64 - 1])
@pytest.mark.parametrize("count", [0, 1, 10_000])
def test_random_array_is_the_scalar_stream(seed, count):
    vec, scalar = SplitMix64(seed), SplitMix64(seed)
    draws = vec.random_array(count)
    expected = np.array([scalar.random() for _ in range(count)], dtype=np.float64)
    assert draws.dtype == np.float64 and draws.shape == (count,)
    assert draws.tobytes() == expected.tobytes()
    # both generators continue from the same state
    assert [vec.next_u64() for _ in range(3)] == [scalar.next_u64() for _ in range(3)]


def test_derive_seed_order_sensitive_and_stable():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(1) != derive_seed(2)


def test_below_range_and_shuffle_permutes():
    g = SplitMix64(9)
    assert all(0 <= g.below(7) < 7 for _ in range(200))
    items = list(range(50))
    g.shuffle(items)
    assert sorted(items) == list(range(50))
    assert items != list(range(50))


@pytest.mark.parametrize("seed", [0, 9, 2**64 - 1])
@pytest.mark.parametrize("n", [0, 1, 2, 30, 60, 1000])
def test_shuffle_is_fisher_yates_over_next_u64(seed, n):
    # the words are drawn as one array; the swaps and the end state are
    # those of one next_u64 per item, from the top down
    vec, scalar = SplitMix64(seed), SplitMix64(seed)
    items, expected = list(range(n)), list(range(n))
    vec.shuffle(items)
    for i in range(n - 1, 0, -1):
        j = scalar.next_u64() % (i + 1)
        expected[i], expected[j] = expected[j], expected[i]
    assert items == expected
    assert vec.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("bound", [2.5, 2.0, True, "3", 0, -1])
def test_below_bound_must_be_a_positive_integer(bound):
    # 2.5 used to give 1.0, 2.0 gave 0.0 and True gave 0
    g = SplitMix64(9)
    with pytest.raises(ValidationError, match="^bound "):
        g.below(bound)
    assert g.next_u64() == SplitMix64(9).next_u64()  # a refused call draws nothing


def test_below_numpy_bound_is_the_int_bound():
    # np.int64(3) used to raise OverflowError: a Python-int draw % an int64
    draws = [SplitMix64(seed).below(np.int64(3)) for seed in range(50)]
    assert draws == [SplitMix64(seed).below(3) for seed in range(50)]
    assert {type(d) for d in draws} == {int}


def test_geometric_mean():
    g = SplitMix64(5)
    draws = [scalar_geometric(g, 0.4) for _ in range(20000)]
    assert abs(sum(draws) / len(draws) - 1.5) < 0.05


def test_poisson_mean():
    g = SplitMix64(6)
    draws = [scalar_poisson(g, 2.5) for _ in range(20000)]
    assert abs(sum(draws) / len(draws) - 2.5) < 0.06


def test_table_sampler_frequencies():
    g = SplitMix64(7)
    probs = [0.2, 0.3, 0.5]
    counts = [0, 0, 0]
    for _ in range(30000):
        counts[scalar_table(g, probs)] += 1
    for c, p in zip(counts, probs):
        assert math.isclose(c / 30000, p, abs_tol=0.02)


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, -3])
def test_derive_seeds_is_derive_seed(seed):
    for start, stop in ((0, 0), (0, 5), (1020, 1030), (2**40, 2**40 + 3)):
        seeds = derive_seeds(seed, start, stop)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [derive_seed(seed, k) for k in range(start, stop)]


def test_uniforms_are_the_scalar_streams():
    states = np.array([0, 1, 2**63 + 5, 2**64 - 1], dtype=np.uint64)
    for first, count in ((1, 40), (9, 16), (1, 0)):
        rows = uniforms(states, first, count)
        assert rows.shape == (states.size, count)
        for s, row in zip(states.tolist(), rows):
            g = SplitMix64(s)
            draws = [g.random() for _ in range(first + count - 1)][first - 1:]
            assert row.tobytes() == np.array(draws, dtype=np.float64).tobytes()


def test_peek_and_skip_follow_the_stream():
    g, scalar = SplitMix64(11), SplitMix64(11)
    ahead = g.peek_array(6)
    assert ahead.tobytes() == g.random_array(6).tobytes()
    g.skip(3)
    expected = [scalar.random() for _ in range(10)]
    assert ahead.tolist() == expected[:6]
    assert g.random() == expected[9]
