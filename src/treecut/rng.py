"""Deterministic random number generation for the tree samplers.

Every random construction in :mod:`treecut.generate` is a pure function of
``(parameters, seed)``.  To make that contract portable and auditable the
package uses SplitMix64, a tiny 64-bit generator with a published reference
implementation, rather than an opaque library stream.  Reference outputs are
frozen in the test fixtures.

Streams are derived, never shared: :func:`derive_seed` hashes a base seed
with integer keys, so concurrent workers can draw from disjoint,
reproducible streams (``derive_seed(seed, size, rep)`` and similar).

Draw j of the stream seeded with s is ``mix64(s + j * golden)``, a pure
function of (s, j), so draws are taken as arrays as well as one at a time:
:func:`uniforms` gives any range of draws of many streams at once,
:func:`derive_seeds` the seeds of many keys, and
:meth:`SplitMix64.random_array` the next draws of one generator.  Each is
bit-identical to the scalar calls.
:meth:`treecut.generate.OffspringDistribution.counts` inverts whole arrays
of uniforms to offspring counts: a geometric count by ``log1p``, a Poisson
or finite-table count by search in running sums.
"""

from __future__ import annotations

import numpy as np

from .errors import _check_count

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit value."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def mix64_array(z: np.ndarray) -> np.ndarray:
    """``mix64`` of every entry of a uint64 array (mod 2**64), in place on one copy."""
    z, shifted = np.array(z, dtype=np.uint64), np.empty(np.shape(z), dtype=np.uint64)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= np.right_shift(z, np.uint64(shift), out=shifted)
        z *= np.uint64(factor)
    return np.bitwise_xor(z, np.right_shift(z, np.uint64(31), out=shifted), out=z)


def uniforms(states: np.ndarray, first: int, count: int) -> np.ndarray:
    """Draws ``first .. first+count-1`` of ``random`` for each stream state.

    ``states`` is a uint64 array; row i holds what ``SplitMix64(states[i])``
    returns on its calls number ``first`` to ``first + count - 1`` (the
    first call is 1), bit for bit, as float64; the transpose is C-ordered.
    """
    steps = np.arange(first, first + count, dtype=np.uint64) * np.uint64(_GOLDEN)
    z = mix64_array(steps[:, None] + states)
    return (np.right_shift(z, np.uint64(11), out=z).view(np.int64) * 2.0**-53).T


def derive_seed(seed: int, *keys: int) -> int:
    """Derive a child seed from ``seed`` and a tuple of integer keys.

    Deterministic, order-sensitive, and independent of any generator state,
    so parallel callers can pre-compute their streams.
    """
    state = mix64(seed ^ _GOLDEN)
    for k in keys:
        state = mix64(state ^ mix64((k + 1) * _GOLDEN))
    return state


def derive_seeds(seed: int, start: int, stop: int) -> np.ndarray:
    """``derive_seed(seed, k)`` for ``k = start .. stop-1``, as uint64."""
    keys = np.arange(start + 1, stop + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    return mix64_array(np.uint64(mix64(seed ^ _GOLDEN)) ^ mix64_array(keys))


class SplitMix64:
    """The SplitMix64 sequence for a given seed.

    ``next_u64`` advances the state by the golden-ratio increment and
    returns the finalized output, matching the reference implementation.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return mix64(self._state)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def random_array(self, count: int) -> np.ndarray:
        """``count`` calls of ``random`` at once, bit for bit, as float64.

        The generator ends in the state ``count`` scalar draws would leave.
        """
        draws = self.peek_array(count)
        self.skip(count)
        return draws

    def peek_array(self, count: int) -> np.ndarray:
        """What ``random_array(count)`` would return, without advancing."""
        return uniforms(np.array([self._state], dtype=np.uint64), 1, count)[0]

    def skip(self, count: int) -> None:
        """Advance past ``count`` draws without computing them."""
        self._state = (self._state + count * _GOLDEN) & _MASK

    def below(self, bound: int) -> int:
        """Uniform-ish integer in [0, bound) via a modulo draw.

        The modulo bias is below 2**-50 for every bound used here; taking
        the simple draw keeps the stream layout easy to reproduce.
        """
        bound = _check_count(bound, "bound", 1)
        return self.next_u64() % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by ``below``: item i, from the top
        down, swaps with item ``next_u64() % (i + 1)``; the words are drawn as one array."""
        top = np.arange(len(items) - 1, 0, -1, dtype=np.uint64)
        words = mix64_array(np.uint64(self._state) + top[::-1] * np.uint64(_GOLDEN))
        for i, j in zip(top.tolist(), (words % (top + np.uint64(1))).tolist()):
            items[i], items[j] = items[j], items[i]
        self.skip(top.size)
