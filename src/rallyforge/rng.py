"""Portable deterministic random number generation.

The simulator promises bitwise-identical output for a given seed across
platforms and Python versions, so it cannot depend on ``random`` or numpy
generator internals. SplitMix64 is small enough to carry along, passes BigCrush,
and has published reference outputs to pin the implementation against.

The k-th output after a state is ``_mix(state + k * _GOLDEN mod 2**64)``, so
the bulk draws (``next_u64_many``, ``uniform_many``, ``normal_many``) compute
a whole run of outputs with wrapping ``np.uint64`` arithmetic. They are
bit-identical to the same number of scalar calls and leave the generator in
the same state, so a caller may mix the two freely. Transcendentals stay in
libm: Box-Muller applies ``math.log`` and ``math.cos`` to each draw, because
numpy's vectorized versions are not promised to round like libm; the square
root and the products are exactly rounded IEEE operations either way.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ConfigError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    """The SplitMix64 output finalizer."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def _mix_many(z: np.ndarray) -> np.ndarray:
    """``_mix`` of every element of a uint64 array; the products wrap like ``& _MASK64``."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


_UNIT = 1.0 / (1 << 53)


class SplitMix64:
    """Sebastiano Vigna's SplitMix64 with convenience draws.

    All derived draws (uniform, randint, normal, choice_weighted) are defined
    purely in terms of ``next_u64`` and exact IEEE double arithmetic, so
    sequences are reproducible bit for bit from the seed alone.
    """

    __slots__ = ("_state", "_seed")

    def __init__(self, seed: int):
        if not isinstance(seed, int):
            raise ConfigError(f"seed must be an integer, got {seed!r}")
        self._seed = seed & _MASK64
        self._state = self._seed

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def substream(self, index: int) -> "SplitMix64":
        """An independent generator addressed by (seed, index).

        Children are a function of the parent's seed, not its current state,
        so substream layouts do not shift when extra draws are added upstream.
        """
        if not isinstance(index, int) or index < 0:
            raise ConfigError(f"substream index must be a non-negative integer, got {index!r}")
        return SplitMix64(_mix((self._seed ^ _mix((index + 1) * _GOLDEN & _MASK64)) & _MASK64))

    # ------------------------------------------------------------
    # Derived draws
    # ------------------------------------------------------------

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform double in [low, high) from the top 53 bits."""
        u = (self.next_u64() >> 11) * _UNIT
        return low + (high - low) * u

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high], inclusive, without modulo bias."""
        if high < low:
            raise ConfigError(f"empty integer range [{low}, {high}]")
        n = high - low + 1
        # rejection sampling on the truncated multiple of n
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return low + r % n

    def choice_weighted(self, items: Sequence, weights: Sequence[float]):
        if not items or len(items) != len(weights):
            raise ConfigError("items and weights must be equal-length and non-empty")
        total = 0.0
        for w in weights:
            if not (math.isfinite(w) and w >= 0):
                raise ConfigError(f"weights must be finite and non-negative, got {w!r}")
            total += w
        if total <= 0:
            raise ConfigError("at least one weight must be positive")
        target = self.uniform(0.0, total)
        acc = 0.0
        for item, w in zip(items, weights):
            acc += w
            if target < acc:
                return item
        return items[-1]  # target == total is excluded, but guard rounding

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """One Box-Muller draw (two uniforms consumed per call)."""
        if sigma < 0:
            raise ConfigError(f"sigma must be >= 0, got {sigma!r}")
        # u1 in (0, 1] so the log is always finite
        u1 = ((self.next_u64() >> 11) + 1) * _UNIT
        u2 = (self.next_u64() >> 11) * _UNIT
        return mu + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    # ------------------------------------------------------------
    # Bulk draws: n scalar draws in one array, bit for bit
    # ------------------------------------------------------------

    def next_u64_many(self, n: int) -> np.ndarray:
        """The next ``n`` outputs of ``next_u64`` as a uint64 array."""
        if not isinstance(n, int) or n < 0:
            raise ConfigError(f"draw count must be a non-negative integer, got {n!r}")
        steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        out = _mix_many(steps + np.uint64(self._state))
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return out

    def uniform_many(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """``n`` calls of ``uniform(low, high)`` as a float array."""
        u = (self.next_u64_many(n) >> np.uint64(11)).astype(float) * _UNIT
        return low + (high - low) * u

    def normal_many(self, n: int, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        """``n`` calls of ``normal(mu, sigma)`` as a float array."""
        if sigma < 0:
            raise ConfigError(f"sigma must be >= 0, got {sigma!r}")
        bits = self.next_u64_many(2 * n) >> np.uint64(11)
        u1 = (bits[0::2] + np.uint64(1)).astype(float) * _UNIT
        u2 = bits[1::2].astype(float) * _UNIT
        log_u1 = np.array(list(map(math.log, u1.tolist())), dtype=float)
        cos_u2 = np.array(list(map(math.cos, (2.0 * math.pi * u2).tolist())), dtype=float)
        return mu + sigma * np.sqrt(-2.0 * log_u1) * cos_u2
