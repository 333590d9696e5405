"""Seedable, portable pseudorandom generator (splitmix64, pinned).

All stochastic experiments in the package draw from this generator so
that trajectories are bit-identical across platforms and releases.
The update and finaliser constants are the reference splitmix64 ones;
any change would be a format break and must bump RNG_VERSION.

splitmix64 is counter-based: draw k (from 0) of `SplitMix64(s)` is
`mix64(s + (k + 1) * GOLDEN)` mod 2**64, so a whole block of draws is one
numpy uint64 pass (`uniform_block`) with the same bits as the scalar
`uniform()` loop. Block and scalar draws are one stream: `uniforms(n)`
advances the state by n steps and scalar draws continue after it. The
block path does not change the stream, so RNG_VERSION is unchanged.
"""
from __future__ import annotations

import numpy as np

RNG_VERSION = "splitmix64-v1"

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def mix64(x: int) -> int:
    """splitmix64 finaliser; also used to derive independent child seeds."""
    z = x & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _mix64(z: np.ndarray) -> np.ndarray:
    """mix64 of a uint64 array, in place; array products wrap mod 2**64
    without an overflow warning."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def _draw_block(seeds, n: int) -> np.ndarray:
    """(len(seeds), n) uint64 draws: row i is the first n of SplitMix64(seeds[i])."""
    s = np.asarray(seeds, dtype=np.uint64).reshape(-1, 1)
    steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    return _mix64(s + steps)


def derive_seed(seed: int, index: int) -> int:
    """Deterministic child seed for stream `index` (parallel trials)."""
    return mix64(mix64(seed) + (index + 1) * _GOLDEN)


def derive_seeds(seed: int, count: int) -> np.ndarray:
    """uint64 array of `derive_seed(seed, t)` for t in range(count)."""
    return _draw_block([mix64(seed)], count)[0]


def uniform_block(seeds, n: int) -> np.ndarray:
    """(len(seeds), n) floats in [0, 1); row i equals n `uniform()` calls of
    a fresh SplitMix64(seeds[i]). Seeds must lie in [0, 2**64)."""
    z = _draw_block(seeds, n)
    z >>= np.uint64(11)
    out = z.astype(np.float64)
    out *= 2.0 ** -53
    return out


class SplitMix64:
    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self._state = seed & _MASK

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return mix64(self._state)

    def uniform(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * (2.0 ** -53)

    def uniforms(self, n: int) -> np.ndarray:
        """The next n `uniform()` draws as one array; the stream continues after them."""
        out = uniform_block([self._state], n)[0]
        self._state = (self._state + n * _GOLDEN) & _MASK
        return out

    def randint(self, n: int) -> int:
        """Integer in [0, n). Rejection-free modulo; fine at desk scale."""
        return self.next_uint64() % n
