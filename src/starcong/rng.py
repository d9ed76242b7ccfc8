"""Deterministic pseudo-randomness.

A 64-bit splitmix generator: the state advances by a fixed odd constant and
each output is a finalizer hash of the state.  The sequence depends only on
the seed, never on the platform, so every sampling routine in the package is
reproducible bit-for-bit.

The neighborhood sampler draws sample i from sub-stream i, whose seeds
``substream_seeds(seed, n, start)`` derives for a whole chunk at once; the
derivation rehashes the index so sub-streams do not overlap shifted copies of
each other.  The array functions import numpy when called; the scalar
generator needs no numpy.
"""

from __future__ import annotations

import functools

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_STREAM_SALT = 0x632BE59BD9B4E019
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _finalize(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Stream of reproducible uniforms in [0, 1)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _finalize(self._state)

    def uniform(self) -> float:
        # top 53 bits -> float in [0, 1)
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()


def seeded_rng(seed: int) -> SplitMix64:
    """Stream of reproducible uniform reals for the given seed."""
    return SplitMix64(seed)


# Vectorized counterpart used by the neighborhood sampler, which draws its
# samples in chunks: ``substream_seeds(seed, n, start)`` holds the seeds of
# sub-streams ``start .. start + n - 1``, so a chunk needs no seeds but its
# own.  Bit-identical to the scalar class: same constants, same finalizer.

@functools.cache
def _u64() -> tuple:
    """The constants as numpy uint64 scalars, made once: making them on every
    call took about 6 of the 14 us that ``uniform_step`` takes on a few
    states, as in the sampler's last redraw rounds."""
    import numpy as np

    return tuple(np.uint64(c) for c in (_GOLDEN, 11, _STREAM_SALT, _MIX1, _MIX2, 30, 27, 31))


def substream_seeds(seed: int, n: int, start: int = 0) -> np.ndarray:
    import numpy as np

    golden, _, salt = _u64()[:3]
    idx = np.arange(start, start + n, dtype=np.uint64)
    mixed = _finalize_np(idx * golden + salt)
    return _finalize_np(np.uint64(seed & _MASK) ^ mixed)


def _finalize_np(z: np.ndarray) -> np.ndarray:
    mix1, mix2, s30, s27, s31 = _u64()[3:]
    z = (z ^ (z >> s30)) * mix1
    z = (z ^ (z >> s27)) * mix2
    return z ^ (z >> s31)


def uniform_step(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Advance an array of generator states; return (new_states, uniforms)."""
    import numpy as np

    golden, s11 = _u64()[:2]
    states = states + golden
    u = (_finalize_np(states) >> s11).astype(np.float64) * 2.0**-53
    return states, u
