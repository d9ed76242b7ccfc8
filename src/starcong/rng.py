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

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_STREAM_SALT = 0x632BE59BD9B4E019


def _finalize(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
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

def substream_seeds(seed: int, n: int, start: int = 0) -> np.ndarray:
    import numpy as np

    idx = np.arange(start, start + n, dtype=np.uint64)
    mixed = _finalize_np(idx * np.uint64(_GOLDEN) + np.uint64(_STREAM_SALT))
    return _finalize_np(np.uint64(seed & _MASK) ^ mixed)


def _finalize_np(z: np.ndarray) -> np.ndarray:
    import numpy as np

    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def uniform_step(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Advance an array of generator states; return (new_states, uniforms)."""
    import numpy as np

    states = states + np.uint64(_GOLDEN)
    u = (_finalize_np(states) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return states, u
