import numpy as np

from starcong import SplitMix64, seeded_rng
from starcong.rng import _GOLDEN, _MASK, _STREAM_SALT, _finalize, substream_seeds, uniform_step


def substream_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th sub-stream of ``seed``: the scalar reference of substream_seeds."""
    return _finalize((seed & _MASK) ^ _finalize((index * _GOLDEN + _STREAM_SALT) & _MASK))


def test_same_seed_same_sequence():
    a = seeded_rng(0)
    b = seeded_rng(0)
    assert [a.uniform() for _ in range(100)] == [b.uniform() for _ in range(100)]


def test_different_seeds_differ():
    a = [seeded_rng(0).uniform() for _ in range(1)]
    xs = [SplitMix64(0).uniform() for _ in range(100)]
    ys = [SplitMix64(1).uniform() for _ in range(100)]
    assert xs != ys
    assert a[0] == xs[0]


def test_uniform_range():
    rng = seeded_rng(42)
    vals = [rng.uniform() for _ in range(10_000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert abs(np.mean(vals) - 0.5) < 0.02


def test_substreams_do_not_overlap():
    s0 = SplitMix64(substream_seed(7, 0))
    s1 = SplitMix64(substream_seed(7, 1))
    xs = [s0.uniform() for _ in range(200)]
    ys = [s1.uniform() for _ in range(200)]
    assert not set(xs) & set(ys)


def test_substream_chi_square_independence():
    # pair the k-th draws of neighbouring sub-streams and bin on a 4x4 grid;
    # the chi-square statistic should sit near its 15 degrees of freedom
    n = 4000
    counts = np.zeros((4, 4))
    for i in range(n):
        u = SplitMix64(substream_seed(0, i)).uniform()
        v = SplitMix64(substream_seed(0, i + 1)).uniform()
        counts[int(u * 4), int(v * 4)] += 1
    expected = n / 16.0
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    dof = 15
    assert chi2 < dof + 6 * np.sqrt(2 * dof)


def test_vectorized_matches_scalar():
    for start in (0, 1000):
        seeds = substream_seeds(123, 50, start)
        for i in range(50):
            assert int(seeds[i]) == substream_seed(123, start + i)
        states = seeds.copy()
        for step in range(3):
            states, u = uniform_step(states)
            for i in range(50):
                ref = SplitMix64(substream_seed(123, start + i))
                for _ in range(step + 1):
                    val = ref.uniform()
                assert val == u[i]
