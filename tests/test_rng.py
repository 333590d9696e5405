import warnings

import numpy as np
import pytest

from metriclab.rng import (_GOLDEN, RNG_VERSION, SplitMix64, derive_seed, derive_seeds,
                           uniform_block)

# draw 0 of this seed has counter 2**64 - 1; s + (k + 1) * GOLDEN wraps at draw 1
WRAP_SEED = (1 << 64) - _GOLDEN - 1
SEEDS = [0, 1, 1 << 63, (1 << 64) - 1, WRAP_SEED]


@pytest.fixture(autouse=True)
def overflow_is_an_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def scalar_draws(seed, n):
    g = SplitMix64(seed)
    return [g.uniform() for _ in range(n)]


def test_version_is_pinned():
    assert RNG_VERSION == "splitmix64-v1"


def test_wrap_seed_wraps_inside_the_block():
    assert WRAP_SEED + _GOLDEN < 1 << 64 <= WRAP_SEED + 2 * _GOLDEN


def test_uniform_block_equals_scalar_draws():
    block = uniform_block(SEEDS, 50)
    assert block.shape == (len(SEEDS), 50) and block.dtype == np.float64
    for row, seed in zip(block, SEEDS):
        assert row.tolist() == scalar_draws(seed, 50)


def test_uniform_block_accepts_uint64_seeds():
    seeds = np.array(SEEDS, dtype=np.uint64)
    assert np.array_equal(uniform_block(seeds, 7), uniform_block(SEEDS, 7))
    assert uniform_block(seeds, 0).shape == (len(SEEDS), 0)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n, m", [(0, 3), (1, 4), (17, 9)])
def test_uniforms_then_scalar_continue_one_stream(seed, n, m):
    g = SplitMix64(seed)
    got = g.uniforms(n).tolist() + [g.uniform() for _ in range(m)]
    assert got == scalar_draws(seed, n + m)


def test_randint_after_uniforms_sees_the_advanced_state():
    a, b = SplitMix64(2024), SplitMix64(2024)
    a.uniforms(5)
    for _ in range(5):
        b.uniform()
    assert [a.randint(97) for _ in range(10)] == [b.randint(97) for _ in range(10)]


@pytest.mark.parametrize("seed", [0, 2024, (1 << 64) - 1])
def test_derive_seeds_equals_derive_seed(seed):
    got = derive_seeds(seed, 1000)
    assert got.dtype == np.uint64
    assert [int(s) for s in got] == [derive_seed(seed, t) for t in range(1000)]
