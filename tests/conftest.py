import numpy as np
import pytest

from granular1d import TwoBlockParams


@pytest.fixture(scope="session")
def two_block_params():
    return TwoBlockParams()


@pytest.fixture(scope="session")
def small_two_block(two_block_params):
    """Coarse two-block system for fast dynamics tests."""
    return two_block_params.build(200)


def random_projection_instance(rng, n):
    """Random (z, xtil, w) with nonnegative packed gaps and weights in (0, 2]."""
    z = rng.normal(0.0, 2.0, n)
    gaps = rng.uniform(0.0, 1.0, n - 1) * (rng.random(n - 1) > 0.2)  # some exact zeros
    xtil = rng.normal() + np.concatenate([[0.0], np.cumsum(gaps)])
    w = rng.uniform(0.05, 2.0, n)
    return z, xtil, w
