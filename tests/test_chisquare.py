import numpy as np
from scipy import stats

from chargeflow.chisquare import pooled_chisquare


def test_unpooled_tables_match_scipy_chisquare_bit_for_bit():
    rng = np.random.default_rng(20261018)
    for _ in range(2000):
        k = int(rng.integers(2, 40))
        # every bin expects at least 5, so each is its own pool; the observed
        # counts drift from the expected ones by up to a factor 2 either way,
        # so the p-values range from 1 down into the far tail
        expected = rng.uniform(5.0, 500.0, size=k)
        observed = rng.poisson(expected * rng.uniform(0.5, 2.0, size=k))
        if observed.sum() == 0:
            continue
        # the rescaling to the observed total, summed in the helper's order
        rescaled = expected * sum(map(float, observed)) / sum(map(float, expected))
        oracle = stats.chisquare(observed.astype(float), rescaled).pvalue
        assert pooled_chisquare(observed, expected) == float(oracle)


def test_thin_bins_pool_left_to_right_and_the_remainder_joins_the_last_pool():
    observed = np.array([1, 2, 30, 40, 3])
    expected = np.array([1.0, 2.0, 30.0, 40.0, 2.0])
    # pools (1 + 2 + 30, 40 + 3) against (33, 42) rescaled to 76 observed
    oracle = stats.chisquare([33.0, 43.0], np.array([33.0, 42.0]) * 76.0 / 75.0).pvalue
    assert pooled_chisquare(observed, expected) == float(oracle)


def test_fewer_than_two_pools_give_one():
    assert pooled_chisquare([3, 1], [2.0, 2.0]) == 1.0
    assert pooled_chisquare([], []) == 1.0
