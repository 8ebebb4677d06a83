"""Pearson chi-square test with greedy pooling of thin bins.

The statistic is sum (o - e)^2 / e and the p-value the chi-square survival
function at k - 1 degrees of freedom, `scipy.special.chdtrc`: what
`scipy.stats.chisquare` computes, without loading `scipy.stats` (about
0.6 s of start-up that `chargeflow lattice` needs for nothing else).
"""

import numpy as np
from scipy.special import chdtrc

__all__ = ["pooled_chisquare"]


def pooled_chisquare(observed, expected, min_expected=5.0):
    """Chi-square p-value with greedy left-to-right pooling of thin bins.

    Bins are merged in order until each pool's expected count reaches
    min_expected, a thin remainder joins the last pool, and the expected
    counts are rescaled to the observed total.  Fewer than two pools give
    1.0; no degrees of freedom are subtracted.
    """
    obs_pool, exp_pool = [], []
    acc_obs = acc_exp = 0.0
    for o, e in zip(observed, expected):
        acc_obs += o
        acc_exp += e
        if acc_exp >= min_expected:
            obs_pool.append(acc_obs)
            exp_pool.append(acc_exp)
            acc_obs = acc_exp = 0.0
    if (acc_obs or acc_exp) and exp_pool:
        obs_pool[-1] += acc_obs
        exp_pool[-1] += acc_exp
    if len(exp_pool) < 2:
        return 1.0
    obs = np.array(obs_pool, dtype=float)
    exp = np.array(exp_pool) * sum(obs_pool) / sum(exp_pool)
    return float(chdtrc(len(obs) - 1.0, np.sum((obs - exp) ** 2 / exp)))
