"""Scalar reference for the pair table: one lane's math written out on its
own, from one agent's pmf rows or Gaussian parameters. The tests compare
ratebound.ldp_numerics's pair table with `reference_lane`, bit for bit.
"""

import math

import numpy as np

from ratebound.signal_models import Gaussian


def reference_lane(model, agent, f, g):
    """One lane as a lone kernel takes it: the support mask, the logs and
    llrs over it, and the moments and range. Returns (rows, mean, variance,
    low, high); rows is None for a Gaussian lane."""
    if isinstance(model.family, Gaussian):
        mean_f, sigma = model.gaussian_params(agent, f)
        mean_g, _ = model.gaussian_params(agent, g)
        variance = (mean_f - mean_g) ** 2 / sigma**2
        return None, variance / 2.0, variance, -math.inf, math.inf
    pmf_f, pmf_g = model.pmf_row(agent, f), model.pmf_row(agent, g)
    mask = pmf_f > 0.0
    log_pf = np.log(pmf_f[mask])
    llrs = log_pf - np.log(pmf_g[mask])
    mean = float(np.sum(pmf_f[mask] * llrs))
    variance = float(np.sum(pmf_f[mask] * llrs**2) - mean**2)
    low, high = float(llrs.min()), float(llrs.max())
    return np.array([log_pf, llrs]), mean, variance, low, high
