"""Closed-form intensity-correlation diagnostics for a seeded pair.

The normalized correlation index gamma compares the photon-number cross
covariance of the two arms to the geometric mean of their variances; the
noise reduction factor (NRF) compares the variance of the photon-number
difference to the shot-noise level.  NRF < 1 certifies nonclassical
correlations and, for this source, implies entanglement.

sweep_columns, the one grid route, evaluates the pair kernel of gaussian;
each scalar function reads its group there at one point, so it is the sweep
row, bit for bit.  0/0 points give None from a scalar function and NaN from
sweep_columns.  Where its group overflows a float, a scalar function raises
ValueError naming its inputs; sweep_columns raises FloatingPointError
where either group does.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .gaussian import ModeParams, _reals, _row, _separability_columns, _statistics_columns


def cross_covariance(p: ModeParams) -> float:
    """Photon-number cross covariance n_pdc (1 + n_pdc) (1 + mu_t + mu_r)^2."""
    return _row(_statistics_columns, p)["cross_covariance"]


def correlation_index(p: ModeParams) -> Optional[float]:
    """Normalized intensity-correlation index in [0, 1].

    Equals the cross covariance divided by the geometric mean of the two
    thermal variances mean (mean + 1).  Returns None when either arm is in
    the vacuum (zero seed and zero gain), where the index is 0/0.
    """
    return _row(_statistics_columns, p)["gamma"]


def noise_reduction_factor(p: ModeParams) -> Optional[float]:
    """Variance of the photon-number difference over the shot-noise level.

    Closed form [mu_t (1 + mu_t) + mu_r (1 + mu_r)] /
    [mu_t + mu_r + 2 n_pdc (1 + mu_t + mu_r)].  Values below 1 are
    sub-shot-noise.  Returns None for the double vacuum, where the
    shot-noise normalization vanishes.
    """
    return _row(_statistics_columns, p)["nrf"]


def noise_reduction_threshold(mu_t: float, mu_r: float) -> float:
    """Gain above which the pair is sub-shot-noise.

    NRF < 1 exactly when n_pdc exceeds (mu_t^2 + mu_r^2) /
    (2 (1 + mu_t + mu_r)).  For equal seeds this coincides with the
    separability boundary; otherwise it lies strictly above it.
    """
    p = ModeParams(mu_t, mu_r, 0.0)  # checks the seeds; the threshold column is the same at every gain
    return _row(_statistics_columns, p, mu_t=p.mu_t, mu_r=p.mu_r)["nrf_threshold"]


@np.errstate(over="raise")  # FloatingPointError rather than inf or NaN in a column
def sweep_columns(mu_t, mu_r, n_pdc, tau=1.0) -> dict[str, np.ndarray]:
    """Every diagnostic at every point, as flat arrays keyed by column name.

    The inputs broadcast together (np.meshgrid(..., indexing="ij") axes give
    a full grid, flattened in C order) and are used as given, n_pdc
    included; ValueError, naming the input, is raised unless each is an
    integer or float array (or number) whose seed means and gains are
    finite and >= 0 and whose tau are in (0, 1].  The keys are the four
    inputs mu_t, mu_r, n_pdc and tau, then gamma, cross_covariance, nrf,
    nrf_threshold, margin, separable (bool) and
    min_pt_symplectic_eigenvalue, from the kernel the scalar diagnostics
    read; gamma and nrf are NaN where they are 0/0, and margin, separable
    and the eigenvalue are taken after the loss tau.  The CSV schemas of
    the sweep scenarios are subsets of these keys.
    """
    seeds_gain = (_reals(name, x, lambda v: v >= 0, ">= 0") for name, x in zip(("mu_t", "mu_r", "n_pdc"), (mu_t, mu_r, n_pdc)))
    arrays = np.broadcast_arrays(*seeds_gain, _reals("tau", tau, lambda v: (v > 0) & (v <= 1), "in (0, 1]"))
    mu_t, mu_r, n, tau = (np.ravel(x) for x in arrays)
    stats, verdict = _statistics_columns(mu_t, mu_r, n), _separability_columns(mu_t, mu_r, n, tau)
    return dict(mu_t=mu_t, mu_r=mu_r, n_pdc=n, tau=tau, gamma=stats["gamma"], cross_covariance=stats["cross_covariance"],
                nrf=stats["nrf"], nrf_threshold=stats["nrf_threshold"], **verdict)
