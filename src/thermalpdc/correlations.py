"""Closed-form intensity-correlation diagnostics for a seeded pair.

The normalized correlation index gamma compares the photon-number cross
covariance of the two arms to the geometric mean of their variances; the
noise reduction factor (NRF) compares the variance of the photon-number
difference to the shot-noise level.  NRF < 1 certifies nonclassical
correlations and, for this source, implies entanglement.

Degenerate 0/0 points return None from the scalar functions and NaN from
sweep_columns, which evaluates whole grids as arrays and is the one grid
route.  Where a closed form overflows a float, the scalar functions raise
ValueError naming their inputs, and sweep_columns FloatingPointError.
Its per-point reference is the scalar closed forms here and, for the
partial-transpose eigenvalue, a numerical symplectic spectrum in the tests;
its separability columns come from the kernel that
gaussian.check_separability_lossy calls at one point.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .gaussian import ModeParams, _real, _reals, _refuse_overflow, _separability_columns


def cross_covariance(p: ModeParams) -> float:
    """Photon-number cross covariance n_pdc (1 + n_pdc) (1 + mu_t + mu_r)^2."""
    return _refuse_overflow(lambda: p.n_pdc * (1.0 + p.n_pdc) * (1.0 + p.mu_t + p.mu_r) ** 2, **vars(p))


def correlation_index(p: ModeParams) -> Optional[float]:
    """Normalized intensity-correlation index in [0, 1].

    Equals the cross covariance divided by the geometric mean of the two
    thermal variances mean (mean + 1).  Returns None when either arm is in
    the vacuum (zero seed and zero gain), where the index is 0/0.
    """
    def index():
        s = 1.0 + p.mu_t + p.mu_r
        mean_t, mean_r = p.mu_t + p.n_pdc * s, p.mu_r + p.n_pdc * s
        denom2 = mean_t * (mean_t + 1.0) * mean_r * (mean_r + 1.0)
        return None if denom2 == 0.0 else cross_covariance(p) / denom2 ** 0.5

    return _refuse_overflow(index, **vars(p))


def noise_reduction_factor(p: ModeParams) -> Optional[float]:
    """Variance of the photon-number difference over the shot-noise level.

    Closed form [mu_t (1 + mu_t) + mu_r (1 + mu_r)] /
    [mu_t + mu_r + 2 n_pdc (1 + mu_t + mu_r)].  Values below 1 are
    sub-shot-noise.  Returns None for the double vacuum, where the
    shot-noise normalization vanishes.
    """
    def nrf():
        denom = p.mu_t + p.mu_r + 2.0 * p.n_pdc * (1.0 + p.mu_t + p.mu_r)
        return None if denom == 0.0 else (p.mu_t * (1.0 + p.mu_t) + p.mu_r * (1.0 + p.mu_r)) / denom

    return _refuse_overflow(nrf, **vars(p))


def noise_reduction_threshold(mu_t: float, mu_r: float) -> float:
    """Gain above which the pair is sub-shot-noise.

    NRF < 1 exactly when n_pdc exceeds (mu_t^2 + mu_r^2) /
    (2 (1 + mu_t + mu_r)).  For equal seeds this coincides with the
    separability boundary; otherwise it lies strictly above it.
    """
    mu_t, mu_r = _real("mu_t", mu_t, lambda v: v >= 0, ">= 0"), _real("mu_r", mu_r, lambda v: v >= 0, ">= 0")
    return _refuse_overflow(lambda: (mu_t ** 2 + mu_r ** 2) / (2.0 * (1.0 + mu_t + mu_r)), mu_t=mu_t, mu_r=mu_r)


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
    min_pt_symplectic_eigenvalue; gamma and nrf are NaN where they are
    0/0, and margin, separable and the eigenvalue are taken after the loss
    tau, by gaussian._separability_columns, the kernel of
    gaussian.check_separability_lossy.  The CSV schemas of the sweep
    scenarios are subsets of these keys.
    """
    seeds_gain = (_reals(name, x, lambda v: v >= 0, ">= 0") for name, x in zip(("mu_t", "mu_r", "n_pdc"), (mu_t, mu_r, n_pdc)))
    arrays = np.broadcast_arrays(*seeds_gain, _reals("tau", tau, lambda v: (v > 0) & (v <= 1), "in (0, 1]"))
    mu_t, mu_r, n, tau = (np.ravel(x) for x in arrays)
    s = 1.0 + mu_t + mu_r
    mean_t, mean_r = mu_t + n * s, mu_r + n * s
    denom2 = mean_t * (mean_t + 1.0) * mean_r * (mean_r + 1.0)
    nrf_denom = mu_t + mu_r + 2.0 * n * s
    big_gamma = n * (1.0 + n) * s ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = np.where(denom2 == 0.0, np.nan, big_gamma / np.sqrt(denom2))
        nrf = np.where(nrf_denom == 0.0, np.nan, (mu_t * (1.0 + mu_t) + mu_r * (1.0 + mu_r)) / nrf_denom)
    margin, separable, nu_minus = _separability_columns(mu_t, mu_r, n, tau)
    return dict(
        mu_t=mu_t, mu_r=mu_r, n_pdc=n, tau=tau, gamma=gamma, cross_covariance=big_gamma, nrf=nrf,
        nrf_threshold=(mu_t ** 2 + mu_r ** 2) / (2.0 * s), margin=margin, separable=separable,
        min_pt_symplectic_eigenvalue=nu_minus,
    )

