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
The scalar functions here and gaussian.check_separability_lossy are the
per-point reference it is tested against.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .gaussian import ModeParams, _real, _reals


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


def _refuse_overflow(closed_form, **inputs):
    """closed_form(), or ValueError naming the inputs when it overflows a float.

    Python's float ** and math.sinh raise OverflowError where * gives inf;
    either way no inf or NaN is returned.  None, for a 0/0 point, passes.
    """
    try:
        value = closed_form()
    except OverflowError:
        value = math.inf
    if value is None or math.isfinite(value):
        return value
    named = ", ".join(f"{name} {number!r}" for name, number in inputs.items())
    raise ValueError(f"the closed form overflows a float at {named}")


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
    tau.  The CSV schemas of the sweep scenarios are subsets of these keys.
    That eigenvalue comes from the two-mode invariants of the partially
    transposed lossy covariance (Simon, PRL 84, 2726 (2000); Serafini et al.,
    J. Phys. B 37, L21 (2004)): nu_-^2 = 2 det V / (D + sqrt(D^2 - 4 det V))
    with D = a^2 + b^2 + 2 c^2 and det V = (a b - c^2)^2.
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
    margin = tau ** 2 * (mu_t * mu_r - n * s)
    # a, b, c: entries of gaussian.build_covariance after apply_loss.  a b - c^2
    # (= sqrt(det V)) and D^2 - 4 det V = (a + b)^2 ((a - b)^2 + 4 c^2) are
    # expanded into non-negative terms, so neither cancels near tau -> 0.
    loss = (1.0 - tau) / 2.0
    c2 = tau ** 2 * big_gamma
    a_plus_b = tau * (1.0 + 2.0 * n) * s + 2.0 * loss
    a_minus_b = tau * (mu_t - mu_r)
    delta = (a_plus_b ** 2 + a_minus_b ** 2) / 2.0 + 2.0 * c2
    root_det = tau ** 2 * (mu_t + 0.5) * (mu_r + 0.5) + tau * loss * (1.0 + 2.0 * n) * s + loss ** 2
    nu_minus = np.sqrt(2.0 * root_det ** 2 / (delta + a_plus_b * np.sqrt(a_minus_b ** 2 + 4.0 * c2)))
    return dict(
        mu_t=mu_t, mu_r=mu_r, n_pdc=n, tau=tau, gamma=gamma, cross_covariance=big_gamma, nrf=nrf,
        nrf_threshold=(mu_t ** 2 + mu_r ** 2) / (2.0 * s), margin=margin, separable=margin >= 0.0,
        min_pt_symplectic_eigenvalue=nu_minus,
    )

