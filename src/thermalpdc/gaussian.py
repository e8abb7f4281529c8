"""Two-mode Gaussian description of a downconversion pair.

Each transverse-momentum pair (Test mode q, Reference mode -q) produced by a
thermally seeded parametric interaction is a zero-mean Gaussian state, fully
characterized by a real symmetric 4x4 covariance matrix over the quadrature
basis (X_T, Y_T, X_R, Y_R), with the vacuum normalized to identity/2.  This
module builds that matrix from the physical inputs, applies a beam-splitter
loss channel, and classifies separability through the positivity of the
partial transpose, read from the two-mode invariants of the lossy matrix.
One array kernel in two column groups holds every closed form of a pair in
n_pdc: correlations.sweep_columns evaluates it on a grid, and each scalar
diagnostic reads its group at one point through _row.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# Tolerances relative to a block's largest entry (at least 1): on the lowest
# eigenvalue of V + i Omega / 2 in the physicality check, and on symmetry.
EIGENVALUE_TOL = 1e-9
SYMMETRY_RTOL = 1e-12

# Distance of 2 nu_- from 1 within which a verdict sits numerically on the
# separability boundary.
BOUNDARY_BAND = 1e-6

# Symplectic form of one (T, R) pair in the (X_T, Y_T, X_R, Y_R) ordering:
# [[0, 1], [-1, 0]] on each mode.
_OMEGA = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])


def _real(name, value, ok=lambda v: True, rule="", kind=numbers.Real):
    """value as a float (an int for kind numbers.Integral), after the one check
    on a physics number.

    Raises ValueError naming the field unless value is a kind (numpy scalars
    included), not a bool, and finite, and ok holds for it as a float (an
    int); rule says what ok asks.
    """
    try:
        # a bool is an int, and would pass as 0 or 1
        finite = isinstance(value, kind) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        finite = False
    if finite:
        number = int(value) if kind is numbers.Integral else float(value)
        if ok(number):
            return number
    what = "an integer" if kind is numbers.Integral else "a finite real number"
    raise ValueError(f"{name} must be {what}{' ' + rule if rule else ''}, got {value!r}")


def _reals(name, values, ok=lambda v: True, rule="") -> np.ndarray:
    """The array form of _real: values as a float array.

    Raises ValueError naming the field, and the first bad entry, unless
    values has an integer or float dtype (a bool, string or object array is
    never cast) and every entry is finite and passes ok.
    """
    array = np.asarray(values)
    if array.dtype.kind in "iuf":
        array = array.astype(float, copy=False)
        bad = array[~(np.isfinite(array) & ok(array))]
        if not bad.size:
            return array
        values = bad[0].item()
    raise ValueError(f"{name} must be finite real numbers{' ' + rule if rule else ''}, got {values!r}")


def _refuse_overflow(closed_form, what="the closed form", **inputs):
    """closed_form(), or ValueError naming what and the inputs when it
    overflows a float.

    Python's float ** and math.sinh raise OverflowError where * gives inf,
    and numpy raises FloatingPointError here; either way no inf or NaN is
    returned, in a number or in a tuple or dict of them.  None, for a 0/0
    point, passes, alone or in one.
    """
    try:
        with np.errstate(over="raise"):  # an inf inside can leave a finite result
            value = closed_form()
    except (OverflowError, FloatingPointError):
        value = math.inf
    numbers = value.values() if isinstance(value, dict) else value if isinstance(value, tuple) else (value,)
    if all(v is None or math.isfinite(v) for v in numbers):
        return value
    named = ", ".join(f"{name} {number!r}" for name, number in inputs.items())
    raise ValueError(f"{what} overflows at {named}")


@dataclass(frozen=True)
class ModeParams:
    """Physical inputs for one (q, -q) mode pair.

    mu_t, mu_r are the mean photon numbers of the thermal seeds injected on
    the Test and Reference arms, coupling is the dimensionless interaction
    strength |kappa| (the spontaneous gain), and phase is the pump phase in
    radians.  The mean photon number generated spontaneously from vacuum is
    n_pdc = sinh(coupling)^2.
    """

    mu_t: float
    mu_r: float
    coupling: float
    phase: float = 0.0

    def __post_init__(self):
        # stored as the floats _real returns, so a numpy float32 input computes in float64
        for name in ("mu_t", "mu_r", "coupling"):
            object.__setattr__(self, name, _real(name, getattr(self, name), lambda v: v >= 0, ">= 0"))
        object.__setattr__(self, "phase", _real("phase", self.phase))

    @classmethod
    def from_npdc(cls, mu_t, mu_r, n_pdc, phase=0.0) -> "ModeParams":
        """Build from the spontaneous mean photon number instead of |kappa|."""
        return cls(mu_t, mu_r, math.asinh(math.sqrt(_real("n_pdc", n_pdc, lambda v: v >= 0, ">= 0"))), phase)

    @property
    def n_pdc(self) -> float:
        return math.sinh(self.coupling) ** 2

    @property
    def u(self) -> float:
        """cosh|kappa|, the amplitude-preserving input-output coefficient."""
        return math.cosh(self.coupling)

    @property
    def v(self) -> float:
        """sinh|kappa|, the pair-creation input-output coefficient."""
        return math.sinh(self.coupling)


@dataclass(frozen=True, eq=False)
class CovarianceBlock:
    """Real symmetric 4x4 covariance matrix of one (T, R) pair."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _reals("matrix", self.matrix)  # a NaN would pass the symmetry check below
        if m.shape != (4, 4):
            raise ValueError(f"covariance block must be 4x4, got {m.shape}")
        scale = max(np.abs(m).max(), 1.0)
        if np.abs(m - m.T).max() > SYMMETRY_RTOL * scale:
            raise ValueError("covariance block is not symmetric")
        object.__setattr__(self, "matrix", m)

    def is_physical(self) -> bool:
        """The uncertainty relation V + i Omega / 2 >= 0, which holds exactly
        when both symplectic eigenvalues are at or above the vacuum level 1/2.

        The Hermitian matrix V + i Omega / 2 is positive semidefinite exactly
        when its real form [[V, -Omega / 2], [Omega / 2, V]] is.
        """
        m, half = self.matrix, _OMEGA / 2.0
        lowest = np.linalg.eigvalsh(np.block([[m, -half], [half, m]]))[0]
        return lowest >= -EIGENVALUE_TOL * max(np.abs(m).max(), 1.0)


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Outcome of the partial-transpose test for one pair.

    margin is the closed-form quantity mu_t*mu_r - n_pdc*(1 + mu_t + mu_r)
    (scaled by tau^2 for a lossy channel); the state is separable exactly
    when it is non-negative.  min_pt_symplectic_eigenvalue is the smallest
    symplectic eigenvalue of the partially transposed covariance matrix and
    crosses 1/2 at the same boundary.
    """

    separable: bool
    margin: float
    min_pt_symplectic_eigenvalue: float

    @property
    def near_boundary(self) -> bool:
        """2 nu_- within BOUNDARY_BAND of 1, a test that, unlike the margin,
        does not scale with the seeds or with tau."""
        return abs(2.0 * self.min_pt_symplectic_eigenvalue - 1.0) <= BOUNDARY_BAND


def build_covariance(p: ModeParams) -> CovarianceBlock:
    """Covariance matrix of the pair emerging from the seeded interaction.

    The pump phase is gauged away (a phase-space rotation of the Reference
    mode), so the off-diagonal block is diagonal with entries (C, -C).  That
    local rotation changes neither the symplectic spectrum nor the verdict.

    Entries, with u = cosh|kappa| and v = sinh|kappa|:

        A = [u^2 (2 mu_t + 1) + v^2 (2 mu_r + 1)] / 2      (X_T, Y_T variance)
        B = [u^2 (2 mu_r + 1) + v^2 (2 mu_t + 1)] / 2      (X_R, Y_R variance)
        C = u v (1 + mu_t + mu_r)                          (cross correlation)

    C is GainProfile's C_q bit for bit; ValueError, naming the inputs, where
    an entry overflows a float.
    """
    a, b, c = _refuse_overflow(lambda: _covariance_entries(p), **vars(p))
    return CovarianceBlock(
        np.array(
            [
                [a, 0.0, c, 0.0],
                [0.0, a, 0.0, -c],
                [c, 0.0, b, 0.0],
                [0.0, -c, 0.0, b],
            ]
        )
    )


def _covariance_entries(p: ModeParams):
    u2 = p.u ** 2
    v2 = p.v ** 2
    a = (u2 * (2.0 * p.mu_t + 1.0) + v2 * (2.0 * p.mu_r + 1.0)) / 2.0
    b = (u2 * (2.0 * p.mu_r + 1.0) + v2 * (2.0 * p.mu_t + 1.0)) / 2.0
    return a, b, _cross_entry(p, p.coupling)


def _cross_entry(p: ModeParams, coupling: float) -> float:
    return math.cosh(coupling) * math.sinh(coupling) * (1.0 + p.mu_t + p.mu_r)


def apply_loss(block: CovarianceBlock, tau: float) -> CovarianceBlock:
    """Propagate through an overall transmission tau on both channels.

    Models a beam splitter with vacuum on the idle port:
    V -> tau * V + (1 - tau)/2 * identity.  tau must lie in (0, 1].
    """
    _real("tau", tau, lambda v: 0 < v <= 1, "in (0, 1]")
    return CovarianceBlock(tau * block.matrix + (1.0 - tau) / 2.0 * np.eye(4))


def separability_margin(p: ModeParams) -> float:
    """Closed-form left side of the separability inequality (>= 0: separable):
    check_separability's margin, refused (ValueError) where that overflows."""
    return check_separability(p).margin


def check_separability(p: ModeParams) -> SeparabilityVerdict:
    """Classify the lossless pair: check_separability_lossy at tau = 1."""
    return check_separability_lossy(p, 1.0)


def check_separability_lossy(p: ModeParams, tau: float) -> SeparabilityVerdict:
    """Classify the pair after an overall transmission tau on both arms.

    The verdict is the sign of the closed-form margin, tau^2 times the
    lossless one, so it is independent of tau for every tau in (0, 1].  It
    is the row of correlations.sweep_columns at this point, bit for bit:
    both read _separability_columns.  Raises ValueError, naming the inputs,
    where the margin or the eigenvalue overflows a float.
    """
    tau = _real("tau", tau, lambda v: 0 < v <= 1, "in (0, 1]")
    return SeparabilityVerdict(**_row(_separability_columns, p, tau, **vars(p), tau=tau))


def _row(group, p: ModeParams, *tau, **inputs):
    """group's row at (p.mu_t, p.mu_r, p.n_pdc, *tau), the sweep_columns row
    there bit for bit, as a dict by column: one-element float arrays in
    (numpy scalars do not round as the grid does), floats out, NaN (0/0) as
    None.  ValueError, naming inputs (default vars(p)), where the group
    overflows a float."""
    def row():
        columns = group(*(np.array([x], dtype=float) for x in (p.mu_t, p.mu_r, p.n_pdc, *tau)))
        return {name: None if math.isnan(column[0]) else column.item() for name, column in columns.items()}

    return _refuse_overflow(row, **(inputs or vars(p)))


def _statistics_columns(mu_t, mu_r, n) -> dict:
    """The closed forms of fock.predicted_moments and correlations (gamma, nrf
    NaN where 0/0) at each point of float arrays of the seed means and gains
    n_pdc.  An overflow gives inf, or FloatingPointError under errstate."""
    s = 1.0 + mu_t + mu_r
    mean_t, mean_r = mu_t + n * s, mu_r + n * s
    var_t, var_r = mean_t * (mean_t + 1.0), mean_r * (mean_r + 1.0)
    denom2 = var_t * mean_r * (mean_r + 1.0)  # not var_t * var_r: that rounds gamma otherwise
    nrf_denom = mu_t + mu_r + 2.0 * n * s
    cross = _squared_cross_entry(n, s)
    with np.errstate(divide="ignore", invalid="ignore"):
        # below the normal floats denom2 has lost its digits: there each root divides in turn
        ratio = np.where(denom2 < np.finfo(float).tiny, cross / np.sqrt(var_t) / np.sqrt(var_r), cross / np.sqrt(denom2))
        gamma = np.where(np.minimum(var_t, var_r) == 0.0, np.nan, ratio)
        nrf = np.where(nrf_denom == 0.0, np.nan, (mu_t * (1.0 + mu_t) + mu_r * (1.0 + mu_r)) / nrf_denom)
    return dict(mean_t=mean_t, mean_r=mean_r, var_t=var_t, var_r=var_r, cross_covariance=cross, gamma=gamma, nrf=nrf,
                nrf_threshold=(mu_t ** 2 + mu_r ** 2) / (2.0 * s))


def _squared_cross_entry(n, s):  # the cross covariance C^2, for both groups
    return n * (1.0 + n) * s ** 2


def _separability_columns(mu_t, mu_r, n, tau) -> dict:
    """margin, separable and nu_- at each point of float arrays of the seed
    means, gains n_pdc and transmissions, after the loss tau.

    nu_- is the smallest symplectic eigenvalue of the partially transposed
    lossy covariance, from its two-mode invariants (Simon, PRL 84, 2726
    (2000); Serafini et al., J. Phys. B 37, L21 (2004)):
    nu_-^2 = 2 det V / (D + sqrt(D^2 - 4 det V)) with D = a^2 + b^2 + 2 c^2
    and det V = (a b - c^2)^2.  An overflow gives inf, or raises
    FloatingPointError under np.errstate(over="raise").
    """
    s = 1.0 + mu_t + mu_r
    margin = tau ** 2 * (mu_t * mu_r - n * s)
    # a, b, c: entries of build_covariance after apply_loss.  a b - c^2
    # (= sqrt(det V)) and D^2 - 4 det V = (a + b)^2 ((a - b)^2 + 4 c^2) are
    # expanded into non-negative terms, so neither cancels near tau -> 0.
    loss = (1.0 - tau) / 2.0
    c2 = tau ** 2 * _squared_cross_entry(n, s)
    a_plus_b = tau * (1.0 + 2.0 * n) * s + 2.0 * loss
    a_minus_b = tau * (mu_t - mu_r)
    delta = (a_plus_b ** 2 + a_minus_b ** 2) / 2.0 + 2.0 * c2
    root_det = tau ** 2 * (mu_t + 0.5) * (mu_r + 0.5) + tau * loss * (1.0 + 2.0 * n) * s + loss ** 2
    nu_minus = np.sqrt(2.0 * root_det ** 2 / (delta + a_plus_b * np.sqrt(a_minus_b ** 2 + 4.0 * c2)))
    return dict(margin=margin, separable=margin >= 0.0, min_pt_symplectic_eigenvalue=nu_minus)
