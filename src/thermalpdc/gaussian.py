"""Two-mode Gaussian description of a downconversion pair.

Each transverse-momentum pair (Test mode q, Reference mode -q) produced by a
thermally seeded parametric interaction is a zero-mean Gaussian state, fully
characterized by a real symmetric 4x4 covariance matrix over the quadrature
basis (X_T, Y_T, X_R, Y_R), with the vacuum normalized to identity/2.  This
module builds that matrix from the physical inputs, applies a beam-splitter
loss channel, and classifies separability through the positivity of the
partial transpose.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# Absolute tolerance on symplectic eigenvalues for physicality/separability
# comparisons; relative tolerance on matrix symmetry checks.
EIGENVALUE_TOL = 1e-9
SYMMETRY_RTOL = 1e-12

# Margin below which a verdict sits numerically on the separability boundary.
BOUNDARY_BAND = 1e-6

# Symplectic form for one (T, R) pair in the (X_T, Y_T, X_R, Y_R) ordering:
# omega = [[0, 1], [-1, 0]] on each mode.  SYMPLECTIC_FORM @ SYMPLECTIC_FORM
# equals -identity.
SYMPLECTIC_FORM = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)


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
        for name in ("mu_t", "mu_r", "coupling"):
            _real(name, getattr(self, name), lambda v: v >= 0, ">= 0")
        _real("phase", self.phase)

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


@dataclass(frozen=True)
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
        """Both symplectic eigenvalues at or above the vacuum level 1/2; a
        block that is not positive definite is unphysical."""
        try:
            return symplectic_eigenvalues(self)[0] >= 0.5 - EIGENVALUE_TOL
        except ValueError:
            return False


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
        return abs(self.margin) <= BOUNDARY_BAND


def build_covariance(p: ModeParams) -> CovarianceBlock:
    """Covariance matrix of the pair emerging from the seeded interaction.

    The pump phase is gauged away (a phase-space rotation of the Reference
    mode), so the off-diagonal block is diagonal with entries (C, -C).  Use
    covariance_with_phase to restore an explicit nonzero pump phase.

    Entries, with u = cosh|kappa| and v = sinh|kappa|:

        A = [u^2 (2 mu_t + 1) + v^2 (2 mu_r + 1)] / 2      (X_T, Y_T variance)
        B = [u^2 (2 mu_r + 1) + v^2 (2 mu_t + 1)] / 2      (X_R, Y_R variance)
        C = u v (mu_t + mu_r + 1)                          (cross correlation)
    """
    a, b, c = _covariance_entries(p)
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
    c = p.u * p.v * (p.mu_t + p.mu_r + 1.0)
    return a, b, c


def _local_rotation(phase: float) -> np.ndarray:
    """Symplectic rotation of the Reference-mode quadratures by `phase`."""
    c, s = math.cos(phase), math.sin(phase)
    out = np.eye(4)
    out[2:, 2:] = [[c, -s], [s, c]]
    return out


def covariance_with_phase(p: ModeParams) -> CovarianceBlock:
    """Covariance with the pump phase kept explicit.

    Equals the zero-phase matrix conjugated by the symplectic rotation of the
    Reference quadratures by p.phase, so symplectic spectra and the
    separability verdict are unchanged.
    """
    r = _local_rotation(p.phase)
    return CovarianceBlock(r @ build_covariance(p).matrix @ r.T)


def apply_loss(block: CovarianceBlock, tau: float) -> CovarianceBlock:
    """Propagate through an overall transmission tau on both channels.

    Models a beam splitter with vacuum on the idle port:
    V -> tau * V + (1 - tau)/2 * identity.  tau must lie in (0, 1].
    """
    _real("tau", tau, lambda v: 0 < v <= 1, "in (0, 1]")
    return CovarianceBlock(tau * block.matrix + (1.0 - tau) / 2.0 * np.eye(4))


def partial_transpose(block: CovarianceBlock) -> CovarianceBlock:
    """Covariance of the partially transposed state.

    Transposing the Reference mode flips the sign of its momentum
    quadrature, Y_R -> -Y_R; all other quadratures are untouched.  Applying
    it twice returns the original matrix exactly.
    """
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    return CovarianceBlock(flip @ block.matrix @ flip)


def symplectic_eigenvalues(block: CovarianceBlock) -> tuple[float, float]:
    """Symplectic spectrum (nu1, nu2) of a 4x4 covariance block, ascending.

    The eigenvalues of SYMPLECTIC_FORM @ V come in pairs +-i*nu; the
    returned nu are their absolute values.  A physical state has both
    >= 1/2.  With the Cholesky factor V = L L^T, SYMPLECTIC_FORM @ V is
    similar to the real antisymmetric L^T SYMPLECTIC_FORM L, so the nu are
    the moduli of the eigenvalues of the Hermitian i L^T SYMPLECTIC_FORM L;
    a Hermitian eigensolver always converges, where the general one fails
    on some lossy blocks near the vacuum.  Raises ValueError if the block
    is not positive definite (no physical covariance is).
    """
    try:
        chol = np.linalg.cholesky(block.matrix)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance block is not positive definite") from exc
    nu = np.sort(np.abs(np.linalg.eigvalsh(1j * chol.T @ SYMPLECTIC_FORM @ chol)))
    # pairs (nu1, nu1, nu2, nu2) after taking moduli
    return float((nu[0] + nu[1]) / 2.0), float((nu[2] + nu[3]) / 2.0)


def separability_margin(p: ModeParams) -> float:
    """Closed-form left side of the separability inequality (>= 0: separable)."""
    return p.mu_t * p.mu_r - p.n_pdc * (1.0 + p.mu_t + p.mu_r)


def check_separability(p: ModeParams) -> SeparabilityVerdict:
    """Classify the lossless pair: check_separability_lossy at tau = 1."""
    return check_separability_lossy(p, 1.0)


def check_separability_lossy(p: ModeParams, tau: float) -> SeparabilityVerdict:
    """Classify the pair after an overall transmission tau on both arms.

    The verdict is the sign of the closed-form margin, tau^2 times the
    lossless one, so it is independent of tau for every tau in (0, 1].  Also
    computes the smallest symplectic eigenvalue of the partially transposed
    lossy covariance; the two routes agree away from the boundary and tests
    treat any disagreement as a failure.
    """
    lossy = apply_loss(build_covariance(p), tau)  # checks tau before tau ** 2 below reads it
    margin = tau ** 2 * separability_margin(p)
    nu_min = symplectic_eigenvalues(partial_transpose(lossy))[0]
    return SeparabilityVerdict(margin >= 0.0, margin, nu_min)
