"""Independent references for the library's pair kernel.

The library reads every diagnostic of a pair from one array kernel
(gaussian._statistics_columns and gaussian._separability_columns), and
its scalar functions read that same kernel at one point, so they cannot
check it.  closed_forms writes the intensity diagnostics out in Python
floats from the thermal moments, and the symplectic functions compute the
partial-transpose eigenvalue the long way, through an explicit partial
transpose and a Hermitian eigensolver.  They are the tests' oracle.
"""

import math

import numpy as np

from thermalpdc import CovarianceBlock, ModeParams, build_covariance

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


def closed_forms(mu_t: float, mu_r: float, n_pdc: float, tau: float = 1.0) -> dict:
    """gamma, cross_covariance, nrf, nrf_threshold and the lossy margin of a
    pair, keyed as the columns of correlations.sweep_columns.

    Each arm is thermal with mean <n> = mu + n_pdc s, s = 1 + mu_t + mu_r,
    and variance <n> (<n> + 1); the cross covariance is n_pdc (1 + n_pdc)
    s^2.  gamma is the cross covariance over the geometric mean of the
    variances, and nrf the variance of n_T - n_R over the shot noise
    <n_T> + <n_R>; each is None where it is 0/0.  The threshold is
    (mu_t^2 + mu_r^2) / (2 s) and the margin tau^2 (mu_t mu_r - n_pdc s).
    """
    s = 1.0 + mu_t + mu_r
    mean_t, mean_r = mu_t + n_pdc * s, mu_r + n_pdc * s
    var_t, var_r = mean_t * (mean_t + 1.0), mean_r * (mean_r + 1.0)
    cross = n_pdc * (1.0 + n_pdc) * s * s
    shot = mean_t + mean_r
    return {
        "gamma": None if var_t == 0.0 or var_r == 0.0 else cross / math.sqrt(var_t) / math.sqrt(var_r),
        "cross_covariance": cross,
        "nrf": None if shot == 0.0 else (var_t + var_r - 2.0 * cross) / shot,
        "nrf_threshold": (mu_t * mu_t + mu_r * mu_r) / (2.0 * s),
        "margin": tau * tau * (mu_t * mu_r - n_pdc * s),
    }
