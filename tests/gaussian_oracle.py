"""Numerical symplectic spectrum of a two-mode covariance block.

The library reads the partial-transpose eigenvalue from the two-mode
invariants in closed form (gaussian._separability_columns); these functions
compute it the long way, through an explicit partial transpose and a
Hermitian eigensolver, and are the tests' independent oracle for it.
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
