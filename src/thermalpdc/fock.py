"""Exact truncated Fock-space evolution of one thermally seeded pair.

This is the brute-force reference implementation used to validate the
Gaussian-level results.  The pair interaction factorizes, for each input
Fock product |n>_T |m>_R, into a normally ordered product of a two-mode
pair-creation exponential, a damping term and a pair-annihilation
exponential, so the evolved vector has a closed-form expansion whose
coefficients mix large factorial ratios with small exponentials.  All
coefficient magnitudes are therefore computed in log space.

The output density matrix of the pair is the thermal mixture of those
evolved pure states, truncated at a photon-number cutoff per mode.  The
truncated weight is reported as a trace deficit, never hidden.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv
from .gaussian import ModeParams

# Pairs of input Fock weights below this are skipped during assembly; the
# skipped weight is bounded by cutoff^2 * 1e-18 and lands in trace_deficit.
_WEIGHT_FLOOR = 1e-18


@dataclass(frozen=True)
class DisentangledCoefficients:
    """Parameters of the normally ordered form of the pair evolution.

    pair_amplitude multiplies the pair-creation generator and has modulus
    tanh|kappa| < 1; log_gain = ln cosh|kappa| >= 0 sets the damping term.
    The phase convention matches the Heisenberg input-output relation
    b_T = cosh|kappa| a_T + e^{i phase} sinh|kappa| a_R^dagger, so the
    evolved cross moment <a_T a_R> is e^{i phase} times the covariance
    cross entry.
    """

    pair_amplitude: complex
    log_gain: float

    def __post_init__(self):
        if self.log_gain < 0:
            raise ValueError(f"log_gain must be >= 0, got {self.log_gain}")
        expected = math.tanh(math.acosh(math.exp(self.log_gain)))
        if abs(abs(self.pair_amplitude) - expected) > 1e-12 * (1.0 + expected):
            raise ValueError(
                "inconsistent coefficients: |pair_amplitude| must equal "
                "tanh(arccosh(exp(log_gain)))"
            )

    @classmethod
    def from_coupling(cls, coupling: float, phase: float = 0.0) -> "DisentangledCoefficients":
        if coupling < 0:
            raise ValueError(f"coupling must be >= 0, got {coupling}")
        zeta = math.tanh(coupling) * complex(math.cos(phase), math.sin(phase))
        return cls(zeta, math.log(math.cosh(coupling)))

    @classmethod
    def from_mode_params(cls, p: ModeParams) -> "DisentangledCoefficients":
        return cls.from_coupling(p.coupling, p.phase)


@dataclass(frozen=True)
class TwoModeFockState:
    """Truncated two-mode density matrix with its truncation diagnostic.

    matrix is indexed by the product basis |n>_T |m>_R with the Test index
    major: flat index = n * (cutoff + 1) + m.  trace_deficit = 1 - trace
    collects both the unseeded input tail and the evolved weight pushed
    beyond the cutoff.
    """

    cutoff: int
    matrix: np.ndarray
    trace_deficit: float

    def __post_init__(self):
        dim = (self.cutoff + 1) ** 2
        if self.matrix.shape != (dim, dim):
            raise ValueError(f"matrix must be {dim}x{dim} for cutoff {self.cutoff}")

    def hermiticity_defect(self) -> float:
        """Largest |rho - rho^dagger| entry; stays below 1e-10 for states
        assembled by evolve_thermal_pair."""
        return float(np.abs(self.matrix - self.matrix.conj().T).max())

    def joint_distribution(self) -> np.ndarray:
        """P(n_T, n_R) as a (cutoff+1, cutoff+1) array from the diagonal."""
        d = np.real(np.diagonal(self.matrix))
        return d.reshape(self.cutoff + 1, self.cutoff + 1)

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue; an expensive positivity check."""
        return float(np.linalg.eigvalsh(self.matrix)[0])


@dataclass(frozen=True)
class MomentSet:
    """First and second photon-number moments of a two-mode state."""

    mean_t: float
    mean_r: float
    var_t: float
    var_r: float
    cross: float


@functools.lru_cache
def _log_factorials(top: int) -> np.ndarray:
    """ln k! for k = 0..top, built once per top and shared read-only."""
    table = np.array([math.lgamma(k + 1.0) for k in range(top + 1)])
    table.flags.writeable = False
    return table


def action_coefficient(m, n, k, l, coeffs: DisentangledCoefficients) -> complex:
    """Expansion coefficient of the evolved Fock product |n>_T |m>_R.

    The evolution maps |n>_T |m>_R onto a sum over (k, l) of coefficients
    times |n-k+l>_T |m-k+l>_R, with 0 <= k <= min(m, n) pair annihilations
    and l >= 0 pair creations.  The magnitude is assembled in log space:

        exp[-log_gain (n + m - 2k + 1)]
        * sqrt(n! m! (n-k+l)! (m-k+l)!) / (k! l! (n-k)! (m-k)!)
        * pair_amplitude^l * (-conj(pair_amplitude))^k
    """
    if min(m, n, k, l) < 0 or k > min(m, n):
        raise ValueError(f"index range violated: m={m}, n={n}, k={k}, l={l}")
    zeta = coeffs.pair_amplitude
    if zeta == 0:
        return complex(math.exp(-coeffs.log_gain * (n + m + 1))) if k == 0 and l == 0 else 0.0j
    lf = math.lgamma
    log_mag = (
        -coeffs.log_gain * (n + m - 2 * k + 1)
        + 0.5 * (lf(n + 1) + lf(m + 1) + lf(n - k + l + 1) + lf(m - k + l + 1))
        - (lf(k + 1) + lf(l + 1) + lf(n - k + 1) + lf(m - k + 1))
        + (k + l) * math.log(abs(zeta))
    )
    angle = l * np.angle(zeta) + k * (math.pi - np.angle(zeta))
    return math.exp(log_mag) * complex(math.cos(angle), math.sin(angle))


def evolve_fock_pair(n, m, coeffs: DisentangledCoefficients, cutoff: int) -> np.ndarray:
    """Evolved vector for the input |n>_T |m>_R, truncated at the cutoff.

    The output lives entirely on the ladder |n+j>_T |m+j>_R with
    j >= -min(n, m); the returned array has one amplitude per ladder rung,
    starting from the bottom rung (min-side index zero) and running to the
    cutoff.  Distinct annihilation/creation orders reaching the same rung
    add coherently.
    """
    if max(n, m) > cutoff:
        raise ValueError("input indices exceed cutoff")
    if min(n, m) < 0:
        raise ValueError("input indices must be >= 0")
    j0 = -min(n, m)
    j_max = cutoff - max(n, m)
    amps = np.zeros(j_max - j0 + 1, dtype=complex)
    zeta = coeffs.pair_amplitude
    if zeta == 0:
        amps[-j0] = math.exp(-coeffs.log_gain * (n + m + 1))
        return amps
    k_top = min(n, m)
    lf = _log_factorials(2 * cutoff + 1)  # covers cutoff + k_top + 1 for every input
    log_z = math.log(abs(zeta))
    theta = float(np.angle(zeta))
    k = np.arange(k_top + 1)[:, None]
    l = np.arange(j_max + k_top + 1)[None, :]
    exponent = (
        -coeffs.log_gain * (n + m - 2 * k + 1)
        + 0.5 * (lf[n] + lf[m] + lf[n - k + l] + lf[m - k + l])
        - (lf[k] + lf[l] + lf[n - k] + lf[m - k])
        + (k + l) * log_z
        + 1j * (l * theta + k * (math.pi - theta))
    )
    vals = np.exp(exponent)
    for ki in range(k_top + 1):
        width = j_max + ki + 1  # rows only reach rung j = l - k <= j_max
        start = k_top - ki
        amps[start : start + width] += vals[ki, :width]
    return amps


def default_cutoff(mu_t, mu_r, n_pdc) -> int:
    """Heuristic per-mode cutoff: thermal tails decay geometrically, so a
    dozen times the largest output mean keeps the truncated weight small
    while the assembly cost grows only polynomially."""
    top = max(mu_t, mu_r) + n_pdc * (1.0 + mu_t + mu_r)
    return math.ceil(12.0 * (1.0 + top))


def evolve_thermal_pair(
    mu_t,
    mu_r,
    coeffs: DisentangledCoefficients,
    cutoff: int,
    max_trace_deficit: float = 1e-6,
) -> TwoModeFockState:
    """Output state for thermal seeds of means mu_t and mu_r.

    Mixes the evolved pure states over the product of geometric input
    weights P(n) = mu^n / (1 + mu)^(n+1), restricted to indices within the
    cutoff.  Raises if the input tails beyond the cutoff exceed a tenth of
    max_trace_deficit, or if the assembled trace deficit exceeds it.
    """
    if mu_t < 0 or mu_r < 0:
        raise ValueError("seed means must be >= 0")
    for mu in (mu_t, mu_r):
        tail = (mu / (1.0 + mu)) ** (cutoff + 1) if mu > 0 else 0.0
        if tail > max_trace_deficit / 10.0:
            raise ValueError(
                f"cutoff {cutoff} too small: input tail {tail:.3e} exceeds "
                f"{max_trace_deficit / 10.0:.3e}"
            )
    dim = cutoff + 1
    w_t = _thermal_weights(mu_t, cutoff)
    w_r = _thermal_weights(mu_r, cutoff)
    # One band per index difference delta = n_T - n_R; the evolution never
    # leaves a band, and every evolved vector spans its band from the bottom
    # rung, so bands accumulate full-size outer products.
    bands = {d: np.zeros((dim - abs(d), dim - abs(d)), dtype=complex) for d in range(-cutoff, cutoff + 1)}
    for n in range(dim):
        if w_t[n] < _WEIGHT_FLOOR:
            continue
        for m in range(dim):
            weight = w_t[n] * w_r[m]
            if weight < _WEIGHT_FLOOR:
                continue
            amps = evolve_fock_pair(n, m, coeffs, cutoff)
            bands[n - m] += weight * np.outer(amps, amps.conj())
    matrix = np.zeros((dim * dim, dim * dim), dtype=complex)
    for d, band in bands.items():
        r = np.arange(dim - abs(d))
        idx = (r + max(d, 0)) * dim + (r + max(-d, 0))
        matrix[np.ix_(idx, idx)] = band
    deficit = 1.0 - float(np.real(np.trace(matrix)))
    state = TwoModeFockState(cutoff, matrix, deficit)
    if deficit > max_trace_deficit:
        raise ValueError(
            f"trace deficit {deficit:.3e} exceeds {max_trace_deficit:.3e}; "
            "raise the cutoff"
        )
    return state


def _thermal_weights(mu, cutoff):
    n = np.arange(cutoff + 1)
    if mu == 0:
        w = np.zeros(cutoff + 1)
        w[0] = 1.0
        return w
    return np.exp(n * math.log(mu) - (n + 1) * math.log(1.0 + mu))


def moments(state: TwoModeFockState) -> MomentSet:
    """Photon-number means, variances and cross covariance.

    Computed from the raw truncated matrix without renormalizing, so
    comparisons against closed forms should allow an error proportional to
    the trace deficit.
    """
    p = state.joint_distribution()
    n = np.arange(state.cutoff + 1, dtype=float)
    p_t = p.sum(axis=1)
    p_r = p.sum(axis=0)
    mean_t = float(n @ p_t)
    mean_r = float(n @ p_r)
    var_t = float(n ** 2 @ p_t) - mean_t ** 2
    var_r = float(n ** 2 @ p_r) - mean_r ** 2
    cross = float(n @ p @ n) - mean_t * mean_r
    return MomentSet(mean_t, mean_r, var_t, var_r, cross)


def cross_amplitude(state: TwoModeFockState) -> complex:
    """Anomalous moment <a_T a_R> of the truncated state.

    Equals sum over (n, m) of sqrt((n+1)(m+1)) rho[(n+1, m+1), (n, m)].
    """
    dim = state.cutoff + 1
    rho = state.matrix.reshape(dim, dim, dim, dim)
    n = np.arange(1, dim, dtype=float)
    weights = np.sqrt(np.outer(n, n))
    return complex(np.einsum("nmnm,nm->", rho[1:, 1:, :-1, :-1], weights))


def predicted_moments(p: ModeParams) -> MomentSet:
    """Closed-form moments of the seeded pair.

    Each arm keeps thermal statistics with mean mu + n_pdc (1 + mu_t + mu_r)
    and variance mean (mean + 1); the cross covariance equals the squared
    covariance cross entry n_pdc (1 + n_pdc) (1 + mu_t + mu_r)^2.
    """
    s = 1.0 + p.mu_t + p.mu_r
    mean_t = p.mu_t + p.n_pdc * s
    mean_r = p.mu_r + p.n_pdc * s
    return MomentSet(
        mean_t,
        mean_r,
        mean_t * (mean_t + 1.0),
        mean_r * (mean_r + 1.0),
        p.n_pdc * (1.0 + p.n_pdc) * s ** 2,
    )


def write_joint_distribution_csv(state: TwoModeFockState, path) -> None:
    """Dump the diagonal joint photon distribution as n_t, n_r, probability."""
    p = state.joint_distribution()
    n_t, n_r = np.indices(p.shape)
    write_csv(path, {"n_t": n_t.ravel(), "n_r": n_r.ravel(), "probability": p.ravel()})
