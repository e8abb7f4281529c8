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

The evolution only adds or removes photon pairs, so it never changes the
photon-number difference d = n_T - n_R, and the output state is block
diagonal with one block (band) per d.  The state is kept as those
2 cutoff + 1 bands and never as the dense matrix of side (cutoff + 1)^2:
about 16 sum_d (cutoff + 1 - |d|)^2 bytes, 2.3 MiB at cutoff 60 where the
dense matrix takes 211 MiB.  Every diagnostic reads one band at a time.
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
        # Compare squares: tanh(arccosh(exp(g)))^2 = 1 - exp(-2 g) carries the
        # ~1e-16 absolute rounding of g = ln cosh, which the modulus would
        # amplify without bound at small coupling (g rounds to 0 below ~1e-8).
        expected = -math.expm1(-2.0 * self.log_gain)
        if abs(abs(self.pair_amplitude) ** 2 - expected) > 1e-12:
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
    """Truncated two-mode density matrix, stored as photon-difference bands.

    bands[d + cutoff] is the block of photon-number difference
    d = n_T - n_R, for d from -cutoff to cutoff; it has side
    cutoff + 1 - |d|, and its rung r is the product state |n_T>_T |n_R>_R
    with (n_T, n_R) = (r + max(d, 0), r + max(-d, 0)).  Entries between
    different bands are zero.  trace_deficit = 1 - trace collects both the
    unseeded input tail and the evolved weight pushed beyond the cutoff.
    """

    cutoff: int
    bands: tuple[np.ndarray, ...]
    trace_deficit: float

    def __post_init__(self):
        want = [(self.cutoff + 1 - abs(d),) * 2 for d in range(-self.cutoff, self.cutoff + 1)]
        if [band.shape for band in self.bands] != want:
            raise ValueError(f"bands must be squares of side cutoff + 1 - |d| for cutoff {self.cutoff}")

    @property
    def matrix(self) -> np.ndarray:
        """Dense matrix over the product basis |n>_T |m>_R with the Test index
        major (flat index n * (cutoff + 1) + m), built on every access.  It
        takes 16 (cutoff + 1)^4 bytes, so only small-cutoff checks read it."""
        dim = self.cutoff + 1
        dense = np.zeros((dim * dim, dim * dim), dtype=complex)
        for d, band in zip(range(-self.cutoff, dim), self.bands):
            n_t, n_r = _rungs(d, dim)
            idx = n_t * dim + n_r
            dense[np.ix_(idx, idx)] = band
        return dense

    def hermiticity_defect(self) -> float:
        """Largest |rho - rho^dagger| entry; stays below 1e-10 for states
        assembled by evolve_thermal_pair."""
        return max(float(np.abs(band - band.conj().T).max()) for band in self.bands)

    def joint_distribution(self) -> np.ndarray:
        """P(n_T, n_R) as a (cutoff+1, cutoff+1) array from the band diagonals."""
        dim = self.cutoff + 1
        p = np.zeros((dim, dim))
        for d, band in zip(range(-self.cutoff, dim), self.bands):
            p[_rungs(d, dim)] = np.real(np.diagonal(band))
        return p

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue, the minimum over the bands; a positivity check."""
        return min(float(np.linalg.eigvalsh(band)[0]) for band in self.bands)


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
    max_trace_deficit (see input_tail_problem), or if the assembled trace
    deficit exceeds it in absolute value: a negative deficit means the
    evolved amplitudes lost precision.
    """
    problem = input_tail_problem(mu_t, mu_r, cutoff, max_trace_deficit)
    if problem:
        raise ValueError(problem)
    dim = cutoff + 1
    w_t = _thermal_weights(mu_t, cutoff)
    w_r = _thermal_weights(mu_r, cutoff)
    # The evolution never leaves the band of d = n_T - n_R, and every evolved
    # vector spans its band from the bottom rung, so bands accumulate
    # full-size outer products.
    bands = tuple(np.zeros((dim - abs(d), dim - abs(d)), dtype=complex) for d in range(-cutoff, dim))
    for n in range(dim):
        if w_t[n] < _WEIGHT_FLOOR:
            continue
        for m in range(dim):
            weight = w_t[n] * w_r[m]
            if weight < _WEIGHT_FLOOR:
                continue
            amps = evolve_fock_pair(n, m, coeffs, cutoff)
            band = bands[n - m + cutoff]
            band += weight * np.outer(amps, amps.conj())
    deficit = 1.0 - sum(float(np.trace(band).real) for band in bands)
    if deficit > max_trace_deficit:
        raise ValueError(
            f"trace deficit {deficit:.3e} exceeds {max_trace_deficit:.3e}; "
            "raise the cutoff"
        )
    if deficit < -max_trace_deficit:
        # The alternating k-sum of evolve_fock_pair cancels catastrophically
        # at large input photon numbers and gains, inflating the norm.
        raise ValueError(
            f"trace deficit {deficit:.3e} is below {-max_trace_deficit:.3e}: the "
            "evolved amplitudes lost precision; lower the seeds or the gain"
        )
    return TwoModeFockState(cutoff, bands, deficit)


def input_tail_problem(mu_t, mu_r, cutoff: int, max_trace_deficit: float) -> str | None:
    """Why thermal seeds of means mu_t, mu_r do not fit under the cutoff, or None.

    Each input tail beyond the cutoff, (mu / (1 + mu))^(cutoff + 1), must stay
    within a tenth of max_trace_deficit.
    """
    if mu_t < 0 or mu_r < 0:
        return "seed means must be >= 0"
    for mu in (mu_t, mu_r):
        tail = (mu / (1.0 + mu)) ** (cutoff + 1) if mu > 0 else 0.0
        if tail > max_trace_deficit / 10.0:
            return (
                f"cutoff {cutoff} too small: input tail {tail:.3e} exceeds "
                f"{max_trace_deficit / 10.0:.3e}"
            )
    return None


def _rungs(d: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Photon numbers n_T and n_R of the rungs of band d, bottom rung first."""
    r = np.arange(dim - abs(d))
    return r + max(d, 0), r + max(-d, 0)


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

    Equals sum over (n, m) of sqrt((n+1)(m+1)) rho[(n+1, m+1), (n, m)]; in
    each band that is the first sub-diagonal, weighted by sqrt(n_T n_R) of
    its upper rung.
    """
    dim = state.cutoff + 1
    total = 0.0j
    for d, band in zip(range(-state.cutoff, dim), state.bands):
        n_t, n_r = _rungs(d, dim)
        total += np.sqrt(n_t[1:] * n_r[1:]) @ np.diagonal(band, -1)
    return complex(total)


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
