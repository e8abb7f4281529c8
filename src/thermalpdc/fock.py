"""Exact truncated Fock-space evolution of one thermally seeded pair.

This is the brute-force reference implementation used to validate the
Gaussian-level results.  The pair generator
kappa (e^{i phase} a_T^dag a_R^dag - h.c.) only adds or removes photon
pairs, so it never changes the photon-number difference d = n_T - n_R and
acts on each band of fixed d as a tridiagonal matrix that only couples
even rungs to odd ones.  Each band is evolved by one unitary, built from one
SVD of that even-odd coupling, and the thermal mixture of inputs on the band
is U diag(w) U^dag.

The generator is padded beyond the band's rungs so that its truncation
edge does not reflect weight back into them.  The padding starts at
FIRST_PAD rungs and doubles, up to cutoff + 1, until the thermally weighted
amplitude that the padded evolution carries to its last two rungs is at
most EDGE_TOLERANCE; each band starts from the previous band's padding.
Dim seeds keep a few rungs of padding; bright seeds, where that check does
not pass, are padded by cutoff + 1 rungs.

The output density matrix is truncated at a photon-number cutoff per mode.
The truncated weight is reported as a trace deficit, never hidden.

The output state is block diagonal with one block (band) per d.  It is kept
as those 2 cutoff + 1 bands and never as the dense matrix of side
(cutoff + 1)^2: about 16 sum_d (cutoff + 1 - |d|)^2 bytes, 2.3 MiB at cutoff
60 where the dense matrix takes 211 MiB.  Every diagnostic reads one band
at a time.

validate_factorization checks the Gaussian moment factorization behind the
ghost correlation map against this evolution, one mode pair at a time.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .gaussian import ModeParams, _real, _refuse_overflow, build_covariance

# Floating-point floor added to 10x the trace deficit in validate_factorization.
FACTORIZATION_TOL_FLOOR = 1e-8
# Largest weighted amplitude a padded band evolution may carry into the last
# two rungs of its generator (see _edge_amplitudes), and the padding, in
# rungs, that the first band tries.
EDGE_TOLERANCE = 1e-15
FIRST_PAD = 8


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


def evolve_thermal_pair(p: ModeParams, cutoff: int, max_trace_deficit: float = 1e-6) -> TwoModeFockState:
    """Output state for thermal seeds of means p.mu_t and p.mu_r.

    Band d is U diag(w) U^dag, with w the product of geometric input weights
    P(n) = mu^n / (1 + mu)^(n+1) of its rungs within the cutoff and U the
    pair evolution on those rungs.  Raises ValueError for a cutoff or
    max_trace_deficit out of range or if the input tails beyond the cutoff
    exceed a tenth of max_trace_deficit (see input_tail_problem), and if the
    trace deficit exceeds max_trace_deficit in magnitude.
    """
    problem = input_tail_problem(p.mu_t, p.mu_r, cutoff, max_trace_deficit)
    if problem:
        raise ValueError(problem)
    dim = cutoff + 1
    w_t = _thermal_weights(p.mu_t, cutoff)
    w_r = _thermal_weights(p.mu_r, cutoff)
    bands = [None] * (2 * cutoff + 1)
    pad = min(FIRST_PAD, dim)
    for gap in range(dim):
        side = dim - gap
        weights = {}
        for d in {gap, -gap}:
            n_t, n_r = _rungs(d, dim)
            weights[d] = w_t[n_t] * w_r[n_r]
        # bands d and -d share their generator; its padding grows from the last
        # band's until the weight its evolution carries to the edge, from
        # either band, is within EDGE_TOLERANCE (a NaN weight fails the check);
        # at cutoff + 1 it stops growing
        top = np.maximum(weights[gap], weights[-gap])
        factors = _band_svd(gap, (side + pad + 1) // 2)
        while pad < dim and not _edge_amplitudes(p, factors, side) @ top <= EDGE_TOLERANCE:
            pad = min(2 * pad, dim)
            if (side + pad + 1) // 2 != len(factors[1]):  # else the padded generator is unchanged
                factors = _band_svd(gap, (side + pad + 1) // 2)
        u = _band_unitary(p, factors, side)
        for d, w in weights.items():
            bands[d + cutoff] = (u * w) @ u.conj().T
    deficit = 1.0 - sum(float(np.trace(band).real) for band in bands)
    if abs(deficit) > max_trace_deficit:
        raise ValueError(
            f"trace deficit {deficit:.3e} exceeds {max_trace_deficit:.3e} in magnitude; raise the cutoff"
        )
    return TwoModeFockState(cutoff, tuple(bands), deficit)


def _band_svd(gap: int, h: int):
    """SVD B = P Sigma Q^T of the even-odd coupling of the bands d = +-gap on 2 h rungs.

    B[j, j] couples rung 2 j to 2 j + 1 and B[j + 1, j] couples 2 j + 1 to
    2 j + 2, with sqrt((r + 1)(r + 1 + gap)) between rungs r and r + 1.
    evolve_thermal_pair takes h = (side + pad + 1) // 2, so the generator is
    padded by pad or pad + 1 rungs beyond the band's side rungs.
    """
    r = np.arange(2 * h - 1)
    off = np.sqrt((r + 1.0) * (r + 1.0 + gap))
    return np.linalg.svd(np.diag(off[::2]) + np.diag(off[1::2], -1))


def _band_unitary(p: ModeParams, factors, side: int) -> np.ndarray:
    """Pair evolution among the bottom side rungs of the bands d = +-gap.

    factors is _band_svd(gap, h), from the generator on 2 h >= side rungs.
    Conjugated by D = diag(e^{i r (phase + pi/2)}) the generator becomes
    -i kappa S with S real symmetric, and S only couples even rungs to odd
    ones: in that order
    S = [[0, B], [B^T, 0]] with B square of side h.  From the SVD
    B = P Sigma Q^T, e^{-i kappa S} has even block P cos(kappa Sigma) P^T,
    odd block Q cos(kappa Sigma) Q^T and even-odd block
    -i P sin(kappa Sigma) Q^T, so one SVD of side h replaces an
    eigendecomposition of side 2 h.  The diagonal blocks are written as
    identity plus correction, so an uncoupled pair stays exactly unevolved.
    """
    p_even, sigma, q_t = factors
    p_even = p_even[: (side + 1) // 2]
    q_odd = q_t[:, : side // 2].T
    cos_m1 = -2.0 * np.sin(0.5 * p.coupling * sigma) ** 2
    u = np.empty((side, side), dtype=complex)
    u[::2, ::2] = np.eye(len(p_even)) + (p_even * cos_m1) @ p_even.T
    u[1::2, 1::2] = np.eye(len(q_odd)) + (q_odd * cos_m1) @ q_odd.T
    u[::2, 1::2] = -1j * ((p_even * np.sin(p.coupling * sigma)) @ q_odd.T)
    u[1::2, ::2] = u[::2, 1::2].T
    rotation = np.exp(1j * (p.phase + math.pi / 2.0) * np.arange(side))
    return rotation[:, None] * u * rotation.conj()


def _edge_amplitudes(p: ModeParams, factors, side: int) -> np.ndarray:
    """|U[2 h - 2, k]| + |U[2 h - 1, k]| for each rung k < side, from the
    SVD factors of _band_unitary(p, factors, side).

    U is e^{-i kappa S} on all 2 h rungs of the padded generator, so these are
    the amplitudes each kept input rung carries into its last two rungs,
    where the truncated coupling to rung 2 h would start to reflect weight
    back.  D only changes phases.  With 2 h >= side + 2 both rungs lie above
    the band, so no identity term enters.
    """
    p_even, sigma, q_t = factors
    cos_m1 = -2.0 * np.sin(0.5 * p.coupling * sigma) ** 2
    sin = np.sin(p.coupling * sigma)
    p_kept = p_even[: (side + 1) // 2]
    q_kept = q_t[:, : side // 2].T
    p_last, q_last = p_even[-1], q_t[:, -1]
    edge = np.empty(side)
    edge[::2] = np.abs(p_kept @ (p_last * cos_m1)) + np.abs(p_kept @ (q_last * sin))
    edge[1::2] = np.abs(q_kept @ (p_last * sin)) + np.abs(q_kept @ (q_last * cos_m1))
    return edge


def input_tail_problem(mu_t, mu_r, cutoff: int, max_trace_deficit: float) -> str | None:
    """Why thermal seeds of means mu_t, mu_r do not fit under the cutoff, or None.

    Each input tail beyond the cutoff, (mu / (1 + mu))^(cutoff + 1), must stay
    within a tenth of max_trace_deficit.  Raises ValueError, naming the
    field, unless mu_t and mu_r are finite real numbers >= 0, cutoff an
    integer >= 1 (not a bool) and max_trace_deficit a finite real number > 0.
    """
    mu_t, mu_r = _real("mu_t", mu_t, lambda v: v >= 0, ">= 0"), _real("mu_r", mu_r, lambda v: v >= 0, ">= 0")
    cutoff = _real("cutoff", cutoff, lambda v: v >= 1, ">= 1", numbers.Integral)
    max_trace_deficit = _real("max_trace_deficit", max_trace_deficit, lambda v: v > 0, "> 0")
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
    covariance cross entry n_pdc (1 + n_pdc) (1 + mu_t + mu_r)^2.  Raises
    ValueError, naming the inputs, where a moment overflows a float.
    """
    def closed_forms():
        s = 1.0 + p.mu_t + p.mu_r
        mean_t = p.mu_t + p.n_pdc * s
        mean_r = p.mu_r + p.n_pdc * s
        return mean_t, mean_r, mean_t * (mean_t + 1.0), mean_r * (mean_r + 1.0), p.n_pdc * (1.0 + p.n_pdc) * s ** 2

    return MomentSet(*_refuse_overflow(closed_forms, **vars(p)))



@dataclass(frozen=True)
class FactorizationCheck:
    """One mode pair of the Gaussian moment-factorization validation."""

    params: ModeParams
    cutoff: int
    trace_deficit: float
    fourth_moment: float
    factorized: float
    moment_error: float
    cross_value: complex
    cross_expected: complex
    cross_error: float
    tolerance: float
    passed: bool


def validate_factorization(params: Iterable[ModeParams], cutoff: int = 40) -> list[FactorizationCheck]:
    """Check the moment factorization behind the ghost correlation map.

    For each mode pair (a gain profile's, say: [profile.mode_params(q) for q
    in qs]) the exact Fock evolution must satisfy

        <n_T n_R> = <n_T> <n_R> + |<b_T b_R>|^2

    and the anomalous moment must equal exp(i phase) times the covariance
    cross entry C = u v (1 + mu_t + mu_r) of gaussian.build_covariance.
    Errors are compared against 10x the trace deficit plus
    FACTORIZATION_TOL_FLOOR.
    """
    checks = []
    for p in params:
        state = evolve_thermal_pair(p, cutoff, max_trace_deficit=1e-3)
        mom = moments(state)
        fourth = mom.cross + mom.mean_t * mom.mean_r
        cross = cross_amplitude(state)
        factorized = mom.mean_t * mom.mean_r + abs(cross) ** 2
        moment_error = abs(fourth - factorized) / max(abs(fourth), 1.0)
        expected = build_covariance(p).matrix[0, 2] * np.exp(1j * p.phase)
        cross_error = abs(cross - expected) / max(abs(expected), 1.0)
        tol = 10.0 * state.trace_deficit + FACTORIZATION_TOL_FLOOR
        checks.append(
            FactorizationCheck(
                p,
                cutoff,
                state.trace_deficit,
                float(fourth),
                float(factorized),
                float(moment_error),
                complex(cross),
                complex(expected),
                float(cross_error),
                float(tol),
                bool(moment_error <= tol and cross_error <= tol),
            )
        )
    return checks
