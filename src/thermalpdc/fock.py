"""Exact truncated Fock-space evolution of one thermally seeded pair.

This is the brute-force reference implementation used to validate the
Gaussian-level results.  The pair generator
kappa (e^{i phase} a_T^dag a_R^dag - h.c.) only adds or removes photon
pairs, so it never changes the photon-number difference d = n_T - n_R and
acts on each band of fixed d as a tridiagonal matrix that only couples
even rungs to odd ones.  Once rung r of a band carries the gauge
e^{i phase r}, that matrix is kappa K with K real antisymmetric, and it
depends on d only through the gap |d|.  So bands d and -d are evolved by
one real orthogonal matrix O = e^{kappa K}, built from one SVD of K's
even-odd block, and the thermal mixture of inputs on band d is
e^{i phase (r - r')} (O diag(w_d) O^T)[r, r'].

The generator is padded beyond the band's rungs so that its truncation
edge does not reflect weight back into them.  The padding starts at
FIRST_PAD rungs and doubles, up to cutoff + 1, until the thermally weighted
amplitude that the padded evolution carries to its last two rungs is at
most EDGE_TOLERANCE; each gap starts from the previous gap's padding.
Dim seeds keep a few rungs of padding; bright seeds, where that check does
not pass, are padded by cutoff + 1 rungs.

The SVD of a gap's even-odd block depends on the gap and the padded size
alone, never on the seeds, gain or phase, so each process keeps the
factors, read-only, in one table of at most 4 MiB (_FACTORS), whose held
bytes are counted as entries are admitted; a full table admits no more and
evicts nothing.  The same LAPACK call on the same block gives the same
factors, so an evolution is the same bit for bit whether it computes them or
reads them.  After the first evolution, every later one at the same cutoff
and padding pays only _evolution: the cutoff-60 demo oracle evolves in
about 7.8 ms cold and 2.3 ms warm (BLAS on one thread).

The output density matrix is truncated at a photon-number cutoff per mode.
The truncated weight is reported as a trace deficit, never hidden.

The output state is kept factored: per gap, the float64 rows of O on the
band's rungs and the input weights of bands +-gap, about
8 sum_side (side^2 + 2 side) bytes for side 1 to cutoff + 1 (0.6 MiB at
cutoff 60, where the 2 cutoff + 1 complex bands would take 2.3 MiB and the
dense matrix of side (cutoff + 1)^2 211 MiB).  Every diagnostic the
oracle reads is a function of those factors: the joint distribution is
(O o O) w per band and the anomalous moment a weighted first
sub-diagonal.  The bands themselves are built only on demand.

validate_factorization checks the Gaussian moment factorization behind the
ghost correlation map against this evolution, one mode pair at a time.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .gaussian import ModeParams, _real, _refuse_overflow, build_covariance

# Floating-point floor added to 10x the trace deficit in validate_factorization.
FACTORIZATION_TOL_FLOOR = 1e-8
# Largest weighted amplitude a padded band evolution may carry into the last
# two rungs of its generator (rows -2 and -1 of _evolution), and the
# padding, in rungs, that the first band tries.
EDGE_TOLERANCE = 1e-15
FIRST_PAD = 8


@dataclass(frozen=True, eq=False)
class TwoModeFockState:
    """Truncated two-mode density matrix, factored per photon-difference gap.

    The state is block diagonal in d = n_T - n_R, for d from -cutoff to
    cutoff.  Band d has side cutoff + 1 - |d|, and its rung r is the
    product state |n_T>_T |n_R>_R with
    (n_T, n_R) = (r + max(d, 0), r + max(-d, 0)); entries between different
    bands are zero.  For side = cutoff + 1 - gap, evolutions[gap] is the
    (side, side) float64 evolution O of bands d = +-gap on their rungs and
    weights[gap] the (side, 2) input weights w of the rungs of band gap
    (column 0) and band -gap (column 1).  Band d is
    e^{i phase (r - r')} (O diag(w) O^T)[r, r'].  Its diagonal, the joint
    distribution, is computed once from (O o O) w; trace_deficit = 1 - trace
    collects both the unseeded input tail and the evolved weight pushed
    beyond the cutoff.  bands, matrix, hermiticity_defect and min_eigenvalue
    build the bands on every call.
    """

    cutoff: int
    phase: float
    evolutions: tuple[np.ndarray, ...]
    weights: tuple[np.ndarray, ...]
    trace_deficit: float = field(init=False)
    _joint: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dim = self.cutoff + 1
        sides = range(dim, 0, -1)
        shapes = ([o.shape for o in self.evolutions], [w.shape for w in self.weights])
        if shapes != ([(s, s) for s in sides], [(s, 2) for s in sides]):
            raise ValueError(
                f"evolutions and weights must have shapes (side, side) and (side, 2) for side "
                f"cutoff + 1 - gap, gap from 0 to cutoff {self.cutoff}"
            )
        # band d is the diagonal P[r + max(d, 0), r + max(-d, 0)], written through a flat stride
        joint = np.zeros((dim, dim))
        flat = joint.reshape(-1)
        for gap, (o, w) in enumerate(zip(self.evolutions, self.weights)):
            diagonals = (o * o) @ w
            flat[gap * dim :: dim + 1] = diagonals[:, 0]
            flat[gap : (dim - gap) * dim : dim + 1] = diagonals[:, 1]
        joint.flags.writeable = False
        object.__setattr__(self, "_joint", joint)
        object.__setattr__(self, "trace_deficit", 1.0 - float(joint.sum()))

    @property
    def bands(self) -> tuple[np.ndarray, ...]:
        """The 2 cutoff + 1 complex bands, d from -cutoff to cutoff, built on
        every access; each band's diagonal is read from joint_distribution."""
        dim = self.cutoff + 1
        # e^{i phase (r - r')} for rungs r, r' < dim, a view of the 2 dim - 1 phases it takes
        phases = np.exp(1j * self.phase * np.arange(-self.cutoff, dim))
        gauge = np.lib.stride_tricks.sliding_window_view(phases, dim)[:, ::-1]
        bands = [None] * (2 * self.cutoff + 1)
        for gap, (o, w) in enumerate(zip(self.evolutions, self.weights)):
            side = dim - gap
            for d, column in ((gap, 0), (-gap, 1)) if gap else ((0, 0),):
                band = gauge[:side, :side] * ((o * w[:, column]) @ o.T)
                band.reshape(-1)[:: side + 1] = np.diagonal(self._joint, -d)
                bands[d + self.cutoff] = band
        return tuple(bands)

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
        """P(n_T, n_R) as a (cutoff+1, cutoff+1) array: band d is its diagonal
        P[r + max(d, 0), r + max(-d, 0)], read from the factors as (O o O) w."""
        return self._joint.copy()

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

    Band d is e^{i phase (r - r')} (O diag(w) O^T)[r, r'], with w the product
    of geometric input weights P(n) = mu^n / (1 + mu)^(n+1) of its rungs
    within the cutoff and O the real pair evolution on those rungs (see
    _evolution), so the pump phase enters only through that gauge; the
    state keeps O and the weights of bands +-gap once per gap.  Raises
    ValueError for a cutoff or max_trace_deficit out of range or if the
    input tails beyond the cutoff exceed a tenth of max_trace_deficit (see
    input_tail_problem), and if the trace deficit exceeds max_trace_deficit
    in magnitude.
    """
    problem = input_tail_problem(p.mu_t, p.mu_r, cutoff, max_trace_deficit)
    if problem:
        raise ValueError(problem)
    dim = cutoff + 1
    w_t = _thermal_weights(p.mu_t, cutoff)
    w_r = _thermal_weights(p.mu_r, cutoff)
    evolutions, weights = [], []
    pad = min(FIRST_PAD, dim)
    for gap in range(dim):
        side = dim - gap
        # rung r of band gap is (r + gap, r), of band -gap (r, r + gap)
        w = np.empty((side, 2))
        np.multiply(w_t[gap:], w_r[:side], out=w[:, 0])
        np.multiply(w_t[:side], w_r[gap:], out=w[:, 1])
        # bands gap and -gap share their generator; its padding grows from the
        # last gap's until the weight its evolution carries to the edge, from
        # either band, is within EDGE_TOLERANCE (a NaN weight fails the check);
        # at cutoff + 1 it stops growing
        top = np.maximum(w[:, 0], w[:, 1])
        o = _evolution(p, _band_svd(gap, (side + pad + 1) // 2), side)
        while pad < dim and not (np.abs(o[-2]) + np.abs(o[-1])) @ top <= EDGE_TOLERANCE:
            pad = min(2 * pad, dim)
            if 2 * ((side + pad + 1) // 2) != len(o):  # else the padded generator is unchanged
                o = _evolution(p, _band_svd(gap, (side + pad + 1) // 2), side)
        evolutions.append(o[:side].copy())  # a copy, so the padded rows are freed
        weights.append(w)
    state = TwoModeFockState(cutoff, p.phase, tuple(evolutions), tuple(weights))
    if abs(state.trace_deficit) > max_trace_deficit:
        raise ValueError(
            f"trace deficit {state.trace_deficit:.3e} exceeds {max_trace_deficit:.3e} in magnitude; raise the cutoff"
        )
    return state


class _FactorTable:
    """Read-only arrays by key, holding at most budget bytes in all.

    The held bytes are counted as entries are admitted.  A full table
    admits nothing more and evicts nothing: a scan through more factors
    than the budget holds (a cutoff-200 run) cannot push out the factors
    already held, and a repeated scan reuses its first, largest factors
    instead of missing on every lookup, as it would under LRU.  A process
    whose cutoffs change keeps the factors it met first; they stay exact,
    and the rest are computed on every call as without the table.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._entries = {}
        self._lock = threading.Lock()

    def get(self, key):
        return self._entries.get(key)

    def admit(self, key, arrays: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
        """Make arrays read-only and hold them under key if they fit; returns them."""
        for a in arrays:
            a.flags.writeable = False
        size = sum(a.nbytes for a in arrays)
        with self._lock:
            if key not in self._entries and self.nbytes + size <= self.budget:
                self._entries[key] = arrays
                self.nbytes += size
        return arrays

    def clear(self):
        with self._lock:
            self._entries.clear()
            self.nbytes = 0


# The band SVDs of one process, by (gap, h); 4 MiB holds every factor of a
# dim-seed evolution, padded by 8 or 9 rungs, up to cutoff 135 (3.9 MiB).
_FACTORS = _FactorTable(4 << 20)


def _band_svd(gap: int, h: int) -> tuple[np.ndarray, ...]:
    """SVD B = P Sigma Q^T of the even-odd block of the generator K of the bands d = +-gap.

    On 2 h rungs K = L - L^T, with L raising rung r by
    sqrt((r + 1)(r + 1 + gap)), so B[j, j] = K[2 j, 2 j + 1] is negative and
    B[j + 1, j] = K[2 j + 2, 2 j + 1] positive.  evolve_thermal_pair takes
    h = (side + pad + 1) // 2, so the generator is padded by pad or pad + 1
    rungs beyond the band's side rungs.  B depends on gap and h alone, so
    the read-only factors (P, Sigma, Q^T) are kept in _FACTORS while it has
    room and shared by every later evolution in the process.
    """
    factors = _FACTORS.get((gap, h))
    if factors is not None:
        return factors
    r = np.arange(2 * h - 1)
    off = np.sqrt((r + 1.0) * (r + 1.0 + gap))
    b = np.zeros((h, h))
    flat = b.reshape(-1)
    flat[:: h + 1] = -off[::2]
    flat[h :: h + 1] = off[1::2]
    return _FACTORS.admit((gap, h), np.linalg.svd(b))


def _evolution(p: ModeParams, factors, side: int) -> np.ndarray:
    """O = e^{kappa K} on all 2 h rungs of the padded generator, from each of
    the bottom side rungs of the bands d = +-gap: a float64 array of shape
    (2 h, side).

    factors is _band_svd(gap, h).  K only couples even rungs to odd ones: in
    that order K = [[0, B], [-B^T, 0]] with B square of side h.  From the SVD
    B = P Sigma Q^T, e^{kappa K} has even block P cos(kappa Sigma) P^T, odd
    block Q cos(kappa Sigma) Q^T, even-odd block P sin(kappa Sigma) Q^T and
    odd-even block -Q sin(kappa Sigma) P^T, so one SVD of side h replaces an
    eigendecomposition of side 2 h.  The diagonal blocks are written as
    identity plus correction, so an uncoupled pair stays exactly unevolved.
    Rows 2 h - 2 and 2 h - 1 carry each kept rung's amplitude into the last
    two rungs, where the truncated coupling to rung 2 h would start to
    reflect weight back.
    """
    p_even, sigma, q_t = factors
    q_odd = q_t.T
    p_kept, q_kept = p_even[: (side + 1) // 2], q_odd[: side // 2]
    cos_m1 = -2.0 * np.sin(0.5 * p.coupling * sigma) ** 2
    sin = np.sin(p.coupling * sigma)
    o = np.empty((2 * len(sigma), side))
    o[::2, ::2] = (p_even * cos_m1) @ p_kept.T
    o[1::2, 1::2] = (q_odd * cos_m1) @ q_kept.T
    o[::2, 1::2] = (p_even * sin) @ q_kept.T
    o[1::2, ::2] = -(q_odd * sin) @ p_kept.T
    o.reshape(-1)[: side * (side + 1) : side + 1] += 1.0
    return o


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
    its upper rung.  In bands d = +-gap that weight is
    sqrt((r + 1)(r + 1 + gap)) and the sub-diagonal is
    e^{i phase} sum_k O[r + 1, k] w_k O[r, k], read from the factors.
    """
    total = 0.0
    for gap, (o, w) in enumerate(zip(state.evolutions, state.weights)):
        r = np.arange(1.0, len(o))
        sub = (o[1:] * o[:-1]) @ (w if gap else w[:, :1])  # gap 0 is the one band d = 0
        total += np.sqrt(r * (r + gap)) @ sub.sum(axis=1)
    return complex(np.exp(1j * state.phase) * total)


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
    FACTORIZATION_TOL_FLOOR.  The pairs share the band SVD factors of the
    process's table (see _band_svd), so at one cutoff only the first pair,
    or a padding not met before, pays for them.
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
