"""Exact truncated Fock-space evolution of one thermally seeded pair.

This is the brute-force reference implementation used to validate the
Gaussian-level results.  The pair generator
kappa (e^{i phase} a_T^dag a_R^dag - h.c.) only adds or removes photon
pairs, so it never changes the photon-number difference d = n_T - n_R and
acts on each band of fixed d as a tridiagonal matrix that only couples
even rungs to odd ones.  Once rung r of a band carries the gauge
e^{i phase r}, that matrix is kappa K with K real antisymmetric, and it
depends on d only through the gap |d|.  So bands d and -d are evolved by
one real orthogonal matrix O = e^{kappa K}, and the thermal mixture of
inputs on band d is e^{i phase (r - r')} (O diag(w_d) O^T)[r, r'].

O is a representation matrix of SU(1,1), known in closed form (the
disentangling theorem; Wodkiewicz and Eberly, JOSA B 2, 458 (1985)): with
t = tanh kappa, c = cosh kappa and delta = m - n >= 0,

    O[m, n] = t^delta c^-(gap+1) sqrt(n! (m+gap)! / (m! (n+gap)!)) P_n^(delta, gap)(1 - 2 t^2)

and O[n, m] = (-1)^delta O[m, n], with P_n^(a, b) a Jacobi polynomial.
These are the entries of the untruncated evolution, so every column is
exact without a padded generator, and _evolutions evaluates all of them by
one Jacobi degree recurrence over every gap and diagonal at once; it keeps
nothing between calls.  The cutoff-60 demo oracle evolves in about 2.5 ms,
and bright seeds mu = (3, 3), n_pdc 1 at cutoff 120 in about 11 ms.

The output density matrix is truncated at a photon-number cutoff per mode.
The truncated weight is reported as a trace deficit, never hidden.

The output state is kept factored: per gap, the float64 rows of O on the
band's rungs, and once the two thermal input distributions w_t and w_r,
about 8 sum_side side^2 bytes for side 1 to cutoff + 1 (0.6 MiB at cutoff
60, where the 2 cutoff + 1 complex bands would take 2.3 MiB and the dense
matrix of side (cutoff + 1)^2 211 MiB).  The input weight of rung
(n_T, n_R) is w_t[n_T] w_r[n_R].  Every diagnostic the oracle reads is a
function of those factors: the joint distribution is (O o O) w per band
and the anomalous moment a weighted first sub-diagonal.  The bands
themselves are built only on demand.

validate_factorization checks the Gaussian moment factorization behind the
ghost correlation map against this evolution, one mode pair at a time.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .gaussian import ModeParams, _real, _row, _statistics_columns, build_covariance

# Floating-point floor added to 10x the trace deficit in validate_factorization.
FACTORIZATION_TOL_FLOOR = 1e-8


@dataclass(frozen=True, eq=False)
class TwoModeFockState:
    """Truncated two-mode density matrix, factored per photon-difference gap.

    The state is block diagonal in d = n_T - n_R, for d from -cutoff to
    cutoff.  Band d has side cutoff + 1 - |d|, and its rung r is the
    product state |n_T>_T |n_R>_R with
    (n_T, n_R) = (r + max(d, 0), r + max(-d, 0)); entries between different
    bands are zero.  For side = cutoff + 1 - gap, evolutions[gap] is the
    (side, side) float64 evolution O of bands d = +-gap on their rungs;
    w_t and w_r are the thermal input distributions of the two modes, of
    length cutoff + 1, so the input weight w of rung (n_T, n_R) is
    w_t[n_T] w_r[n_R].  Band d is e^{i phase (r - r')} (O diag(w) O^T)[r, r'].
    Its diagonal, the joint distribution, is computed once from (O o O) w;
    trace_deficit = 1 - trace collects both the unseeded input tail and the
    evolved weight pushed beyond the cutoff.  bands, matrix,
    hermiticity_defect and min_eigenvalue build the bands on every call.
    """

    cutoff: int
    phase: float
    evolutions: tuple[np.ndarray, ...]
    w_t: np.ndarray
    w_r: np.ndarray
    trace_deficit: float = field(init=False)
    _joint: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dim = self.cutoff + 1
        sides = range(dim, 0, -1)
        shapes = ([o.shape for o in self.evolutions], np.shape(self.w_t), np.shape(self.w_r))
        if shapes != ([(s, s) for s in sides], (dim,), (dim,)):
            raise ValueError(
                f"evolutions must have shapes (side, side) for side cutoff + 1 - gap, gap from 0 to "
                f"cutoff {self.cutoff}, and w_t and w_r shape (cutoff + 1,)"
            )
        # band d is the diagonal P[r + max(d, 0), r + max(-d, 0)], written through a flat stride
        joint = np.zeros((dim, dim))
        flat = joint.reshape(-1)
        for gap, o in enumerate(self.evolutions):
            diagonals = (o * o) @ self._gap_weights(gap)
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
        for gap, o in enumerate(self.evolutions):
            side, w = dim - gap, self._gap_weights(gap)
            for d, column in ((gap, 0), (-gap, 1)) if gap else ((0, 0),):
                band = gauge[:side, :side] * ((o * w[:, column]) @ o.T)
                band.reshape(-1)[:: side + 1] = np.diagonal(self._joint, -d)
                bands[d + self.cutoff] = band
        return tuple(bands)

    def _gap_weights(self, gap: int) -> np.ndarray:
        """The (side, 2) input weights of the rungs of band gap (column 0), each
        (r + gap, r), and of band -gap (column 1), each (r, r + gap)."""
        side = self.cutoff + 1 - gap
        return np.column_stack((self.w_t[gap:] * self.w_r[:side], self.w_t[:side] * self.w_r[gap:]))

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
    _evolutions), so the pump phase enters only through that gauge; the
    state keeps O once per gap and the two input distributions.  Raises
    ValueError for a cutoff or max_trace_deficit out of range or if the
    input tails beyond the cutoff exceed a tenth of max_trace_deficit (see
    input_tail_problem), and if the trace deficit exceeds max_trace_deficit
    in magnitude.
    """
    problem = input_tail_problem(p.mu_t, p.mu_r, cutoff, max_trace_deficit)
    if problem:
        raise ValueError(problem)
    w_t, w_r = _thermal_weights(p.mu_t, cutoff), _thermal_weights(p.mu_r, cutoff)
    state = TwoModeFockState(cutoff, p.phase, _evolutions(p.coupling, cutoff), w_t, w_r)
    if abs(state.trace_deficit) > max_trace_deficit:
        raise ValueError(
            f"trace deficit {state.trace_deficit:.3e} exceeds {max_trace_deficit:.3e} in magnitude; raise the cutoff"
        )
    return state


def _centred(f):
    """f = m 2^e exactly, with m in [1/sqrt 2, sqrt 2) (0 for f = 0) and e an integer."""
    e = np.frexp(np.multiply(f, math.sqrt(2.0)))[1] - 1
    return np.ldexp(f, -e), e


def _evolutions(coupling: float, cutoff: int, first_gap: int = 0) -> tuple[np.ndarray, ...]:
    """O = e^{coupling K} of the bands d = +-gap on their side = cutoff + 1 - gap
    rungs, for gap from first_gap to cutoff: float64 arrays of shape (side, side).

    With t = tanh coupling, c = cosh coupling and delta = m - n >= 0, the
    entry O[m, n] = t^delta c^-(gap+1) sqrt(n! (m+gap)! / (m! (n+gap)!))
    P_n^(delta, gap)(1 - 2 t^2) is the term e_0 h_n w_n of the chain
    (gap, delta): e_0 = t^delta c^-(gap+1) sqrt(C(gap + delta, delta)),
    h_n = sqrt(C(n + delta + gap, delta) C(n + delta, delta) / C(gap + delta, delta))
    and w_n = P_n^(delta, gap)(x) / P_n^(delta, gap)(1), which is
    2F1(-n, n + delta + gap + 1; delta + 1; t^2) (DLMF 18.5.7).  The degree
    recurrence (DLMF 18.9.2) of w, in Reinsch's form on D_n = w_n - w_{n-1}
    with s = 2 n + delta + gap, is

        (n + delta) (n + delta + gap) D_n = -t^2 s (s - 1) w_{n-1} + s (n - 1) (n - 1 + gap) / (s - 2) D_{n-1}

    from w_0 = 1 and D_0 = 0, and O[n, m] = (-1)^delta O[m, n].  Its
    coefficients are rational, and it stays within a few ulps as x = 1 - 2 t^2
    nears 1, where the three-term recurrence of the entries themselves has a
    double characteristic root and its rounding grows as the coupling falls
    (1.4e-13 at coupling 0.01, cutoff 120).  The chains are ordered by gap + delta, so
    those still within the cutoff at degree n, gap + delta + n <= cutoff,
    are a prefix; each degree is written into the gaps' matrices, views of
    one buffer, through per-chain flat offsets.

    e_0 h_n is carried as a mantissa and a power of two, so an entry
    underflows only where its exact value does.
    """
    dim = cutoff + 1
    t, c = math.tanh(coupling), math.cosh(coupling)
    t2 = t * t
    gaps = np.arange(first_gap, dim)
    count = len(gaps)  # gaps, and degrees
    sides = dim - gaps
    offsets = np.concatenate(([0], np.cumsum(sides * sides)))
    flat = np.empty(offsets[-1])
    # the start as mantissa 2^exponent on the (gap, delta) square: c^-(gap+1)
    # times the product over j <= delta of t sqrt((gap + j) / j)
    j = np.arange(1, count)
    mant = np.empty((count, count))
    expo = np.empty((count, count), dtype=np.int64)
    mant[:, 1:], expo[:, 1:] = _centred(t * np.sqrt((gaps[:, None] + j) / j))
    c_mant, c_exp = _centred(c)
    mant[:, 0] = c_mant ** -(gaps + 1.0)
    expo[:, 0] = -c_exp * (gaps + 1)
    np.cumprod(mant, axis=1, out=mant)
    np.cumsum(expo, axis=1, out=expo)
    # chain i of anti-diagonal a = gap + delta - first_gap is (first_gap + i, a - i)
    a = np.repeat(np.arange(count), np.arange(1, count + 1))
    i = np.arange(len(a)) - a * (a + 1) // 2
    delta = a - i
    # int32 exponents: np.ldexp takes them without a cast
    mant, expo = mant[i, delta], expo[i, delta].astype(np.intc)
    g, d = gaps[i] + 0.0, delta + 0.0
    w, diff = np.ones(len(a)), np.zeros(len(a))
    # carried from degree to degree: s and the factors n + delta,
    # n + delta + gap and n + gap
    s, nd, ndg, ng = g + d, d.copy(), g + d, g.copy()
    # flat offsets of O[delta + n, n] and O[n, delta + n], their step per degree, and the sign of the second
    lower, upper, step = offsets[i] + delta * sides[i], offsets[i] + delta, sides[i] + 1
    sign = 1.0 - 2.0 * (delta & 1)
    for n in range(count):
        k = (count - n) * (count - n + 1) // 2  # the chains with gap + delta + n <= cutoff
        if n:
            sk, ndk, ndgk, ngk, wk, diffk = s[:k], nd[:k], ndg[:k], ng[:k], w[:k], diff[:k]
            sk += 2.0
            ndk += 1.0
            ndgk += 1.0
            new = -t2 * (sk * (sk - 1.0)) * wk
            if n > 1:  # D_0 = 0, and s - 2 is 0 for the chain (0, 0)
                new += (sk * (n - 1.0)) * ngk / (sk - 2.0) * diffk
            ngk += 1.0
            den = ndk * ndgk
            np.divide(new, den, out=diffk)
            wk += diffk
            # h_n / h_{n-1} = sqrt((n + delta) (n + delta + gap) / (n (n + gap)))
            den /= ngk * n
            mant[:k], e = np.frexp(mant[:k] * np.sqrt(den))
            expo[:k] += e
            lower[:k] += step[:k]
            upper[:k] += step[:k]
        e = np.ldexp(mant[:k] * w[:k], expo[:k])
        flat[lower[:k]] = e
        flat[upper[:k]] = e * sign[:k]
    return tuple(flat[lo:hi].reshape(side, side) for lo, hi, side in zip(offsets[:-1], offsets[1:], sides))


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
    for gap, o in enumerate(state.evolutions):
        r, w = np.arange(1.0, len(o)), state._gap_weights(gap)
        sub = (o[1:] * o[:-1]) @ (w if gap else w[:, :1])  # gap 0 is the one band d = 0
        total += np.sqrt(r * (r + gap)) @ sub.sum(axis=1)
    return complex(np.exp(1j * state.phase) * total)


def predicted_moments(p: ModeParams) -> MomentSet:
    """Closed-form moments of the seeded pair.

    Each arm keeps thermal statistics with mean mu + n_pdc (1 + mu_t + mu_r)
    and variance mean (mean + 1); the cross covariance is C^2 =
    n_pdc (1 + n_pdc) (1 + mu_t + mu_r)^2.  All five are the kernel row that
    correlations reads: ValueError, naming the inputs, where it overflows.
    """
    s = _row(_statistics_columns, p)
    return MomentSet(s["mean_t"], s["mean_r"], s["var_t"], s["var_r"], s["cross_covariance"])


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
    FACTORIZATION_TOL_FLOOR.  Each pair is evolved afresh, in closed form
    (see _evolutions).
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
