"""Fourth-order correlation maps, ghost imaging and ghost diffraction.

The detection-plane intensity correlation of the Test and Reference arms
reduces, for the pairwise-correlated source, to the squared modulus of a
single sum over transverse momentum:

    G2(x_R, x_T) = | sum_q  h_R(x_R, -q) h_T(x_T, q) C_q |^2

where C_q = cosh|kappa| sinh|kappa| (1 + mu_t + mu_r) is the per-mode
correlation amplitude at the phase-matched coupling |kappa(q)| =
kappa0 |sinc(bandwidth q^2)| of GainProfile (flat at bandwidth 0), and
h_R, h_T are the Fourier-transformed impulse responses of the two arms.
Transverse coordinates are one dimensional; the two-dimensional case is
the tensor product of identical kernels.

Geometry: the object sits a distance d1 from the source in the Test arm;
the Reference arm propagates d2 to a lens of focal length f_r and then d3
to the scanning detector.  With f_r != d3 (imaging branch), D = 1/(1/d3 -
1/f_r) and the detector on the object plane, the sum factors into the
object and a one-dimensional kernel (Gatti et al., PRL 93, 093602 (2004);
Brambilla et al., PRA 69, 023802 (2004)):

    S(x_R, x_T) = t(x_T) F(x_T - (D/d3) x_R),
    F(u) = sum_q C_q exp(-i lam (d1 + d2 + D) q^2 / 4 pi) exp(i q u),

so G2 = |t(x_T)|^2 |F(x_T - (D/d3) x_R)|^2.  Under the back-propagating
thin-lens condition 1/(d1+d2) + 1/d3 = 1/f_r the quadratic phase vanishes
and the bucket-integrated correlation reproduces the object intensity
inverted and magnified by M = d3/(d1+d2).  A collection lens of focal
length f_t in the Test arm (Fourier-lens collection) maps x_T to the
object spectrum; writing that spectrum as its Riemann sum over the object
samples x_j gives the same F (Gatti, Brambilla, Bache and Lugiato, PRA 70,
013802 (2004)):

    S(x_R, x_T) = sum_j t_j dx exp(-i s x_j x_T) F(x_j - (D/d3) x_R),

with s = 2 pi / (lam f_t).  With f_r = d3 (Fourier branch) and a collection
lens the correlation at x_T = 0 samples the squared object spectrum.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .gaussian import ModeParams, _cross_entry, _real, _reals, _refuse_overflow
from .objects import SampledObject

# Geometry classification, relative to 1/d3: below DELTA_TOL the lens-detector
# spacing is treated as exactly focal (Fourier branch); between DELTA_TOL and
# ILL_CONDITIONED_TOL the imaging kernel blows up and the geometry is refused.
DELTA_TOL = 1e-9
ILL_CONDITIONED_TOL = 1e-6

# Largest distance, relative to the step, of a bucket's x_t from a uniform grid.
_BUCKET_UNIFORMITY = 1e-9

# Values in a block of map rows: 256 KiB of float64, which stays in cache.
# Every block is reduced row by row, so no output byte depends on it.
_BLOCK_VALUES = 32768

# Largest phase error, in radians, that snapping a grid onto a uniform
# lattice, or a phase step onto 2 pi / K, may make in any term of a sum.
_MAX_PHASE_SNAP = 1e-9 * math.pi


class GeometryError(ValueError):
    """Raised when a requested reconstruction does not fit the geometry."""


@dataclass(frozen=True)
class GhostGeometry:
    """Distances and focal lengths of the two arms.

    All lengths in meters; a given f_t is the focal length of a Test-arm
    collection lens.  The thin-lens residual 1/(d1+d2) + 1/d3 - 1/f_r is
    stored for diagnostics, not forced to zero: a nonzero value defocuses
    the ghost image but is not an error.
    """

    wavelength: float
    d1: float
    d2: float
    d3: float
    f_r: float
    f_t: Optional[float] = None

    def __post_init__(self):
        for name in ("wavelength", "d1", "d2", "d3", "f_r", "f_t"):
            # f_t's presence selects the collection lens, so a bool must not pass as a 1 m one
            if name != "f_t" or self.f_t is not None:
                _real(name, getattr(self, name), lambda v: v > 0, "> 0")

    @property
    def magnification(self) -> float:
        return self.d3 / (self.d1 + self.d2)

    @property
    def thin_lens_residual(self) -> float:
        return 1.0 / (self.d1 + self.d2) + 1.0 / self.d3 - 1.0 / self.f_r

    @property
    def branch(self) -> str:
        offset = abs(1.0 / self.d3 - 1.0 / self.f_r)
        if offset * self.d3 <= DELTA_TOL:
            return "fourier"
        if offset * self.d3 < ILL_CONDITIONED_TOL:
            raise GeometryError(
                f"ill-conditioned geometry: |1/d3 - 1/f_r| = {offset:.3e} "
                "is too close to the focal configuration"
            )
        return "imaging"

    @property
    def lens_term(self) -> float:
        """1 / (1/d3 - 1/f_r); imaging branch only."""
        if self.branch != "imaging":
            raise GeometryError("focal geometry (f_r = d3) reconstructs a spectrum, not an image; use ghost_diffraction")
        return 1.0 / (1.0 / self.d3 - 1.0 / self.f_r)


@dataclass(frozen=True)
class MomentumGrid:
    """Symmetric uniform grid of 2 n_half + 1 transverse momenta m * dq."""

    n_half: int
    dq: float

    def __post_init__(self):
        # the momentum indices -n_half..n_half are int64
        _real("n_half", self.n_half, lambda v: 1 <= v < 2**62, "in [1, 2**62)", numbers.Integral)
        _real("dq", self.dq, lambda v: v > 0 and math.isfinite(2.0 * math.pi / v),
              "> 0 with a finite transform period 2 pi / dq")
        q_max = self.n_half * float(self.dq)
        if not math.isfinite(q_max * q_max):  # g2_map's quadratic phase squares every q
            raise ValueError(f"the largest momentum n_half dq = {q_max!r} must square to a finite number")

    @property
    def values(self) -> np.ndarray:
        return np.arange(-self.n_half, self.n_half + 1) * self.dq


@dataclass(frozen=True)
class GainProfile:
    """Per-momentum source parameters under phase-matched gain.

    The coupling at momentum q is |kappa(q)| = params.coupling
    |sinc(bandwidth q^2)|, the quadratic dependence of the longitudinal
    momentum mismatch on q (Brambilla et al., PRA 69, 023802 (2004)), with
    its first zero at q = sqrt(pi / |bandwidth|); bandwidth 0 is flat phase
    matching, params at every q.  The seeds and phase of params hold at
    every q.  C_q depends on q only through q^2, and MomentumGrid.values is
    exactly sign-symmetric, so C_q is even in q bit for bit there, as the
    kernels of g2_map and ghost_diffraction take it to be.  Raises
    ValueError unless params is a ModeParams, bandwidth is a finite real
    number and the peak C(0) is finite.
    """

    params: ModeParams
    bandwidth: float = 0.0

    def __post_init__(self):
        if not isinstance(self.params, ModeParams):
            raise ValueError(f"params must be a ModeParams, got {self.params!r}")
        _real("bandwidth", self.bandwidth)
        p = self.params
        # |sinc| <= 1, so no coupling exceeds the peak's and no C_q overflows where C(0) does not
        _refuse_overflow(lambda: _cross_entry(p, p.coupling), what="the peak correlation amplitude",
                         coupling=p.coupling, mu_t=p.mu_t, mu_r=p.mu_r)

    def mode_params(self, q: float) -> ModeParams:
        """params with the coupling at momentum q."""
        return replace(self.params, coupling=float(self._couplings(_real("q", q))))

    def correlation_amplitudes(self, q: np.ndarray) -> np.ndarray:
        """C_q, the cross entry of build_covariance(mode_params(q)), at each q,
        bit for bit: evaluated once per distinct coupling, then gathered."""
        q = _reals("q", q)
        couplings, inverse = np.unique(self._couplings(q), return_inverse=True)
        amplitudes = np.array([_cross_entry(self.params, k) for k in couplings.tolist()], dtype=float)
        return amplitudes[inverse].reshape(q.shape)

    def _couplings(self, q) -> np.ndarray:
        """kappa(q) at each q, with the limits 1 of the sinc at arg = 0 and 0 where arg overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            arg = self.bandwidth * q * q
            s = np.where(arg == 0, 1.0, np.where(np.isfinite(arg), np.sin(arg) / arg, 0.0))
        return self.params.coupling * np.abs(s)


@dataclass(frozen=True, eq=False)
class G2Map:
    """Sampled fourth-order correlation over detector coordinates.

    values[i, j] = G2(x_r[i], x_t[j]) = rows[i, j] weight[j], with rows and
    weight >= 0, and rows read-only.  On the object plane rows is |F|^2
    and weight is |t(x_T)|^2; on a kernel lattice (see g2_map) rows is a
    window view of one line of |F|^2, so the (len(x_r), len(x_t)) map is
    never held: row_blocks builds it a block of rows at a time, the one
    pass that bucket_reduce and artifacts.write_pgm read, and .values builds
    it on demand.  Fourier-lens collection keeps the map itself in rows, with
    a weight of ones.

    peak is values.max(), NaN included, found at construction from the
    column maxima of rows: for w >= 0 the rounded product a w never
    decreases as a grows, so column j's largest value is rows[:, j].max() w[j].

    support indexes the columns that can hold a nonzero value: those of a
    nonzero weight, and those whose rows hold an inf or NaN, which a zero
    weight turns into NaN.  Every other column of values is 0.  It is
    slice(None) when that is every column (a weight of ones, a smooth
    object), else the array of their indices (a slit or grating, opaque
    where |t|^2 = 0); row_blocks reads only those columns.
    """

    x_r: np.ndarray
    x_t: np.ndarray
    rows: np.ndarray
    weight: np.ndarray
    peak: float = field(init=False)
    support: slice | np.ndarray = field(init=False)

    def __post_init__(self):
        if self.rows.ndim != 2 or not self.rows.size or np.shape(self.weight) != (self.rows.shape[1],):
            raise ValueError(
                f"a G2Map needs non-empty 2-D rows and one weight per column, got rows of shape "
                f"{self.rows.shape} and weight of shape {np.shape(self.weight)}"
            )
        if (self.weight < 0).any():  # a negative weight would reverse its column's order
            raise ValueError("a G2Map needs a weight >= 0 in every column")
        column_max = self.rows.max(axis=0)
        object.__setattr__(self, "peak", np.max(column_max * self.weight))
        kept = (self.weight != 0) | ~np.isfinite(column_max)
        object.__setattr__(self, "support", slice(None) if kept.all() else np.flatnonzero(kept))

    @property
    def values(self) -> np.ndarray:
        return self.rows * self.weight

    def row_blocks(self):
        """(start, block) for blocks of whole rows of values[:, support],
        about _BLOCK_VALUES // len(x_t) rows (at least one) each, in order:
        rows[start:stop, support] times the weight there.

        Every block is written into one reused buffer, which the consumer may
        overwrite but must be done with before the next block.
        """
        rows, weight = self.rows, self.weight[self.support]
        step = max(1, _BLOCK_VALUES // rows.shape[1])
        buffer = np.empty((min(step, rows.shape[0]), weight.size))
        for start in range(0, rows.shape[0], step):
            block = rows[start:start + step, self.support]
            yield start, np.multiply(block, weight, out=buffer[:len(block)])

    def bucket_reduce(self) -> np.ndarray:
        """Integrate over the Test coordinate (Riemann sum over the grid).

        The bucket detector is modeled as covering the whole x_t grid, of two
        or more uniform pixels (see _bucket_step); an object wider than the
        grid would bias the reduction.  Each block of row_blocks is summed
        row by row, and a row's sum reads only that row, so the result does
        not depend on the block height and no temporary grows with the map.
        """
        reduced = np.empty(self.rows.shape[0])
        for start, block in self.row_blocks():
            block.sum(axis=1, out=reduced[start:start + len(block)])
        return reduced * _bucket_step(self.x_t)


def _bucket_step(x_t: np.ndarray) -> float:
    """The bucket's pixel width x_t[1] - x_t[0].

    Raises ValueError unless x_t has two or more pixels, each within
    _BUCKET_UNIFORMITY of a step of the uniform grid over its ends.
    """
    n = x_t.size
    if n < 2:
        raise ValueError(f"a bucket over the detector grid x_t needs two pixels or more, got {n}")
    step = float(x_t[-1] - x_t[0]) / (n - 1)
    deviation = _uniform_deviation(x_t, step)
    if not deviation <= _BUCKET_UNIFORMITY * abs(step):
        raise ValueError(
            f"a bucket over the detector grid x_t needs uniform pixels: x_t is {deviation:.3e} "
            f"from the uniform grid of step {step:.3e}"
        )
    return float(x_t[1] - x_t[0])


@dataclass(frozen=True, eq=False)
class GhostImage:
    """Reduced reconstruction over the Reference coordinate."""

    x_r: np.ndarray
    raw: np.ndarray
    normalized: np.ndarray
    g2: G2Map


@dataclass(frozen=True, eq=False)
class DiffractionPattern:
    """Object-spectrum reconstruction on the Fourier branch at x_T = 0."""

    x_r: np.ndarray
    q: np.ndarray
    raw: np.ndarray
    normalized: np.ndarray


@np.errstate(over="raise")  # FloatingPointError rather than inf or NaN in the map
def g2_map(
    geometry: GhostGeometry,
    obj: SampledObject,
    profile: GainProfile,
    qgrid: MomentumGrid,
    x_r,
    x_t,
) -> G2Map:
    """Fourth-order correlation over an (x_R, x_T) detector grid.

    Both collection schemes read one kernel K[i, j] = F(x_j - r_i), with
    r = (D/d3) x_r and F as in the module docstring, over the sample grid
    x: x_t on the object plane, the object grid obj.x with a collection lens
    (f_t given).  When x is uniform with step h and r steps by an integer
    multiple k h of it, with |k| <= len(x), x_j - r_i takes only the
    len(x) + |k| (len(x_r) - 1) values u0 + m h.  When dq h is also
    2 pi / K (as on matched_image_grids), F is evaluated once on them by a
    K-point FFT and every row of K is a window of that line; otherwise K is
    the product (C_q exp(-i phi(q)) exp(-i q r_i)) @ exp(i q x_j) over q,
    with phi(q) = lam (d1 + d2 + D) q^2 / 4 pi, the quadratic phase of F.

    On the object plane the map is |K|^2 |t(x_T)|^2, kept as rows |K|^2
    and the weight |t(x_T)|^2 (see G2Map); on the lattice those rows are a
    read-only window view of the one line |F|^2, so the map is never held.
    With a collection lens the map is |K @ (t dx exp(-i s x x_T))|^2 with
    s = 2 pi / (lam f_t), held with a weight of ones.  Raises ValueError
    when x_r or x_t is empty or holds a NaN or an infinity,
    FloatingPointError when the map overflows, and GeometryError on the
    Fourier branch, whose one route is ghost_diffraction.
    """
    x_r, x_t = _detector_grids(x_r, x_t)
    q = qgrid.values
    c_q = profile.correlation_amplitudes(q)
    r = x_r * (geometry.lens_term / geometry.d3)
    x = x_t if geometry.f_t is None else obj.x
    focus = geometry.wavelength * (geometry.d1 + geometry.d2 + geometry.lens_term) / (4.0 * math.pi)
    lattice = _kernel_lattice(qgrid, x, r)
    line = None
    if lattice is not None:
        h, k, u0 = lattice
        # x_j - r_i = u0 + m h with m = j - k i, from m0 on
        m0 = min(0, -k * (r.size - 1))
        weights = c_q * np.exp(-1j * (focus * q ** 2 - u0 * q))
        line = _phase_sum(weights, -qgrid.n_half, m0, x.size + abs(k) * (r.size - 1), qgrid.dq * h)
    if line is None:
        kernel = (c_q * np.exp(-1j * focus * q ** 2) * np.exp(-1j * np.outer(r, q))) @ np.exp(1j * np.outer(q, x))
    if geometry.f_t is None:
        # on the lattice |K|^2 windows the one line |F|^2, so the map is never held
        rows = np.abs(kernel) ** 2 if line is None else _windows(np.abs(line) ** 2, x.size, k, r.size)
        weight = np.abs(obj.amplitude(x_t)) ** 2
    else:
        if line is not None:
            kernel = _windows(line, x.size, k, r.size)
        s = 2.0 * math.pi / (geometry.wavelength * geometry.f_t)
        rows = np.abs(kernel @ ((obj.t * obj.dx)[:, None] * np.exp(-1j * s * np.outer(obj.x, x_t)))) ** 2
        weight = np.ones(x_t.size)
    rows.flags.writeable = False  # the map keeps the peak found at construction
    return G2Map(x_r, x_t, rows, weight)


def _windows(line: np.ndarray, width: int, k: int, count: int) -> np.ndarray:
    """The read-only (count, width) view whose row i is line[j - k i - m0], j < width."""
    if k == 0:
        return np.broadcast_to(line, (count, width))
    # row i starts at m = -k i: |k| samples after row i - 1 when k < 0, before it when k > 0
    rows = np.lib.stride_tricks.sliding_window_view(line, width)[:: abs(k)]
    return rows[::-1] if k > 0 else rows


def _detector_grids(x_r, x_t):
    """x_r and x_t as 1-D float arrays; raises ValueError unless each holds finite real numbers and is non-empty."""
    grids = [np.atleast_1d(_reals(f"detector grid {name}", grid)) for name, grid in (("x_r", x_r), ("x_t", x_t))]
    for name, grid in zip(("x_r", "x_t"), grids):
        if not grid.size:
            raise ValueError(f"detector grid {name} must be non-empty")
    return grids


def _kernel_lattice(qgrid, x, r):
    """(h, k, u0) when F(x_j - r_i) samples only the lattice u0 + m h, else None.

    Needs x on x[0] + j h and r on r[0] + k h i with integer |k| <= len(x),
    so that every kernel sample lands in the map.  Snapping both grids onto
    these lattices may move no phase q u by more than _MAX_PHASE_SNAP.
    """
    if x.size < 2:
        return None
    h = float(x[-1] - x[0]) / (x.size - 1)
    span = float(r[-1] - r[0])
    # written so that NaN and inf fail, and the quotient below stays within len(x)
    if not (h != 0 and math.isfinite(h) and abs(span) <= abs(h) * x.size * (r.size - 1)):
        return None
    k = round(span / (h * (r.size - 1))) if r.size > 1 else 0
    snap = _uniform_deviation(x, h) + _uniform_deviation(r, k * h)
    if not snap * qgrid.n_half * qgrid.dq <= _MAX_PHASE_SNAP:
        return None
    return h, k, float(x[0] - r[0])


def _uniform_deviation(x: np.ndarray, step: float) -> float:
    """Largest distance of x from the uniform grid x[0] + i step."""
    return float(np.abs(x - (x[0] + step * np.arange(x.size))).max())


def _phase_sum(c: np.ndarray, a0: int, b0: int, n_b: int, theta: float) -> Optional[np.ndarray]:
    """sum_i c[i] exp(i theta (a0 + i) b) for b = b0, ..., b0 + n_b - 1, or None.

    A K-point FFT of the coefficients folded mod K, where aliasing is exact,
    when replacing |theta| by 2 pi / K moves no phase theta a b by more than
    _MAX_PHASE_SNAP and K is no larger than the len(c) n_b terms of the sum,
    so that the transform never outgrows the dense sum.  None otherwise:
    g2_map then builds its kernel as a product over q, and ghost_diffraction
    takes obj.sampled_transform.
    """
    terms = c.size * n_b
    # written so that NaN fails; a zero or subnormal theta would make K infinite
    if not abs(theta) * (terms + 1) >= 2.0 * math.pi:
        return None
    big_k = round(2.0 * math.pi / abs(theta))
    reach = max(abs(a0), abs(a0 + c.size - 1)) * max(abs(b0), abs(b0 + n_b - 1))
    if not (1 <= big_k <= terms and abs(abs(theta) - 2.0 * math.pi / big_k) * reach <= _MAX_PHASE_SNAP):
        return None
    # exp(i theta a b) = exp(-2 pi i (s a) b / K) with s = -sign(theta)
    a = np.arange(a0, a0 + c.size)
    folded = np.zeros(big_k, dtype=complex)
    np.add.at(folded, (-a if theta > 0 else a) % big_k, c)
    return np.fft.fft(folded)[np.arange(b0, b0 + n_b) % big_k]


def matched_image_grids(geometry: GhostGeometry, qgrid: MomentumGrid):
    """Detector grids commensurate with the momentum grid.

    Returns (x_r, x_t): the Test grid has one sample per momentum over a
    full transform period (dx = 2 pi / (count * dq)) and the Reference grid
    is the Test lattice scaled by the pixel mapping of the imaging kernel,
    which under the thin-lens condition is the magnification.  On these
    grids the bucket-reduced object-plane reconstruction and the
    Fourier-lens slice agree to rounding, and g2_map evaluates its kernel
    with a (2 n_half + 1)-point FFT.
    """
    count = 2 * qgrid.n_half + 1
    dx = 2.0 * math.pi / (count * qgrid.dq)
    lattice = np.arange(-qgrid.n_half, qgrid.n_half + 1) * dx
    scale = -geometry.d3 / geometry.lens_term  # = magnification at thin lens
    return scale * lattice, lattice


@np.errstate(over="raise")  # FloatingPointError rather than inf or NaN in the result
def ghost_image(
    geometry: GhostGeometry,
    obj: SampledObject,
    profile: GainProfile,
    qgrid: MomentumGrid,
    x_r,
    x_t,
) -> GhostImage:
    """Reconstruct the object intensity from the correlation map.

    Requires the imaging branch.  When the thin-lens condition holds the
    reconstruction approaches |t(-x_R / M)|^2 with M the magnification; a
    nonzero residual defocuses the image but is reported, not rejected.
    The map comes from g2_map, which picks its route from the grids.

    Without f_t (object-plane collection) the map is integrated over the
    Test coordinate (bucket detection), which needs two or more uniform x_t
    pixels; a grid without them is refused before the map is built.  With
    f_t (Fourier-lens collection) every Test slice already carries the
    image, so the slice nearest x_T = 0 is returned without bucket
    integration.  Raises FloatingPointError when the map, its peak or its
    reduction overflows, and, as g2_map does, GeometryError on the Fourier
    branch and ValueError for a detector grid that is empty or not finite.
    """
    x_r, x_t = _detector_grids(x_r, x_t)
    if geometry.f_t is None:
        # refuse, before the map is built, the Fourier branch (as g2_map would) and then the grid
        geometry.lens_term
        _bucket_step(x_t)
    g2 = g2_map(geometry, obj, profile, qgrid, x_r, x_t)
    if geometry.f_t is None:
        raw = g2.bucket_reduce()
    else:
        j = int(np.argmin(np.abs(g2.x_t)))
        raw = g2.rows[:, j] * g2.weight[j]
    peak = float(raw.max())
    normalized = raw / peak if peak > 0 else raw.copy()
    return GhostImage(g2.x_r, raw, normalized, g2)


@np.errstate(over="raise")  # FloatingPointError rather than inf or NaN in the result
def ghost_diffraction(
    geometry: GhostGeometry,
    obj: SampledObject,
    profile: GainProfile,
    qgrid: MomentumGrid,
) -> DiffractionPattern:
    """Reconstruct the squared object spectrum on the Fourier branch.

    Requires f_r = d3 and Fourier-lens collection (f_t given); the detector
    pixels are placed exactly on the momenta selected by the focal
    Reference arm, x_R = -q lam d3 / (2 pi), and the Test plane is sampled
    at x_T = 0.  The pattern is |ttilde(-2 pi x_R / (lam d3))|^2 times the
    squared correlation amplitude.  When the object grid is uniform and
    dq dx is 2 pi / K, ttilde comes from the K-point FFT that g2_map's
    kernel uses; otherwise from obj.sampled_transform, whose phase differs
    from h_T(0, q) but not its modulus.  Raises
    FloatingPointError when the pattern overflows.
    """
    if geometry.branch != "fourier":
        raise GeometryError(
            "non-focal geometry (f_r != d3) reconstructs an image, not a "
            "spectrum; use ghost_image"
        )
    if geometry.f_t is None:
        raise GeometryError(
            "object-plane collection gives no meaningful diffraction pattern; "
            "give f_t for Fourier-lens collection"
        )
    q = qgrid.values
    c_q = profile.correlation_amplitudes(q)
    lattice = _kernel_lattice(qgrid, obj.x, np.zeros(1))
    # h_T(0, q_n) is ttilde(q_n) = dx exp(i q_n x_0) sum_j t_j exp(i dq h n j) times the
    # Test-arm quadratic phase; neither phase factor changes the modulus
    spectrum = None if lattice is None else _phase_sum(obj.t, 0, -qgrid.n_half, q.size, qgrid.dq * lattice[0])
    spectrum = obj.sampled_transform(q) if spectrum is None else obj.dx * spectrum
    raw = np.abs(c_q * spectrum) ** 2
    x_r = -q * geometry.wavelength * geometry.d3 / (2.0 * math.pi)
    order = np.argsort(x_r)
    x_r, q, raw = x_r[order], q[order], raw[order]
    peak = float(raw.max())
    normalized = raw / peak if peak > 0 else raw.copy()
    return DiffractionPattern(x_r, q, raw, normalized)

