"""Fourth-order correlation maps, ghost imaging and ghost diffraction.

The detection-plane intensity correlation of the Test and Reference arms
reduces, for the pairwise-correlated source, to the squared modulus of a
single sum over transverse momentum:

    G2(x_R, x_T) = | sum_q  h_R(x_R, -q) h_T(x_T, q) C_q |^2

where C_q = cosh|kappa| sinh|kappa| (1 + mu_t + mu_r) is the per-mode
correlation amplitude and h_R, h_T are the Fourier-transformed impulse
responses of the two arms.  Transverse coordinates are one dimensional; the
two-dimensional case is the tensor product of identical kernels.

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
inverted and magnified by M = d3/(d1+d2).  With f_r = d3 (Fourier branch)
and a collection lens in the Test arm the correlation at x_T = 0 samples
the squared object spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .gaussian import ModeParams
from .objects import SampledObject

# Geometry classification, relative to 1/d3: below DELTA_TOL the lens-detector
# spacing is treated as exactly focal (Fourier branch); between DELTA_TOL and
# ILL_CONDITIONED_TOL the imaging kernel blows up and the geometry is refused.
DELTA_TOL = 1e-9
ILL_CONDITIONED_TOL = 1e-6

# Fourier-branch momentum selection: a detector pixel contributes only when
# its mapped momentum falls within this fraction of a grid step.
SNAP_FRACTION = 1e-6

_PROFILE_SYMMETRY_RTOL = 1e-12

# Largest phase error, in radians, that snapping a grid onto a uniform
# lattice, or a phase step onto 2 pi / K, may make in any term of a sum.
_MAX_PHASE_SNAP = 1e-9 * math.pi


class GeometryError(ValueError):
    """Raised when a requested reconstruction does not fit the geometry."""


class CollectionOptics(Enum):
    """Test-arm collection scheme: detector on the object plane, or on the
    Fourier plane of a collection lens behind the object."""

    OBJECT_PLANE = "object-plane"
    FOURIER_LENS = "fourier-lens"


@dataclass(frozen=True)
class GhostGeometry:
    """Distances, focal lengths and collection variant of the two arms.

    All lengths in meters.  f_t is only used by the Fourier-lens collection
    variant.  The thin-lens residual 1/(d1+d2) + 1/d3 - 1/f_r is stored for
    diagnostics, not forced to zero: a nonzero value defocuses the ghost
    image but is not an error.
    """

    wavelength: float
    d1: float
    d2: float
    d3: float
    f_r: float
    f_t: Optional[float] = None
    variant: CollectionOptics = CollectionOptics.OBJECT_PLANE

    def __post_init__(self):
        for name in ("wavelength", "d1", "d2", "d3", "f_r", "f_t"):
            value = getattr(self, name)
            if not (name == "f_t" and value is None or 0 < value < math.inf):
                raise ValueError(f"{name} must be finite and > 0, got {value}")

    @property
    def magnification(self) -> float:
        return self.d3 / (self.d1 + self.d2)

    @property
    def thin_lens_residual(self) -> float:
        return 1.0 / (self.d1 + self.d2) + 1.0 / self.d3 - 1.0 / self.f_r

    @property
    def detune(self) -> float:
        """1/d3 - 1/f_r, the quantity separating the two branches."""
        return 1.0 / self.d3 - 1.0 / self.f_r

    @property
    def branch(self) -> str:
        rel = abs(self.detune) * self.d3
        if rel <= DELTA_TOL:
            return "fourier"
        if rel < ILL_CONDITIONED_TOL:
            raise GeometryError(
                f"ill-conditioned geometry: |1/d3 - 1/f_r| = {abs(self.detune):.3e} "
                "is too close to the focal configuration"
            )
        return "imaging"

    @property
    def lens_term(self) -> float:
        """1 / (1/d3 - 1/f_r); imaging branch only."""
        if self.branch != "imaging":
            raise GeometryError("lens term is defined on the imaging branch only")
        return 1.0 / self.detune


@dataclass(frozen=True)
class MomentumGrid:
    """Symmetric uniform grid of 2 n_half + 1 transverse momenta m * dq."""

    n_half: int
    dq: float

    def __post_init__(self):
        # the momentum indices -n_half..n_half are int64
        if isinstance(self.n_half, bool) or not hasattr(self.n_half, "__index__") or self.n_half >= 2**62:
            raise ValueError(f"n_half must be an integer below 2**62, got {self.n_half!r}")
        if self.n_half < 1:
            raise ValueError("n_half must be >= 1")
        if not (0 < self.dq < math.inf and math.isfinite(2.0 * math.pi / self.dq)):
            raise ValueError(f"dq must be > 0 with a finite transform period 2 pi / dq, got {self.dq}")

    @property
    def values(self) -> np.ndarray:
        return np.arange(-self.n_half, self.n_half + 1) * self.dq


class GainProfile:
    """Per-momentum source parameters.

    Subclasses define mode_params(q) and its array form
    correlation_amplitudes(q), the amplitude C_q of correlation_amplitude at
    each momentum.  g2_map and ghost_diffraction check that C_q is even in q.
    """

    def mode_params(self, q: float) -> ModeParams:
        raise NotImplementedError

    def correlation_amplitudes(self, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantProfile(GainProfile):
    """Same parameters for every momentum (flat phase matching)."""

    params: ModeParams

    def __post_init__(self):
        try:
            amplitude = correlation_amplitude(0.0, self)
        except OverflowError:  # math.cosh or math.sinh of the coupling
            amplitude = math.inf
        if not math.isfinite(amplitude):
            p = self.params
            raise ValueError(
                f"the peak correlation amplitude overflows at coupling {p.coupling}, mu_t {p.mu_t}, mu_r {p.mu_r}"
            )

    def mode_params(self, q: float) -> ModeParams:
        return self.params

    def correlation_amplitudes(self, q: np.ndarray) -> np.ndarray:
        return np.full(len(q), correlation_amplitude(0.0, self))


@dataclass(frozen=True)
class SincProfile(GainProfile):
    """Phase-matched gain |kappa(q)| = kappa0 |sinc(bandwidth q^2)|.

    Models the quadratic dependence of the longitudinal momentum mismatch
    on q; the first zero sits at q = sqrt(pi / bandwidth).
    """

    kappa0: float
    bandwidth: float
    mu_t: float = 0.0
    mu_r: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.bandwidth):
            raise ValueError(f"bandwidth must be finite, got {self.bandwidth}")
        ModeParams(self.mu_t, self.mu_r, self.kappa0, self.phase)  # the peak coupling is kappa0
        if not np.isfinite(self.correlation_amplitudes(np.zeros(1))[0]):
            raise ValueError(f"kappa0 {self.kappa0} is too large: the peak correlation amplitude overflows")

    def mode_params(self, q: float) -> ModeParams:
        arg = self.bandwidth * q * q
        # an overflowing argument takes the limit sin(arg) / arg -> 0, where math.sin raises
        s = 1.0 if arg == 0 else math.sin(arg) / arg if math.isfinite(arg) else 0.0
        return ModeParams(self.mu_t, self.mu_r, self.kappa0 * abs(s), self.phase)

    def correlation_amplitudes(self, q: np.ndarray) -> np.ndarray:
        """Array form of correlation_amplitude: 1/2 sinh(2 kappa(q)) (1 + mu_t + mu_r)."""
        q = np.asarray(q, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            arg = self.bandwidth * q * q
            s = np.sin(arg) / arg
            # the limits of mode_params: 1 at arg = 0, and 0 where arg overflows
            s = np.where(arg == 0, 1.0, np.where(np.isfinite(arg), s, 0.0))
            return 0.5 * np.sinh(2.0 * self.kappa0 * np.abs(s)) * (1.0 + self.mu_t + self.mu_r)


def correlation_amplitude(q: float, profile: GainProfile) -> float:
    """Per-mode pairwise correlation amplitude u v (1 + mu_t + mu_r)."""
    p = profile.mode_params(q)
    return p.u * p.v * (1.0 + p.mu_t + p.mu_r)


@dataclass(frozen=True)
class G2Map:
    """Sampled fourth-order correlation over detector coordinates.

    values[i, j] = G2(x_r[i], x_t[j]) >= 0.
    """

    x_r: np.ndarray
    x_t: np.ndarray
    values: np.ndarray

    def bucket_reduce(self) -> np.ndarray:
        """Integrate over the Test coordinate (Riemann sum over the grid).

        The bucket detector is modeled as covering the whole x_t grid; an
        object wider than the grid would bias the reduction.
        """
        dx = float(self.x_t[1] - self.x_t[0])
        return self.values.sum(axis=1) * dx


@dataclass(frozen=True)
class GhostImage:
    """Reduced reconstruction over the Reference coordinate."""

    x_r: np.ndarray
    raw: np.ndarray
    normalized: np.ndarray
    g2: G2Map


@dataclass(frozen=True)
class DiffractionPattern:
    """Object-spectrum reconstruction on the Fourier branch at x_T = 0."""

    x_r: np.ndarray
    q: np.ndarray
    raw: np.ndarray
    normalized: np.ndarray


def transfer_test_arm(geometry: GhostGeometry, obj: SampledObject, q, x_t) -> np.ndarray:
    """Fourier-transformed Test-arm response h_T(x_T, q), shape (nq, nxt).

    Object-plane variant: free propagation over d1 to the object, detector
    on the object plane:

        h_T(x_T, q) = exp(-i lam d1 q^2 / 4 pi) exp(+i q x_T) t(x_T)

    Fourier-lens variant: a collection lens maps the detector coordinate to
    a spectral offset, sampling the object transform:

        h_T(x_T, q) = exp(-i lam d1 q^2 / 4 pi) ttilde(q - 2 pi x_T/(lam f_t))

    with ttilde the sampled Riemann transform of the object.  Positions
    outside the object grid transmit nothing in the object-plane variant.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    x_t = np.atleast_1d(np.asarray(x_t, dtype=float))
    quad = np.exp(-1j * geometry.wavelength * geometry.d1 / (4.0 * math.pi) * q ** 2)
    if geometry.variant is CollectionOptics.OBJECT_PLANE:
        t_vals = obj.amplitude(x_t)
        return quad[:, None] * np.exp(1j * np.outer(q, x_t)) * t_vals[None, :]
    if geometry.f_t is None:
        raise GeometryError("Fourier-lens collection requires f_t")
    scale = 2.0 * math.pi / (geometry.wavelength * geometry.f_t)
    # ttilde(q_m - scale x_p) factorizes over the object samples, so build it
    # as two phase matrices around the sampled transmission.
    left = np.exp(1j * np.outer(q, obj.x)) * (obj.t * obj.dx)[None, :]
    right = np.exp(-1j * scale * np.outer(obj.x, x_t))
    return quad[:, None] * (left @ right)


def transfer_reference_arm(geometry: GhostGeometry, q, x_r) -> np.ndarray:
    """Fourier-transformed Reference-arm response h_R(x_R, -q), (nxr, nq).

    Imaging branch (f_r != d3), with D = 1/(1/d3 - 1/f_r):

        h_R(x_R, -q) = exp(-i (lam/4 pi)(d2 + D) q^2) exp(-i q x_R D / d3)

    Fourier branch (f_r = d3): the lens turns the response into a momentum
    selector; a detector pixel only picks up q = -2 pi x_R/(lam d3), realized
    here as exact grid selection within SNAP_FRACTION of a step.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    x_r = np.atleast_1d(np.asarray(x_r, dtype=float))
    lam = geometry.wavelength
    if geometry.branch == "imaging":
        quad = np.exp(-1j * lam / (4.0 * math.pi) * (geometry.d2 + geometry.lens_term) * q ** 2)
        return quad[None, :] * np.exp(-1j * np.outer(x_r, q) * (geometry.lens_term / geometry.d3))
    quad = np.exp(-1j * lam * geometry.d2 / (4.0 * math.pi) * q ** 2)
    dq = float(np.min(np.diff(q))) if q.size > 1 else 1.0
    target = -2.0 * math.pi * x_r / (lam * geometry.d3)
    hit = np.abs(target[:, None] - q[None, :]) <= SNAP_FRACTION * dq
    return np.where(hit, quad[None, :], 0.0)


def _check_profile_symmetry(c_q: np.ndarray) -> None:
    scale = max(float(np.abs(c_q).max()), 1.0)
    if np.abs(c_q - c_q[::-1]).max() > _PROFILE_SYMMETRY_RTOL * scale:
        raise ValueError("profile must be even in q: C(q) != C(-q)")


def g2_map(
    geometry: GhostGeometry,
    obj: SampledObject,
    profile: GainProfile,
    qgrid: MomentumGrid,
    x_r,
    x_t,
) -> G2Map:
    """Fourth-order correlation over an (x_R, x_T) detector grid.

    On the imaging branch with object-plane collection the map is
    |t(x_T)|^2 |F(x_T - (D/d3) x_R)|^2 (see the module docstring).  When x_t
    is uniform with step h and (D/d3) x_r steps by an integer multiple k h
    of it, with |k| <= len(x_t), u = x_T - (D/d3) x_R takes only the
    len(x_t) + |k| (len(x_r) - 1) values u0 + m h.  When dq h is also
    2 pi / K (as on matched_image_grids), g2_map evaluates F once on them by
    a K-point FFT and reads each row of the map as a window of |F|^2.
    Fourier-lens collection, the Fourier branch and grids without this
    structure take the dense product of transfer_reference_arm and
    transfer_test_arm.  Both routes agree to within rounding.  Raises
    ValueError when x_r or x_t holds a NaN or an infinity.
    """
    x_r = np.atleast_1d(np.asarray(x_r, dtype=float))
    x_t = np.atleast_1d(np.asarray(x_t, dtype=float))
    for name, grid in (("x_r", x_r), ("x_t", x_t)):
        if not np.isfinite(grid).all():
            raise ValueError(f"detector grid {name} must be finite")
    q = qgrid.values
    c_q = profile.correlation_amplitudes(q)
    _check_profile_symmetry(c_q)
    lattice = _kernel_lattice(geometry, qgrid, x_r, x_t)
    kernel = None
    if lattice is not None:
        h, k, u0 = lattice
        n_xr, n_xt = x_r.size, x_t.size
        # u[i, j] = u0 + m h with m = j - k i, from m0 on
        m0 = min(0, -k * (n_xr - 1))
        focus = geometry.wavelength * (geometry.d1 + geometry.d2 + geometry.lens_term) / (4.0 * math.pi)
        weights = c_q * np.exp(-1j * (focus * q ** 2 - u0 * q))
        kernel = _phase_sum(weights, -qgrid.n_half, m0, n_xt + abs(k) * (n_xr - 1), qgrid.dq * h)
    if kernel is None:
        s = (transfer_reference_arm(geometry, q, x_r) * c_q[None, :]) @ transfer_test_arm(geometry, obj, q, x_t)
        return G2Map(x_r, x_t, np.abs(s) ** 2)
    power = np.abs(kernel) ** 2
    if k == 0:
        rows = np.broadcast_to(power, (n_xr, n_xt))
    else:
        # row i starts at m = -k i: |k| samples after row i - 1 when k < 0, before it when k > 0
        rows = np.lib.stride_tricks.sliding_window_view(power, n_xt)[:: abs(k)]
        rows = rows[::-1] if k > 0 else rows
    return G2Map(x_r, x_t, rows * np.abs(obj.amplitude(x_t)) ** 2)


def _kernel_lattice(geometry, qgrid, x_r, x_t):
    """(h, k, u0) when g2_map's momentum sum is a kernel on the lattice u0 + m h, else None.

    Needs object-plane collection on the imaging branch, x_t on x_t[0] + j h
    and (D/d3) x_r on its first value + k h i with integer |k| <= len(x_t),
    so that every kernel sample lands in the map.  Snapping both grids onto
    these lattices may move no phase q u by more than _MAX_PHASE_SNAP.
    """
    if geometry.variant is not CollectionOptics.OBJECT_PLANE or geometry.branch != "imaging":
        return None
    if x_t.size < 2 or x_r.size == 0:
        return None
    r = x_r * (geometry.lens_term / geometry.d3)
    h = float(x_t[-1] - x_t[0]) / (x_t.size - 1)
    span = float(r[-1] - r[0])
    # written so that NaN and inf fail, and the quotient below stays within len(x_t)
    if not (h != 0 and math.isfinite(h) and abs(span) <= abs(h) * x_t.size * (x_r.size - 1)):
        return None
    k = round(span / (h * (x_r.size - 1))) if x_r.size > 1 else 0
    snap = _uniform_deviation(x_t, h) + _uniform_deviation(r, k * h)
    if not snap * qgrid.n_half * qgrid.dq <= _MAX_PHASE_SNAP:
        return None
    return h, k, float(x_t[0] - r[0])


def _uniform_deviation(x: np.ndarray, step: float) -> float:
    """Largest distance of x from the uniform grid x[0] + i step."""
    return float(np.abs(x - (x[0] + step * np.arange(x.size))).max())


def _phase_sum(c: np.ndarray, a0: int, b0: int, n_b: int, theta: float) -> Optional[np.ndarray]:
    """sum_i c[i] exp(i theta (a0 + i) b) for b = b0, ..., b0 + n_b - 1, or None.

    A K-point FFT of the coefficients folded mod K, where aliasing is exact,
    when replacing |theta| by 2 pi / K moves no phase theta a b by more than
    _MAX_PHASE_SNAP and K is no larger than the len(c) n_b terms of the sum,
    so that the transform never outgrows the callers' dense route.  None
    otherwise: the callers then take their transfer matrices.
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

    Object-plane variant: integrates the map over the Test coordinate
    (bucket detection).  Fourier-lens variant: every Test slice already
    carries the image, so the slice nearest x_T = 0 is returned without
    bucket integration.  Raises FloatingPointError when the map or its
    reduction overflows, and ValueError, as g2_map does, for a detector grid
    that is not finite.
    """
    if geometry.branch != "imaging":
        raise GeometryError(
            "focal geometry (f_r = d3) reconstructs a spectrum, not an image; "
            "use ghost_diffraction"
        )
    g2 = g2_map(geometry, obj, profile, qgrid, x_r, x_t)
    if geometry.variant is CollectionOptics.OBJECT_PLANE:
        raw = g2.bucket_reduce()
    else:
        raw = g2.values[:, int(np.argmin(np.abs(g2.x_t)))].copy()
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

    Requires f_r = d3 and the Fourier-lens collection variant; the detector
    pixels are placed exactly on the momenta selected by the focal
    Reference arm, x_R = -q lam d3 / (2 pi), and the Test plane is sampled
    at x_T = 0.  The pattern is |ttilde(-2 pi x_R / (lam d3))|^2 times the
    squared correlation amplitude.  When the object grid is uniform and
    dq dx is 2 pi / K, ttilde comes from the K-point FFT that g2_map's
    kernel uses; otherwise from transfer_test_arm at x_T = 0.  Raises
    FloatingPointError when the pattern overflows.
    """
    if geometry.branch != "fourier":
        raise GeometryError(
            "non-focal geometry (f_r != d3) reconstructs an image, not a "
            "spectrum; use ghost_image"
        )
    if geometry.variant is not CollectionOptics.FOURIER_LENS:
        raise GeometryError(
            "object-plane collection gives no meaningful diffraction pattern; "
            "use the Fourier-lens collection variant"
        )
    q = qgrid.values
    c_q = profile.correlation_amplitudes(q)
    _check_profile_symmetry(c_q)
    step = float(obj.x[-1] - obj.x[0]) / (obj.x.size - 1)
    # h_T(0, q_n) is ttilde(q_n) = dx exp(i q_n x_0) sum_j t_j exp(i dq step n j) times the
    # Test-arm quadratic phase; neither phase factor changes the modulus
    on_lattice = _uniform_deviation(obj.x, step) * qgrid.n_half * qgrid.dq <= _MAX_PHASE_SNAP
    spectrum = _phase_sum(obj.t, 0, -qgrid.n_half, q.size, qgrid.dq * step) if on_lattice else None
    if spectrum is None:
        spectrum = transfer_test_arm(geometry, obj, q, np.array([0.0]))[:, 0]
    else:
        spectrum = obj.dx * spectrum
    raw = np.abs(c_q * spectrum) ** 2
    x_r = -q * geometry.wavelength * geometry.d3 / (2.0 * math.pi)
    order = np.argsort(x_r)
    x_r, q, raw = x_r[order], q[order], raw[order]
    peak = float(raw.max())
    normalized = raw / peak if peak > 0 else raw.copy()
    return DiffractionPattern(x_r, q, raw, normalized)

