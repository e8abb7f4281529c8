import math
import tracemalloc
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermalpdc import (
    G2Map,
    GainProfile,
    GeometryError,
    GhostGeometry,
    ModeParams,
    MomentumGrid,
    SampledObject,
    double_slit,
    g2_map,
    ghost_diffraction,
    ghost_image,
    grating,
    load_object_csv,
    matched_image_grids,
    single_slit,
    validate_factorization,
)
from thermalpdc import ghost
from thermalpdc.artifacts import write_pgm

ASINH1 = math.asinh(1.0)
LAM = 0.7e-6
SLIT = 40e-6

# back-propagating thin-lens geometry with magnification 3
IMAGING = GhostGeometry(wavelength=LAM, d1=0.1, d2=0.1, d3=0.6, f_r=0.15)
# with a Test-arm collection lens
IMAGING_B = GhostGeometry(wavelength=LAM, d1=0.1, d2=0.1, d3=0.6, f_r=0.15, f_t=0.2)
FOURIER = GhostGeometry(wavelength=LAM, d1=0.1, d2=0.1, d3=0.3, f_r=0.3, f_t=0.1)
TWIN = GainProfile(ModeParams.from_npdc(0.0, 0.0, 1.0))


def slit_at_30(x_t):
    """A slit off the grid's center, so the map is not symmetric."""
    return single_slit(x_t, SLIT, center=30e-6)


def slit_spectrum(k, width):
    """Analytic slit transform: width * sinc(k width / 2)."""
    z = np.asarray(k, dtype=float) * width / 2.0
    return width * np.sinc(z / np.pi)


def double_slit_spectrum(k, width, separation):
    """Analytic two-slit transform: envelope times cos(k separation / 2)."""
    return 2.0 * slit_spectrum(k, width) * np.cos(np.asarray(k) * separation / 2.0)


def normalized_cross_correlation(a, b):
    return float(a @ b / math.sqrt((a @ a) * (b @ b)))


def transfer_test_arm(geometry, obj, q, x_t):
    """Fourier-transformed Test-arm response h_T(x_T, q), shape (nq, nxt).

    Without f_t (object-plane collection), free propagation over d1 to the
    object, detector on the object plane:

        h_T(x_T, q) = exp(-i lam d1 q^2 / 4 pi) exp(+i q x_T) t(x_T)

    With f_t (Fourier-lens collection) the lens samples the object transform:

        h_T(x_T, q) = exp(-i lam d1 q^2 / 4 pi) ttilde(q - 2 pi x_T/(lam f_t))

    with ttilde the Riemann transform of the object samples.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    x_t = np.atleast_1d(np.asarray(x_t, dtype=float))
    quad = np.exp(-1j * geometry.wavelength * geometry.d1 / (4.0 * math.pi) * q ** 2)
    if geometry.f_t is None:
        return quad[:, None] * np.exp(1j * np.outer(q, x_t)) * obj.amplitude(x_t)[None, :]
    scale = 2.0 * math.pi / (geometry.wavelength * geometry.f_t)
    left = np.exp(1j * np.outer(q, obj.x)) * (obj.t * obj.dx)[None, :]
    return quad[:, None] * (left @ np.exp(-1j * scale * np.outer(obj.x, x_t)))


def transfer_reference_arm(geometry, q, x_r):
    """Fourier-transformed Reference-arm response h_R(x_R, -q), shape (nxr, nq), on the
    imaging branch: exp(-i (lam/4 pi)(d2 + D) q^2) exp(-i q x_R D / d3).  GeometryError
    on the Fourier branch, through lens_term."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    x_r = np.atleast_1d(np.asarray(x_r, dtype=float))
    quad = np.exp(-1j * geometry.wavelength / (4.0 * math.pi) * (geometry.d2 + geometry.lens_term) * q ** 2)
    return quad[None, :] * np.exp(-1j * np.outer(x_r, q) * (geometry.lens_term / geometry.d3))


def direct_g2(geometry, obj, profile, qgrid, x_r, x_t):
    """The momentum sum as a dense product of the two transfer matrices: the oracle."""
    q = qgrid.values
    c_q = profile.correlation_amplitudes(q)
    return np.abs((transfer_reference_arm(geometry, q, x_r) * c_q) @ transfer_test_arm(geometry, obj, q, x_t)) ** 2


def product_g2(geometry, obj, profile, qgrid, x_r, x_t):
    """The map g2_map builds off the kernel lattice, from K[i, j] = F(x_j - r_i) as a
    product over q: |K|^2 |t(x_T)|^2 on the object plane, |K @ (t dx exp(-i s x x_T))|^2
    with a collection lens."""
    q = qgrid.values
    c_q = profile.correlation_amplitudes(q)
    r = np.asarray(x_r, dtype=float) * (geometry.lens_term / geometry.d3)
    x = np.asarray(x_t, dtype=float) if geometry.f_t is None else obj.x
    focus = geometry.wavelength * (geometry.d1 + geometry.d2 + geometry.lens_term) / (4.0 * math.pi)
    kernel = (c_q * np.exp(-1j * focus * q ** 2) * np.exp(-1j * np.outer(r, q))) @ np.exp(1j * np.outer(q, x))
    if geometry.f_t is None:
        return np.abs(kernel) ** 2 * np.abs(obj.amplitude(x)) ** 2
    s = 2.0 * math.pi / (geometry.wavelength * geometry.f_t)
    return np.abs(kernel @ ((obj.t * obj.dx)[:, None] * np.exp(-1j * s * np.outer(obj.x, x_t)))) ** 2


def route_calls(fn, *args):
    """fn(*args), and the number of calls it made to the 1-D momentum sum and to np.fft.fft."""
    kernel_calls, fft_calls = [], []
    phase_sum, fft = ghost._phase_sum, np.fft.fft
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ghost, "_phase_sum", lambda *a: kernel_calls.append(a) or phase_sum(*a))
        mp.setattr(np.fft, "fft", lambda *a, **k: fft_calls.append(a) or fft(*a, **k))
        return fn(*args), len(kernel_calls), len(fft_calls)


def diffraction_by_transfer_matrix(obj, profile, q):
    """|C_q h_T(0, q)|^2 from the Test-arm transfer matrix."""
    return np.abs(profile.correlation_amplitudes(q) * transfer_test_arm(FOURIER, obj, q, [0.0])[:, 0]) ** 2


def sampled_diffraction(obj, profile, q):
    """|C_q ttilde(q)|^2 from the object's sampled transform, as ghost_diffraction takes it off its lattice."""
    return np.abs(profile.correlation_amplitudes(q) * obj.sampled_transform(q)) ** 2


class TestSampledObject:
    def test_rejects_overshoot(self):
        x = np.linspace(-1, 1, 32)
        with pytest.raises(ValueError, match="exceed"):
            SampledObject(x, np.full(32, 1.5))

    def test_rejects_nonuniform_grid(self):
        x = np.array([0.0, 1.0, 2.5])
        with pytest.raises(ValueError, match="uniform"):
            SampledObject(x, np.ones(3))

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("x", [[0.0, math.nan, 2.0], [-math.inf, 0.0, math.inf]], ids=["nan", "inf"])
    def test_rejects_non_finite_grid(self, x):
        with pytest.raises(ValueError, match="finite"):
            SampledObject(np.array(x), np.ones(3))

    def test_rejects_nan_transmission(self):
        with pytest.raises(ValueError, match="finite"):
            SampledObject(np.linspace(-1, 1, 3), np.array([0.0, math.nan, 1.0]))

    def test_amplitude_zero_outside(self):
        obj = single_slit(np.linspace(-1e-4, 1e-4, 64), SLIT)
        assert obj.amplitude(np.array([5e-4, -2e-4])) == pytest.approx(0.0)

    def test_sampled_transform_matches_analytic_slit(self):
        x = np.linspace(-320e-6, 320e-6, 1025)
        obj = single_slit(x, SLIT)
        k = np.linspace(-3 * 2 * np.pi / SLIT, 3 * 2 * np.pi / SLIT, 101)
        got = obj.sampled_transform(k)
        want = slit_spectrum(k, SLIT)
        assert np.abs(got - want).max() < 2e-3 * SLIT

    @pytest.mark.parametrize(
        "bad", [True, np.True_, "1", 1j, None, math.inf, -math.inf, math.nan, 10**400],
        ids=["true", "numpy-true", "string", "complex", "none", "inf", "-inf", "nan", "huge-int"],
    )
    @pytest.mark.parametrize(
        "field, build",
        [
            ("width", lambda x, v: single_slit(x, v)),
            ("center", lambda x, v: single_slit(x, SLIT, center=v)),
            ("width", lambda x, v: double_slit(x, v, 160e-6)),
            ("separation", lambda x, v: double_slit(x, SLIT, v)),
            ("center", lambda x, v: double_slit(x, SLIT, 160e-6, v)),
            ("period", lambda x, v: grating(x, v)),
            ("duty", lambda x, v: grating(x, 100e-6, v)),
            ("center", lambda x, v: grating(x, 100e-6, 0.5, v)),
        ],
        ids=["slit-width", "slit-center", "double-width", "double-separation", "double-center", "grating-period",
             "grating-duty", "grating-center"],
    )
    def test_builders_reject_bool_non_real_and_non_finite(self, field, build, bad):
        # single_slit(x, True) built a 1 m slit, double_slit(x, w, True) a dark object, grating(x, inf)
        # an open one, center=inf a dark slit, and a string raised a bare TypeError
        with pytest.raises(ValueError, match=f"{field} must be a finite real number"):
            build(np.linspace(-1e-3, 1e-3, 201), bad)

    def test_builders_accept_numpy_scalars(self):
        x = np.linspace(-1e-3, 1e-3, 201)
        assert np.array_equal(single_slit(x, np.float64(SLIT), np.int64(0)).t, single_slit(x, SLIT).t)
        assert np.array_equal(double_slit(x, SLIT, np.float64(160e-6)).t, double_slit(x, SLIT, 160e-6).t)
        assert np.array_equal(grating(x, np.float64(1e-4), np.float64(0.25)).t, grating(x, 1e-4, 0.25).t)

    def test_grating_duty_cycle(self):
        x = np.linspace(-1e-3, 1e-3, 2001)
        obj = grating(x, period=100e-6, duty=0.25)
        open_fraction = np.mean(np.abs(obj.t))
        assert open_fraction == pytest.approx(0.25, abs=0.01)

    def test_csv_loader_roundtrip(self, tmp_path):
        path = tmp_path / "obj.csv"
        x = np.linspace(-2, 2, 9)
        t = np.exp(-(x ** 2)) * np.exp(0.3j * x)
        with open(path, "w") as fh:
            fh.write("x,re,im\n")
            for xi, ti in zip(x, t):
                fh.write(f"{float(xi)!r},{float(ti.real)!r},{float(ti.imag)!r}\n")
        obj = load_object_csv(path)
        assert np.allclose(obj.x, x)
        assert np.allclose(obj.t, t)


class TestGeometry:
    def test_classification(self):
        assert IMAGING.branch == "imaging"
        assert FOURIER.branch == "fourier"

    def test_ill_conditioned_band(self):
        geo = GhostGeometry(wavelength=LAM, d1=0.1, d2=0.1, d3=0.3, f_r=0.3 * (1 + 1e-8))
        with pytest.raises(GeometryError, match="ill-conditioned"):
            _ = geo.branch

    def test_magnification_and_residual(self):
        assert IMAGING.magnification == pytest.approx(3.0)
        assert abs(IMAGING.thin_lens_residual) < 1e-12
        defocused = GhostGeometry(wavelength=LAM, d1=0.1, d2=0.1, d3=0.5, f_r=0.15)
        assert abs(defocused.thin_lens_residual) > 0.1

    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(ValueError):
            GhostGeometry(wavelength=LAM, d1=0.0, d2=0.1, d3=0.3, f_r=0.2)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["wavelength", "d1", "d2", "d3", "f_r", "f_t"])
    def test_rejects_non_finite_lengths(self, name, value):
        lengths = dict(wavelength=LAM, d1=0.1, d2=0.1, d3=0.3, f_r=0.3, f_t=0.1)
        with pytest.raises(ValueError, match=f"{name} must be a finite real number > 0"):
            GhostGeometry(**dict(lengths, **{name: value}))

    @pytest.mark.parametrize(
        "value", [True, False, np.True_, "a", "0.1", 0.1j, Decimal("0.1"), [0.1]],
        ids=["true", "false", "numpy-true", "string", "numeric-string", "complex", "decimal", "list"],
    )
    @pytest.mark.parametrize("name", ["wavelength", "d1", "d2", "d3", "f_r", "f_t"])
    def test_rejects_non_real_lengths(self, name, value):
        # the presence of f_t selects the collection lens, so True must not pass as a 1 m one
        lengths = dict(wavelength=LAM, d1=0.1, d2=0.1, d3=0.3, f_r=0.3, f_t=0.1)
        with pytest.raises(ValueError, match=f"{name} must be a finite real number"):
            GhostGeometry(**dict(lengths, **{name: value}))

    def test_accepts_numpy_lengths(self):
        geo = GhostGeometry(np.float64(LAM), np.float32(0.1), np.int64(1), 0.6, 0.15, np.float64(0.2))
        assert geo.branch == "imaging" and geo.f_t == 0.2


class TestMomentumGrid:
    def test_symmetric_odd_with_zero(self):
        grid = MomentumGrid(5, 0.25)
        q = grid.values
        assert q.size == 11
        assert np.array_equal(q, -q[::-1])
        assert q[5] == 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            MomentumGrid(0, 1.0)
        for n_half in (2**62, 2.5, 16.0, True, "16", None):
            with pytest.raises(ValueError, match="integer"):
                MomentumGrid(n_half, 1.0)
        assert MomentumGrid(np.int64(16), 1.0).values.size == 33
        with pytest.raises(ValueError):
            MomentumGrid(4, -1.0)
        for dq in (math.nan, math.inf, 1e-320):
            with pytest.raises(ValueError, match="finite transform period"):
                MomentumGrid(4, dq)

    @pytest.mark.parametrize("dq", [True, "1.0", None, 1j])
    def test_rejects_bool_and_non_real_step(self, dq):
        # MomentumGrid(4, True) built a grid of step 1; a string raised a bare TypeError
        with pytest.raises(ValueError, match="dq must be a finite real number"):
            MomentumGrid(4, dq)
        for step in (np.float64(0.5), np.float32(0.5), np.int64(2)):
            assert MomentumGrid(4, step).values[-1] == 4 * float(step)


def amplitude(profile, q):
    """u v (1 + mu_t + mu_r) of profile.mode_params(q), in Python floats."""
    p = profile.mode_params(q)
    return p.u * p.v * (1.0 + p.mu_t + p.mu_r)


class TestCorrelationAmplitude:
    def test_constant_twin_beam(self):
        q = np.linspace(-1e5, 1e5, 11)
        c = TWIN.correlation_amplitudes(q)
        assert np.allclose(c, math.sinh(ASINH1) * math.cosh(ASINH1))

    def test_flat_profile_amplitude_is_pinned(self):
        # the bits of the constant profile before it became the sinc of bandwidth 0
        q = MomentumGrid(8, 1e4).values
        assert TWIN.correlation_amplitudes(q).tolist() == [1.414213562373095] * q.size
        seeded = GainProfile(ModeParams(0.5, 1.5, 0.75))
        assert seeded.correlation_amplitudes(q).tolist() == [3.193919182642227] * q.size
        assert seeded.mode_params(1e300) == ModeParams(0.5, 1.5, 0.75)

    def test_seeded_value(self):
        prof = GainProfile(ModeParams(1.0, 1.0, ASINH1))
        assert amplitude(prof, 0.0) == pytest.approx(3.0 * math.sqrt(2.0), rel=1e-12)

    def test_sinc_profile_first_zero(self):
        prof = GainProfile(ModeParams(0.0, 0.0, 0.9), bandwidth=1e-10)
        q0 = math.sqrt(math.pi / 1e-10)
        assert prof.correlation_amplitudes(np.array([q0]))[0] == pytest.approx(0.0, abs=1e-12)
        assert prof.correlation_amplitudes(np.zeros(1))[0] > 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bandwidth", [1.0, -1.0, 1e300])
    def test_sinc_profile_overflowing_argument_gives_zero(self, bandwidth):
        # bandwidth q^2 overflows to +-inf, where sin(arg) / arg -> 0
        prof = GainProfile(ModeParams(0.0, 0.0, 0.9), bandwidth=bandwidth)
        assert prof.mode_params(1e200).coupling == 0.0
        q = [-1e200, -1.0, 0.0, 1e-200, 1e200]
        got = prof.correlation_amplitudes(np.array(q))
        assert got.tolist() == [amplitude(prof, qi) for qi in q]
        assert got[[0, 4]].tolist() == [0.0, 0.0] and got[2] > 0.0

    @pytest.mark.parametrize("params", [True, None, (0.0, 0.0, 1.0), 0.5], ids=["true", "none", "tuple", "float"])
    def test_rejects_other_than_mode_params(self, params):
        # a params of True raised AttributeError: 'bool' object has no attribute 'u'
        with pytest.raises(ValueError, match="params must be a ModeParams"):
            GainProfile(params)

    @pytest.mark.parametrize("bandwidth", [True, False, "1", None, 1j, math.nan, math.inf],
                             ids=["true", "false", "string", "none", "complex", "nan", "inf"])
    def test_rejects_bool_and_non_real_bandwidth(self, bandwidth):
        # bandwidth=True built a bandwidth of 1, and a string raised a bare TypeError
        params = ModeParams(0.0, 0.0, 0.5)
        with pytest.raises(ValueError, match="bandwidth must be a finite real number"):
            GainProfile(params, bandwidth=bandwidth)
        assert GainProfile(params, np.float64(1e-10)).mode_params(1e4) == GainProfile(params, 1e-10).mode_params(1e4)

    @pytest.mark.parametrize("params, bandwidth", [(ModeParams(0.0, 0.0, 800.0), 0.0),
                                                   (ModeParams(1e10, 0.0, 355.0), 0.0),
                                                   (ModeParams(0.0, 0.0, 400.0), 1e-12)],
                             ids=["cosh-overflows", "product-overflows", "sinc-peak-overflows"])
    def test_rejects_overflowing_peak(self, params, bandwidth):
        # math.cosh(800) raises OverflowError; at 355 u v is finite and the seed factor overflows it;
        # |sinc| <= 1, so the peak is where a sinc profile overflows first
        with pytest.raises(ValueError, match=r"peak correlation amplitude overflows at coupling .*mu_t .*mu_r"):
            GainProfile(params, bandwidth)
        for finite in (GainProfile(ModeParams(0.0, 0.0, 354.0)), GainProfile(ModeParams(0.0, 0.0, 300.0), 1e-12)):
            assert np.isfinite(finite.correlation_amplitudes(np.zeros(1))).all()

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 64), st.floats(1e-3, 1e7), st.floats(0.0, 5.0),
        st.one_of(st.just(0.0), st.floats(-1e-8, 1e-8), st.floats(-1e300, 1e300)),
        st.floats(0.0, 10.0), st.floats(0.0, 10.0),
    )
    @example(8, 1e4, 0.9, 0.0, 0.0, 0.0)
    @example(8, 1e4, 0.9, 1e-10, 0.3, 0.1)
    def test_amplitudes_are_even_and_match_mode_params(self, n_half, dq, coupling, bandwidth, mu_t, mu_r):
        # the evenness g2_map and ghost_diffraction take, bit for bit, and C_q of mode_params(q) exactly
        prof = GainProfile(ModeParams(mu_t, mu_r, coupling), bandwidth)
        q = MomentumGrid(n_half, dq).values
        c = prof.correlation_amplitudes(q)
        assert c.tolist() == c[::-1].tolist() == prof.correlation_amplitudes(q[::-1]).tolist()
        assert c.tolist() == [amplitude(prof, qi) for qi in q.tolist()]


class TestTransferFunctions:
    def test_object_plane_short_propagation_is_plane_wave(self):
        geo = GhostGeometry(wavelength=LAM, d1=1e-12, d2=0.1, d3=0.6, f_r=0.15)
        x = np.linspace(-1e-4, 1e-4, 33)
        flat = SampledObject(x, np.ones(33))
        q = np.linspace(-2e5, 2e5, 21)
        h = transfer_test_arm(geo, flat, q, x)
        assert np.abs(h - np.exp(1j * np.outer(q, x))).max() < 1e-6

    def test_object_plane_support(self):
        x = np.linspace(-200e-6, 200e-6, 201)
        obj = single_slit(x, SLIT)
        h = transfer_test_arm(IMAGING, obj, np.array([0.0, 1e5]), x)
        outside = np.abs(x) > SLIT / 2.0 + obj.dx
        assert np.abs(h[:, outside]).max() == 0.0

    def test_fourier_lens_center_samples_spectrum(self):
        x = np.linspace(-320e-6, 320e-6, 1025)
        obj = single_slit(x, SLIT)
        q = np.linspace(-2 * 2 * np.pi / SLIT, 2 * 2 * np.pi / SLIT, 41)
        h = transfer_test_arm(IMAGING_B, obj, q, np.array([0.0]))[:, 0]
        assert np.abs(np.abs(h) - np.abs(obj.sampled_transform(q))).max() < 1e-12

    def test_thin_lens_cancels_quadratic_phase(self):
        q = np.linspace(-5e5, 5e5, 41)
        h_r = transfer_reference_arm(IMAGING, q, np.array([0.0]))[0]
        quad_t = np.exp(-1j * LAM * IMAGING.d1 / (4 * np.pi) * q ** 2)
        product = h_r * quad_t
        assert np.abs(np.angle(product)).max() < 1e-9

    def test_fourier_branch_redirects_to_ghost_diffraction(self):
        # the focal Reference arm maps each pixel to one momentum; ghost_diffraction is its one route
        x = np.linspace(-1e-3, 1e-3, 65)
        qgrid = MomentumGrid(32, 1e4)
        with pytest.raises(GeometryError, match="use ghost_diffraction"):
            transfer_reference_arm(FOURIER, qgrid.values, x)
        for geometry, x_t in ((FOURIER, x), (replace(FOURIER, f_t=None), x), (replace(FOURIER, f_t=None), x[:1])):
            with pytest.raises(GeometryError, match="use ghost_diffraction"):
                g2_map(geometry, single_slit(x, SLIT), TWIN, qgrid, x, x_t)


class TestG2Map:
    def setup_method(self):
        self.qgrid = MomentumGrid(256, 2 * np.pi / (32 * SLIT))
        self.x_r, self.x_t = matched_image_grids(IMAGING, self.qgrid)
        self.obj = single_slit(self.x_t, SLIT)

    def test_dark_object_dark_map(self):
        dark = SampledObject(self.x_t, np.zeros_like(self.x_t))
        g = g2_map(IMAGING, dark, TWIN, self.qgrid, self.x_r, self.x_t)
        assert g.values.max() == 0.0

    def test_uncoupled_source_dark_map(self):
        off = GainProfile(ModeParams(0.0, 0.0, 0.0))
        g = g2_map(IMAGING, self.obj, off, self.qgrid, self.x_r, self.x_t)
        assert g.values.max() == 0.0

    def test_nonnegative(self):
        g = g2_map(IMAGING, self.obj, TWIN, self.qgrid, self.x_r, self.x_t)
        assert g.values.min() >= 0.0

    def test_scaling_is_quadratic(self):
        strong = GainProfile(ModeParams.from_npdc(0.0, 0.0, 4.0))
        weak = GainProfile(ModeParams.from_npdc(0.0, 0.0, 1.0))
        ratio = (amplitude(strong, 0.0) / amplitude(weak, 0.0)) ** 2
        g_strong = g2_map(IMAGING, self.obj, strong, self.qgrid, self.x_r, self.x_t)
        g_weak = g2_map(IMAGING, self.obj, weak, self.qgrid, self.x_r, self.x_t)
        assert np.allclose(g_strong.values, ratio * g_weak.values, rtol=1e-12)

    @pytest.mark.parametrize("f_t", [None, 0.1], ids=["object-plane", "fourier-lens"])
    def test_overflowing_map_raises(self, f_t):
        # the demo ghost-image grids at coupling 300: C(0) is finite, |F|^2 is not.  g2_map
        # warned "overflow encountered in square" and returned a map whose peak was NaN
        qgrid = MomentumGrid(512, 2454.3692606171526)
        x_t, x_r = np.linspace(-256e-6, 256e-6, 512), np.linspace(-768e-6, 768e-6, 512)
        hot = GainProfile(ModeParams(0.0, 0.0, 300.0))
        geometry = replace(IMAGING, f_t=f_t)
        for build in (g2_map, ghost_image):
            with pytest.raises(FloatingPointError, match="overflow"):
                build(geometry, double_slit(x_t, SLIT, 160e-6), hot, qgrid, x_r, x_t)

    def test_fft_engine_matches_direct(self):
        # (D/d3) x_r steps by k x_t steps: k = -1 on the matched grids, +1 reversed, +-2 on every
        # other pixel, 0 for a lone pixel or a repeated one; a half-pixel shift only moves u0
        x_r = self.x_r
        pixel = x_r[1] - x_r[0]
        for grid in (x_r, x_r[::-1], x_r[::2], x_r[::-2], x_r[250:251], np.zeros(5), x_r + pixel / 2):
            fast, kernel_calls, fft_calls = route_calls(g2_map, IMAGING, self.obj, TWIN, self.qgrid, grid, self.x_t)
            direct = direct_g2(IMAGING, self.obj, TWIN, self.qgrid, grid, self.x_t)
            assert (kernel_calls, fft_calls) == (1, 1)
            assert fast.values.shape == direct.shape
            assert np.abs(fast.values - direct).max() <= 1e-10 * direct.max()

    def test_off_lattice_grid_runs_direct_sum(self):
        pixel = self.x_r[1] - self.x_r[0]
        # the largest shift of one x_t pixel that keeps every phase q u within pi 1e-9
        bound = math.pi * 1e-9 / (self.qgrid.n_half * self.qgrid.dq)
        x_t_bent = self.x_t.copy()
        x_t_bent[300] += 4 * bound
        # x_r stretched by 1e-4, or by 1e-10 (1.6e-7 rad at the far edge), an uneven x_r on the
        # transform lattice, x_t bent beyond the phase bound, and Fourier-lens collection with a
        # stretched x_r; a collection lens samples the object grid, so a bent x_t leaves it on the lattice
        cases = [(IMAGING, self.x_r * (1 + 1e-4), self.x_t), (IMAGING, self.x_r * (1 + 1e-10), self.x_t),
                 (IMAGING, np.concatenate([self.x_r[::-1], self.x_r[:7]]), self.x_t),
                 (IMAGING, self.x_r, x_t_bent), (IMAGING_B, self.x_r * (1 + 1e-4), self.x_t)]
        for geometry, x_r, x_t in cases:
            args = (geometry, self.obj, TWIN, self.qgrid, x_r, x_t)
            g, kernel_calls, fft_calls = route_calls(g2_map, *args)
            assert (kernel_calls, fft_calls) == (0, 0)
            assert np.array_equal(g.values, product_g2(*args))
            direct = direct_g2(*args)
            assert np.abs(g.values - direct).max() <= 1e-10 * direct.max()
        # within the bound x_t still takes the kernel, and so does a collection lens on the matched grids
        x_t_bent[300] = self.x_t[300] + bound / 4
        for geometry, x_t in ((IMAGING, x_t_bent), (IMAGING_B, self.x_t), (IMAGING_B, x_t_bent)):
            args = (geometry, self.obj, TWIN, self.qgrid, self.x_r, x_t)
            g, kernel_calls, fft_calls = route_calls(g2_map, *args)
            assert (kernel_calls, fft_calls) == (1, 1)
            direct = direct_g2(*args)
            assert np.abs(g.values - direct).max() <= 1e-10 * direct.max()

    @pytest.mark.parametrize("big_k", [2**24, 10.5], ids=["tiny-step", "off-lattice-step"])
    def test_uniform_grid_off_the_transform_takes_dense_product(self, big_k):
        # the kernel lattice holds (x_t uniform, one Reference pixel), but dq h = 2 pi / 2**24 would
        # need a 2**24-point transform (256 MiB) for 33 x 9 terms, and 2 pi / 10.5 is on no lattice
        qg = MomentumGrid(16, 2 * np.pi / (8 * SLIT))
        x_t = np.arange(-4, 5) * (2 * np.pi / (qg.dq * big_k))
        args = (IMAGING, SampledObject(x_t, np.ones(9)), TWIN, qg, np.array([0.0]), x_t)
        tracemalloc.start()
        try:
            g, kernel_calls, fft_calls = route_calls(g2_map, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (kernel_calls, fft_calls) == (1, 0)
        assert peak < 2**20
        assert np.array_equal(g.values, product_g2(*args))
        direct = direct_g2(*args)
        assert np.abs(g.values - direct).max() <= 1e-10 * direct.max()

    @pytest.mark.parametrize(
        "big_k, pixels", [(4096, 3), (34, 33), (32, 32)], ids=["larger-than-direct", "one-row-over", "aliasing"]
    )
    def test_lattice_out_of_bounds_runs_direct_sum(self, big_k, pixels):
        # pixels on a K-row lattice with 33 momenta and 33 Test pixels: (D/d3) x_r
        # steps by 33/K of a Test pixel, which is no whole number of them
        qg = MomentumGrid(16, 2 * np.pi / (8 * SLIT))
        _, x_t = matched_image_grids(IMAGING, qg)
        pixel = 2 * np.pi * IMAGING.d3 / (qg.dq * IMAGING.lens_term * big_k)
        args = (IMAGING, single_slit(x_t, SLIT), TWIN, qg, pixel * np.arange(-(pixels // 2), pixels - pixels // 2), x_t)
        g, kernel_calls, fft_calls = route_calls(g2_map, *args)
        assert (kernel_calls, fft_calls) == (0, 0)
        assert np.array_equal(g.values, product_g2(*args))
        direct = direct_g2(*args)
        assert np.abs(g.values - direct).max() <= 1e-10 * direct.max()

    def test_peak_line_is_inverted_image_line(self):
        flat = SampledObject(self.x_t, np.ones_like(self.x_t))
        g = g2_map(IMAGING, flat, TWIN, self.qgrid, self.x_r, self.x_t)
        m = IMAGING.magnification
        for i in (100, 256, 400):
            peak_x_t = g.x_t[np.argmax(g.values[i])]
            assert peak_x_t == pytest.approx(-g.x_r[i] / m, abs=1.5 * float(np.diff(g.x_t)[0]))

    def test_point_spread_narrows_with_momentum_window(self):
        widths = []
        for n_half in (64, 128, 256):
            qg = MomentumGrid(n_half, 2 * np.pi / (32 * SLIT))
            x_r, x_t = matched_image_grids(IMAGING, qg)
            flat = SampledObject(x_t, np.ones_like(x_t))
            g = g2_map(IMAGING, flat, TWIN, qg, np.array([0.0]), x_t)
            row = g.values[0]
            above = row >= row.max() / 2.0
            widths.append(above.sum() * float(np.diff(x_t)[0]))
        assert widths[0] > widths[1] > widths[2]


def unit_map(values):
    """The G2Map of a whole array: its rows with a weight of ones."""
    return G2Map(np.arange(values.shape[0]), np.arange(values.shape[-1]), values, np.ones(values.shape[-1]))


def materialized_map(geometry, obj, profile, qgrid, x_r, x_t):
    """The kernel-route map as one array, |F|^2[j - k i - m0] |t(x_T[j])|^2, indexed
    from the kernel that g2_map's momentum sum returns."""
    kernels = []
    phase_sum = ghost._phase_sum
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ghost, "_phase_sum", lambda *a: kernels.append(phase_sum(*a)) or kernels[-1])
        g2_map(geometry, obj, profile, qgrid, x_r, x_t)
    _, k, _ = ghost._kernel_lattice(qgrid, np.asarray(x_t), np.asarray(x_r) * (geometry.lens_term / geometry.d3))
    m = np.arange(len(x_t))[None, :] - k * np.arange(len(x_r))[:, None]
    return (np.abs(kernels[0]) ** 2)[m - m.min()] * np.abs(obj.amplitude(x_t)) ** 2


def pgm_reference(values):
    """The PGM of a whole array as write_pgm documents it: round(values / max * 255)
    as uint8 in row-major order, every pixel 0 unless the max (NaN included) is > 0."""
    peak = values.max()
    pixels = np.zeros(values.shape, dtype=np.uint8)
    if peak > 0:
        np.copyto(pixels, np.round(values / peak * 255.0), casting="unsafe")
    return f"P5\n{values.shape[1]} {values.shape[0]}\n255\n".encode() + pixels.tobytes()


def assert_streams_like_the_whole_map(tmp_path, g, values):
    """write_pgm is byte for byte pgm_reference(values), and the bucket is within 1e-14
    of values.sum(axis=1) dx, NaN in the same rows."""
    write_pgm(tmp_path / "streamed.pgm", g)
    assert (tmp_path / "streamed.pgm").read_bytes() == pgm_reference(values)
    bucket, reduced = values.sum(axis=1) * (g.x_t[1] - g.x_t[0]), g.bucket_reduce()
    nan = np.isnan(bucket)
    assert np.array_equal(np.isnan(reduced), nan)
    assert np.all(np.abs(reduced[~nan] - bucket[~nan]) <= 1e-14 * bucket[~nan])


class TestStreamedMap:
    """The kernel-route map holds |F|^2 windows and |t|^2; the PGM and the bucket
    read it a block of rows at a time over its support, the columns where the
    object transmits, the PGM bit for bit as from the whole array."""

    QGRID = MomentumGrid(256, 2 * np.pi / (32 * SLIT))  # 513 pixels: 63 rows a block
    WIDE = MomentumGrid(20000, 2 * np.pi / (32 * SLIT))  # 40001 pixels: a row is wider than a block

    @staticmethod
    def grids(qgrid):
        return matched_image_grids(IMAGING, qgrid)

    @pytest.mark.parametrize(
        "qgrid, pick, shape",
        [
            (QGRID, lambda x_r: x_r, slit_at_30),  # k = -1, 513 rows: 8 blocks of 63 and one of 9
            (QGRID, lambda x_r: x_r[::-1], slit_at_30),  # k = +1
            (QGRID, lambda x_r: x_r[::-3], slit_at_30),  # k = +3
            (QGRID, lambda x_r: x_r[::3], slit_at_30),  # k = -3
            (QGRID, lambda x_r: np.full(70, x_r[200]), slit_at_30),  # k = 0 over two blocks
            (QGRID, lambda x_r: x_r[250:251], slit_at_30),  # a single Reference pixel
            (WIDE, lambda x_r: x_r[19999:20002], slit_at_30),  # one row a block
            (QGRID, lambda x_r: x_r, lambda x_t: grating(x_t, 3.1 * SLIT, duty=0.4)),  # many support runs
        ],
        ids=["k-negative", "k-positive", "k-3", "k-minus-3", "k-zero", "one-pixel", "wide-row", "grating"],
    )
    def test_matches_the_whole_map(self, tmp_path, qgrid, pick, shape):
        x_r, x_t = self.grids(qgrid)
        x_r = pick(x_r)
        obj = shape(x_t)
        g = g2_map(IMAGING, obj, TWIN, qgrid, x_r, x_t)
        assert np.array_equal(g.weight, np.abs(obj.amplitude(x_t)) ** 2) and not g.rows.flags.writeable
        # an opaque column holds no value, and is never built
        assert np.array_equal(g.support, np.flatnonzero(g.weight))
        whole = materialized_map(IMAGING, obj, TWIN, qgrid, x_r, x_t)
        # the peak is found at construction, from the column maxima of the rows
        assert g.peak == whole.max()
        assert np.array_equal(g.values, whole)
        # the bucket's sums skip the opaque columns, and run in another order than the rows'
        assert_streams_like_the_whole_map(tmp_path, g, whole)

    @staticmethod
    def window_rows(count, width):
        """The read-only (count, width) windows of one random line, as on a kernel lattice."""
        line = np.random.default_rng(7).random(count + width - 1)
        return np.lib.stride_tricks.sliding_window_view(line, width)[::-1]

    @pytest.mark.parametrize(
        "case", ["runs", "all-zero", "negative-zero", "nan-weight", "nan-row", "inf-row", "full"]
    )
    def test_support_streams_like_the_whole_map(self, tmp_path, case):
        # 200 rows of 513: three blocks of 63 and one of 11
        rows, columns = self.window_rows(200, 513), np.arange(513)
        weight = np.where(columns % 17 < 6, 0.25 + columns / 1026.0, 0.0)  # 31 runs
        if case == "all-zero":
            weight[:] = 0.0
        elif case == "negative-zero":
            weight[weight == 0] = -0.0
        elif case == "nan-weight":
            weight[40] = np.nan
        elif case in ("nan-row", "inf-row"):
            # under a zero weight: its value is NaN, so the map is dark and the row's bucket NaN
            rows = np.array(rows)
            rows[150, 10] = np.nan if case == "nan-row" else np.inf
        elif case == "full":
            weight += 0.5
        with np.errstate(invalid="ignore"):  # inf times a zero weight
            g = G2Map(np.arange(200.0), np.arange(513.0), rows, weight)
            values = g.values
            if case == "full":
                assert g.support == slice(None)
            else:
                assert np.array_equal(g.support, np.flatnonzero((weight != 0) | ~np.isfinite(rows.max(axis=0))))
            assert_streams_like_the_whole_map(tmp_path, g, values)
        if case in ("nan-weight", "nan-row", "inf-row"):
            assert math.isnan(g.peak)
        if case == "all-zero":
            assert g.peak == 0 and not g.bucket_reduce().any()

    def test_partial_last_block(self):
        x_r, x_t = self.grids(self.QGRID)
        g = g2_map(IMAGING, single_slit(x_t, SLIT), TWIN, self.QGRID, x_r, x_t)
        assert [len(block) for _, block in g.row_blocks()] == [63] * 8 + [9]

    def test_dense_route_keeps_its_array(self, tmp_path):
        qgrid = MomentumGrid(64, 2 * np.pi / (16 * SLIT))
        x_r, x_t = self.grids(qgrid)
        g = g2_map(IMAGING_B, single_slit(x_t, SLIT), TWIN, qgrid, x_r, x_t)
        # a collection lens keeps the map itself, read-only, with a weight of ones: multiplying
        # by 1.0 moves no bit
        assert g.rows.flags.owndata and not g.rows.flags.writeable
        assert np.array_equal(g.weight, np.ones(len(x_t))) and g.support == slice(None)
        assert g.values.tobytes() == g.rows.tobytes() and g.peak == g.rows.max()
        write_pgm(tmp_path / "g.pgm", g)
        pixels = np.round(g.rows / g.rows.max() * 255).astype(np.uint8)
        assert (tmp_path / "g.pgm").read_bytes() == f"P5\n{len(x_t)} {len(x_r)}\n255\n".encode() + pixels.tobytes()
        bucket = g.rows.sum(axis=1) * (x_t[1] - x_t[0])
        assert np.all(np.abs(g.bucket_reduce() - bucket) <= 1e-14 * bucket)

    @pytest.mark.parametrize("where", ["rows", "weight"])
    def test_peak_keeps_a_nan(self, tmp_path, where):
        # in the third block of 63 rows, where Python's max would drop it
        x_r, x_t = np.arange(200.0), np.arange(513.0)
        rows, weight = np.ones((200, 513)), np.full(513, 2.0)
        if where == "rows":
            rows[150, 7] = np.nan
        else:
            weight[7] = np.nan
        for g in (G2Map(x_r, x_t, rows, weight), unit_map(rows * weight)):
            assert math.isnan(g.values.max()) and math.isnan(g.peak)
            assert math.isnan(G2Map(x_r, x_t, g.rows, g.weight).bucket_reduce()[150])
            assert write_pgm(tmp_path / "g.pgm", g) == write_pgm(tmp_path / "v.pgm", unit_map(g.values))

    @pytest.mark.parametrize(
        "rows, weight",
        [(np.ones(5), np.ones(5)), (np.ones((2, 5)), np.ones(4)), (np.ones((2, 5)), np.ones((1, 5))),
         (np.ones((0, 5)), np.ones(5)), (np.ones((2, 0)), np.ones(0))],
        ids=["1-d-rows", "short-weight", "2-d-weight", "no-rows", "no-columns"],
    )
    def test_rejects_a_malformed_map(self, rows, weight):
        with pytest.raises(ValueError, match="non-empty 2-D rows and one weight per column"):
            G2Map(np.arange(len(rows)), np.arange(rows.shape[-1]), rows, weight)

    def test_rejects_a_negative_weight(self):
        # the peak would read rows.max() w, the smallest value of the column
        with pytest.raises(ValueError, match="weight >= 0"):
            G2Map(np.arange(2.0), np.arange(1.0), np.array([[1.0], [2.0]]), np.array([-1.0]))

    def test_library_routes_never_build_the_whole_map(self, tmp_path, monkeypatch):
        x_r, x_t = self.grids(self.QGRID)
        obj = single_slit(x_t, SLIT)

        def refuse(self):
            raise AssertionError("the whole map was built")

        monkeypatch.setattr(G2Map, "values", property(refuse))
        image = ghost_image(IMAGING, obj, TWIN, self.QGRID, x_r, x_t)
        write_pgm(tmp_path / "g.pgm", image.g2)

    @pytest.mark.parametrize(
        "shape",
        [lambda x_t: double_slit(x_t, SLIT, 160e-6), lambda x_t: grating(x_t, 2 * SLIT)],
        ids=["double-slit", "grating"],
    )
    def test_ghost_image_and_pgm_memory_is_bounded(self, tmp_path, shape):
        # matched 2049 x 2049 grids: the whole float64 map would take 32 MiB, and the
        # grating's support, half the columns, 16 MiB
        qgrid = MomentumGrid(1024, 2 * np.pi / 2.56e-3)
        x_r, x_t = self.grids(qgrid)
        obj = shape(x_t)
        write_pgm(tmp_path / "warm.pgm", ghost_image(IMAGING, obj, TWIN, qgrid, x_r, x_t).g2)
        tracemalloc.start()
        try:
            write_pgm(tmp_path / "g.pgm", ghost_image(IMAGING, obj, TWIN, qgrid, x_r, x_t).g2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestGhostImage:
    def setup_method(self):
        self.qgrid = MomentumGrid(512, 2 * np.pi / (8 * SLIT))
        self.x_t = np.linspace(-256e-6, 256e-6, 512)
        self.x_r = np.linspace(-768e-6, 768e-6, 512)
        self.obj = double_slit(self.x_t, SLIT, 160e-6)

    def test_double_slit_reconstruction(self):
        image = ghost_image(IMAGING, self.obj, TWIN, self.qgrid, self.x_r, self.x_t)
        target = np.abs(self.obj.amplitude(-self.x_r / 3.0)) ** 2
        assert normalized_cross_correlation(image.normalized, target) >= 0.95

    def test_asymmetric_object_comes_out_inverted(self):
        obj = single_slit(self.x_t, SLIT, center=80e-6)
        image = ghost_image(IMAGING, obj, TWIN, self.qgrid, self.x_r, self.x_t)
        inverted = np.abs(obj.amplitude(-self.x_r / 3.0)) ** 2
        erect = np.abs(obj.amplitude(self.x_r / 3.0)) ** 2
        assert normalized_cross_correlation(image.normalized, inverted) > 0.9
        assert normalized_cross_correlation(image.normalized, erect) < 0.2

    def test_flat_object_flat_reconstruction(self):
        flat = SampledObject(self.x_t, np.ones_like(self.x_t))
        image = ghost_image(IMAGING, flat, TWIN, self.qgrid, self.x_r, self.x_t)
        interior = np.abs(self.x_r) < 0.5 * 3.0 * self.x_t[-1]
        values = image.normalized[interior]
        assert values.min() > 0.9

    def test_entanglement_independent_shape(self):
        entangled = GainProfile(ModeParams.from_npdc(0.0, 0.0, 1.0))
        separable = GainProfile(ModeParams.from_npdc(5.0, 5.0, 0.5))
        img_e = ghost_image(IMAGING, self.obj, entangled, self.qgrid, self.x_r, self.x_t)
        img_s = ghost_image(IMAGING, self.obj, separable, self.qgrid, self.x_r, self.x_t)
        assert np.abs(img_e.normalized - img_s.normalized).max() < 1e-12

    def test_parity(self):
        image = ghost_image(IMAGING, self.obj, TWIN, self.qgrid, self.x_r, self.x_t)
        assert np.abs(image.normalized - image.normalized[::-1]).max() < 1e-10

    def test_bucketless_variant_matches_bucketed(self):
        qg = MomentumGrid(256, 2 * np.pi / (32 * SLIT))
        x_r, x_t = matched_image_grids(IMAGING, qg)
        obj = single_slit(x_t, SLIT)
        with_bucket = ghost_image(IMAGING, obj, TWIN, qg, x_r, x_t)
        slice_only = ghost_image(IMAGING_B, obj, TWIN, qg, x_r, x_t)
        assert np.abs(with_bucket.normalized - slice_only.normalized).max() <= 1e-10

    def test_fourier_branch_redirects(self):
        with pytest.raises(GeometryError, match="ghost_diffraction"):
            ghost_image(FOURIER, self.obj, TWIN, self.qgrid, self.x_r, self.x_t)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["x_r", "x_t"])
    def test_rejects_non_finite_grid(self, name, bad):
        # a NaN used to come back as a NaN row, left unscaled in normalized
        grids = {"x_r": self.x_r.copy(), "x_t": self.x_t.copy()}
        grids[name][100] = bad
        for fn in (g2_map, ghost_image):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                fn(IMAGING, self.obj, TWIN, self.qgrid, grids["x_r"], grids["x_t"])

    @pytest.mark.parametrize("name", ["x_r", "x_t"])
    def test_rejects_empty_grid(self, name):
        # the error names the grid; an empty map has no peak to normalize by
        grids = {"x_r": self.x_r, "x_t": self.x_t, name: np.array([])}
        for fn in (g2_map, ghost_image):
            with pytest.raises(ValueError, match=f"detector grid {name} must be non-empty"):
                fn(IMAGING, self.obj, TWIN, self.qgrid, grids["x_r"], grids["x_t"])

    def test_bucket_needs_uniform_test_pixels(self):
        # one extra pixel 1 nm before a uniform grid made the bucket width 1 nm, and raw 2e-4 of its value
        x_t = np.linspace(-160e-6, 160e-6, 65)
        bent = np.concatenate([[x_t[0] - 1e-9], x_t])
        for grid in (bent, np.concatenate([x_t, [x_t[-1] + 1e-9]])):
            with pytest.raises(ValueError, match="x_t needs uniform pixels"):
                ghost_image(IMAGING, single_slit(x_t, SLIT), TWIN, self.qgrid, self.x_r, grid)
        # within 1e-9 of a step of the uniform grid the bucket reads the first step
        nudged = x_t.copy()
        nudged[30] += 1e-10 * (x_t[1] - x_t[0])
        image = ghost_image(IMAGING, single_slit(x_t, SLIT), TWIN, self.qgrid, self.x_r, nudged)
        assert np.array_equal(image.raw, image.g2.bucket_reduce())

    def test_bent_bucket_grid_is_refused_before_the_map_is_built(self, monkeypatch):
        # _kernel_lattice takes no bent grid, so the product-kernel map was built first
        x_t = np.linspace(-160e-6, 160e-6, 65)
        bent = np.concatenate([[x_t[0] - 1e-9], x_t])

        def refuse(*args):
            raise AssertionError("the map was built")

        monkeypatch.setattr(ghost, "g2_map", refuse)
        monkeypatch.setattr(ghost, "_phase_sum", refuse)
        with pytest.raises(ValueError, match="x_t needs uniform pixels"):
            ghost_image(IMAGING, single_slit(x_t, SLIT), TWIN, self.qgrid, self.x_r, bent)
        # a grid that is not finite or empty is named first
        x_r = self.x_r.copy()
        x_r[3] = math.nan
        with pytest.raises(ValueError, match="detector grid x_r must be finite real numbers"):
            ghost_image(IMAGING, single_slit(x_t, SLIT), TWIN, self.qgrid, x_r, bent)
        with pytest.raises(ValueError, match="detector grid x_t must be finite real numbers"):
            ghost_image(IMAGING, single_slit(x_t, SLIT), TWIN, self.qgrid, self.x_r, np.append(bent, math.nan))
        # and the Fourier branch is named before the grid, as g2_map names it
        for grid in (bent, x_t[:1]):
            with pytest.raises(GeometryError, match="use ghost_diffraction"):
                ghost_image(replace(FOURIER, f_t=None), single_slit(x_t, SLIT), TWIN, self.qgrid, self.x_r, grid)

    def test_bucket_needs_two_test_pixels(self):
        # the bucket's pixel width is the first x_t step
        with pytest.raises(ValueError, match="detector grid x_t needs two pixels"):
            ghost_image(IMAGING, self.obj, TWIN, self.qgrid, self.x_r, [0.0])
        # a collection lens reads its one Test slice without a bucket
        image = ghost_image(IMAGING_B, self.obj, TWIN, self.qgrid, self.x_r, [0.0])
        assert image.raw.shape == self.x_r.shape and image.normalized.max() == 1.0


class TestDefocusedImaging:
    # lens-detector spacing off the thin-lens solution: the residual
    # quadratic phase is kept, so the reconstruction blurs instead of
    # failing
    DEFOCUSED = GhostGeometry(wavelength=LAM, d1=0.1, d2=0.1, d3=0.5, f_r=0.15)

    def test_residual_is_nonzero_but_branch_is_imaging(self):
        assert self.DEFOCUSED.branch == "imaging"
        assert abs(self.DEFOCUSED.thin_lens_residual) > 0.1

    def test_point_spread_blurs(self):
        qg = MomentumGrid(256, 2 * np.pi / (32 * SLIT))

        def central_width(geometry):
            x_r, x_t = matched_image_grids(geometry, qg)
            flat = SampledObject(x_t, np.ones_like(x_t))
            g = g2_map(geometry, flat, TWIN, qg, np.array([0.0]), x_t)
            row = g.values[0]
            return (row >= row.max() / 2.0).sum()

        assert central_width(self.DEFOCUSED) > 3 * central_width(IMAGING)

    def test_fft_engine_still_matches_direct(self):
        qg = MomentumGrid(128, 2 * np.pi / (16 * SLIT))
        x_r, x_t = matched_image_grids(self.DEFOCUSED, qg)
        obj = single_slit(x_t, SLIT)
        fast, kernel_calls, fft_calls = route_calls(g2_map, self.DEFOCUSED, obj, TWIN, qg, x_r, x_t)
        direct = direct_g2(self.DEFOCUSED, obj, TWIN, qg, x_r, x_t)
        assert (kernel_calls, fft_calls) == (1, 1)
        assert np.abs(fast.values - direct).max() <= 1e-10 * direct.max()


class TestTransformRouteProperty:
    """On matched grids, and every |k|-th pixel of them, g2_map evaluates its
    kernel by FFT under both collection schemes; with x_r stretched off that
    lattice it builds the kernel as a product over q, bit for bit as
    product_g2 does.  Every map must equal the direct sum over in-focus and
    defocused imaging geometries."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(0.05, 0.3), st.floats(0.05, 0.3), st.floats(0.5, 4.0),
        st.one_of(st.just(0.0), st.floats(-0.3, 0.3)),
        st.booleans(), st.booleans(), st.floats(0.05, 1.0), st.integers(8, 64),
        st.floats(4.0, 32.0), st.floats(0.02, 0.3), st.floats(-0.3, 0.3), st.booleans(),
        st.sampled_from([1, -1, 2, -2, 3]), st.one_of(st.none(), st.floats(1e-6, 1e-2)),
    )
    def test_fft_route_matches_direct(
        self, d1, d2, magnification, defocus, fourier_lens, sinc, strength, n_half, window, width, center, two_slits,
        stride, stretch,
    ):
        d3 = magnification * (d1 + d2)
        f_r = (1.0 + defocus) / (1.0 / (d1 + d2) + 1.0 / d3)  # thin lens when defocus is 0
        f_t = 0.2 if fourier_lens else None
        geometry = GhostGeometry(wavelength=LAM, d1=d1, d2=d2, d3=d3, f_r=f_r, f_t=f_t)
        qg = MomentumGrid(n_half, 2 * np.pi / (window * SLIT))
        # sinc: first zero at a fraction `strength` of the momentum window
        profile = (GainProfile(ModeParams(0.0, 0.0, 0.9), math.pi / (strength * n_half * qg.dq) ** 2) if sinc
                   else GainProfile(ModeParams.from_npdc(0.0, 0.0, 4.0 * strength)))
        matched_x_r, x_t = matched_image_grids(geometry, qg)
        # a stretch of 1e-6 or more moves the far phases of x_r off the lattice by far more than pi 1e-9
        x_r = matched_x_r[::stride] * (1.0 if stretch is None else 1.0 + stretch)
        span = x_t[-1] - x_t[0]
        obj = (double_slit(x_t, width * span / 3.0, width * span, center * span) if two_slits
               else single_slit(x_t, width * span, center * span))
        args = (geometry, obj, profile, qg, x_r, x_t)
        fast, kernel_calls, fft_calls = route_calls(g2_map, *args)
        if stretch is None:
            assert (kernel_calls, fft_calls) == (1, 1)
        else:
            assert (kernel_calls, fft_calls) == (0, 0)
            assert np.array_equal(fast.values, product_g2(*args))
        # every |k|-th row can miss the image, so the error is held to the matched map's peak
        peak = direct_g2(geometry, obj, profile, qg, matched_x_r, x_t).max()
        assert np.abs(fast.values - direct_g2(*args)).max() <= 1e-10 * peak


class TestPhaseSum:
    """The 1-D sum behind the kernel and the diffraction spectrum, against its definition."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 40), st.integers(-30, 30), st.integers(-60, 60), st.integers(1, 50),
        st.integers(1, 80), st.booleans(), st.integers(0, 2**32 - 1),
    )
    @example(15, 0, 0, 5, 75, False, 0)  # K = n_a n_b, where (2 pi / 75) 75 < 2 pi in floating point
    @example(4, 0, 0, 4, 17, True, 0)  # K = n_a n_b + 1, one point more than the sum has terms
    def test_transform_matches_definition(self, n_a, a0, b0, n_b, big_k, negative, seed):
        rng = np.random.default_rng(seed)
        c = rng.normal(size=n_a) + 1j * rng.normal(size=n_a)
        theta = (-1 if negative else 1) * 2 * np.pi / big_k
        a, b = np.arange(a0, a0 + n_a), np.arange(b0, b0 + n_b)
        phases = theta * np.outer(b, a)
        want = np.exp(1j * phases) @ c
        got, _, fft_calls = route_calls(ghost._phase_sum, c, a0, b0, n_b, theta)
        # K <= n_a n_b takes the transform, where K < n_a folds the coefficients; a larger K is refused
        assert fft_calls == (big_k <= n_a * n_b)
        if big_k > n_a * n_b:
            assert got is None
            return
        # the reference's phases carry a rounding error in proportion to their size
        assert np.abs(got - want).max() <= 1e-14 * (1.0 + np.abs(phases).max()) * np.abs(c).sum()

    @pytest.mark.parametrize("theta", [2 * np.pi / 10 * (1 + 1e-6), 0.0, 1e-320, np.nan, np.inf])
    def test_step_off_every_lattice_gives_none(self, theta):
        c = np.ones(7, dtype=complex)
        got, _, fft_calls = route_calls(ghost._phase_sum, c, -3, 0, 12, theta)
        assert got is None and fft_calls == 0


class TestGhostDiffraction:
    def setup_method(self):
        self.qgrid = MomentumGrid(512, 2 * np.pi / (32 * SLIT))
        self.x = np.linspace(-640e-6, 640e-6, 1025)

    def test_single_slit_zeros(self):
        obj = single_slit(self.x, SLIT)
        pattern = ghost_diffraction(FOURIER, obj, TWIN, self.qgrid)
        step = float(np.diff(pattern.x_r)[0])
        spacing = LAM * FOURIER.d3 / SLIT
        assert spacing == pytest.approx(5.25e-3, rel=1e-12)
        for m in (-2, -1, 1, 2):
            target = m * spacing
            window = np.abs(pattern.x_r - target) <= 3 * step
            idx = np.nonzero(window)[0]
            dip = idx[np.argmin(pattern.normalized[idx])]
            assert abs(pattern.x_r[dip] - target) <= step / 2.0

    def test_narrow_slit_nearly_flat(self):
        obj = single_slit(self.x, 2.0 * float(np.diff(self.x)[0]))
        pattern = ghost_diffraction(FOURIER, obj, TWIN, self.qgrid)
        center = np.abs(pattern.x_r) < 2e-3
        assert pattern.normalized[center].min() > 0.99

    def test_double_slit_matches_analytic_spectrum(self):
        obj = double_slit(self.x, SLIT, 160e-6)
        pattern = ghost_diffraction(FOURIER, obj, TWIN, self.qgrid)
        k = -2.0 * np.pi * pattern.x_r / (LAM * FOURIER.d3)
        analytic = np.abs(double_slit_spectrum(k, SLIT, 160e-6)) ** 2
        analytic = analytic / analytic.max()
        assert np.abs(pattern.normalized - analytic).max() < 2e-3
        # fringe period lam d3 / separation
        fringe = LAM * FOURIER.d3 / 160e-6
        center = np.argmin(np.abs(pattern.x_r))
        first_dark = np.argmin(pattern.normalized[center : center + 10])
        assert pattern.x_r[center + first_dark] == pytest.approx(fringe / 2.0, abs=float(np.diff(pattern.x_r)[0]))

    @pytest.mark.parametrize("right, fft_calls", [(640e-6, 1), (600e-6, 0)], ids=["on-lattice", "off-lattice"])
    def test_spectrum_matches_transfer_matrix(self, right, fft_calls):
        # dq dx = 2 pi / 1024 on the 1025-point grid to 640 um; to 600 um, dq dx = 2 pi / 1057.03,
        # on no transform lattice, so the spectrum comes from the transfer matrix itself
        obj = double_slit(np.linspace(-640e-6, right, 1025), SLIT, 160e-6)
        pattern, kernel_calls, fft = route_calls(ghost_diffraction, FOURIER, obj, TWIN, self.qgrid)
        assert (kernel_calls, fft) == (1, fft_calls)
        want = diffraction_by_transfer_matrix(obj, TWIN, pattern.q)
        assert np.abs(pattern.raw - want).max() <= 1e-12 * want.max()
        assert fft_calls or np.array_equal(pattern.raw, sampled_diffraction(obj, TWIN, pattern.q))

    def test_bent_object_grid_takes_transfer_matrix(self):
        # steps 1 +- 5e-10 of dx pass the object's uniformity check, but bend the grid by
        # 3.2e-13 m at its middle, 8e-7 rad at the largest momentum
        dx = 1.25e-6
        steps = np.where(np.arange(1024) < 512, 1 + 5e-10, 1 - 5e-10) * dx
        x = -640e-6 + np.concatenate([[0.0], np.cumsum(steps)])
        obj = single_slit(x, SLIT)
        pattern, kernel_calls, _ = route_calls(ghost_diffraction, FOURIER, obj, TWIN, self.qgrid)
        assert kernel_calls == 0
        assert np.array_equal(pattern.raw, sampled_diffraction(obj, TWIN, pattern.q))
        want = diffraction_by_transfer_matrix(obj, TWIN, pattern.q)
        assert np.abs(pattern.raw - want).max() <= 1e-12 * want.max()

    def test_object_plane_collection_rejected(self):
        geo = GhostGeometry(wavelength=LAM, d1=0.1, d2=0.1, d3=0.3, f_r=0.3)
        obj = single_slit(self.x, SLIT)
        with pytest.raises(GeometryError, match="no meaningful"):
            ghost_diffraction(geo, obj, TWIN, self.qgrid)

    def test_imaging_branch_redirects(self):
        obj = single_slit(self.x, SLIT)
        with pytest.raises(GeometryError, match="ghost_image"):
            ghost_diffraction(IMAGING_B, obj, TWIN, self.qgrid)


class TestValidateFactorization:
    def test_three_seeding_regimes_pass(self):
        # output means stay well below cutoff/12 so the truncation bias on
        # the quadratic moments sits under the floating-point floor of the
        # 10x-deficit bound
        pairs = [ModeParams.from_npdc(0.0, 0.0, 0.8), ModeParams.from_npdc(0.3, 0.0, 0.25),
                 ModeParams.from_npdc(0.25, 0.15, 0.2)]
        checks = validate_factorization(pairs, cutoff=30)
        assert [c.params for c in checks] == pairs
        for check in checks:
            assert check.passed, (check.params, check.moment_error, check.cross_error)

    def test_uncoupled_source_factorizes_trivially(self):
        checks = validate_factorization([ModeParams(0.7, 0.4, 0.0)], cutoff=25)
        assert checks[0].cross_value == 0.0
        assert checks[0].moment_error <= checks[0].tolerance

    def test_profile_sampling_at_multiple_momenta(self):
        prof = GainProfile(ModeParams(0.2, 0.1, 0.5), bandwidth=1e-10)
        checks = validate_factorization([prof.mode_params(q) for q in (0.0, 5e4, 9e4)], cutoff=25)
        assert len(checks) == 3
        assert all(c.passed for c in checks)
        # the anomalous moment follows the profile's correlation amplitude
        for q, c in zip((0.0, 5e4, 9e4), checks):
            assert c.cross_expected == pytest.approx(amplitude(prof, q), rel=1e-14)
