import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermalpdc import (
    CollectionOptics,
    ConstantProfile,
    GainProfile,
    GeometryError,
    GhostGeometry,
    ModeParams,
    MomentumGrid,
    SampledObject,
    SincProfile,
    correlation_amplitude,
    double_slit,
    g2_map,
    ghost_diffraction,
    ghost_image,
    grating,
    load_object_csv,
    matched_image_grids,
    transfer_reference_arm,
    single_slit,
    transfer_test_arm,
    validate_factorization,
)
from thermalpdc import ghost

ASINH1 = math.asinh(1.0)
LAM = 0.7e-6
SLIT = 40e-6

# back-propagating thin-lens geometry with magnification 3
IMAGING = GhostGeometry(wavelength=LAM, d1=0.1, d2=0.1, d3=0.6, f_r=0.15)
IMAGING_B = GhostGeometry(
    wavelength=LAM, d1=0.1, d2=0.1, d3=0.6, f_r=0.15, f_t=0.2,
    variant=CollectionOptics.FOURIER_LENS,
)
FOURIER = GhostGeometry(
    wavelength=LAM, d1=0.1, d2=0.1, d3=0.3, f_r=0.3, f_t=0.1,
    variant=CollectionOptics.FOURIER_LENS,
)
TWIN = ConstantProfile(ModeParams.from_npdc(0.0, 0.0, 1.0))


def slit_spectrum(k, width):
    """Analytic slit transform: width * sinc(k width / 2)."""
    z = np.asarray(k, dtype=float) * width / 2.0
    return width * np.sinc(z / np.pi)


def double_slit_spectrum(k, width, separation):
    """Analytic two-slit transform: envelope times cos(k separation / 2)."""
    return 2.0 * slit_spectrum(k, width) * np.cos(np.asarray(k) * separation / 2.0)


def normalized_cross_correlation(a, b):
    return float(a @ b / math.sqrt((a @ a) * (b @ b)))


def direct_g2(geometry, obj, profile, qgrid, x_r, x_t):
    """The momentum sum as a dense product of the public transfer matrices."""
    q = qgrid.values
    c_q = profile.correlation_amplitudes(q)
    return np.abs((transfer_reference_arm(geometry, q, x_r) * c_q) @ transfer_test_arm(geometry, obj, q, x_t)) ** 2


def route_calls(fn, *args):
    """fn(*args), and the number of calls it made to the 1-D momentum sum and to np.fft.fft."""
    kernel_calls, fft_calls = [], []
    phase_sum, fft = ghost._phase_sum, np.fft.fft
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ghost, "_phase_sum", lambda *a: kernel_calls.append(a) or phase_sum(*a))
        mp.setattr(np.fft, "fft", lambda *a, **k: fft_calls.append(a) or fft(*a, **k))
        return fn(*args), len(kernel_calls), len(fft_calls)


def diffraction_by_transfer_matrix(obj, profile, q):
    """|C_q h_T(0, q)|^2 from the public Test-arm transfer matrix."""
    return np.abs(profile.correlation_amplitudes(q) * transfer_test_arm(FOURIER, obj, q, [0.0])[:, 0]) ** 2


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
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            GhostGeometry(**dict(lengths, **{name: value}), variant=CollectionOptics.FOURIER_LENS)

    def test_fourier_lens_needs_focal_length(self):
        geo = GhostGeometry(
            wavelength=LAM, d1=0.1, d2=0.1, d3=0.6, f_r=0.15,
            variant=CollectionOptics.FOURIER_LENS,
        )
        obj = single_slit(np.linspace(-1e-4, 1e-4, 32), SLIT)
        with pytest.raises(GeometryError, match="f_t"):
            transfer_test_arm(geo, obj, np.array([0.0]), np.array([0.0]))


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


class TestCorrelationAmplitude:
    def test_constant_twin_beam(self):
        q = np.linspace(-1e5, 1e5, 11)
        c = TWIN.correlation_amplitudes(q)
        assert np.allclose(c, math.sinh(ASINH1) * math.cosh(ASINH1))

    def test_seeded_value(self):
        prof = ConstantProfile(ModeParams(1.0, 1.0, ASINH1))
        assert correlation_amplitude(0.0, prof) == pytest.approx(3.0 * math.sqrt(2.0), rel=1e-12)

    def test_sinc_profile_first_zero(self):
        prof = SincProfile(kappa0=0.9, bandwidth=1e-10)
        q0 = math.sqrt(math.pi / 1e-10)
        assert correlation_amplitude(q0, prof) == pytest.approx(0.0, abs=1e-12)
        assert correlation_amplitude(0.0, prof) > 0.0

    @pytest.mark.parametrize("bandwidth", [1.0, -1.0, 1e300])
    def test_sinc_profile_overflowing_argument_gives_zero(self, bandwidth):
        # bandwidth q^2 overflows to +-inf, where sin(arg) / arg -> 0
        prof = SincProfile(kappa0=0.9, bandwidth=bandwidth)
        assert prof.mode_params(1e200).coupling == 0.0
        assert correlation_amplitude(1e200, prof) == 0.0

    @pytest.mark.parametrize("params", [ModeParams(0.0, 0.0, 800.0), ModeParams(1e10, 0.0, 355.0)],
                             ids=["cosh-overflows", "product-overflows"])
    def test_constant_profile_rejects_overflowing_peak(self, params):
        # math.cosh(800) raises OverflowError; at 355 u v is finite and the seed factor overflows it
        with pytest.raises(ValueError, match="peak correlation amplitude overflows"):
            ConstantProfile(params)
        assert math.isfinite(correlation_amplitude(0.0, ConstantProfile(ModeParams(0.0, 0.0, 354.0))))


class TestSincAmplitudes:
    """The array form of SincProfile.correlation_amplitudes against the scalar
    correlation_amplitude route through mode_params."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.0, 5.0), st.one_of(st.floats(-1e-8, 1e-8), st.floats(-1e300, 1e300)),
        st.floats(0.0, 10.0), st.floats(0.0, 10.0),
        st.lists(st.floats(-1e7, 1e7), min_size=1, max_size=20),
    )
    def test_matches_scalar_route(self, kappa0, bandwidth, mu_t, mu_r, q):
        prof = SincProfile(kappa0=kappa0, bandwidth=bandwidth, mu_t=mu_t, mu_r=mu_r)
        q = np.array(q)
        want = np.array([correlation_amplitude(float(qi), prof) for qi in q])
        got = prof.correlation_amplitudes(q)
        # relative, down to the subnormal range, where values carry fewer digits
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want) + np.finfo(float).tiny)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_argument_gives_zero(self):
        prof = SincProfile(kappa0=0.9, bandwidth=1e300)
        q = [-1e200, -1.0, 0.0, 1e-200, 1e200]
        got = prof.correlation_amplitudes(np.array(q))
        want = np.array([correlation_amplitude(qi, prof) for qi in q])
        assert got[[0, 4]].tolist() == want[[0, 4]].tolist() == [0.0, 0.0]
        assert np.abs(got - want).max() <= 1e-14 * want.max() and want[2] > 0.0

    def test_overflowing_peak_rejected(self):
        # 1/2 sinh(2 kappa0) overflows above kappa0 ~ 355, where the scalar route raises or gives inf
        with pytest.raises(ValueError, match="kappa0 400.0 is too large"):
            SincProfile(kappa0=400.0, bandwidth=1e-12)
        assert np.isfinite(SincProfile(kappa0=300.0, bandwidth=1e-12).correlation_amplitudes(np.zeros(1))).all()


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

    def test_fourier_branch_selects_mapped_momentum(self):
        q = np.arange(-16, 17) * (2.0 * np.pi / (8.0 * SLIT))
        x_zero = transfer_reference_arm(FOURIER, q, np.array([0.0]))[0]
        assert np.abs(x_zero[16]) == pytest.approx(1.0)
        assert np.abs(np.delete(x_zero, 16)).max() == 0.0
        # x_r = lam d3 / a maps to the slit's first spectral zero -2 pi / a
        x_first = np.array([LAM * FOURIER.d3 / SLIT])
        row = transfer_reference_arm(FOURIER, q, x_first)[0]
        hits = np.nonzero(np.abs(row))[0]
        assert hits.tolist() == [8]  # 8 steps of 2 pi / (8 a) below center
        assert q[8] == pytest.approx(-2.0 * np.pi / SLIT, rel=1e-12)

    def test_fourier_branch_snap_on_grid(self):
        a = SLIT
        qg = MomentumGrid(64, 2 * np.pi / (16 * a))
        q = qg.values
        x_r = -q * LAM * FOURIER.d3 / (2 * np.pi)
        h = transfer_reference_arm(FOURIER, q, x_r)
        assert np.allclose(np.abs(h), np.eye(q.size), atol=1e-12)


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
        off = ConstantProfile(ModeParams(0.0, 0.0, 0.0))
        g = g2_map(IMAGING, self.obj, off, self.qgrid, self.x_r, self.x_t)
        assert g.values.max() == 0.0

    def test_nonnegative(self):
        g = g2_map(IMAGING, self.obj, TWIN, self.qgrid, self.x_r, self.x_t)
        assert g.values.min() >= 0.0

    def test_scaling_is_quadratic(self):
        strong = ConstantProfile(ModeParams.from_npdc(0.0, 0.0, 4.0))
        weak = ConstantProfile(ModeParams.from_npdc(0.0, 0.0, 1.0))
        ratio = (
            correlation_amplitude(0.0, strong) / correlation_amplitude(0.0, weak)
        ) ** 2
        g_strong = g2_map(IMAGING, self.obj, strong, self.qgrid, self.x_r, self.x_t)
        g_weak = g2_map(IMAGING, self.obj, weak, self.qgrid, self.x_r, self.x_t)
        assert np.allclose(g_strong.values, ratio * g_weak.values, rtol=1e-12)

    def test_rejects_asymmetric_profile(self):
        class Lopsided(GainProfile):
            def correlation_amplitudes(self, q):
                return np.where(q >= 0, 0.3, 0.1)

        lopsided = Lopsided()
        with pytest.raises(ValueError, match="even"):
            g2_map(IMAGING, self.obj, lopsided, self.qgrid, self.x_r, self.x_t)

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

    def test_fourier_branch_runs_direct_sum(self):
        x = np.linspace(-1e-3, 1e-3, 65)
        obj = single_slit(x, SLIT)
        args = (FOURIER, obj, TWIN, MomentumGrid(32, 1e4), x, x)
        g, kernel_calls, fft_calls = route_calls(g2_map, *args)
        assert (kernel_calls, fft_calls) == (0, 0)
        assert np.array_equal(g.values, direct_g2(*args))

    def test_off_lattice_grid_runs_direct_sum(self):
        pixel = self.x_r[1] - self.x_r[0]
        # the largest shift of one x_t pixel that keeps every phase q u within pi 1e-9
        bound = math.pi * 1e-9 / (self.qgrid.n_half * self.qgrid.dq)
        x_t_bent = self.x_t.copy()
        x_t_bent[300] += 4 * bound
        # x_r stretched by 1e-4, or by 1e-10 (1.6e-7 rad at the far edge), an uneven x_r on the
        # transform lattice, x_t bent beyond the phase bound, and Fourier-lens collection
        cases = [(IMAGING, self.x_r * (1 + 1e-4), self.x_t), (IMAGING, self.x_r * (1 + 1e-10), self.x_t),
                 (IMAGING, np.concatenate([self.x_r[::-1], self.x_r[:7]]), self.x_t),
                 (IMAGING, self.x_r, x_t_bent), (IMAGING_B, self.x_r, self.x_t)]
        for geometry, x_r, x_t in cases:
            args = (geometry, self.obj, TWIN, self.qgrid, x_r, x_t)
            g, kernel_calls, fft_calls = route_calls(g2_map, *args)
            assert (kernel_calls, fft_calls) == (0, 0)
            assert np.array_equal(g.values, direct_g2(*args))
        # within the bound x_t still takes the kernel
        x_t_bent[300] = self.x_t[300] + bound / 4
        _, kernel_calls, _ = route_calls(g2_map, IMAGING, self.obj, TWIN, self.qgrid, self.x_r, x_t_bent)
        assert kernel_calls == 1

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
        assert np.array_equal(g.values, direct_g2(*args))

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
        assert np.array_equal(g.values, direct_g2(*args))

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
        entangled = ConstantProfile(ModeParams.from_npdc(0.0, 0.0, 1.0))
        separable = ConstantProfile(ModeParams.from_npdc(5.0, 5.0, 0.5))
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
    """On matched grids, and every |k|-th pixel of them, object-plane g2_map
    evaluates its kernel by FFT and must equal the direct sum over in-focus and
    defocused imaging geometries; Fourier-lens collection takes the dense
    product, which is the direct sum."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(0.05, 0.3), st.floats(0.05, 0.3), st.floats(0.5, 4.0),
        st.one_of(st.just(0.0), st.floats(-0.3, 0.3)),
        st.booleans(), st.booleans(), st.floats(0.05, 1.0), st.integers(8, 64),
        st.floats(4.0, 32.0), st.floats(0.02, 0.3), st.floats(-0.3, 0.3), st.booleans(),
        st.sampled_from([1, -1, 2, -2, 3]),
    )
    def test_fft_route_matches_direct(
        self, d1, d2, magnification, defocus, fourier_lens, sinc, strength, n_half, window, width, center, two_slits,
        stride,
    ):
        d3 = magnification * (d1 + d2)
        f_r = (1.0 + defocus) / (1.0 / (d1 + d2) + 1.0 / d3)  # thin lens when defocus is 0
        variant = CollectionOptics.FOURIER_LENS if fourier_lens else CollectionOptics.OBJECT_PLANE
        geometry = GhostGeometry(wavelength=LAM, d1=d1, d2=d2, d3=d3, f_r=f_r, f_t=0.2, variant=variant)
        qg = MomentumGrid(n_half, 2 * np.pi / (window * SLIT))
        # sinc: first zero at a fraction `strength` of the momentum window
        profile = (SincProfile(kappa0=0.9, bandwidth=math.pi / (strength * n_half * qg.dq) ** 2) if sinc
                   else ConstantProfile(ModeParams.from_npdc(0.0, 0.0, 4.0 * strength)))
        matched_x_r, x_t = matched_image_grids(geometry, qg)
        x_r = matched_x_r[::stride]
        span = x_t[-1] - x_t[0]
        obj = (double_slit(x_t, width * span / 3.0, width * span, center * span) if two_slits
               else single_slit(x_t, width * span, center * span))
        fast, kernel_calls, fft_calls = route_calls(g2_map, geometry, obj, profile, qg, x_r, x_t)
        direct = direct_g2(geometry, obj, profile, qg, x_r, x_t)
        if fourier_lens:
            assert (kernel_calls, fft_calls) == (0, 0)
            assert np.array_equal(fast.values, direct)
        else:
            # every |k|-th row can miss the image, so the error is held to the matched map's peak
            peak = direct_g2(geometry, obj, profile, qg, matched_x_r, x_t).max()
            assert (kernel_calls, fft_calls) == (1, 1)
            assert np.abs(fast.values - direct).max() <= 1e-10 * peak


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
        assert fft_calls or np.array_equal(pattern.raw, want)

    def test_bent_object_grid_takes_transfer_matrix(self):
        # steps 1 +- 5e-10 of dx pass the object's uniformity check, but bend the grid by
        # 3.2e-13 m at its middle, 8e-7 rad at the largest momentum
        dx = 1.25e-6
        steps = np.where(np.arange(1024) < 512, 1 + 5e-10, 1 - 5e-10) * dx
        x = -640e-6 + np.concatenate([[0.0], np.cumsum(steps)])
        obj = single_slit(x, SLIT)
        pattern, kernel_calls, _ = route_calls(ghost_diffraction, FOURIER, obj, TWIN, self.qgrid)
        assert kernel_calls == 0
        assert np.array_equal(pattern.raw, diffraction_by_transfer_matrix(obj, TWIN, pattern.q))

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
        prof = SincProfile(kappa0=0.5, bandwidth=1e-10, mu_t=0.2, mu_r=0.1)
        checks = validate_factorization([prof.mode_params(q) for q in (0.0, 5e4, 9e4)], cutoff=25)
        assert len(checks) == 3
        assert all(c.passed for c in checks)
        # the anomalous moment follows the profile's correlation amplitude
        for q, c in zip((0.0, 5e4, 9e4), checks):
            assert c.cross_expected == pytest.approx(correlation_amplitude(q, prof), rel=1e-14)
