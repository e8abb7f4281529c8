import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from gaussian_oracle import closed_forms, partial_transpose, symplectic_eigenvalues

from thermalpdc import (
    ModeParams,
    apply_loss,
    build_covariance,
    check_separability,
    check_separability_lossy,
    correlation_index,
    cross_covariance,
    evolve_thermal_pair,
    moments,
    noise_reduction_factor,
    noise_reduction_threshold,
    predicted_moments,
    separability_margin,
    sweep_columns,
)
from thermalpdc.artifacts import write_csv
from thermalpdc.gaussian import BOUNDARY_BAND, _statistics_columns
from thermalpdc.scenario import NRF_COLUMNS


def gamma_correction_general(mu_t, mu_r, n_pdc):
    """Large-gain expansion of 1 - gamma (reference form, not public API)."""
    s = 1.0 + mu_t + mu_r
    return 0.5 * (mu_t + mu_r + 2.0 * mu_t * mu_r) / (s ** 2 * n_pdc ** 2)


def gamma_correction_one_arm(mu, n_pdc):
    """1 - gamma for one bright seed (mu >> 1) at any gain."""
    return 1.0 / ((1.0 + n_pdc) * n_pdc * 2.0 * mu)


def gamma_correction_equal_seeds(n_pdc):
    """1 - gamma for equal bright seeds (mu >> 1)."""
    return 1.0 / (1.0 + 2.0 * n_pdc) ** 2


class TestCorrelationIndex:
    def test_twin_beams_perfect(self):
        for n_pdc in (1e-3, 0.5, 3.0):
            assert correlation_index(ModeParams.from_npdc(0, 0, n_pdc)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_equal_seeds_example(self):
        # means 4, variances 20, cross covariance 18
        p = ModeParams.from_npdc(1, 1, 1)
        assert cross_covariance(p) == pytest.approx(18.0, rel=1e-12)
        assert correlation_index(p) == pytest.approx(0.9, rel=1e-12)

    def test_vacuum_is_undefined(self):
        assert correlation_index(ModeParams.from_npdc(0, 0, 0)) is None
        assert correlation_index(ModeParams.from_npdc(0, 2, 0)) is None

    def test_bounds_and_symmetry(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            mu_t, mu_r = rng.uniform(0, 10, 2)
            n_pdc = rng.uniform(1e-6, 10)
            p = ModeParams.from_npdc(mu_t, mu_r, n_pdc)
            g = correlation_index(p)
            assert 0.0 <= g <= 1.0
            assert correlation_index(ModeParams.from_npdc(mu_r, mu_t, n_pdc)) == pytest.approx(g, rel=1e-12)

    def test_unity_only_for_unseeded_gain(self):
        assert correlation_index(ModeParams.from_npdc(0, 0, 0.2)) == pytest.approx(1.0, abs=1e-12)
        assert correlation_index(ModeParams.from_npdc(0.1, 0, 0.2)) < 1.0

    def test_monotone_in_gain(self):
        gains = np.linspace(0.01, 10, 200)
        vals = [correlation_index(ModeParams.from_npdc(0.5, 1.5, n)) for n in gains]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_large_gain_expansion(self):
        p = ModeParams.from_npdc(1.0, 2.0, 100.0)
        correction = gamma_correction_general(1.0, 2.0, 100.0)
        assert 1.0 - correlation_index(p) == pytest.approx(correction, rel=1e-2)

    def test_bright_one_arm_asymptote(self):
        mu = 1e6
        p = ModeParams.from_npdc(mu, 0.0, 100.0)
        assert 1.0 - correlation_index(p) == pytest.approx(
            gamma_correction_one_arm(mu, 100.0), rel=1e-2
        )

    def test_bright_equal_seed_asymptote(self):
        mu = 1e6
        p = ModeParams.from_npdc(mu, mu, 100.0)
        assert 1.0 - correlation_index(p) == pytest.approx(
            gamma_correction_equal_seeds(100.0), rel=1e-2
        )


class TestNoiseReductionFactor:
    def test_twin_beams_fully_suppressed(self):
        assert noise_reduction_factor(ModeParams.from_npdc(0, 0, 1)) == 0.0

    def test_uncorrelated_thermals_exceed_shot_noise(self):
        assert noise_reduction_factor(ModeParams.from_npdc(1, 1, 0)) == pytest.approx(2.0)

    def test_threshold_point_is_exact(self):
        assert noise_reduction_factor(
            ModeParams.from_npdc(1, 1, 1.0 / 3.0)
        ) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_is_undefined(self):
        assert noise_reduction_factor(ModeParams.from_npdc(0, 0, 0)) is None

    def test_symmetry_and_monotonicity(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            mu_t, mu_r, n = rng.uniform(0, 5, 3)
            a = noise_reduction_factor(ModeParams.from_npdc(mu_t, mu_r, n))
            b = noise_reduction_factor(ModeParams.from_npdc(mu_r, mu_t, n))
            assert a == pytest.approx(b, rel=1e-12)
        gains = np.linspace(0.01, 10, 200)
        vals = [noise_reduction_factor(ModeParams.from_npdc(0.5, 1.5, n)) for n in gains]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestNoiseReductionThreshold:
    def test_values(self):
        assert noise_reduction_threshold(0, 0) == 0.0
        assert noise_reduction_threshold(1, 1) == pytest.approx(1.0 / 3.0)
        assert noise_reduction_threshold(2, 0) == pytest.approx(2.0 / 3.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            noise_reduction_threshold(-1, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_seeds_that_are_not_finite_and_non_negative(self, bad):
        for name, seeds in (("mu_t", (bad, 1.0)), ("mu_r", (1.0, bad))):
            with pytest.raises(ValueError, match=f"{name} must be a finite real number >= 0"):
                noise_reduction_threshold(*seeds)

    def test_crossing_matches_nrf(self):
        for mu_t, mu_r in [(0.5, 2.0), (3.0, 3.0), (0.0, 4.0)]:
            star = noise_reduction_threshold(mu_t, mu_r)
            above = noise_reduction_factor(ModeParams.from_npdc(mu_t, mu_r, star * 1.001))
            below = noise_reduction_factor(ModeParams.from_npdc(mu_t, mu_r, star * 0.999))
            assert above < 1.0 < below

    def test_one_arm_threshold_sits_above_separability(self):
        # one-arm seeding is entangled for any gain, yet needs finite gain
        # for sub-shot-noise correlations
        assert noise_reduction_threshold(2, 0) > 0.0
        assert separability_margin(ModeParams.from_npdc(2, 0, 1e-9)) < 0.0

    def test_subshot_noise_implies_entangled(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            p = ModeParams.from_npdc(*rng.uniform(0, 10, 2), rng.uniform(1e-6, 10))
            nrf = noise_reduction_factor(p)
            if nrf is not None and nrf < 1.0:
                assert separability_margin(p) < 0.0


class TestOracleCrossCheck:
    def test_gamma_and_nrf_from_fock_moments(self):
        for mu_t, mu_r, n_pdc in [(0.0, 0.0, 0.3), (0.5, 0.0, 0.2), (0.6, 0.4, 0.25)]:
            p = ModeParams.from_npdc(mu_t, mu_r, n_pdc)
            state = evolve_thermal_pair(p, 45)
            m = moments(state)
            tol = 10.0 * state.cutoff ** 2 * state.trace_deficit + 1e-7
            got_gamma = m.cross / math.sqrt(m.var_t * m.var_r)
            assert got_gamma == pytest.approx(correlation_index(p), rel=tol)
            got_nrf = (m.var_t + m.var_r - 2.0 * m.cross) / (m.mean_t + m.mean_r)
            assert got_nrf == pytest.approx(noise_reduction_factor(p), rel=tol, abs=tol)


def grid_columns(mu_t, mu_r, n_pdc, tau=(1.0,)):
    """sweep_columns over the full grid of the four axes, tau innermost."""
    return sweep_columns(*np.meshgrid(mu_t, mu_r, n_pdc, tau, indexing="ij"))


def write_nrf_csv(columns, path):
    write_csv(path, {name: columns[name] for name in NRF_COLUMNS})


class TestSweep:
    def test_fig2_style_shapes(self):
        gains = np.geomspace(0.01, 10, 60)
        cols = grid_columns([0.0], [2.0], gains)
        gammas, nrfs = cols["gamma"], cols["nrf"]
        assert np.all(np.diff(gammas) > 0)
        assert np.all(np.diff(nrfs) < 0)
        assert gammas[-1] > 0.99
        crossing = noise_reduction_threshold(0.0, 2.0)
        assert crossing == pytest.approx(2.0 / 3.0)
        assert cols["n_pdc"][nrfs > 1.0].max() < crossing < cols["n_pdc"][nrfs < 1.0].min()

    def test_equal_seed_crossing_matches_margin_zero(self):
        mu = 1.7
        star = noise_reduction_threshold(mu, mu)
        margin_at_star = separability_margin(ModeParams.from_npdc(mu, mu, star))
        assert abs(margin_at_star) < 1e-9

    def test_loss_does_not_change_verdict(self):
        cols = grid_columns([1.0], [1.0], [0.5], [1.0, 0.5])
        assert cols["separable"].tolist() == [False, False]
        assert cols["margin"][1] == pytest.approx(0.25 * cols["margin"][0], rel=1e-12)

    def test_row_order_deterministic(self):
        cols = grid_columns([0.0, 1.0], [0.5], [0.1, 0.2], [1.0, 0.7])
        keys = list(zip(cols["mu_t"], cols["n_pdc"], cols["tau"]))
        expected = [
            (0.0, 0.1, 1.0), (0.0, 0.1, 0.7), (0.0, 0.2, 1.0), (0.0, 0.2, 0.7),
            (1.0, 0.1, 1.0), (1.0, 0.1, 0.7), (1.0, 0.2, 1.0), (1.0, 0.2, 0.7),
        ]
        assert len(keys) == len(expected)
        for got, want in zip(keys, expected):
            assert got == pytest.approx(want, rel=1e-12)

    def test_undefined_points_propagate_as_empty_fields(self, tmp_path):
        cols = grid_columns([0.0], [0.0], [0.0, 0.5])
        assert np.isnan(cols["gamma"][0]) and np.isnan(cols["nrf"][0])
        path = tmp_path / "sweep.csv"
        write_nrf_csv(cols, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "mu_t,mu_r,n_pdc,tau,gamma,nrf,margin,separable"
        first = lines[1].split(",")
        assert first[4] == "" and first[5] == ""
        assert lines[2].split(",")[4] != ""
        assert "," in lines[1] and "." in lines[2]

    def test_csv_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_nrf_csv(grid_columns([0.3, 1.1], [0.2], np.geomspace(0.01, 2, 7)), a)
        write_nrf_csv(grid_columns([0.3, 1.1], [0.2], np.geomspace(0.01, 2, 7)), b)
        assert a.read_bytes() == b.read_bytes()


def assert_close(got, want, tol):
    assert abs(got - want) <= tol * max(abs(want), 1.0), (got, want)


SEED_OR_GAIN = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
AXIS = st.lists(SEED_OR_GAIN, min_size=1, max_size=3)
TAUS = st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=3)


class TestSweepColumns:
    """The array route against the closed forms and the numerical symplectic
    spectrum of the partially transposed lossy covariance, both written out
    in tests/gaussian_oracle.py."""

    @settings(max_examples=200, deadline=None)
    @given(AXIS, AXIS, AXIS, TAUS)
    # gamma's denominator below the normal floats read NaN here, and 1.0000056 at n_pdc 1e-160
    @example([0.0], [0.375], [5e-324], [1.0])
    @example([0.0], [0.0], [1e-160], [1.0])
    def test_matches_per_point_reference(self, mu_ts, mu_rs, n_pdcs, taus):
        columns = sweep_columns(*np.meshgrid(mu_ts, mu_rs, n_pdcs, taus, indexing="ij"))
        points = [(mt, mr, n, tau) for mt in mu_ts for mr in mu_rs for n in n_pdcs for tau in taus]
        assert len(columns["margin"]) == len(points)
        for i, (mt, mr, n, tau) in enumerate(points):
            assert (columns["mu_t"][i], columns["mu_r"][i], columns["n_pdc"][i], columns["tau"][i]) == (mt, mr, n, tau)
            reference = closed_forms(mt, mr, n, tau)
            for name, want in reference.items():
                got = columns[name][i]
                assert math.isnan(got) == (want is None), (name, got, want)
                if want is not None:
                    assert_close(got, want, 1e-12)
            if abs(reference["margin"]) > BOUNDARY_BAND:
                assert columns["separable"][i] == (reference["margin"] >= 0.0)
            p = ModeParams.from_npdc(mt, mr, n)
            spectrum = symplectic_eigenvalues(partial_transpose(apply_loss(build_covariance(p), tau)))
            assert_close(columns["min_pt_symplectic_eigenvalue"][i], spectrum[0], 1e-9)

    @pytest.mark.parametrize(
        "mu, n, tau", [(0.7, 2.0, 1e-6), (0.7, 2.0, 1e-9), (0.7, 2.0, 1e-12), (0.0, 1e-8, 1e-5), (0.0, 1e-12, 0.5)]
    )
    def test_small_transmission(self, mu, n, tau):
        """Equal seeds: nu_- = a - c in closed form, with a = 1/2 + tau ((1 + 2 n)(1 + 2 mu) - 1) / 2."""
        columns = sweep_columns(mu, mu, n, tau)
        a = 0.5 + tau * ((1.0 + 2.0 * n) * (1.0 + 2.0 * mu) - 1.0) / 2.0
        c = tau * math.sqrt(n * (1.0 + n)) * (1.0 + 2.0 * mu)
        assert_close(columns["min_pt_symplectic_eigenvalue"][0], a - c, 1e-15)
        assert columns["separable"][0] == (columns["margin"][0] >= 0.0) == (a - c >= 0.5)

    @pytest.mark.parametrize("tau", [0.0, -0.2, 1.0001, math.nan])
    def test_rejects_bad_transmission(self, tau):
        with pytest.raises(ValueError):
            sweep_columns(1.0, 1.0, 0.5, tau)

    @pytest.mark.parametrize(
        "point, field",
        [((1.0, 1.0, -0.5), "n_pdc"), ((-1.0, 1.0, 0.5), "mu_t"), ((math.nan, 1.0, 0.5), "mu_t"),
         ((1.0, math.inf, 0.5), "mu_r"), ((1.0, 1.0, math.nan), "n_pdc"), (([0.0, -1e-300], 1.0, 0.5), "mu_t")],
        ids=[f"point{i}" for i in range(6)],
    )
    def test_rejects_seeds_and_gains_that_are_not_finite_and_non_negative(self, point, field):
        with pytest.raises(ValueError, match=f"{field} must be finite real numbers >= 0"):
            sweep_columns(*point)

    def test_overflow_raises(self):
        with pytest.raises(FloatingPointError):
            sweep_columns(1e200, 1e200, 1e200)


def float_bits(value):
    """A float's exact bits as float.hex (which tells -0.0 from 0.0), NaN and None alike as None."""
    return None if value is None or math.isnan(value) else float(value).hex()


class TestScalarsAreSweepRows:
    """Every scalar diagnostic reads the kernel that sweep_columns evaluates,
    so it is the sweep row at its point, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        mu_t=st.one_of(SEED_OR_GAIN, st.floats(0.0, 1e30)),
        mu_r=st.one_of(SEED_OR_GAIN, st.floats(0.0, 1e30)),
        coupling=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
        tau=st.floats(0.0, 1.0, exclude_min=True),
    )
    # with a formula of its own, each scalar read one ulp off its row: gamma 0.8529934680599329 against
    # 0.852993468059933, the threshold 1.7216153047139613 against 1.721615304713961, and the cross
    # covariance (and the predicted moment) 4.4271419996809875 against 4.427141999680987
    @example(mu_t=0.6, mu_r=1.3, coupling=math.asinh(math.sqrt(0.7)), tau=1.0)
    @example(mu_t=4.551896633133473, mu_r=2.888087218768689, coupling=0.0, tau=1.0)
    @example(mu_t=0.5850122005068198, mu_r=1.2398950078659148, coupling=0.5945073105017731, tau=1.0)
    def test_every_scalar_is_its_sweep_row(self, mu_t, mu_r, coupling, tau):
        p = ModeParams(mu_t, mu_r, coupling)
        rows = sweep_columns(p.mu_t, p.mu_r, p.n_pdc, [1.0, tau])
        row = {name: column[0].item() for name, column in rows.items()}
        for value, column in (
            (cross_covariance(p), "cross_covariance"),
            (correlation_index(p), "gamma"),
            (noise_reduction_factor(p), "nrf"),
            (noise_reduction_threshold(mu_t, mu_r), "nrf_threshold"),
            (separability_margin(p), "margin"),
        ):
            assert float_bits(value) == float_bits(row[column]), (column, value, row[column])
        for verdict, i in ((check_separability(p), 0), (check_separability_lossy(p, tau), 1)):
            assert verdict.separable is rows["separable"][i].item()
            assert float_bits(verdict.margin) == float_bits(rows["margin"][i])
            assert float_bits(verdict.min_pt_symplectic_eigenvalue) == float_bits(
                rows["min_pt_symplectic_eigenvalue"][i])
        kernel = _statistics_columns(*(np.array([x]) for x in (p.mu_t, p.mu_r, p.n_pdc)))
        moments_now = predicted_moments(p)
        for name in ("mean_t", "mean_r", "var_t", "var_r"):
            assert float_bits(getattr(moments_now, name)) == float_bits(kernel[name][0]), name
        assert float_bits(moments_now.cross) == float_bits(kernel["cross_covariance"][0]) == float_bits(
            row["cross_covariance"])
