import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermalpdc import (
    DisentangledCoefficients,
    ModeParams,
    TwoModeFockState,
    action_coefficient,
    cross_amplitude,
    default_cutoff,
    evolve_fock_pair,
    evolve_thermal_pair,
    moments,
    predicted_moments,
    write_joint_distribution_csv,
)

ASINH1 = math.asinh(1.0)


def moment_tolerance(state):
    """Truncation bound: dropping geometric tails beyond the cutoff biases
    the quadratic moments by at most order cutoff^2 times the lost weight."""
    return 10.0 * state.cutoff ** 2 * state.trace_deficit + 1e-8


def series_expm(m):
    """Independent matrix exponential (scaled Taylor series + squaring)."""
    s = max(1, int(np.ceil(np.log2(max(1.0, np.linalg.norm(m, 1))))) + 1)
    a = m / (2 ** s)
    out = np.eye(m.shape[0], dtype=complex)
    term = out.copy()
    for k in range(1, 30):
        term = term @ a / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def brute_force_evolved(n, m, coupling, phase, dim):
    """Evolve |n, m> by exponentiating the bilinear generator directly.

    The generator phase is chosen so the induced input-output relation is
    b_T = cosh a_T + e^{i phase} sinh a_R^dagger, the convention shared by
    the covariance construction.
    """
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    eye = np.eye(dim)
    a_t = np.kron(a, eye)
    a_r = np.kron(eye, a)
    kappa = coupling * np.exp(1j * (math.pi / 2.0 - phase))
    gen = kappa * a_t @ a_r + np.conj(kappa) * a_t.conj().T @ a_r.conj().T
    u = series_expm(1j * gen)
    src = np.zeros(dim * dim, dtype=complex)
    src[n * dim + m] = 1.0
    return u @ src


class TestDisentangledCoefficients:
    def test_from_coupling(self):
        c = DisentangledCoefficients.from_coupling(0.8)
        assert abs(c.pair_amplitude) == pytest.approx(math.tanh(0.8), abs=1e-15)
        assert c.log_gain == pytest.approx(math.log(math.cosh(0.8)), abs=1e-15)
        assert abs(c.pair_amplitude) < 1.0

    def test_zero_coupling(self):
        c = DisentangledCoefficients.from_coupling(0.0)
        assert c.pair_amplitude == 0.0
        assert c.log_gain == 0.0

    def test_phase_lands_on_amplitude(self):
        c = DisentangledCoefficients.from_coupling(0.5, 1.1)
        assert np.angle(c.pair_amplitude) == pytest.approx(1.1, abs=1e-12)

    def test_rejects_inconsistent_pair(self):
        with pytest.raises(ValueError, match="inconsistent"):
            DisentangledCoefficients(0.9, 0.01)

    @pytest.mark.parametrize("coupling", [1e-12, 1e-9, 1e-6])
    def test_small_coupling_is_consistent(self, coupling):
        # ln cosh rounds to 0 below ~1e-8 while tanh does not
        c = DisentangledCoefficients.from_coupling(coupling)
        assert abs(c.pair_amplitude) == pytest.approx(math.tanh(coupling), rel=1e-15)

    def test_rejects_slightly_inconsistent_pair_at_high_gain(self):
        with pytest.raises(ValueError, match="inconsistent"):
            DisentangledCoefficients(math.tanh(2.0) - 1e-10, math.log(math.cosh(2.0)))

    def test_rejects_negative_gain(self):
        with pytest.raises(ValueError):
            DisentangledCoefficients(0.0, -0.1)

    def test_from_mode_params(self):
        p = ModeParams(0.2, 0.1, 0.6, 0.4)
        c = DisentangledCoefficients.from_mode_params(p)
        assert c == DisentangledCoefficients.from_coupling(0.6, 0.4)


class TestActionCoefficient:
    def test_identity_when_uncoupled(self):
        c = DisentangledCoefficients.from_coupling(0.0)
        assert action_coefficient(0, 0, 0, 0, c) == 1.0
        assert action_coefficient(3, 2, 0, 0, c) == 1.0
        assert action_coefficient(3, 2, 1, 1, c) == 0.0

    def test_single_pair_amplitude(self):
        c = DisentangledCoefficients.from_coupling(0.7)
        got = action_coefficient(0, 0, 0, 1, c)
        assert got == pytest.approx(
            math.exp(-c.log_gain) * c.pair_amplitude, abs=1e-15
        )
        assert abs(got) ** 2 == pytest.approx(
            math.tanh(0.7) ** 2 / math.cosh(0.7) ** 2, rel=1e-12
        )

    @pytest.mark.parametrize("m,n,k,l", [(1, 1, 2, 0), (0, 0, 0, -1), (-1, 0, 0, 0)])
    def test_rejects_bad_indices(self, m, n, k, l):
        c = DisentangledCoefficients.from_coupling(0.3)
        with pytest.raises(ValueError):
            action_coefficient(m, n, k, l, c)

    def test_matches_vector_evolution(self):
        c = DisentangledCoefficients.from_coupling(0.45, 0.7)
        cutoff = 12
        n, m = 2, 1
        amps = evolve_fock_pair(n, m, c, cutoff)
        expected = np.zeros_like(amps)
        for k in range(min(n, m) + 1):
            for l in range(cutoff - max(n, m) + k + 1):
                expected[l - k + min(n, m)] += action_coefficient(m, n, k, l, c)
        assert np.abs(amps - expected).max() == 0.0


class TestEvolveFockPair:
    @pytest.mark.parametrize("n,m", [(0, 0), (2, 1), (3, 3), (0, 4)])
    def test_against_matrix_exponential(self, n, m):
        coupling, phase = 0.45, 0.7
        dim = 26
        c = DisentangledCoefficients.from_coupling(coupling, phase)
        amps = evolve_fock_pair(n, m, c, dim - 1)
        psi = brute_force_evolved(n, m, coupling, phase, dim)
        # the exponentiated truncated generator reflects off the cutoff
        # edge, so compare rungs that stay at least 8 levels below it
        for i, amp in enumerate(amps):
            j = i - min(n, m)
            if max(n, m) + j <= dim - 9:
                assert abs(amp - psi[(n + j) * dim + (m + j)]) < 1e-9

    def test_unitarity_slice(self):
        # total evolved weight reaches 1 once the cutoff clears the support
        c = DisentangledCoefficients.from_coupling(0.6)
        for n, m in [(0, 0), (1, 1), (2, 5), (4, 4)]:
            amps = evolve_fock_pair(n, m, c, 60)
            assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_inputs_beyond_cutoff(self):
        c = DisentangledCoefficients.from_coupling(0.2)
        with pytest.raises(ValueError):
            evolve_fock_pair(7, 0, c, 6)


class TestEvolveThermalPair:
    def test_double_vacuum_uncoupled(self):
        c = DisentangledCoefficients.from_coupling(0.0)
        state = evolve_thermal_pair(0.0, 0.0, c, 5)
        expected = np.zeros((36, 36), dtype=complex)
        expected[0, 0] = 1.0
        assert np.array_equal(state.matrix, expected)
        assert state.trace_deficit == 0.0

    def test_squeezed_vacuum_schmidt_weights(self):
        c = DisentangledCoefficients.from_coupling(ASINH1)
        state = evolve_thermal_pair(0.0, 0.0, c, 40)
        p = state.joint_distribution()
        for n in range(10):
            assert p[n, n] == pytest.approx(0.5 ** (n + 1), abs=1e-12)
        off = p - np.diag(np.diagonal(p))
        assert np.abs(off).max() < 1e-15

    def test_unevolved_thermal_times_vacuum(self):
        c = DisentangledCoefficients.from_coupling(0.0)
        state = evolve_thermal_pair(0.5, 0.0, c, 40)
        p = state.joint_distribution()
        for n in range(6):
            assert p[n, 0] == pytest.approx(0.5 ** n / 1.5 ** (n + 1), rel=1e-12)
        assert np.abs(p[:, 1:]).max() == 0.0

    def test_hermitian_and_positive(self):
        c = DisentangledCoefficients.from_coupling(0.5, 0.3)
        state = evolve_thermal_pair(0.4, 0.2, c, 18)
        assert state.hermiticity_defect() < 1e-10
        assert state.min_eigenvalue() >= -1e-9

    def test_reports_insufficient_cutoff(self):
        c = DisentangledCoefficients.from_coupling(0.0)
        with pytest.raises(ValueError, match="input tail"):
            evolve_thermal_pair(5.0, 0.0, c, 10)

    def test_reports_excess_trace_deficit(self):
        c = DisentangledCoefficients.from_coupling(1.5)
        with pytest.raises(ValueError, match="trace deficit"):
            evolve_thermal_pair(0.0, 0.0, c, 12, max_trace_deficit=1e-12)

    def test_reports_lost_precision(self):
        # the alternating k-sum of evolve_fock_pair cancels catastrophically
        # near n = m = 40 at this gain, so the trace grows far beyond 1
        p = ModeParams.from_npdc(4.0, 4.0, 1.0)
        c = DisentangledCoefficients.from_mode_params(p)
        with pytest.raises(ValueError, match="lost precision"):
            evolve_thermal_pair(4.0, 4.0, c, 80, max_trace_deficit=1e-3)

    def test_band_layout(self):
        c = DisentangledCoefficients.from_coupling(0.4, 0.2)
        state = evolve_thermal_pair(0.3, 0.6, c, 7, max_trace_deficit=1e-2)
        assert [band.shape for band in state.bands] == [(8 - abs(d),) * 2 for d in range(-7, 8)]
        dense = state.matrix.reshape(8, 8, 8, 8)
        # rung r of band d = 2 is (n_T, n_R) = (r + 2, r)
        assert state.bands[7 + 2][3, 1] == dense[5, 3, 3, 1]
        # rung r of band d = -3 is (n_T, n_R) = (r, r + 3)
        assert state.bands[7 - 3][0, 4] == dense[0, 3, 4, 7]

    def test_library_routes_never_build_the_dense_matrix(self, monkeypatch, tmp_path):
        from thermalpdc.scenario import run

        def forbidden(state):
            raise AssertionError("dense matrix built")

        monkeypatch.setattr(TwoModeFockState, "matrix", property(forbidden))
        c = DisentangledCoefficients.from_coupling(0.5, 0.3)
        state = evolve_thermal_pair(0.4, 0.2, c, 18)
        moments(state)
        cross_amplitude(state)
        state.joint_distribution()
        state.hermiticity_defect()
        state.min_eigenvalue()
        write_joint_distribution_csv(state, tmp_path / "joint.csv")
        cfg = {"kind": "oracle-validate", "params": {"mu_t": 0.5, "mu_r": 0.5, "n_pdc": 0.3}, "cutoff": 45}
        assert run(cfg, out_dir=tmp_path)["passed"]

    def test_banded_memory_at_cutoff_60(self):
        # the dense matrix at this cutoff alone would take 211 MiB
        p = ModeParams.from_npdc(0.5, 0.5, 0.3)
        c = DisentangledCoefficients.from_mode_params(p)
        tracemalloc.start()
        try:
            state = evolve_thermal_pair(0.5, 0.5, c, 60)
            moments(state)
            cross_amplitude(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_default_cutoff_heuristic(self):
        assert default_cutoff(0, 0, 0) == 12
        assert default_cutoff(1, 1, 1.0 / 3.0) == 36


class TestMoments:
    def test_squeezed_vacuum(self):
        c = DisentangledCoefficients.from_coupling(ASINH1)
        state = evolve_thermal_pair(0.0, 0.0, c, 50)
        m = moments(state)
        tol = moment_tolerance(state)
        assert m.mean_t == pytest.approx(1.0, rel=tol)
        assert m.mean_r == pytest.approx(1.0, rel=tol)
        assert m.var_t == pytest.approx(2.0, rel=tol)
        assert m.cross == pytest.approx(2.0, rel=tol)

    def test_uncoupled_thermal_statistics(self):
        c = DisentangledCoefficients.from_coupling(0.0)
        state = evolve_thermal_pair(2.0, 1.0, c, 60, max_trace_deficit=1e-4)
        m = moments(state)
        tol = moment_tolerance(state)
        assert m.mean_t == pytest.approx(2.0, rel=tol)
        assert m.var_t == pytest.approx(6.0, rel=tol)
        assert abs(m.cross) < tol

    def test_seeded_pair_closed_forms(self):
        p = ModeParams.from_npdc(2.0, 1.0, 0.5)
        c = DisentangledCoefficients.from_mode_params(p)
        state = evolve_thermal_pair(2.0, 1.0, c, 80, max_trace_deficit=1e-5)
        m = moments(state)
        w = predicted_moments(p)
        assert w.mean_t == pytest.approx(4.0)
        assert w.mean_r == pytest.approx(3.0)
        assert w.var_t == pytest.approx(20.0)
        assert w.var_r == pytest.approx(12.0)
        assert w.cross == pytest.approx(12.0)
        tol = moment_tolerance(state)
        for name in ("mean_t", "mean_r", "var_t", "var_r", "cross"):
            assert getattr(m, name) == pytest.approx(getattr(w, name), rel=tol)

    def test_oracle_agreement_on_grid(self):
        for mu_t in (0.0, 0.5, 1.0):
            for mu_r in (0.0, 0.6):
                for n_pdc in (0.1, 0.4):
                    p = ModeParams.from_npdc(mu_t, mu_r, n_pdc)
                    c = DisentangledCoefficients.from_mode_params(p)
                    state = evolve_thermal_pair(mu_t, mu_r, c, 45)
                    m = moments(state)
                    w = predicted_moments(p)
                    tol = moment_tolerance(state)
                    for name in ("mean_t", "mean_r", "var_t", "var_r", "cross"):
                        assert getattr(m, name) == pytest.approx(
                            getattr(w, name), rel=tol, abs=tol
                        ), (mu_t, mu_r, n_pdc, name)

    def test_thermal_marginals_keep_seed_statistics(self):
        for mu_t, mu_r, n_pdc in [(0.3, 0.8, 0.2), (1.0, 0.0, 0.5)]:
            p = ModeParams.from_npdc(mu_t, mu_r, n_pdc)
            c = DisentangledCoefficients.from_mode_params(p)
            state = evolve_thermal_pair(mu_t, mu_r, c, 45)
            m = moments(state)
            tol = moment_tolerance(state)
            assert m.var_t == pytest.approx(m.mean_t * (m.mean_t + 1.0), rel=10 * tol)
            assert m.var_r == pytest.approx(m.mean_r * (m.mean_r + 1.0), rel=10 * tol)

    def test_cauchy_schwarz(self):
        p = ModeParams.from_npdc(0.7, 0.2, 0.6)
        c = DisentangledCoefficients.from_mode_params(p)
        state = evolve_thermal_pair(0.7, 0.2, c, 40)
        m = moments(state)
        assert abs(m.cross) <= math.sqrt(m.var_t * m.var_r) + 1e-12


class TestCrossAmplitude:
    def test_phase_matches_heisenberg_convention(self):
        for phase in (0.0, 0.9, -1.3):
            p = ModeParams.from_npdc(0.4, 0.3, 0.35, phase)
            c = DisentangledCoefficients.from_mode_params(p)
            state = evolve_thermal_pair(p.mu_t, p.mu_r, c, 40)
            got = cross_amplitude(state)
            want = p.u * p.v * (1.0 + p.mu_t + p.mu_r) * np.exp(1j * phase)
            assert got == pytest.approx(want, abs=1e-6)


class TestJointDistributionDump:
    def test_csv_contents(self, tmp_path):
        c = DisentangledCoefficients.from_coupling(ASINH1)
        state = evolve_thermal_pair(0.0, 0.0, c, 8, max_trace_deficit=1e-2)
        path = tmp_path / "joint.csv"
        write_joint_distribution_csv(state, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n_t,n_r,probability"
        assert len(lines) == 1 + 9 * 9
        total = sum(float(line.split(",")[2]) for line in lines[1:])
        assert total == pytest.approx(1.0 - state.trace_deficit, abs=1e-12)


def ladder_moment(state, powers):
    """<a_T^dag^p1 a_T^p2 a_R^dag^p3 a_R^p4> by explicit summation.

    Slow and index-transparent on purpose: this is the independent route
    used to rebuild quadrature covariances from the oracle state.  Writing
    the trace as sum_i <i| rho O |i>, the operator lowers the ket |n, m>
    p2/p4 times, then raises it p1/p3 times, selecting the density-matrix
    column (n + p1 - p2, m + p3 - p4) for row (n, m).
    """
    p1, p2, p3, p4 = powers
    dim = state.cutoff + 1
    rho = state.matrix.reshape(dim, dim, dim, dim)
    total = 0.0 + 0.0j
    for n in range(dim):
        n_out = n + p1 - p2
        if n - p2 < 0 or not 0 <= n_out < dim:
            continue
        for m in range(dim):
            m_out = m + p3 - p4
            if m - p4 < 0 or not 0 <= m_out < dim:
                continue
            amp = 1.0
            for step in range(p2):
                amp *= math.sqrt(n - step)
            for step in range(p1):
                amp *= math.sqrt(n - p2 + 1 + step)
            for step in range(p4):
                amp *= math.sqrt(m - step)
            for step in range(p3):
                amp *= math.sqrt(m - p4 + 1 + step)
            total += rho[n, m, n_out, m_out] * amp
    return total


class TestCovarianceFromOracle:
    @pytest.mark.parametrize("phase", [0.0, 0.8])
    def test_full_covariance_matches_gaussian_construction(self, phase):
        from thermalpdc import covariance_with_phase

        p = ModeParams.from_npdc(0.5, 0.3, 0.4, phase)
        state = evolve_thermal_pair(
            p.mu_t, p.mu_r, DisentangledCoefficients.from_mode_params(p), 35
        )
        n_t = ladder_moment(state, (1, 1, 0, 0)).real
        n_r = ladder_moment(state, (0, 0, 1, 1)).real
        sq_t = ladder_moment(state, (0, 2, 0, 0))
        sq_r = ladder_moment(state, (0, 0, 0, 2))
        pair = ladder_moment(state, (0, 1, 0, 1))      # <a_T a_R>
        beam = ladder_moment(state, (1, 0, 0, 1))      # <a_T^dag a_R>
        # no single-arm squeezing and no beam-splitter coherence
        assert abs(sq_t) < 1e-9 and abs(sq_r) < 1e-9 and abs(beam) < 1e-9
        got = np.empty((4, 4))
        got[:2, :2] = np.eye(2) * (n_t + 0.5)
        got[2:, 2:] = np.eye(2) * (n_r + 0.5)
        cross = np.array(
            [[pair.real + beam.real, pair.imag + beam.imag],
             [pair.imag - beam.imag, -pair.real + beam.real]]
        )
        got[:2, 2:] = cross
        got[2:, :2] = cross.T
        want = covariance_with_phase(p).matrix
        tol = 10.0 * state.cutoff ** 2 * state.trace_deficit + 1e-9
        assert np.abs(got - want).max() < tol * max(np.abs(want).max(), 1.0)


def dense_photon_moments(state):
    """MomentSet fields from ladder sums over the dense matrix, using
    n^2 = a^dag^2 a^2 + a^dag a."""
    mean_t = ladder_moment(state, (1, 1, 0, 0)).real
    mean_r = ladder_moment(state, (0, 0, 1, 1)).real
    var_t = ladder_moment(state, (2, 2, 0, 0)).real + mean_t - mean_t ** 2
    var_r = ladder_moment(state, (0, 0, 2, 2)).real + mean_r - mean_r ** 2
    cross = ladder_moment(state, (1, 1, 1, 1)).real - mean_t * mean_r
    return (mean_t, mean_r, var_t, var_r, cross)


class TestBandedState:
    """Band-local diagnostics against the dense matrix they never build."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 12),
        st.floats(0.0, 1.5),
        st.floats(0.0, 1.5),
        st.floats(0.0, 1.5),
        st.floats(-math.pi, math.pi),
    )
    def test_matches_dense_matrix(self, cutoff, mu_t, mu_r, n_pdc, phase):
        p = ModeParams.from_npdc(mu_t, mu_r, n_pdc, phase)
        # a large bound admits any truncation at these small cutoffs
        state = evolve_thermal_pair(mu_t, mu_r, DisentangledCoefficients.from_mode_params(p), cutoff, 10.0)
        rho = state.matrix
        dim = cutoff + 1
        assert np.array_equal(state.joint_distribution(), np.real(np.diagonal(rho)).reshape(dim, dim))
        got = moments(state)
        want = dense_photon_moments(state)
        for name, value in zip(("mean_t", "mean_r", "var_t", "var_r", "cross"), want):
            assert getattr(got, name) == pytest.approx(value, rel=1e-12, abs=1e-12), name
        assert cross_amplitude(state) == pytest.approx(ladder_moment(state, (0, 1, 0, 1)), rel=1e-12, abs=1e-14)
        assert state.hermiticity_defect() == np.abs(rho - rho.conj().T).max()
        assert state.min_eigenvalue() == pytest.approx(np.linalg.eigvalsh(rho)[0], abs=1e-13)
        assert state.trace_deficit == pytest.approx(1.0 - np.trace(rho).real, abs=1e-14)
