import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermalpdc import (
    ModeParams,
    TwoModeFockState,
    cross_amplitude,
    evolve_thermal_pair,
    fock,
    moments,
    predicted_moments,
)

ASINH1 = math.asinh(1.0)
DEMO_ORACLE = Path(__file__).resolve().parents[1] / "demos" / "configs" / "oracle_validate.json"


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


def brute_force_unitary(coupling, phase, dim):
    """Exponentiate the bilinear generator directly on the dense product basis
    |n>_T |m>_R (flat index n * dim + m).

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
    return series_expm(1j * gen)


def padded_rungs(side, pad):
    """Rungs 2 h of the generator that evolve_thermal_pair builds for a band
    of side rungs padded by pad rungs."""
    return 2 * ((side + pad + 1) // 2)


def fixed_pad_bands(p, cutoff, pad):
    """Every band of the state whose evolutions are each padded by the same
    pad rungs, bypassing the edge check of evolve_thermal_pair."""
    dim = cutoff + 1
    w_t = fock._thermal_weights(p.mu_t, cutoff)
    w_r = fock._thermal_weights(p.mu_r, cutoff)
    evolutions, weights = [], []
    for gap in range(dim):
        side = dim - gap
        evolutions.append(fock._evolution(p, fock._band_svd(gap, padded_rungs(side, pad) // 2), side)[:side])
        rungs = (fock._rungs(gap, dim), fock._rungs(-gap, dim))
        weights.append(np.stack([w_t[n_t] * w_r[n_r] for n_t, n_r in rungs], axis=1))
    return TwoModeFockState(cutoff, p.phase, tuple(evolutions), tuple(weights)).bands


def spy_rungs(rungs):
    """A stand-in for fock._evolution that keeps in rungs[gap] the generator
    rungs 2 h of the last call for the evolution of gap, which the bands
    d = +-gap share: it runs once per trial padding, so calls are keyed by
    the gap's side."""
    evolution = fock._evolution
    by_side = {}

    def spy(p, factors, side):
        by_side[side] = 2 * len(factors[1])
        rungs[:] = [by_side[s] for s in sorted(by_side, reverse=True)]
        return evolution(p, factors, side)

    return spy


class TestDenseReference:
    @pytest.mark.parametrize("phase", [0.0, 0.7])
    def test_bands_match_dense_evolution(self, phase):
        coupling, mu_t, mu_r = 0.45, 0.3, 0.2
        dim = 26
        state = evolve_thermal_pair(ModeParams(mu_t, mu_r, coupling, phase), dim - 1)
        u = brute_force_unitary(coupling, phase, dim)
        n = np.arange(dim)
        rho_in = np.diag(np.kron(mu_t ** n / (1 + mu_t) ** (n + 1), mu_r ** n / (1 + mu_r) ** (n + 1)))
        rho = u @ rho_in @ u.conj().T
        # the exponentiated truncated generator reflects off the cutoff edge,
        # so compare rungs that stay at least 8 levels below it
        for d, band in zip(range(-dim + 9, dim - 8), state.bands[8:-8]):
            n_t, n_r = fock._rungs(d, dim)
            kept = np.maximum(n_t, n_r) <= dim - 9
            idx = (n_t * dim + n_r)[kept]
            assert np.abs(band[np.ix_(kept, kept)] - rho[np.ix_(idx, idx)]).max() < 1e-12, d


class TestEvolveThermalPair:
    def test_double_vacuum_uncoupled(self):
        state = evolve_thermal_pair(ModeParams(0.0, 0.0, 0.0), 5)
        expected = np.zeros((36, 36), dtype=complex)
        expected[0, 0] = 1.0
        assert np.array_equal(state.matrix, expected)
        assert state.trace_deficit == 0.0

    def test_squeezed_vacuum_schmidt_weights(self):
        state = evolve_thermal_pair(ModeParams(0.0, 0.0, ASINH1), 40)
        p = state.joint_distribution()
        for n in range(10):
            assert p[n, n] == pytest.approx(0.5 ** (n + 1), abs=1e-12)
        off = p - np.diag(np.diagonal(p))
        assert np.abs(off).max() < 1e-15

    def test_unevolved_thermal_times_vacuum(self):
        state = evolve_thermal_pair(ModeParams(0.5, 0.0, 0.0), 40)
        p = state.joint_distribution()
        for n in range(6):
            assert p[n, 0] == pytest.approx(0.5 ** n / 1.5 ** (n + 1), rel=1e-12)
        assert np.abs(p[:, 1:]).max() == 0.0

    def test_hermitian_and_positive(self):
        state = evolve_thermal_pair(ModeParams(0.4, 0.2, 0.5, 0.3), 18)
        assert state.hermiticity_defect() < 1e-10
        assert state.min_eigenvalue() >= -1e-9

    def test_reports_insufficient_cutoff(self):
        with pytest.raises(ValueError, match="input tail"):
            evolve_thermal_pair(ModeParams(5.0, 0.0, 0.0), 10)

    def test_reports_excess_trace_deficit(self):
        with pytest.raises(ValueError, match="trace deficit"):
            evolve_thermal_pair(ModeParams(0.0, 0.0, 1.5), 12, max_trace_deficit=1e-12)

    def test_bright_seeds_only_report_truncation(self):
        # at seeds and gain of order one the deficit is only the weight beyond the cutoff
        p = ModeParams.from_npdc(4.0, 4.0, 1.0)
        with pytest.raises(ValueError, match=r"trace deficit 3\.5\d+e-03 exceeds .*raise the cutoff"):
            evolve_thermal_pair(p, 80, max_trace_deficit=1e-3)
        state = evolve_thermal_pair(p, 120, max_trace_deficit=1e-3)
        assert 0.0 < state.trace_deficit < 1e-3
        assert state.min_eigenvalue() >= -1e-12

    def test_bright_seeds_at_cutoff_150(self):
        p = ModeParams.from_npdc(5.0, 5.0, 1.0, 0.4)
        state = evolve_thermal_pair(p, 150, max_trace_deficit=1e-3)
        assert 0.0 < state.trace_deficit < 1e-3
        assert state.min_eigenvalue() >= -1e-12
        m = moments(state)
        w = predicted_moments(p)
        # the weight beyond this cutoff (1.6e-4) costs the means and <a_T a_R>
        # 1.6e-3 of their value and the second moments 1.3e-2
        for name, rel in (("mean_t", 5e-3), ("mean_r", 5e-3), ("var_t", 3e-2), ("var_r", 3e-2), ("cross", 3e-2)):
            assert getattr(m, name) == pytest.approx(getattr(w, name), rel=rel), name
        want = np.exp(0.4j) * p.u * p.v * (1.0 + p.mu_t + p.mu_r)
        assert cross_amplitude(state) == pytest.approx(want, rel=5e-3)

    def test_reports_inflated_trace(self, monkeypatch):
        # a band evolution that gains weight shows as a negative deficit
        evolution = fock._evolution
        monkeypatch.setattr(fock, "_evolution", lambda *args: 1.01 * evolution(*args))
        with pytest.raises(ValueError, match=r"trace deficit -2\.\d+e-02 exceeds .* in magnitude"):
            evolve_thermal_pair(ModeParams.from_npdc(0.5, 0.5, 0.3), 40)

    def test_padding_is_converged(self):
        # these seeds pad every band by cutoff + 1 rungs (the cap, see
        # test_bright_seeds_pad_to_the_cap); doubling the padding moves no
        # band entry, while halving it would
        p = ModeParams.from_npdc(3.0, 3.0, 1.0)
        state = evolve_thermal_pair(p, 100, 1e-3)

        def moved(pad):
            return max(float(np.abs(a - b).max()) for a, b in zip(state.bands, fixed_pad_bands(p, 100, pad)))

        assert moved(202) < 1e-15
        assert moved(50) > 1e-13

    def test_bright_seeds_pad_to_the_cap(self, monkeypatch):
        # the edge check never passes here, so every band is padded by
        # cutoff + 1 rungs and equals a fixed padding of cutoff + 1 bit for bit
        p = ModeParams.from_npdc(3.0, 3.0, 1.0)
        rungs = []
        monkeypatch.setattr(fock, "_evolution", spy_rungs(rungs))
        state = evolve_thermal_pair(p, 100, 1e-3)
        monkeypatch.undo()
        assert rungs == [padded_rungs(101 - gap, 101) for gap in range(101)]
        for band, want in zip(state.bands, fixed_pad_bands(p, 100, 101)):
            assert band.tobytes() == want.tobytes()

    def test_demo_oracle_pads_below_the_cap(self, monkeypatch):
        from thermalpdc.scenario import ORACLE_MAX_TRACE_DEFICIT

        cfg = json.loads(DEMO_ORACLE.read_text())
        dim = cfg["cutoff"] + 1
        rungs = []
        monkeypatch.setattr(fock, "_evolution", spy_rungs(rungs))
        evolve_thermal_pair(ModeParams.from_npdc(**cfg["params"]), cfg["cutoff"], ORACLE_MAX_TRACE_DEFICIT)
        assert len(rungs) == dim
        assert all(rungs[gap] < padded_rungs(dim - gap, dim) for gap in range(dim))

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(0.0, 5.0),
        st.floats(0.0, 5.0),
        st.floats(0.0, 2.0),
        st.floats(-math.pi, math.pi),
        st.integers(1, 40),
    )
    @example(0.5, 0.5, 0.3, 0.0, 40)
    @example(0.0, 0.0, 0.5, 1.0, 40)
    @example(5.0, 5.0, 1.0, 0.4, 40)
    def test_bound_chosen_pads_match_double_padding(self, mu_t, mu_r, n_pdc, phase, cutoff):
        # below the cap a band matches one padded by 2 (cutoff + 1) rungs; at
        # the cap it is the band padded by cutoff + 1, whose own truncation
        # error shows in the trace deficit
        p = ModeParams.from_npdc(mu_t, mu_r, n_pdc, phase)
        rungs = []
        with mock.patch.object(fock, "_evolution", spy_rungs(rungs)):
            state = evolve_thermal_pair(p, cutoff, 10.0)
        at_cap = fixed_pad_bands(p, cutoff, cutoff + 1)
        doubled = fixed_pad_bands(p, cutoff, 2 * (cutoff + 1))
        for d, band in zip(range(-cutoff, cutoff + 1), state.bands):
            if rungs[abs(d)] == padded_rungs(cutoff + 1 - abs(d), cutoff + 1):
                assert band.tobytes() == at_cap[d + cutoff].tobytes(), d
            else:
                assert np.abs(band - doubled[d + cutoff]).max() < 1e-14, d

    def test_phase_zero_bands_are_real(self):
        # the pump phase enters only through the gauge e^{i phase (r - r')}
        cfg = json.loads(DEMO_ORACLE.read_text())
        state = evolve_thermal_pair(ModeParams.from_npdc(**cfg["params"]), cfg["cutoff"], 1e-3)
        assert all(not band.imag.any() for band in state.bands)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(0.0, 3.0),
        st.floats(0.0, 3.0),
        st.floats(0.0, 1.0),
        st.floats(-math.pi, math.pi),
        st.integers(1, 40),
    )
    def test_phase_is_a_gauge(self, mu_t, mu_r, n_pdc, phase, cutoff):
        state = evolve_thermal_pair(ModeParams.from_npdc(mu_t, mu_r, n_pdc, phase), cutoff, 10.0)
        real = evolve_thermal_pair(ModeParams.from_npdc(mu_t, mu_r, n_pdc), cutoff, 10.0)
        for band, at_zero in zip(state.bands, real.bands):
            r = np.arange(len(band))
            want = np.exp(1j * phase * (r[:, None] - r)) * at_zero
            assert np.abs(band - want).max() <= 1e-15 * np.abs(at_zero).max()

    def test_band_layout(self):
        state = evolve_thermal_pair(ModeParams(0.3, 0.6, 0.4, 0.2), 7, max_trace_deficit=1e-2)
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
        state = evolve_thermal_pair(ModeParams(0.4, 0.2, 0.5, 0.3), 18)
        moments(state)
        cross_amplitude(state)
        state.joint_distribution()
        state.hermiticity_defect()
        state.min_eigenvalue()
        cfg = {"kind": "oracle-validate", "params": {"mu_t": 0.5, "mu_r": 0.5, "n_pdc": 0.3}, "cutoff": 45}
        assert run(cfg, out_dir=tmp_path)["passed"]

    def test_banded_memory_at_cutoff_60(self):
        # the dense matrix at this cutoff alone would take 211 MiB
        p = ModeParams.from_npdc(0.5, 0.5, 0.3)
        tracemalloc.start()
        try:
            state = evolve_thermal_pair(p, 60)
            moments(state)
            cross_amplitude(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_factored_memory_at_cutoff_200(self):
        # the oracle keeps one real evolution per gap and never builds a band:
        # the 401 complex bands at this cutoff alone would take 83 MiB
        p = ModeParams.from_npdc(1.0, 1.0, 0.25)
        tracemalloc.start()
        try:
            state = evolve_thermal_pair(p, 200)
            moments(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6


class TestMoments:
    def test_squeezed_vacuum(self):
        state = evolve_thermal_pair(ModeParams(0.0, 0.0, ASINH1), 50)
        m = moments(state)
        tol = moment_tolerance(state)
        assert m.mean_t == pytest.approx(1.0, rel=tol)
        assert m.mean_r == pytest.approx(1.0, rel=tol)
        assert m.var_t == pytest.approx(2.0, rel=tol)
        assert m.cross == pytest.approx(2.0, rel=tol)

    def test_uncoupled_thermal_statistics(self):
        state = evolve_thermal_pair(ModeParams(2.0, 1.0, 0.0), 60, max_trace_deficit=1e-4)
        m = moments(state)
        tol = moment_tolerance(state)
        assert m.mean_t == pytest.approx(2.0, rel=tol)
        assert m.var_t == pytest.approx(6.0, rel=tol)
        assert abs(m.cross) < tol

    def test_seeded_pair_closed_forms(self):
        p = ModeParams.from_npdc(2.0, 1.0, 0.5)
        state = evolve_thermal_pair(p, 80, max_trace_deficit=1e-5)
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
                    state = evolve_thermal_pair(p, 45)
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
            state = evolve_thermal_pair(p, 45)
            m = moments(state)
            tol = moment_tolerance(state)
            assert m.var_t == pytest.approx(m.mean_t * (m.mean_t + 1.0), rel=10 * tol)
            assert m.var_r == pytest.approx(m.mean_r * (m.mean_r + 1.0), rel=10 * tol)

    def test_cauchy_schwarz(self):
        p = ModeParams.from_npdc(0.7, 0.2, 0.6)
        state = evolve_thermal_pair(p, 40)
        m = moments(state)
        assert abs(m.cross) <= math.sqrt(m.var_t * m.var_r) + 1e-12


class TestCrossAmplitude:
    def test_phase_matches_heisenberg_convention(self):
        for phase in (0.0, 0.9, -1.3):
            p = ModeParams.from_npdc(0.4, 0.3, 0.35, phase)
            state = evolve_thermal_pair(p, 40)
            got = cross_amplitude(state)
            want = p.u * p.v * (1.0 + p.mu_t + p.mu_r) * np.exp(1j * phase)
            assert got == pytest.approx(want, abs=1e-6)


class TestSeedsGainAndPhase:
    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.0, 3.0), st.floats(0.0, 3.0), st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))
    @example(3.0, 3.0, 1.0, 0.4)  # the brightest corner, where the evolution is hardest to keep exact
    def test_state_matches_closed_forms(self, mu_t, mu_r, n_pdc, phase):
        p = ModeParams.from_npdc(mu_t, mu_r, n_pdc, phase)
        # a dozen times the largest output mean: the thermal tails decay geometrically
        cutoff = math.ceil(12.0 * (1.0 + max(mu_t, mu_r) + n_pdc * (1.0 + mu_t + mu_r)))
        state = evolve_thermal_pair(p, cutoff, max_trace_deficit=1e-3)
        assert state.hermiticity_defect() <= 1e-12
        assert state.min_eigenvalue() >= -1e-12
        m = moments(state)
        w = predicted_moments(p)
        # moment_tolerance is tight for dim seeds, where the deficit is tiny;
        # for bright ones, where it is loose, at this cutoff truncation
        # costs at most 8e-4 of any moment (second moments at the bright
        # corner; the means 7e-5).  The lost weight also biases the cross
        # covariance by about mean_t mean_r times it, which shows only where
        # the closed form is 0.
        tol = moment_tolerance(state)
        floor = 10.0 * (1.0 + w.mean_t) * (1.0 + w.mean_r) * abs(state.trace_deficit) + 1e-12
        for name in ("mean_t", "mean_r", "var_t", "var_r", "cross"):
            assert getattr(m, name) == pytest.approx(getattr(w, name), abs=tol), name
            assert getattr(m, name) == pytest.approx(getattr(w, name), rel=5e-3, abs=floor), name
        want = np.exp(1j * phase) * p.u * p.v * (1.0 + mu_t + mu_r)
        assert cross_amplitude(state) == pytest.approx(want, abs=tol)
        assert cross_amplitude(state) == pytest.approx(want, rel=5e-3, abs=1e-12)


class TestJointDistribution:
    def test_sums_to_one_minus_trace_deficit(self):
        state = evolve_thermal_pair(ModeParams(0.0, 0.0, ASINH1), 8, max_trace_deficit=1e-2)
        p = state.joint_distribution()
        assert p.shape == (9, 9)
        assert state.trace_deficit > 1e-4
        assert p.sum() == pytest.approx(1.0 - state.trace_deficit, abs=1e-12)


class TestInputTailProblem:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_seeds_that_are_not_finite_and_non_negative(self, bad):
        # raised as ModeParams raises, not returned as a problem
        for name, seeds in (("mu_t", (bad, 0.5)), ("mu_r", (0.5, bad))):
            with pytest.raises(ValueError, match=f"{name} must be a finite real number >= 0"):
                fock.input_tail_problem(*seeds, 20, 1e-3)

    def test_fitting_seeds_have_no_problem(self):
        assert fock.input_tail_problem(0.5, 0.0, 60, 1e-3) is None

    @pytest.mark.parametrize("cutoff", [-1, 0, 2.5, np.float64(20.0), True, "20", None])
    def test_rejects_cutoffs_that_are_not_integers_from_one(self, cutoff):
        with pytest.raises(ValueError, match="cutoff must be an integer >= 1"):
            fock.input_tail_problem(0.5, 0.5, cutoff, 1e-3)
        with pytest.raises(ValueError, match="cutoff must be an integer >= 1"):
            evolve_thermal_pair(ModeParams(0.0, 0.0, 0.3), cutoff)

    @pytest.mark.parametrize("bound", [math.nan, math.inf, 0.0, -1e-3, "1e-3", None])
    def test_rejects_trace_bounds_that_are_not_finite_and_positive(self, bound):
        with pytest.raises(ValueError, match="max_trace_deficit must be a finite real number > 0"):
            fock.input_tail_problem(0.5, 0.5, 20, bound)
        # a NaN bound would otherwise pass a trace deficit of 0.34 here
        with pytest.raises(ValueError, match="max_trace_deficit must be a finite real number > 0"):
            evolve_thermal_pair(ModeParams.from_npdc(5.0, 5.0, 1.0), 20, bound)

    def test_numpy_integer_cutoff(self):
        p = ModeParams.from_npdc(0.5, 0.5, 0.3)
        state = evolve_thermal_pair(p, np.int64(40))
        want = evolve_thermal_pair(p, 40)
        assert fock.input_tail_problem(0.5, 0.5, np.int64(40), np.float64(1e-6)) is None
        assert all(np.array_equal(a, b) for a, b in zip(state.bands, want.bands))


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
        from gaussian_oracle import covariance_with_phase

        p = ModeParams.from_npdc(0.5, 0.3, 0.4, phase)
        state = evolve_thermal_pair(p, 35)
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
        state = evolve_thermal_pair(p, cutoff, 10.0)
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

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 40),
        st.floats(0.0, 3.0),
        st.floats(0.0, 3.0),
        st.floats(0.0, 1.5),
        st.floats(-math.pi, math.pi),
    )
    @example(40, 3.0, 3.0, 1.5, 0.4)
    def test_factored_reads_match_band_sums(self, cutoff, mu_t, mu_r, n_pdc, phase):
        # cross_amplitude and the trace deficit read the evolutions; here they
        # are summed over the bands built on demand.  The two routes round the
        # products O[r + 1, k] w_k O[r, k] and their sums in different orders:
        # over 4500 draws the anomalous moment moved by up to 1.6e-15
        # of its size, the deficit by up to 6.7e-16
        state = evolve_thermal_pair(ModeParams.from_npdc(mu_t, mu_r, n_pdc, phase), cutoff, 10.0)
        dim = cutoff + 1
        cross, trace = 0.0j, 0.0
        for d, band in zip(range(-cutoff, dim), state.bands):
            n_t, n_r = fock._rungs(d, dim)
            cross += np.sqrt(n_t[1:] * n_r[1:]) @ np.diagonal(band, -1)
            trace += np.trace(band).real
        assert abs(cross_amplitude(state) - cross) <= 4e-15 * max(abs(cross), 1.0)
        assert abs(state.trace_deficit - (1.0 - trace)) <= 1e-15
