import math

import numpy as np
import pytest

from gaussian_oracle import (
    SYMPLECTIC_FORM,
    _local_rotation,
    covariance_with_phase,
    partial_transpose,
    symplectic_eigenvalues,
)
from thermalpdc import (
    CovarianceBlock,
    ModeParams,
    apply_loss,
    build_covariance,
    check_separability,
    check_separability_lossy,
    separability_margin,
)

ASINH1 = math.asinh(1.0)


def quartic_symplectic_spectrum(matrix):
    """Independent closed form for the patterned blocks: the squared
    symplectic eigenvalues solve nu^4 - delta nu^2 + det V = 0 with
    delta = A^2 + B^2 - 2 C C' where C, C' are the two off-diagonal
    entries (C' = -C for the physical block, +C after partial
    transposition)."""
    a, b = matrix[0, 0], matrix[2, 2]
    c1, c2 = matrix[0, 2], matrix[1, 3]
    delta = a * a + b * b + 2.0 * c1 * c2
    det = np.linalg.det(matrix)
    disc = math.sqrt(max(delta * delta - 4.0 * det, 0.0))
    return (math.sqrt((delta - disc) / 2.0), math.sqrt((delta + disc) / 2.0))


class TestModeParams:
    def test_derived_quantities(self):
        p = ModeParams(1.0, 0.5, ASINH1)
        assert p.n_pdc == pytest.approx(1.0, abs=1e-14)
        assert p.u ** 2 - p.v ** 2 == pytest.approx(1.0, abs=1e-14)

    def test_from_npdc_roundtrip(self):
        p = ModeParams.from_npdc(0.3, 0.7, 2.5)
        assert p.n_pdc == pytest.approx(2.5, rel=1e-14)

    @pytest.mark.parametrize("bad", [(-0.1, 0, 0), (0, -0.1, 0), (0, 0, -0.1)])
    def test_rejects_negative(self, bad):
        with pytest.raises(ValueError):
            ModeParams(*bad)

    def test_rejects_negative_npdc(self):
        with pytest.raises(ValueError):
            ModeParams.from_npdc(0, 0, -1e-9)

    @pytest.mark.parametrize("bad", [(math.nan, 0, 0), (0, math.inf, 0), (0, 0, math.nan), (0, 0, 0, -math.inf)])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ModeParams(*bad)

    @pytest.mark.parametrize("n_pdc", [math.nan, math.inf])
    def test_rejects_non_finite_npdc(self, n_pdc):
        with pytest.raises(ValueError, match="finite"):
            ModeParams.from_npdc(0, 0, n_pdc)

    @pytest.mark.parametrize("bad", [True, False, "1.0", None, 1j])
    @pytest.mark.parametrize("field", ["mu_t", "mu_r", "coupling", "phase"])
    def test_rejects_bool_and_non_real(self, field, bad):
        # ModeParams(True, 0, 0.1) built a pair with mu_t=True; a string raised a bare TypeError
        values = {"mu_t": 0.5, "mu_r": 0.5, "coupling": 0.1, "phase": 0.0, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be a finite real number"):
            ModeParams(**values)

    def test_accepts_numpy_scalars(self):
        p = ModeParams(np.float64(1.0), np.int64(0), np.float32(0.5), np.float64(0.25))
        assert p.coupling == 0.5 and p.mu_r == 0


class TestSymplecticForm:
    def test_antisymmetric_and_squares_to_minus_identity(self):
        assert np.array_equal(SYMPLECTIC_FORM, -SYMPLECTIC_FORM.T)
        assert np.array_equal(SYMPLECTIC_FORM @ SYMPLECTIC_FORM, -np.eye(4))


class TestBuildCovariance:
    def test_vacuum(self):
        v = build_covariance(ModeParams(0, 0, 0))
        assert np.array_equal(v.matrix, np.eye(4) / 2.0)

    def test_seeded_entries(self):
        # u^2 = 2, v^2 = 1 at coupling asinh(1)
        v = build_covariance(ModeParams(1.0, 0.0, ASINH1)).matrix
        assert v[0, 0] == pytest.approx(3.5, abs=1e-12)
        assert v[2, 2] == pytest.approx(2.5, abs=1e-12)
        assert v[0, 2] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
        assert v[1, 3] == pytest.approx(-2.0 * math.sqrt(2.0), abs=1e-12)

    def test_uncoupled_thermal(self):
        v = build_covariance(ModeParams(2.0, 1.0, 0.0)).matrix
        assert np.allclose(np.diag(v), [2.5, 2.5, 1.5, 1.5], atol=1e-14)
        assert np.allclose(v - np.diag(np.diag(v)), 0.0)

    def test_sparsity_pattern_exact_zeros(self):
        v = build_covariance(ModeParams(0.7, 1.3, 0.9)).matrix
        for i, j in [(0, 1), (0, 3), (1, 2), (2, 3)]:
            assert v[i, j] == 0.0
            assert v[j, i] == 0.0

    def test_mode_symmetry_swaps_diagonal_blocks(self):
        p = ModeParams(0.4, 1.9, 0.6)
        v = build_covariance(p).matrix
        w = build_covariance(ModeParams(p.mu_r, p.mu_t, p.coupling)).matrix
        assert np.allclose(v[:2, :2], w[2:, 2:])
        assert np.allclose(v[2:, 2:], w[:2, :2])
        assert np.allclose(v[:2, 2:], w[:2, 2:])

    def test_physicality_over_random_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            mu_t, mu_r = rng.uniform(0, 10, 2)
            p = ModeParams.from_npdc(mu_t, mu_r, rng.uniform(0, 10))
            nu_min = symplectic_eigenvalues(build_covariance(p))[0]
            assert nu_min >= 0.5 - 1e-9


class TestCovarianceBlock:
    def test_rejects_asymmetric(self):
        m = np.eye(4)
        m[0, 1] = 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            CovarianceBlock(m)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            CovarianceBlock(np.eye(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite(self, bad):
        # an all-NaN block passed the symmetry check, whose scale max(nan, 1.0) is NaN
        for where in (np.s_[:, :], np.s_[0, 0], np.s_[2, 3]):
            m = np.eye(4)
            m[where] = bad
            with pytest.raises(ValueError, match="matrix must be finite real numbers"):
                CovarianceBlock(m)

    def test_is_physical_agrees_with_the_spectrum(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            v = build_covariance(ModeParams.from_npdc(*rng.uniform(0, 10, 3)))
            for block in (v, apply_loss(v, rng.uniform(1e-3, 1.0))):
                assert block.is_physical() == (symplectic_eigenvalues(block)[0] >= 0.5 - 1e-9)
                # the partial transpose is unphysical exactly when the pair is entangled
                nu_pt = symplectic_eigenvalues(partial_transpose(block))[0]
                if abs(nu_pt - 0.5) > 1e-6:
                    assert partial_transpose(block).is_physical() == (nu_pt >= 0.5)

    @pytest.mark.parametrize(
        "block",
        [CovarianceBlock(np.diag([1.0, 1.0, 1.0, -1.0])), CovarianceBlock(np.zeros((4, 4))),
         partial_transpose(build_covariance(ModeParams(0, 0, ASINH1)))],
        ids=["indefinite", "zero", "transposed-squeezed-vacuum"],
    )
    def test_is_physical_rejects(self, block):
        # the transposed squeezed vacuum is positive definite, with nu_- = (3 - 2 sqrt(2))/2 < 1/2
        assert not block.is_physical()


class TestApplyLoss:
    def test_identity_channel(self):
        v = build_covariance(ModeParams(1.0, 0.5, 0.8))
        assert np.array_equal(apply_loss(v, 1.0).matrix, v.matrix)

    def test_vacuum_fixed_point(self):
        v = build_covariance(ModeParams(0, 0, 0))
        assert np.allclose(apply_loss(v, 0.37).matrix, v.matrix, atol=1e-15)

    def test_halfway_entries(self):
        p = ModeParams(1.0, 1.0, ASINH1)
        v = build_covariance(p)
        lossy = apply_loss(v, 0.5).matrix
        assert np.allclose(lossy, (v.matrix + np.eye(4) / 2.0) / 2.0, atol=1e-14)
        # transmitted variance {1 + 2 tau [u^2 mu_t + v^2 (mu_r + 1)]} / 2
        a_tau = (1.0 + 2.0 * 0.5 * (2.0 * 1.0 + 1.0 * 2.0)) / 2.0
        assert lossy[0, 0] == pytest.approx(a_tau, abs=1e-14)
        assert apply_loss(v, 0.5).is_physical()

    @pytest.mark.parametrize("tau", [0.0, -0.2, 1.0001])
    def test_rejects_bad_transmission(self, tau):
        v = build_covariance(ModeParams(0, 0, 0.1))
        with pytest.raises(ValueError):
            apply_loss(v, tau)

    @pytest.mark.parametrize("tau", [True, False, np.True_, "0.5", 0.5j, None],
                             ids=["true", "false", "numpy-true", "string", "complex", "none"])
    def test_rejects_bool_and_non_real_transmission(self, tau):
        # apply_loss(block, True) and check_separability_lossy(p, True) ran at tau = 1; a string raised TypeError
        p = ModeParams(0.5, 0.5, 0.3)
        with pytest.raises(ValueError, match=r"tau must be a finite real number in \(0, 1\]"):
            apply_loss(build_covariance(p), tau)
        with pytest.raises(ValueError, match=r"tau must be a finite real number in \(0, 1\]"):
            check_separability_lossy(p, tau)

    def test_accepts_numpy_transmission(self):
        p = ModeParams(0.5, 0.5, 0.3)
        for tau in (np.float64(0.5), np.float32(0.5), np.int64(1)):
            assert check_separability_lossy(p, tau) == check_separability_lossy(p, float(tau))


class TestPartialTranspose:
    def test_product_state_invariant(self):
        v = build_covariance(ModeParams(2.0, 1.0, 0.0))
        assert np.array_equal(partial_transpose(v).matrix, v.matrix)

    def test_flips_momentum_cross_sign(self):
        v = build_covariance(ModeParams(0.5, 0.2, 0.9))
        pt = partial_transpose(v).matrix
        assert pt[0, 2] == v.matrix[0, 2]
        assert pt[1, 3] == -v.matrix[1, 3]
        assert pt[1, 3] == pt[0, 2]

    def test_involution_exact(self):
        v = build_covariance(ModeParams(0.5, 1.4, 1.1))
        assert np.array_equal(partial_transpose(partial_transpose(v)).matrix, v.matrix)

    def test_general_symmetric_input(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(4, 4))
        sym = CovarianceBlock((m + m.T) / 2.0)
        flip = np.diag([1.0, 1.0, 1.0, -1.0])
        assert np.array_equal(partial_transpose(sym).matrix, flip @ sym.matrix @ flip)


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        v = build_covariance(ModeParams(0, 0, 0))
        assert symplectic_eigenvalues(v) == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_pure_two_mode_squeezed_state_saturates(self):
        v = build_covariance(ModeParams(0, 0, ASINH1))
        nu = symplectic_eigenvalues(v)
        assert nu[0] == pytest.approx(0.5, abs=1e-9)
        assert nu[1] == pytest.approx(0.5, abs=1e-9)

    def test_partial_transpose_of_squeezed_vacuum(self):
        # analytic spectrum exp(-2 kappa)/2 = (3 - 2 sqrt(2))/2
        pt = partial_transpose(build_covariance(ModeParams(0, 0, ASINH1)))
        nu_min = symplectic_eigenvalues(pt)[0]
        assert nu_min == pytest.approx((3.0 - 2.0 * math.sqrt(2.0)) / 2.0, abs=1e-12)
        assert nu_min < 0.5

    def test_matches_quartic_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = ModeParams.from_npdc(*rng.uniform(0, 4, 2), rng.uniform(0, 4))
            for block in (build_covariance(p), partial_transpose(build_covariance(p))):
                got = symplectic_eigenvalues(block)
                want = quartic_symplectic_spectrum(block.matrix)
                assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("n_pdc, tau", [(1e-8, 1e-6), (9.580279194254738, 1e-12)])
    def test_lossy_near_vacuum_converges(self, n_pdc, tau):
        # a general (non-Hermitian) eigensolver failed to converge on both
        p = ModeParams.from_npdc(0, 0, n_pdc)
        lossy = apply_loss(build_covariance(p), tau)
        assert symplectic_eigenvalues(lossy) == pytest.approx((0.5, 0.5), abs=1e-9)
        # equal seeds: nu_- of the partial transpose is a - c in closed form
        a = 0.5 + tau * n_pdc
        c = tau * math.sqrt(n_pdc * (1.0 + n_pdc))
        verdict = check_separability_lossy(p, tau)
        assert verdict.min_pt_symplectic_eigenvalue == pytest.approx(a - c, abs=1e-12)
        assert not verdict.separable

    @pytest.mark.parametrize("diagonal", [(1.0, 1.0, 1.0, -1.0), (0.0, 0.0, 0.0, 0.0)])
    def test_rejects_block_that_is_not_positive_definite(self, diagonal):
        block = CovarianceBlock(np.diag(diagonal))
        with pytest.raises(ValueError, match="positive definite"):
            symplectic_eigenvalues(block)
        assert not block.is_physical()


class TestSeparability:
    def test_spontaneous_downconversion_entangled(self):
        for n_pdc in (1e-6, 0.1, 1.0, 8.0):
            verdict = check_separability(ModeParams.from_npdc(0, 0, n_pdc))
            assert not verdict.separable
            assert verdict.margin == pytest.approx(-n_pdc, rel=1e-12)

    def test_one_arm_seeding_always_entangled(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = ModeParams.from_npdc(rng.uniform(0, 20), 0.0, rng.uniform(1e-4, 10))
            assert not check_separability(p).separable

    def test_equal_seed_threshold(self):
        # mu^2 >= n_pdc (1 + 2 mu) separates; boundary at n_pdc = 1/3 for mu = 1
        assert check_separability(ModeParams.from_npdc(1, 1, 0.2)).separable
        assert not check_separability(ModeParams.from_npdc(1, 1, 0.5)).separable

    def test_margin_and_eigenvalue_routes_agree(self):
        rng = np.random.default_rng(13)
        for _ in range(400):
            p = ModeParams.from_npdc(*rng.uniform(0, 6, 2), rng.uniform(0, 6))
            v = check_separability(p)
            if abs(v.margin) > 1e-6:
                assert v.separable == (v.min_pt_symplectic_eigenvalue >= 0.5)

    def test_boundary_flag(self):
        assert check_separability(ModeParams.from_npdc(1, 1, 1.0 / 3.0)).near_boundary

    def test_verdict_fields_populated(self):
        v = check_separability(ModeParams.from_npdc(2, 2, 0.1))
        assert v.margin == pytest.approx(separability_margin(ModeParams.from_npdc(2, 2, 0.1)))
        assert v.min_pt_symplectic_eigenvalue > 0.5


class TestLossySeparability:
    def test_examples(self):
        assert not check_separability_lossy(ModeParams.from_npdc(1, 1, 0.5), 0.1).separable
        assert check_separability_lossy(ModeParams.from_npdc(1, 1, 0.2), 0.9).separable

    def test_full_transmission_matches_lossless(self):
        rng = np.random.default_rng(23)
        draws = [ModeParams(*rng.uniform(0, 6, 3), rng.uniform(-math.pi, math.pi)) for _ in range(200)]
        for p in [ModeParams.from_npdc(0.8, 1.7, 0.4), ModeParams.from_npdc(0, 0, 1e-8), *draws]:
            lossless = check_separability(p)
            lossy = check_separability_lossy(p, 1.0)
            assert lossy.separable == lossless.separable
            assert lossy.margin == lossless.margin
            assert lossy.min_pt_symplectic_eigenvalue == lossless.min_pt_symplectic_eigenvalue

    def test_classification_invariant_under_loss(self):
        rng = np.random.default_rng(17)
        for _ in range(150):
            p = ModeParams.from_npdc(*rng.uniform(0, 8, 2), rng.uniform(0, 8))
            reference = check_separability(p).separable
            for tau in (0.05, 0.3, 0.7, 1.0):
                verdict = check_separability_lossy(p, tau)
                assert verdict.separable == reference
                assert verdict.margin == pytest.approx(
                    tau ** 2 * separability_margin(p), rel=1e-12, abs=1e-300
                )

    def test_lossy_eigenvalue_route_agrees(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            p = ModeParams.from_npdc(*rng.uniform(0, 5, 2), rng.uniform(0, 5))
            tau = rng.uniform(0.05, 1.0)
            v = check_separability_lossy(p, tau)
            if abs(separability_margin(p)) > 1e-6:
                assert v.separable == (v.min_pt_symplectic_eigenvalue >= 0.5)


class TestPhaseRotation:
    def test_zero_phase_is_identity(self):
        p = ModeParams(0.6, 0.9, 0.7, 0.0)
        assert np.allclose(covariance_with_phase(p).matrix, build_covariance(p).matrix)

    def test_rotation_is_symplectic(self):
        r = _local_rotation(0.83)
        assert np.allclose(r @ SYMPLECTIC_FORM @ r.T, SYMPLECTIC_FORM, atol=1e-14)

    def test_verdict_invariant_under_phase(self):
        p0 = ModeParams.from_npdc(1.0, 1.0, 0.25)
        base = symplectic_eigenvalues(build_covariance(p0))
        for phase in (0.3, 1.2, -2.0):
            p = ModeParams(p0.mu_t, p0.mu_r, p0.coupling, phase)
            v = covariance_with_phase(p)
            assert symplectic_eigenvalues(v) == pytest.approx(base, rel=1e-10)

    def test_cross_block_structure(self):
        p = ModeParams(0.5, 0.25, 0.6, 0.77)
        c = p.u * p.v * (1.0 + p.mu_t + p.mu_r)
        m = covariance_with_phase(p).matrix
        cos, sin = math.cos(p.phase), math.sin(p.phase)
        assert np.allclose(
            m[:2, 2:], c * np.array([[cos, sin], [sin, -cos]]), atol=1e-12
        )


class TestMultiBlockPartialTranspose:
    def test_blockwise_spectrum_is_the_combined_spectrum(self):
        # Transposing one pair of a two-pair state only touches its own
        # 4x4 block, so the combined minimal symplectic eigenvalue is the
        # minimum over blocks.
        p1 = ModeParams.from_npdc(1.0, 1.0, 0.2)   # separable block
        p2 = ModeParams.from_npdc(0.5, 0.0, 0.3)   # entangled block
        v1 = partial_transpose(build_covariance(p1)).matrix
        v2 = build_covariance(p2).matrix
        big_v = np.block(
            [[v1, np.zeros((4, 4))], [np.zeros((4, 4)), v2]]
        )
        omega2 = np.block(
            [[SYMPLECTIC_FORM, np.zeros((4, 4))], [np.zeros((4, 4)), SYMPLECTIC_FORM]]
        )
        nu = np.sort(np.abs(np.linalg.eigvals(omega2 @ big_v)))
        per_block = sorted(
            list(symplectic_eigenvalues(partial_transpose(build_covariance(p1))))
            + list(symplectic_eigenvalues(build_covariance(p2)))
        )
        assert nu[::2] == pytest.approx(per_block, rel=1e-10)
