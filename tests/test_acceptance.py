"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every check pins its tolerance explicitly.
"""

import math

import numpy as np
import pytest

from thermalpdc import (
    ConstantProfile,
    GhostGeometry,
    ModeParams,
    MomentumGrid,
    SYMPLECTIC_FORM,
    build_covariance,
    check_separability,
    check_separability_lossy,
    double_slit,
    evolve_thermal_pair,
    ghost_diffraction,
    ghost_image,
    matched_image_grids,
    moments,
    noise_reduction_factor,
    noise_reduction_threshold,
    partial_transpose,
    predicted_moments,
    separability_margin,
    single_slit,
    symplectic_eigenvalues,
    validate_factorization,
)

ASINH1 = math.asinh(1.0)


def report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} {name}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


def stacked_pt_min_eigenvalue(mu_t, mu_r, n_pdc):
    """Minimal symplectic eigenvalue of the partially transposed covariance
    for broadcast parameter arrays (u^2 = 1 + n, v^2 = n)."""
    a = ((1.0 + n_pdc) * (2.0 * mu_t + 1.0) + n_pdc * (2.0 * mu_r + 1.0)) / 2.0
    b = ((1.0 + n_pdc) * (2.0 * mu_r + 1.0) + n_pdc * (2.0 * mu_t + 1.0)) / 2.0
    c = np.sqrt(n_pdc * (1.0 + n_pdc)) * (mu_t + mu_r + 1.0)
    count = a.size
    blocks = np.zeros((count, 4, 4))
    blocks[:, 0, 0] = blocks[:, 1, 1] = a
    blocks[:, 2, 2] = blocks[:, 3, 3] = b
    blocks[:, 0, 2] = blocks[:, 2, 0] = c
    blocks[:, 1, 3] = blocks[:, 3, 1] = c
    eig = np.linalg.eigvals(SYMPLECTIC_FORM[None, :, :] @ blocks)
    return np.sort(np.abs(eig), axis=1)[:, 0]


def test_criterion_1_separability_boundary():
    values = np.linspace(0.0, 5.0, 50)
    mu_t, mu_r, n_pdc = (g.ravel() for g in np.meshgrid(values, values, values, indexing="ij"))
    margin = mu_t * mu_r - n_pdc * (1.0 + mu_t + mu_r)
    nu_min = stacked_pt_min_eigenvalue(mu_t, mu_r, n_pdc)
    decided = np.abs(margin) > 1e-6
    agree = (margin[decided] >= 0.0) == (nu_min[decided] >= 0.5)
    mismatches = int((~agree).sum())

    # the stacked fast path must reproduce the public API
    rng = np.random.default_rng(2024)
    sample = rng.choice(margin.size, 100, replace=False)
    api_ok = True
    for i in sample:
        p = ModeParams.from_npdc(mu_t[i], mu_r[i], n_pdc[i])
        pt = partial_transpose(build_covariance(p))
        api_ok &= abs(symplectic_eigenvalues(pt)[0] - nu_min[i]) < 1e-9

    # equal-seed boundary located by bisection on the eigenvalue route
    worst_identity = 0.0
    for gain in (0.1, 0.5, 2.0):
        lo, hi = 0.0, 10.0
        for _ in range(80):
            mid = (lo + hi) / 2.0
            pt = partial_transpose(build_covariance(ModeParams.from_npdc(mid, mid, gain)))
            if symplectic_eigenvalues(pt)[0] >= 0.5:
                hi = mid
            else:
                lo = mid
        mu_star = (lo + hi) / 2.0
        worst_identity = max(worst_identity, abs(mu_star ** 2 - gain * (1.0 + 2.0 * mu_star)))

    report(
        "criterion-1 separability boundary",
        mismatches == 0 and api_ok and worst_identity <= 1e-9,
        f"grid mismatches={mismatches}, boundary identity residual={worst_identity:.2e}",
    )


def test_criterion_2_loss_invariance():
    rng = np.random.default_rng(42)
    disagreements = 0
    for _ in range(1000):
        p = ModeParams.from_npdc(*rng.uniform(0.0, 5.0, 2), rng.uniform(0.0, 5.0))
        tau = rng.uniform(0.01, 1.0)
        if check_separability(p).separable != check_separability_lossy(p, tau).separable:
            disagreements += 1
    report("criterion-2 loss invariance", disagreements == 0, f"disagreements={disagreements}")


def test_criterion_3_oracle_vs_analytic_moments():
    cutoff = 60
    worst = 0.0
    for mu_t in (0.0, 0.5, 1.0):
        for mu_r in (0.0, 0.5, 1.0):
            for gain in (0.05, 0.15, 1.0 / 3.0):
                p = ModeParams.from_npdc(mu_t, mu_r, gain)
                state = evolve_thermal_pair(p, cutoff)
                got = moments(state)
                want = predicted_moments(p)
                for name in ("mean_t", "mean_r", "var_t", "var_r", "cross"):
                    denom = max(abs(getattr(want, name)), 1.0)
                    worst = max(worst, abs(getattr(got, name) - getattr(want, name)) / denom)
    weights_ok = True
    state = evolve_thermal_pair(ModeParams(0.0, 0.0, ASINH1), cutoff)
    joint = state.joint_distribution()
    for n in range(cutoff + 1):
        weights_ok &= abs(joint[n, n] - 0.5 ** (n + 1)) <= 1e-8
    report(
        "criterion-3 oracle vs analytic moments",
        worst < 1e-6 and weights_ok,
        f"max moment error={worst:.2e}, squeezed-vacuum weights to 1e-8: {weights_ok}",
    )


def test_criterion_4_subshot_noise_implies_entanglement():
    rng = np.random.default_rng(7)
    counterexamples = 0
    for _ in range(10_000):
        p = ModeParams.from_npdc(*rng.uniform(0.0, 10.0, 2), rng.uniform(0.0, 10.0))
        nrf = noise_reduction_factor(p)
        if nrf is not None and nrf < 1.0 and separability_margin(p) >= 0.0:
            counterexamples += 1
    worst_gap = 0.0
    for mu in np.linspace(0.0, 10.0, 101):
        on_margin = mu * mu / (1.0 + 2.0 * mu)
        worst_gap = max(worst_gap, abs(noise_reduction_threshold(mu, mu) - on_margin))
    report(
        "criterion-4 sub-shot-noise implies entanglement",
        counterexamples == 0 and worst_gap < 1e-12,
        f"counterexamples={counterexamples}, equal-seed threshold gap={worst_gap:.2e}",
    )


def test_criterion_5_correlation_index_asymptotics():
    from thermalpdc import correlation_index

    gain = 100.0
    mu = 1e6
    one_arm = 1.0 - correlation_index(ModeParams.from_npdc(mu, 0.0, gain))
    one_arm_ref = 1.0 / ((1.0 + gain) * gain * 2.0 * mu)
    err_one = abs(one_arm - one_arm_ref) / one_arm_ref
    equal = 1.0 - correlation_index(ModeParams.from_npdc(mu, mu, gain))
    equal_ref = 1.0 / (1.0 + 2.0 * gain) ** 2
    err_equal = abs(equal - equal_ref) / equal_ref
    report(
        "criterion-5 correlation-index asymptotics",
        err_one < 0.01 and err_equal < 0.01,
        f"one-arm err={err_one:.2e}, equal-seed err={err_equal:.2e}",
    )


def test_criterion_6_ghost_image_and_entanglement_independence():
    geometry = GhostGeometry(wavelength=0.7e-6, d1=0.1, d2=0.1, d3=0.6, f_r=0.15)
    spectral_support = 2.0 * math.pi / 40e-6
    qgrid = MomentumGrid(512, 8.0 * spectral_support / 512)
    x_t = np.linspace(-256e-6, 256e-6, 512)
    x_r = np.linspace(-768e-6, 768e-6, 512)
    obj = double_slit(x_t, 40e-6, 160e-6)

    entangled = ModeParams.from_npdc(0.0, 0.0, 1.0)
    separable = ModeParams.from_npdc(5.0, 5.0, 0.5)
    assert separability_margin(entangled) < 0.0
    assert separability_margin(separable) > 0.0

    target = np.abs(obj.amplitude(-x_r / 3.0)) ** 2
    images = {}
    worst_ncc = 1.0
    for label, params in (("entangled", entangled), ("separable", separable)):
        image = ghost_image(geometry, obj, ConstantProfile(params), qgrid, x_r, x_t)
        ncc = float(
            image.normalized @ target
            / math.sqrt((image.normalized @ image.normalized) * (target @ target))
        )
        worst_ncc = min(worst_ncc, ncc)
        images[label] = image.normalized
    shape_gap = float(np.abs(images["entangled"] - images["separable"]).max())
    report(
        "criterion-6 ghost image, quantum and classical",
        worst_ncc >= 0.95 and shape_gap <= 1e-12,
        f"min ncc={worst_ncc:.4f}, normalized shape gap={shape_gap:.2e}",
    )


def test_criterion_7_ghost_diffraction_and_bucketless_imaging():
    slit_width = 40e-6
    twin = ConstantProfile(ModeParams.from_npdc(0.0, 0.0, 1.0))

    fourier = GhostGeometry(wavelength=0.7e-6, d1=0.1, d2=0.1, d3=0.3, f_r=0.3, f_t=0.1)
    qgrid = MomentumGrid(512, 2.0 * math.pi / (32.0 * slit_width))
    x_obj = np.linspace(-640e-6, 640e-6, 1025)
    pattern = ghost_diffraction(fourier, single_slit(x_obj, slit_width), twin, qgrid)
    step = float(np.diff(pattern.x_r)[0])
    spacing = 0.7e-6 * 0.3 / slit_width  # 5.25 mm
    worst_zero = 0.0
    for order in (-2, -1, 1, 2):
        target = order * spacing
        window = np.nonzero(np.abs(pattern.x_r - target) <= 3.0 * step)[0]
        dip = window[np.argmin(pattern.normalized[window])]
        worst_zero = max(worst_zero, abs(pattern.x_r[dip] - target))

    imaging_a = GhostGeometry(wavelength=0.7e-6, d1=0.1, d2=0.1, d3=0.6, f_r=0.15)
    imaging_b = GhostGeometry(wavelength=0.7e-6, d1=0.1, d2=0.1, d3=0.6, f_r=0.15, f_t=0.2)
    qg = MomentumGrid(256, 2.0 * math.pi / (32.0 * slit_width))
    x_r, x_t = matched_image_grids(imaging_a, qg)
    obj = single_slit(x_t, slit_width)
    bucketed = ghost_image(imaging_a, obj, twin, qg, x_r, x_t)
    sliced = ghost_image(imaging_b, obj, twin, qg, x_r, x_t)
    lens_gap = float(np.abs(bucketed.normalized - sliced.normalized).max())

    report(
        "criterion-7 ghost diffraction",
        worst_zero <= step / 2.0 and lens_gap <= 1e-10,
        f"worst zero offset={worst_zero:.2e} m (half step={step / 2.0:.2e}), "
        f"bucketless vs bucketed gap={lens_gap:.2e}",
    )


def test_criterion_8_fourth_moment_factorization():
    pairs = [ModeParams.from_npdc(*point) for point in ((0.0, 0.0, 0.8), (0.3, 0.0, 0.25), (0.25, 0.15, 0.2))]
    checks = validate_factorization(pairs, cutoff=40)
    ok = all(c.passed for c in checks)
    worst = max(max(c.moment_error, c.cross_error) for c in checks)
    bound = min(c.tolerance for c in checks)
    report(
        "criterion-8 fourth-moment factorization",
        ok,
        f"worst error={worst:.2e} vs tightest bound={bound:.2e}",
    )
