"""Every public physics number is refused where it enters when it is wrong.

The walk covers thermalpdc.__all__: each public name either takes physics
values, listed in PHYSICS with a valid call and the parameters to spoil, or
is listed in NO_PHYSICS_VALUE with the reason it takes none.  A spoiled call
must raise a ValueError that names the parameter, or return a result whose
every number is finite; a TypeError, a RuntimeWarning or a silent NaN fails.
"""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import thermalpdc
from thermalpdc import (
    GainProfile,
    GhostGeometry,
    ModeParams,
    MomentumGrid,
    SampledObject,
    build_covariance,
    check_separability,
    check_separability_lossy,
    correlation_index,
    cross_covariance,
    double_slit,
    matched_image_grids,
    noise_reduction_factor,
    noise_reduction_threshold,
    predicted_moments,
    separability_margin,
)

IMAGING = GhostGeometry(wavelength=0.7e-6, d1=0.1, d2=0.1, d3=0.6, f_r=0.15)
QGRID = MomentumGrid(32, 2 * math.pi / 1.28e-3)
X_R, X_T = matched_image_grids(IMAGING, QGRID)
PAIR = ModeParams(0.1, 0.2, 0.1)


def ghost_call():
    """Keyword arguments of a small matched g2_map or ghost_image call."""
    return dict(geometry=IMAGING, obj=double_slit(X_T, 40e-6, 160e-6),
                profile=GainProfile(ModeParams.from_npdc(0.0, 0.0, 1.0)), qgrid=QGRID, x_r=X_R, x_t=X_T)


# public name -> (keyword arguments of a valid call, the physics parameters among them)
PHYSICS = {
    "ModeParams": (lambda: dict(mu_t=0.5, mu_r=1.0, coupling=0.3, phase=0.2), ("mu_t", "mu_r", "coupling", "phase")),
    "ModeParams.from_npdc": (lambda: dict(mu_t=0.5, mu_r=1.0, n_pdc=0.3, phase=0.2), ("mu_t", "mu_r", "n_pdc", "phase")),
    "CovarianceBlock": (lambda: dict(matrix=build_covariance(PAIR).matrix), ("matrix",)),
    "apply_loss": (lambda: dict(block=build_covariance(PAIR), tau=0.5), ("tau",)),
    "check_separability_lossy": (lambda: dict(p=PAIR, tau=0.5), ("tau",)),
    "noise_reduction_threshold": (lambda: dict(mu_t=0.5, mu_r=1.0), ("mu_t", "mu_r")),
    "sweep_columns": (
        lambda: dict(mu_t=np.array([0.5, 1.0]), mu_r=np.array([1.0, 0.2]), n_pdc=np.array([0.1, 0.3]),
                     tau=np.array([1.0, 0.5])),
        ("mu_t", "mu_r", "n_pdc", "tau"),
    ),
    "evolve_thermal_pair": (lambda: dict(p=PAIR, cutoff=12, max_trace_deficit=1e-3), ("cutoff", "max_trace_deficit")),
    "input_tail_problem": (
        lambda: dict(mu_t=0.1, mu_r=0.2, cutoff=12, max_trace_deficit=1e-3),
        ("mu_t", "mu_r", "cutoff", "max_trace_deficit"),
    ),
    "validate_factorization": (lambda: dict(params=[PAIR], cutoff=12), ("cutoff",)),
    "GhostGeometry": (
        lambda: dict(wavelength=0.7e-6, d1=0.1, d2=0.1, d3=0.6, f_r=0.15, f_t=0.2),
        ("wavelength", "d1", "d2", "d3", "f_r", "f_t"),
    ),
    "MomentumGrid": (lambda: dict(n_half=16, dq=1e4), ("n_half", "dq")),
    "GainProfile": (lambda: dict(params=ModeParams(0.5, 0.2, 0.9, 0.1), bandwidth=1e-10), ("params", "bandwidth")),
    # methods are called unbound, with self among the keyword arguments
    "GainProfile.mode_params": (lambda: dict(self=GainProfile(PAIR, 1e-10), q=1e4), ("q",)),
    "GainProfile.correlation_amplitudes": (lambda: dict(self=GainProfile(PAIR, 1e-10), q=QGRID.values), ("q",)),
    "g2_map": (ghost_call, ("x_r", "x_t")),
    "ghost_image": (ghost_call, ("x_r", "x_t")),
    "SampledObject": (lambda: dict(x=X_T, t=np.ones(X_T.size)), ("x", "t")),
    "single_slit": (lambda: dict(x=X_T, width=40e-6, center=1e-5), ("x", "width", "center")),
    "double_slit": (lambda: dict(x=X_T, width=40e-6, separation=160e-6, center=1e-5), ("x", "width", "separation", "center")),
    "grating": (lambda: dict(x=X_T, period=1e-4, duty=0.3, center=1e-5), ("x", "period", "duty", "center")),
}

# public name -> why it takes no physics value of its own
NO_PHYSICS_VALUE = {
    "GeometryError": "an exception class",
    "SeparabilityVerdict": "a result record",
    "MomentSet": "a result record",
    "FactorizationCheck": "a result record",
    "TwoModeFockState": "a result record, built by evolve_thermal_pair",
    "G2Map": "a result record, built by g2_map",
    "GhostImage": "a result record",
    "DiffractionPattern": "a result record",
    "build_covariance": "takes a ModeParams",
    "separability_margin": "takes a ModeParams",
    "check_separability": "takes a ModeParams",
    "cross_covariance": "takes a ModeParams",
    "correlation_index": "takes a ModeParams",
    "noise_reduction_factor": "takes a ModeParams",
    "predicted_moments": "takes a ModeParams",
    "moments": "takes a TwoModeFockState",
    "cross_amplitude": "takes a TwoModeFockState",
    "matched_image_grids": "takes a GhostGeometry and a MomentumGrid",
    "ghost_diffraction": "takes a GhostGeometry, a SampledObject, a GainProfile and a MomentumGrid",
    "load_object_csv": "takes a path; its rows build a SampledObject",
    **dict.fromkeys(("correlations", "fock", "gaussian", "ghost", "objects"), "a submodule, whose public names are these"),
}

# public methods that take physics values of their own
METHODS = ("ModeParams.from_npdc", "GainProfile.mode_params", "GainProfile.correlation_amplitudes")

CASES = [(name, param) for name in [*thermalpdc.__all__, *METHODS] if name in PHYSICS for param in PHYSICS[name][1]]

BAD = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, np.True_, None]),
    st.floats(-1e3, -1e-3),
    st.integers(-1000, -1),
    st.text(max_size=3),
)


def spoil(valid, bad):
    """The valid argument with bad in it.

    A number becomes bad.  An array takes a non-finite bad value in its
    middle entry, is scaled by a negative one, and is otherwise replaced by
    an array of bad values of its shape: of bool, string or object dtype.
    """
    if np.ndim(valid) == 0:
        return bad
    array = np.array(valid, dtype=float)
    if isinstance(bad, (int, float)) and not isinstance(bad, bool):
        if math.isfinite(bad):
            return array * bad
        array.flat[array.size // 2] = bad
        return array
    return np.full(array.shape, bad)


def numbers_in(result):
    """Every number a result holds, through records, sequences and mappings."""
    if dataclasses.is_dataclass(result):
        for field in dataclasses.fields(result):
            yield from numbers_in(getattr(result, field.name))
    elif isinstance(result, dict):
        for value in result.values():
            yield from numbers_in(value)
    elif isinstance(result, (list, tuple)):
        for value in result:
            yield from numbers_in(value)
    elif isinstance(result, (np.ndarray, np.number, float, complex)):
        yield np.asarray(result)


def public(name):
    target = thermalpdc
    for part in name.split("."):
        target = getattr(target, part)
    return target


def test_every_public_name_is_walked_or_takes_no_physics_value():
    assert set(PHYSICS) - set(METHODS) | set(NO_PHYSICS_VALUE) == set(thermalpdc.__all__)
    assert not set(PHYSICS) & set(NO_PHYSICS_VALUE)


@pytest.mark.parametrize("name, param", CASES, ids=[f"{name}-{param}" for name, param in CASES])
@settings(max_examples=25, deadline=None)
@given(bad=BAD)
@example(bad=math.nan)
@example(bad=math.inf)
@example(bad=-math.inf)
@example(bad=-1.0)
@example(bad=True)
@example(bad="1")
@example(bad=None)
def test_bad_physics_value_is_refused_or_gives_a_finite_result(name, param, bad):
    valid, _ = PHYSICS[name]
    kwargs = valid()
    kwargs[param] = spoil(kwargs[param], bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = public(name)(**kwargs)
        except ValueError as exc:
            assert re.search(rf"\b{re.escape(param)}\b", str(exc)), f"{name}({param}={bad!r}): {exc}"
            return
    for array in numbers_in(result):
        assert np.isfinite(array).all(), f"{name}({param}={bad!r}) returned a non-finite number"


@pytest.mark.parametrize(
    "t",
    [np.array(["1", "0", "1"]), np.array([True, False, True]), [True, False, True], np.array([1, None, 1])],
    ids=["string", "bool", "bool-list", "object"],
)
def test_sampled_object_never_casts_a_non_numeric_transmission(t):
    # each was read as t = [1, 0, 1], and a bool mask as its 0/1 support
    with pytest.raises(ValueError, match=r"^t must be integer, float or complex numbers"):
        SampledObject(np.linspace(-1.0, 1.0, 3), t)


HUGE = st.floats(1e150, 1e308)


@settings(max_examples=50, deadline=None)
@given(mu_t=st.one_of(st.just(0.0), HUGE), mu_r=st.one_of(st.just(0.0), HUGE))
@example(mu_t=1e200, mu_r=0.0)
def test_noise_reduction_threshold_refuses_an_overflow(mu_t, mu_r):
    try:
        threshold = noise_reduction_threshold(mu_t, mu_r)
    except ValueError as exc:
        assert re.search(r"\bmu_t\b.*\bmu_r\b", str(exc)), str(exc)
        return
    assert math.isfinite(threshold)


@pytest.mark.parametrize(
    "closed_form",
    [cross_covariance, correlation_index, noise_reduction_factor, separability_margin, build_covariance,
     predicted_moments],
    ids=lambda f: f.__name__,
)
@settings(max_examples=50, deadline=None)
@given(mu_t=st.one_of(st.just(0.0), HUGE), mu_r=st.one_of(st.just(0.0), HUGE), coupling=st.floats(0.0, 1000.0))
@example(mu_t=1e200, mu_r=1e200, coupling=0.5)
@example(mu_t=0.0, mu_r=0.0, coupling=800.0)
def test_correlation_closed_forms_refuse_an_overflow(closed_form, mu_t, mu_r, coupling):
    # float ** and math.sinh raised a bare OverflowError, and * returned inf
    try:
        value = closed_form(ModeParams(mu_t, mu_r, coupling))
    except ValueError as exc:
        assert re.search(r"\bmu_t\b.*\bmu_r\b.*\bcoupling\b", str(exc)), str(exc)
        return
    assert value is None or all(np.isfinite(array).all() for array in numbers_in(value))


SEED = st.one_of(st.just(0.0), HUGE, st.floats(0.0, 1e20))


@pytest.mark.parametrize("lossy", [False, True], ids=["check_separability", "check_separability_lossy"])
@settings(max_examples=100, deadline=None)
@given(mu_t=SEED, mu_r=SEED, coupling=st.floats(0.0, 1000.0), tau=st.floats(0.0, 1.0, exclude_min=True))
@example(mu_t=1e200, mu_r=1e200, coupling=0.5, tau=1.0)
@example(mu_t=0.0, mu_r=0.0, coupling=800.0, tau=1.0)
@example(mu_t=1e154, mu_r=0.0, coupling=0.5, tau=0.7)
@example(mu_t=0.0, mu_r=0.0, coupling=354.0, tau=0.7)
@example(mu_t=1e300, mu_r=0.0, coupling=0.5, tau=0.7)
@example(mu_t=1e18, mu_r=0.0, coupling=0.5, tau=0.7)
def test_separability_verdict_refuses_an_overflow(lossy, mu_t, mu_r, coupling, tau):
    # the margin read inf (separable=True), or the Cholesky spectrum cancelled: nu_- 3.07e137 for the
    # entangled (1e154, 0, 0.5), 1.0e291 at coupling 354, "not positive definite" at (1e300, 0, 0.5)
    p = ModeParams(mu_t, mu_r, coupling)
    try:
        verdict = check_separability_lossy(p, tau) if lossy else check_separability(p)
    except ValueError as exc:
        assert re.search(r"\bmu_t\b.*\bmu_r\b.*\bcoupling\b", str(exc)), str(exc)
        return
    nu_minus, margin = verdict.min_pt_symplectic_eigenvalue, verdict.margin
    assert math.isfinite(nu_minus) and math.isfinite(margin)
    scale = (tau if lossy else 1.0) ** 2 * (mu_t * mu_r + p.n_pdc * (1.0 + mu_t + mu_r))
    # nu_- resolves its distance from 1/2 only to a few ulps: at tau 5e-63, 0.5 - 2.6e-63 reads 0.5
    if abs(margin) > 1e-9 * scale and abs(nu_minus - 0.5) > 1e-15:
        assert (nu_minus >= 0.5) == (margin >= 0.0), verdict


@settings(max_examples=50, deadline=None)
@given(mu_t=st.one_of(st.just(0.0), HUGE), mu_r=st.one_of(st.just(0.0), HUGE), coupling=st.floats(0.0, 1000.0),
       bandwidth=st.sampled_from([0.0, 1e-10]))
@example(mu_t=0.0, mu_r=0.0, coupling=800.0, bandwidth=0.0)
@example(mu_t=1e10, mu_r=0.0, coupling=355.0, bandwidth=1e-10)
def test_gain_profile_refuses_an_overflowing_peak(mu_t, mu_r, coupling, bandwidth):
    try:
        profile = GainProfile(ModeParams(mu_t, mu_r, coupling), bandwidth)
    except ValueError as exc:
        assert re.search(r"\bcoupling\b.*\bmu_t\b.*\bmu_r\b", str(exc)), str(exc)
        return
    assert np.isfinite(profile.correlation_amplitudes(QGRID.values)).all()
