"""Command-line front end: JSON scenario in, CSV/PGM artifacts out.

A scenario is one JSON document selecting an experiment kind and its
parameters; running it writes deterministic artifacts plus a manifest with
a SHA-256 digest of every file.  Configs are SI (meters); seed means, gains
and transmissions are dimensionless.  Sweeps are evaluated as arrays in one
process.  CSV artifacts end their lines in CRLF.

Fields (keys not listed are rejected at every level; one without "=
default" is required).  number: a finite JSON number, not a bool or a
string; integer: an integral number within +-2**53; grid: a non-empty list
of numbers, or {start, stop, count: integer >= 1, log: bool = false},
count values from start to stop spaced evenly or (log, bounds > 0)
geometrically.

  kind: one of the five below;  output_dir = "out": string, overridden by
  --out, then THERMALPDC_OUT
  separability-sweep, nrf-sweep (all grid combinations, tau innermost)
    grids.mu_t, grids.mu_r, grids.n_pdc: grids of values >= 0
    grids.tau = [1.0]: grid of values in (0, 1]
  oracle-validate (exact Fock evolution against the closed-form moments)
    params.mu_t, params.mu_r, params.n_pdc: numbers >= 0
    cutoff: integer >= 1 with room for the seeds' input tails
    max_relative_error = 1e-6: number > 0
  ghost-image, ghost-diffraction
    geometry.wavelength, .d1, .d2, .d3, .f_r: numbers > 0; f_r != d3 is
      the imaging branch (ghost-image), f_r = d3 the Fourier branch
      (ghost-diffraction); a near-focal f_r is refused
    geometry.f_t: number > 0, the focal length of a Test-arm collection
      lens (Fourier-lens collection); required by ghost-diffraction, and
      optional for ghost-image, which without it collects on the object
      plane
    profile.type = "constant", with n_pdc or coupling: one number >= 0;
      or "sinc", with kappa0: number >= 0 and bandwidth: number.  Either
      is a ghost.GainProfile of coupling kappa0 |sinc(bandwidth q^2)|; a
      constant profile has bandwidth 0 and kappa0 = coupling =
      asinh(sqrt(n_pdc))
    profile.mu_t = 0, profile.mu_r = 0: numbers >= 0
    object.type: "single-slit" (width: number > 0), "double-slit" (width,
      separation: number >= width), "grating" (period: number > 0, duty =
      0.5: number in (0, 1)), each with center = 0: number; or "csv" (path:
      string, a file of x, re t, im t rows)
    qgrid.n_half: integer >= 1 (2 n_half + 1 momenta); qgrid.dq: number > 0;
      the largest momentum n_half dq must square to a finite number
    detector.x_t_count = 512: integer >= 2; detector.x_t_span = 2 pi / dq:
      number > 0 whose square is finite; the Test grid, which also samples
      slits and gratings
    detector.x_r_count = 512: integer >= 1; detector.x_r_span =
      magnification times the x_t span: number > 0 (ghost-image only); a
      single Reference pixel sits at x_r = 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import correlations
from .artifacts import write_bytes, write_csv, write_pgm
from .fock import evolve_thermal_pair, input_tail_problem, moments, predicted_moments
# check_separability_lossy is unused here; perfbench's tracer tests look it up in this namespace.
from .gaussian import ModeParams, _real, check_separability_lossy  # noqa: F401
from .ghost import GainProfile, GhostGeometry, MomentumGrid
from .ghost import ghost_diffraction, ghost_image
from .objects import SampledObject, double_slit, grating, load_object_csv, single_slit

KINDS = ("separability-sweep", "nrf-sweep", "oracle-validate", "ghost-image", "ghost-diffraction")

OUTPUT_DIR_ENV = "THERMALPDC_OUT"

# Largest |trace deficit| an oracle-validate run accepts.
ORACLE_MAX_TRACE_DEFICIT = 1e-3

SEPARABILITY_COLUMNS = ("mu_t", "mu_r", "n_pdc", "tau", "margin", "min_pt_symplectic_eigenvalue", "separable")
NRF_COLUMNS = ("mu_t", "mu_r", "n_pdc", "tau", "gamma", "nrf", "margin", "separable")
SWEEP_OUTPUTS = {"separability-sweep": ("separability.csv", SEPARABILITY_COLUMNS),
                 "nrf-sweep": ("correlations.csv", NRF_COLUMNS)}

PROFILE_GAINS = {"constant": ("n_pdc", "coupling"), "sinc": ("kappa0", "bandwidth")}

_REQUIRED = object()


class ScenarioError(ValueError):
    """Configuration problem; the message names the offending field."""


@dataclass(frozen=True)
class GridRange:
    """count sweep values from start to stop, spaced evenly or (log) geometrically."""

    start: float
    stop: float
    count: int
    log: bool

    def values(self) -> np.ndarray:
        return (np.geomspace if self.log else np.linspace)(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepScenario:
    """A separability or NRF sweep; axes mu_t, mu_r, n_pdc, tau are each values or a GridRange."""

    kind: str
    axes: tuple

    def _write(self, out: Path):
        axes = [axis.values() if isinstance(axis, GridRange) else axis for axis in self.axes]
        try:
            columns = correlations.sweep_columns(*np.meshgrid(*axes, indexing="ij"))
        except FloatingPointError as exc:
            raise ScenarioError(f"field grids: values too large, the sweep overflows ({exc})") from exc
        name, schema = SWEEP_OUTPUTS[self.kind]
        return {out / name: write_csv(out / name, {column: columns[column] for column in schema})}, True


@dataclass(frozen=True)
class OracleScenario:
    """Fock-oracle check of one mode pair at a cutoff, against a relative-error threshold."""

    params: ModeParams
    cutoff: int
    threshold: float

    def _write(self, out: Path):
        p = self.params
        try:
            state = evolve_thermal_pair(p, self.cutoff, max_trace_deficit=ORACLE_MAX_TRACE_DEFICIT)
        except ValueError as exc:
            raise ScenarioError(f"oracle-validate: {exc}") from exc
        got = moments(state)
        want = predicted_moments(p)
        rel = {
            name: abs(getattr(got, name) - getattr(want, name)) / max(abs(getattr(want, name)), 1.0)
            for name in ("mean_t", "mean_r", "var_t", "var_r", "cross")
        }
        passed = max(rel.values()) < self.threshold
        report = {"params": {"mu_t": p.mu_t, "mu_r": p.mu_r, "n_pdc": p.n_pdc}, "cutoff": self.cutoff,
                  "trace_deficit": state.trace_deficit, "relative_errors": rel,
                  "max_relative_error": max(rel.values()), "threshold": self.threshold, "passed": passed}
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        return {out / "oracle_report.json": write_bytes(out / "oracle_report.json", [text.encode()])}, passed


@dataclass(frozen=True, eq=False)
class GhostScenario:
    """A ghost image on the (x_r, x_t) grids; with x_r None, the diffraction pattern."""

    geometry: GhostGeometry
    profile: GainProfile
    qgrid: MomentumGrid
    obj: SampledObject
    x_t: np.ndarray
    x_r: np.ndarray | None

    def _write(self, out: Path):
        try:
            if self.x_r is None:
                result = ghost_diffraction(self.geometry, self.obj, self.profile, self.qgrid)
            else:
                result = ghost_image(self.geometry, self.obj, self.profile, self.qgrid, self.x_r, self.x_t)
        except FloatingPointError as exc:
            # the map scales as C(0)^2 at its peak: where that square is finite, the object's transform overflowed
            peak = float(self.profile.correlation_amplitudes(np.zeros(1))[0])
            blamed = "profile" if math.isinf(peak * peak) else "object"
            raise ScenarioError(f"field {blamed}: the ghost correlation overflows ({exc})") from exc
        table = out / ("pattern.csv" if self.x_r is None else "image.csv")
        written = {table: write_csv(table, {"x_r": result.x_r, "value_raw": result.raw, "value_normalized": result.normalized})}
        if self.x_r is not None:
            written[out / "g2_map.pgm"] = write_pgm(out / "g2_map.pgm", result.g2)
        return written, True


def _check(test, expected: str, convert=lambda value: value):
    """A field parser: convert(value) when test(value) holds, else a ValueError."""
    def parse(value):
        if not test(value):
            raise ValueError(f"expected {expected}, got {value!r}")
        return convert(value)
    return parse


# abs() <= max also fails NaN and ints too large for a float; 2**53 bounds the integers JSON carries exactly
_number = _check(lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max,
                 "a finite number", float)
_positive = _check(lambda v: _number(v) > 0, "a number > 0", float)
_integer = _check(lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= 2**53 and v == int(v),
                  "an integer within +-2**53", int)
_string = _check(lambda v: isinstance(v, str), "a string")


def _count(low: int):
    return _check(lambda v: _integer(v) >= low, f"an integer >= {low}", int)


def _choice(*options: str):
    return _check(lambda v: isinstance(v, str) and v in options, f"one of {', '.join(options)}")


def _grid(ok, rule: str):
    """A sweep axis parser; a range is checked by its bounds, which every value lies between."""
    def parse(spec):
        if isinstance(spec, dict):
            if not {"start", "stop", "count"} <= set(spec) <= {"start", "stop", "count", "log"}:
                raise ValueError(f"a range takes start, stop, count and log, got {sorted(spec)}")
            log = _check(lambda v: isinstance(v, bool), "a bool for log")(spec.get("log", False))
            axis = GridRange(_number(spec["start"]), _number(spec["stop"]), _count(1)(spec["count"]), log)
            bounds = (axis.start, axis.stop)
            if log and not min(bounds) > 0:
                raise ValueError("a log range needs start and stop > 0")
        elif isinstance(spec, list) and spec:
            axis = bounds = tuple(_number(v) for v in spec)
        else:
            raise ValueError(f"expected a non-empty list or a {{start, stop, count [, log]}} range, got {spec!r}")
        bad = [v for v in bounds if not ok(v)]
        if bad:
            raise ValueError(f"values must be {rule}, got {bad[0]!r}")
        return axis
    return parse


class _Fields:
    """One JSON object of a config.  Each read records its key, so close()
    rejects the keys nothing read; a missing or bad field reads as None."""

    def __init__(self, obj: dict, path: str, errors: list):
        self.obj, self.path, self.errors, self.read, self.sections = obj, path, errors, set(), []

    def get(self, key: str, parse, default=_REQUIRED):
        self.read.add(key)
        if key not in self.obj:
            if default is _REQUIRED:
                self.errors.append(f"missing field: {self.path}{key}")
            return None if default is _REQUIRED else default
        try:
            return parse(self.obj[key])
        except ValueError as exc:
            self.errors.append(f"field {self.path}{key}: {exc}")
            return None

    def section(self, key: str, default=_REQUIRED) -> "_Fields":
        obj = self.get(key, _check(lambda v: isinstance(v, dict), "an object"), default)
        # a missing or bad section reads as empty; its one problem is already reported
        self.sections.append(_Fields(obj or {}, f"{self.path}{key}.", self.errors if obj is not None else []))
        return self.sections[-1]

    def close(self) -> None:
        """Report each key nothing read, here and in every section read."""
        for key in sorted(self.obj.keys() - self.read):
            name = key.encode("unicode_escape").decode()
            self.errors.append(f"field {self.path}{name}: unknown field; expected one of {', '.join(sorted(self.read))}")
        for section in self.sections:
            section.close()


def _make(errors: list, path: str, build, *args):
    """build(*args), or None with its ValueError or OSError recorded against path."""
    try:
        return build(*args)
    except (ValueError, OSError) as exc:
        errors.append(f"field {path}: {exc}")
        return None


def parse_config(cfg) -> tuple:
    """(SweepScenario, OracleScenario or GhostScenario, []), or (None, problems).

    A problem is one line, "missing field: <path>" or "field <path>: ...".  The
    library objects are built here, so their own checks report as problems;
    sweep ranges are checked by their bounds and not expanded.
    """
    if not isinstance(cfg, dict):
        return None, [f"field config: expected an object, got {cfg!r}"]
    errors: list[str] = []
    top = _Fields(cfg, "", errors)
    kind = top.get("kind", _choice(*KINDS))
    top.get("output_dir", _string, None)
    if kind is None:  # no key of an unknown kind is known to be wrong
        top.read.update(cfg)
    if kind in ("separability-sweep", "nrf-sweep"):
        grids = top.section("grids")
        axes = [grids.get(name, _grid(lambda v: v >= 0, ">= 0")) for name in ("mu_t", "mu_r", "n_pdc")]
        axes.append(grids.get("tau", _grid(lambda v: 0 < v <= 1, "in (0, 1]"), (1.0,)))
        scenario = SweepScenario(kind, tuple(axes))
    elif kind == "oracle-validate":
        fields = top.section("params")
        seeds_gain = [fields.get(name, _number) for name in ("mu_t", "mu_r", "n_pdc")]
        cutoff = top.get("cutoff", _count(1))
        threshold = top.get("max_relative_error", _positive, 1e-6)
        params = None if errors else _make(errors, "params", ModeParams.from_npdc, *seeds_gain)
        problem = params and input_tail_problem(params.mu_t, params.mu_r, cutoff, ORACLE_MAX_TRACE_DEFICIT)
        if problem:
            errors.append(f"field cutoff: {problem}")
        scenario = OracleScenario(params, cutoff, threshold)
    elif kind is not None:
        scenario = _parse_ghost(top, kind, errors)
    top.close()
    return (None, errors) if errors else (scenario, errors)


def _parse_ghost(top: _Fields, kind: str, errors: list):
    geo = top.section("geometry")
    lengths = [geo.get(name, _number) for name in ("wavelength", "d1", "d2", "d3", "f_r")]
    f_t = geo.get("f_t", _number, None if kind == "ghost-image" else _REQUIRED)
    prof = top.section("profile")
    ptype = prof.get("type", _choice(*PROFILE_GAINS), "constant")
    seeds = [prof.get(name, _number, 0.0) for name in ("mu_t", "mu_r")]
    gain = {name: prof.get(name, _number, None if ptype == "constant" else _REQUIRED) for name in PROFILE_GAINS.get(ptype, ())}
    if ptype == "constant" and ("n_pdc" in prof.obj) == ("coupling" in prof.obj):
        prof.errors.append("field profile: a constant profile takes one of n_pdc and coupling")
    grid = top.section("qgrid")
    n_half, dq = grid.get("n_half", _integer), grid.get("dq", _number)
    det = top.section("detector", {})
    x_t_count, x_t_span = det.get("x_t_count", _count(2), 512), det.get("x_t_span", _positive, None)
    if kind == "ghost-image":
        x_r_count, x_r_span = det.get("x_r_count", _count(1), 512), det.get("x_r_span", _positive, None)
    obj = top.section("object")
    # each builder's fields after the sampling grid, with their defaults, then center
    shapes = {"single-slit": (single_slit, {"width": _REQUIRED}),
              "double-slit": (double_slit, {"width": _REQUIRED, "separation": _REQUIRED}),
              "grating": (grating, {"period": _REQUIRED, "duty": 0.5})}
    otype = obj.get("type", _choice(*shapes, "csv"))
    if otype == "csv":
        csv_path = obj.get("path", _string)
    elif otype is not None:
        make, shape = shapes[otype]
        shape_args = [obj.get(name, _number, default) for name, default in shape.items()]
        shape_args.append(obj.get("center", _number, 0.0))
    for fields, typed in ((prof, ptype), (obj, otype)):
        if typed is None:  # no key of an unknown type is known to be wrong
            fields.read.update(fields.obj)
    if errors:
        return None

    geometry = _make(errors, "geometry", GhostGeometry, *lengths, f_t)
    branch = geometry and _make(errors, "geometry.f_r", lambda: geometry.branch)
    if branch and branch != ("imaging" if kind == "ghost-image" else "fourier"):
        errors.append(f"field geometry.f_r: the {branch} branch (f_r {'!=' if branch == 'imaging' else '='} d3) is not for {kind}")
    profile = _make(errors, "profile", lambda: _gain_profile(seeds, **gain))
    qgrid = _make(errors, "qgrid", MomentumGrid, n_half, dq)
    if errors:
        return None
    # default: one transform period of the momentum grid
    half = x_t_span / 2.0 if x_t_span is not None else math.pi / qgrid.dq
    if not math.isfinite(4.0 * half * half):  # a sampled object's transform reaches the span; a pattern squares it
        errors.append(f"field {'qgrid.dq' if x_t_span is None else 'detector.x_t_span'}: "
                      f"the Test grid span {2.0 * half!r} must square to a finite number")
        return None
    x_t = np.linspace(-half, half, x_t_count)
    if otype == "csv":
        sampled = _make(errors, "object.path", load_object_csv, csv_path)
    else:
        sampled = _make(errors, "object", make, x_t, *shape_args)
    x_r = None
    if kind == "ghost-image":
        default_span = 2.0 * geometry.magnification * (x_t[-1] - x_t[0]) / 2.0
        span = x_r_span if x_r_span is not None else default_span
        x_r = np.linspace(-span / 2.0, span / 2.0, x_r_count) if x_r_count > 1 else np.zeros(1)
    return GhostScenario(geometry, profile, qgrid, sampled, x_t, x_r)


def _gain_profile(seeds, n_pdc=None, coupling=None, kappa0=None, bandwidth=0.0) -> GainProfile:
    """A config's profile: a constant one is the sinc of bandwidth 0 at its n_pdc or coupling."""
    if kappa0 is not None:  # named here, where ModeParams would name it coupling
        coupling = _real("kappa0", kappa0, lambda v: v >= 0, ">= 0")
    return GainProfile(ModeParams(*seeds, coupling) if n_pdc is None else ModeParams.from_npdc(*seeds, n_pdc), bandwidth)


def validate_config(cfg: dict) -> list[str]:
    """Return a list of problems; empty means the scenario can run.

    The package reads parse_config(cfg)[1] itself; this alias stays only
    while perfbench/tests calls it.
    """
    return parse_config(cfg)[1]


def run(cfg: dict, out_dir=None, workers: int = 1) -> dict:
    """Execute a scenario config; returns the manifest dictionary.

    Identical configs byte-reproduce their CSV artifacts.  Raises
    ScenarioError on validation problems, on a sweep grid or ghost
    correlation that overflows and on an oracle state whose trace deficit is
    out of bounds; a failed oracle-validate check marks the manifest failed
    instead.  workers is accepted and ignored: sweeps are vectorized in one
    process.
    """
    scenario, problems = parse_config(cfg)
    if problems:
        raise ScenarioError("; ".join(problems))
    return _execute(scenario, cfg, out_dir)


def _execute(scenario, cfg: dict, out_dir) -> dict:
    """Write a parsed scenario's artifacts and manifest; cfg gives its digest, kind, output_dir."""
    out = Path(out_dir or os.environ.get(OUTPUT_DIR_ENV) or cfg.get("output_dir", "out"))
    out.mkdir(parents=True, exist_ok=True)
    written, passed = scenario._write(out)
    manifest = {
        "kind": cfg["kind"],
        "passed": passed,
        "config_sha256": hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest(),
        "files": [{"path": p.name, "sha256": digest, "bytes": p.stat().st_size} for p, digest in written.items()],
    }
    with open(out / "manifest.json", "w") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="thermalpdc", description="Run or validate a thermal-seeded downconversion scenario")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a scenario config")
    run_p.add_argument("config", help="path to the scenario JSON document")
    run_p.add_argument("--out", default=None, help="output directory (overrides config and env)")
    val_p = sub.add_parser("validate", help="schema-check a scenario config")
    val_p.add_argument("config", help="path to the scenario JSON document")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        scenario, problems = parse_config(cfg)
        for problem in problems:
            print(f"invalid: {problem}", file=sys.stderr)
        if problems:
            return 1
        if args.command == "validate":
            print("ok")
            return 0
        manifest = _execute(scenario, cfg, args.out)
    except (ValueError, OSError, MemoryError) as exc:
        # ScenarioError, a library check at run time, the output directory, a grid too large to allocate
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    for entry in manifest["files"]:
        print(f"wrote {entry['path']}  sha256={entry['sha256'][:12]}...")
    if not manifest["passed"]:
        print("scenario check failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
