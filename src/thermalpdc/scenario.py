"""Command-line front end: JSON scenario in, CSV/PGM artifacts out.

A scenario is a single JSON document selecting one experiment kind and its
parameters; running it writes deterministic artifacts plus a manifest with
a SHA-256 digest of every file.  All physical quantities in configs are SI
(meters); seed means, gains and transmissions are dimensionless.

Kinds and their required fields:

  separability-sweep   grids {mu_t, mu_r, n_pdc [, tau]}
  nrf-sweep            grids {mu_t, mu_r, n_pdc [, tau]}
  oracle-validate      params {mu_t, mu_r, n_pdc}, cutoff [, max_relative_error]
  ghost-image          geometry, profile, object, qgrid [, detector]
  ghost-diffraction    geometry, profile, object, qgrid

Common optional fields: output_dir (default "out"), seed (for sampled
diagnostics in future kinds; recorded in the manifest).

Sweeps are evaluated as arrays over the whole grid in one process, so the
--workers option and run(workers=) are accepted but ignored.  CSV artifacts
end their lines in CRLF.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import correlations
from .artifacts import sha256_of, write_csv, write_pgm
from .fock import DisentangledCoefficients, evolve_thermal_pair, input_tail_problem, moments, predicted_moments
# check_separability_lossy is unused here; perfbench's tracer tests look it up in this namespace.
from .gaussian import ModeParams, check_separability_lossy  # noqa: F401
from .ghost import (
    CollectionOptics,
    ConstantProfile,
    GhostGeometry,
    MomentumGrid,
    SincProfile,
    g2_map,
    ghost_diffraction,
    ghost_image,
)
from .objects import double_slit, grating, load_object_csv, single_slit

KINDS = (
    "separability-sweep",
    "nrf-sweep",
    "oracle-validate",
    "ghost-image",
    "ghost-diffraction",
)

OUTPUT_DIR_ENV = "THERMALPDC_OUT"

# Largest |trace deficit| an oracle-validate run accepts.
ORACLE_MAX_TRACE_DEFICIT = 1e-3

SEPARABILITY_COLUMNS = ("mu_t", "mu_r", "n_pdc", "tau", "margin", "min_pt_symplectic_eigenvalue", "separable")


class ScenarioError(ValueError):
    """Configuration problem; the message names the offending field."""


def _require(cfg: dict, field: str, types, errors: list):
    if field not in cfg:
        errors.append(f"missing field: {field}")
        return None
    value = cfg[field]
    if not isinstance(value, types):
        errors.append(f"field {field}: expected {types}, got {type(value).__name__}")
        return None
    return value


def _finite_number(value) -> bool:
    """A JSON number, not a bool, that converts to a finite float (NaN fails the comparison)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _grid_values(spec, field, errors):
    """A grid is either an explicit list or {start, stop, count [, log]}."""
    if isinstance(spec, list):
        if not spec:
            errors.append(f"field {field}: grid must not be empty")
            return []
        bad = [v for v in spec if not _finite_number(v)]
        if bad:
            errors.append(f"field {field}: grid values must be finite numbers, got {bad[0]!r}")
            return []
        return [float(v) for v in spec]
    if isinstance(spec, dict):
        if not all(_finite_number(spec.get(key)) for key in ("start", "stop", "count")):
            errors.append(f"field {field}: grid dict needs finite numeric start/stop/count")
            return []
        start, stop, count = float(spec["start"]), float(spec["stop"]), int(spec["count"])
        if count < 1:
            errors.append(f"field {field}: count must be >= 1")
            return []
        if spec.get("log", False):
            if start <= 0 or stop <= 0:
                errors.append(f"field {field}: log grid needs positive bounds")
                return []
            return [float(v) for v in np.geomspace(start, stop, count)]
        return [float(v) for v in np.linspace(start, stop, count)]
    errors.append(f"field {field}: expected list or start/stop/count dict")
    return []


def validate_config(cfg: dict) -> list[str]:
    """Return a list of problems; empty means the scenario can run."""
    errors: list[str] = []
    kind = _require(cfg, "kind", str, errors)
    if kind is not None and kind not in KINDS:
        errors.append(f"field kind: unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
        return errors
    if kind in ("separability-sweep", "nrf-sweep"):
        grids = _require(cfg, "grids", dict, errors)
        if grids is not None:
            for field in ("mu_t", "mu_r", "n_pdc"):
                if field not in grids:
                    errors.append(f"missing field: grids.{field}")
                else:
                    vals = _grid_values(grids[field], f"grids.{field}", errors)
                    if any(v < 0 for v in vals):
                        errors.append(f"field grids.{field}: values must be >= 0")
            if "tau" in grids:
                for tau in _grid_values(grids["tau"], "grids.tau", errors):
                    if not 0 < tau <= 1:
                        errors.append("field grids.tau: values must be in (0, 1]")
    elif kind == "oracle-validate":
        params = _require(cfg, "params", dict, errors)
        if params is not None:
            for field in ("mu_t", "mu_r", "n_pdc"):
                if field not in params:
                    errors.append(f"missing field: params.{field}")
                elif not _finite_number(params[field]) or params[field] < 0:
                    errors.append(f"field params.{field}: expected number >= 0")
        cutoff = _require(cfg, "cutoff", int, errors)
        if isinstance(cutoff, bool) or (cutoff is not None and cutoff < 1):
            errors.append("field cutoff: expected integer >= 1")
        elif not errors:  # params and cutoff are well-formed: check the seeds fit under it
            problem = input_tail_problem(params["mu_t"], params["mu_r"], cutoff, ORACLE_MAX_TRACE_DEFICIT)
            if problem:
                errors.append(f"field cutoff: {problem}")
    elif kind in ("ghost-image", "ghost-diffraction"):
        _validate_geometry(cfg, kind, errors)
        _validate_profile(cfg, errors)
        _validate_object(cfg, errors)
        _validate_qgrid(cfg, errors)
    if "output_dir" in cfg and not isinstance(cfg["output_dir"], str):
        errors.append("field output_dir: expected string")
    if "seed" in cfg and not isinstance(cfg["seed"], int):
        errors.append("field seed: expected integer")
    return errors


def _validate_geometry(cfg, kind, errors):
    geo = _require(cfg, "geometry", dict, errors)
    if geo is None:
        return
    for field in ("wavelength", "d1", "d2", "d3", "f_r"):
        if field not in geo:
            errors.append(f"missing field: geometry.{field}")
        elif not _finite_number(geo[field]) or geo[field] <= 0:
            errors.append(f"field geometry.{field}: expected number > 0")
    variant = geo.get("variant", "object-plane")
    if variant not in ("object-plane", "fourier-lens"):
        errors.append("field geometry.variant: expected 'object-plane' or 'fourier-lens'")
    if variant == "fourier-lens" and "f_t" not in geo:
        errors.append("missing field: geometry.f_t (required by the fourier-lens variant)")
    if kind == "ghost-diffraction" and variant != "fourier-lens":
        errors.append("field geometry.variant: ghost-diffraction requires 'fourier-lens'")


def _validate_profile(cfg, errors):
    prof = _require(cfg, "profile", dict, errors)
    if prof is None:
        return
    ptype = prof.get("type", "constant")
    if ptype == "constant":
        if "n_pdc" not in prof and "coupling" not in prof:
            errors.append("field profile: constant profile needs n_pdc or coupling")
    elif ptype == "sinc":
        for field in ("kappa0", "bandwidth"):
            if field not in prof:
                errors.append(f"missing field: profile.{field}")
    else:
        errors.append(f"field profile.type: unknown type {ptype!r}")
    for field in ("mu_t", "mu_r"):
        if field in prof and (not _finite_number(prof[field]) or prof[field] < 0):
            errors.append(f"field profile.{field}: expected number >= 0")


def _validate_object(cfg, errors):
    obj = _require(cfg, "object", dict, errors)
    if obj is None:
        return
    otype = obj.get("type")
    if otype == "single-slit":
        if "width" not in obj:
            errors.append("missing field: object.width")
    elif otype == "double-slit":
        for field in ("width", "separation"):
            if field not in obj:
                errors.append(f"missing field: object.{field}")
    elif otype == "grating":
        if "period" not in obj:
            errors.append("missing field: object.period")
    elif otype == "csv":
        path = obj.get("path")
        if not isinstance(path, str):
            errors.append("field object.path: expected string")
        elif not Path(path).exists():
            errors.append(f"field object.path: file not found: {path}")
    else:
        errors.append("field object.type: expected single-slit, double-slit, grating or csv")


def _validate_qgrid(cfg, errors):
    grid = _require(cfg, "qgrid", dict, errors)
    if grid is None:
        return
    n_half = grid.get("n_half")
    dq = grid.get("dq")
    if not isinstance(n_half, int) or n_half < 1:
        errors.append("field qgrid.n_half: expected integer >= 1")
    if not _finite_number(dq) or dq <= 0:
        errors.append("field qgrid.dq: expected number > 0")


def _build_geometry(geo: dict) -> GhostGeometry:
    return GhostGeometry(
        wavelength=float(geo["wavelength"]),
        d1=float(geo["d1"]),
        d2=float(geo["d2"]),
        d3=float(geo["d3"]),
        f_r=float(geo["f_r"]),
        f_t=float(geo["f_t"]) if "f_t" in geo else None,
        variant=CollectionOptics(geo.get("variant", "object-plane")),
    )


def _build_profile(prof: dict):
    mu_t = float(prof.get("mu_t", 0.0))
    mu_r = float(prof.get("mu_r", 0.0))
    if prof.get("type", "constant") == "constant":
        if "n_pdc" in prof:
            params = ModeParams.from_npdc(mu_t, mu_r, float(prof["n_pdc"]))
        else:
            params = ModeParams(mu_t, mu_r, float(prof["coupling"]))
        return ConstantProfile(params)
    return SincProfile(float(prof["kappa0"]), float(prof["bandwidth"]), mu_t, mu_r)


def _build_object(obj: dict, x: np.ndarray):
    otype = obj["type"]
    center = float(obj.get("center", 0.0))
    if otype == "single-slit":
        return single_slit(x, float(obj["width"]), center)
    if otype == "double-slit":
        return double_slit(x, float(obj["width"]), float(obj["separation"]), center)
    if otype == "grating":
        return grating(x, float(obj["period"]), float(obj.get("duty", 0.5)), center)
    return load_object_csv(obj["path"])


def _object_grid(cfg: dict, qgrid: MomentumGrid) -> np.ndarray:
    det = cfg.get("detector", {})
    count = int(det.get("x_t_count", 512))
    if "x_t_span" in det:
        half = float(det["x_t_span"]) / 2.0
    else:
        # default: one transform period of the momentum grid
        half = math.pi / qgrid.dq
    return np.linspace(-half, half, count)


def _write_reconstruction(path, result) -> None:
    write_csv(path, {"x_r": result.x_r, "value_raw": result.raw, "value_normalized": result.normalized})


def run(cfg: dict, out_dir=None, workers: int = 1) -> dict:
    """Execute a validated scenario; returns the manifest dictionary.

    Identical configs byte-reproduce their CSV artifacts.  Raises
    ScenarioError on validation problems, on a sweep grid that overflows and
    on an oracle state whose trace deficit is out of bounds; an embedded
    acceptance check that fails (oracle-validate) marks the manifest failed
    instead of raising.
    workers is accepted and ignored: sweeps are vectorized in one process.
    """
    problems = validate_config(cfg)
    if problems:
        raise ScenarioError("; ".join(problems))
    out = Path(out_dir or os.environ.get(OUTPUT_DIR_ENV) or cfg.get("output_dir", "out"))
    out.mkdir(parents=True, exist_ok=True)
    kind = cfg["kind"]
    written: list[Path] = []
    passed = True

    if kind in ("separability-sweep", "nrf-sweep"):
        grids = cfg["grids"]
        axes = [_grid_values(grids.get(f, [1.0]), f"grids.{f}", []) for f in ("mu_t", "mu_r", "n_pdc", "tau")]
        try:
            columns = correlations.sweep_columns(*np.meshgrid(*axes, indexing="ij"))
        except FloatingPointError as exc:
            raise ScenarioError(f"field grids: values too large, the sweep overflows ({exc})") from exc
        if kind == "separability-sweep":
            path, schema = out / "separability.csv", SEPARABILITY_COLUMNS
        else:
            path, schema = out / "correlations.csv", correlations.CSV_COLUMNS
        write_csv(path, {name: columns[name] for name in schema})
        written.append(path)

    elif kind == "oracle-validate":
        params = cfg["params"]
        p = ModeParams.from_npdc(
            float(params["mu_t"]), float(params["mu_r"]), float(params["n_pdc"])
        )
        coeffs = DisentangledCoefficients.from_mode_params(p)
        try:
            state = evolve_thermal_pair(
                p.mu_t, p.mu_r, coeffs, cfg["cutoff"], max_trace_deficit=ORACLE_MAX_TRACE_DEFICIT
            )
        except ValueError as exc:
            raise ScenarioError(f"oracle-validate: {exc}") from exc
        got = moments(state)
        want = predicted_moments(p)
        rel = {
            name: abs(getattr(got, name) - getattr(want, name)) / max(abs(getattr(want, name)), 1.0)
            for name in ("mean_t", "mean_r", "var_t", "var_r", "cross")
        }
        threshold = float(cfg.get("max_relative_error", 1e-6))
        passed = max(rel.values()) < threshold
        path = out / "oracle_report.json"
        with open(path, "w") as fh:
            json.dump(
                {
                    "params": {"mu_t": p.mu_t, "mu_r": p.mu_r, "n_pdc": p.n_pdc},
                    "cutoff": int(cfg["cutoff"]),
                    "trace_deficit": state.trace_deficit,
                    "relative_errors": rel,
                    "max_relative_error": max(rel.values()),
                    "threshold": threshold,
                    "passed": passed,
                },
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")
        written.append(path)

    else:  # ghost-image / ghost-diffraction
        geometry = _build_geometry(cfg["geometry"])
        profile = _build_profile(cfg["profile"])
        qgrid = MomentumGrid(int(cfg["qgrid"]["n_half"]), float(cfg["qgrid"]["dq"]))
        if kind == "ghost-diffraction":
            x_obj = _object_grid(cfg, qgrid)
            obj = _build_object(cfg["object"], x_obj)
            pattern = ghost_diffraction(geometry, obj, profile, qgrid)
            path = out / "pattern.csv"
            _write_reconstruction(path, pattern)
            written.append(path)
        else:
            x_t = _object_grid(cfg, qgrid)
            obj = _build_object(cfg["object"], x_t)
            det = cfg.get("detector", {})
            count = int(det.get("x_r_count", 512))
            mag = geometry.magnification
            span = float(det.get("x_r_span", 2.0 * mag * (x_t[-1] - x_t[0]) / 2.0))
            x_r = np.linspace(-span / 2.0, span / 2.0, count)
            image = ghost_image(geometry, obj, profile, qgrid, x_r, x_t)
            path = out / "image.csv"
            _write_reconstruction(path, image)
            written.append(path)
            path = out / "g2_map.pgm"
            write_pgm(path, image.g2.values)
            written.append(path)

    manifest = {
        "kind": kind,
        "seed": cfg.get("seed", 0),
        "passed": passed,
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()
        ).hexdigest(),
        "files": [
            {"path": p.name, "sha256": sha256_of(p), "bytes": p.stat().st_size}
            for p in written
        ],
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="thermalpdc",
        description="Run or validate a thermal-seeded downconversion scenario",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a scenario config")
    run_p.add_argument("config", help="path to the scenario JSON document")
    run_p.add_argument("--out", default=None, help="output directory (overrides config and env)")
    run_p.add_argument("--workers", type=int, default=1, help="accepted but ignored; sweeps are vectorized")
    val_p = sub.add_parser("validate", help="schema-check a scenario config")
    val_p.add_argument("config", help="path to the scenario JSON document")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    problems = validate_config(cfg)
    for problem in problems:
        print(f"invalid: {problem}", file=sys.stderr)
    if problems:
        return 1
    if args.command == "validate":
        print("ok")
        return 0
    try:
        manifest = run(cfg, out_dir=args.out, workers=args.workers)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for entry in manifest["files"]:
        print(f"wrote {entry['path']}  sha256={entry['sha256'][:12]}...")
    if not manifest["passed"]:
        print("scenario check failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
