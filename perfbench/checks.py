"""Output checks, independent of the timed route.

Each check reads the artifacts a scenario wrote and recomputes what they
should hold with numpy and the closed forms, not with thermalpdc code.
A check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Margins within this band sit numerically on the separability boundary
# (thermalpdc.gaussian.BOUNDARY_BAND); the nu_minus crossing is only
# required to agree with the verdict outside it.
BOUNDARY_BAND = 1e-6
RTOL = 1e-12
NU_RTOL = 1e-9
MIN_IMAGE_NCC = 0.99


def check_outputs(cfg: dict, out: Path, manifest: dict) -> list[str]:
    """Every check that applies to the scenario's kind."""
    problems = check_manifest(out, manifest)
    if problems:
        return problems
    kind = cfg["kind"]
    if kind == "separability-sweep":
        return check_sweep_csv(cfg, out / "separability.csv")
    if kind == "nrf-sweep":
        return check_sweep_csv(cfg, out / "correlations.csv")
    if kind == "oracle-validate":
        return check_oracle(out / "oracle_report.json")
    if kind == "ghost-image":
        return check_ghost_image(cfg, out / "image.csv")
    return check_ghost_diffraction(cfg, out / "pattern.csv")


def check_manifest(out: Path, manifest: dict) -> list[str]:
    if not manifest.get("passed", False):
        return ["manifest reports passed=false"]
    problems = []
    for entry in manifest["files"]:
        data = (out / entry["path"]).read_bytes()
        if hashlib.sha256(data).hexdigest() != entry["sha256"] or len(data) != entry["bytes"]:
            problems.append(f"{entry['path']}: manifest digest or size mismatch")
    return problems


def _grid(spec) -> np.ndarray:
    if isinstance(spec, list):
        return np.array(spec, dtype=float)
    space = np.geomspace if spec.get("log", False) else np.linspace
    return space(float(spec["start"]), float(spec["stop"]), int(spec["count"]))


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _column(rows, index) -> np.ndarray:
    return np.array([float(r[index]) if r[index] else np.nan for r in rows])


def _close(got, want, rtol, scale=None) -> np.ndarray:
    scale = np.maximum(np.abs(want), 1.0) if scale is None else scale
    return np.abs(got - want) <= rtol * scale


def check_sweep_csv(cfg: dict, path: Path) -> list[str]:
    """Grid order and row count, margin, separable == (margin >= 0), the
    nu_minus crossing of 1/2 (Simon, PRL 84, 2726), and gamma/NRF with empty
    fields exactly on the vacuum rows."""
    grids = cfg["grids"]
    axes = [_grid(grids[f]) for f in ("mu_t", "mu_r", "n_pdc")]
    axes.append(_grid(grids["tau"]) if "tau" in grids else np.array([1.0]))
    want = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1)
    header, rows = _read_csv(path)
    if len(rows) != len(want):
        return [f"{path.name}: {len(rows)} rows, expected {len(want)}"]
    col = {name: i for i, name in enumerate(header)}
    mu_t, mu_r, n, tau = (_column(rows, col[f]) for f in ("mu_t", "mu_r", "n_pdc", "tau"))
    problems = []
    if not np.all(_close(np.stack([mu_t, mu_r, n, tau], axis=1), want, RTOL)):
        problems.append(f"{path.name}: grid columns differ from the config's grid")

    s = 1.0 + mu_t + mu_r
    margin = tau**2 * (mu_t * mu_r - n * s)
    scale = tau**2 * (mu_t * mu_r + n * s + 1.0)
    got_margin = _column(rows, col["margin"])
    if not np.all(_close(got_margin, margin, RTOL, scale)):
        problems.append(f"{path.name}: margin differs from tau^2 (mu_t mu_r - n_pdc (1 + mu_t + mu_r))")
    flags = [r[col["separable"]] for r in rows]
    if any(f not in ("true", "false") for f in flags):
        return problems + [f"{path.name}: separable field is not true/false"]
    separable = np.array([f == "true" for f in flags])
    if np.any(separable != (got_margin >= 0.0)):
        problems.append(f"{path.name}: separable flag disagrees with the margin sign")
    clear = np.abs(margin) > BOUNDARY_BAND
    if np.any(separable[clear] != (margin[clear] >= 0.0)):
        problems.append(f"{path.name}: separable flag disagrees with the recomputed margin")

    if "min_pt_symplectic_eigenvalue" in col:
        nu = _pt_nu_minus(mu_t, mu_r, n, tau)
        got_nu = _column(rows, col["min_pt_symplectic_eigenvalue"])
        if not np.all(_close(got_nu, nu, NU_RTOL)):
            problems.append(f"{path.name}: nu_minus differs from the two-mode invariants")
        for label, values in (("written", got_nu), ("recomputed", nu)):
            if np.any((values[clear] >= 0.5) != separable[clear]):
                problems.append(f"{path.name}: {label} nu_minus crosses 1/2 away from the verdict")

    if "gamma" in col:
        mean_t, mean_r = mu_t + n * s, mu_r + n * s
        denom2 = mean_t * (mean_t + 1.0) * mean_r * (mean_r + 1.0)
        nrf_denom = mu_t + mu_r + 2.0 * n * s
        with np.errstate(divide="ignore", invalid="ignore"):
            gamma = n * (1.0 + n) * s**2 / np.sqrt(denom2)
            nrf = (mu_t * (1.0 + mu_t) + mu_r * (1.0 + mu_r)) / nrf_denom
        for name, value, undefined in (
            ("gamma", gamma, denom2 == 0.0),
            ("nrf", nrf, nrf_denom == 0.0),
        ):
            got = _column(rows, col[name])
            if np.any(np.isnan(got) != undefined):
                problems.append(f"{path.name}: {name} fields are not empty exactly on vacuum rows")
            elif not np.all(_close(got[~undefined], value[~undefined], RTOL)):
                problems.append(f"{path.name}: {name} differs from its closed form")
    return problems


def _pt_nu_minus(mu_t, mu_r, n, tau) -> np.ndarray:
    """Smallest symplectic eigenvalue of the partially transposed lossy
    covariance, from the invariants Delta~ = a^2 + b^2 + 2c^2 and
    det V = (ab - c^2)^2: nu_-^2 = 2 det V / (Delta~ + sqrt(Delta~^2 - 4 det V))."""
    u2 = 1.0 + n
    uv = np.sqrt(n * (1.0 + n))
    a = tau * (u2 * (2.0 * mu_t + 1.0) + n * (2.0 * mu_r + 1.0)) / 2.0 + (1.0 - tau) / 2.0
    b = tau * (u2 * (2.0 * mu_r + 1.0) + n * (2.0 * mu_t + 1.0)) / 2.0 + (1.0 - tau) / 2.0
    c = tau * uv * (mu_t + mu_r + 1.0)
    delta = a * a + b * b + 2.0 * c * c
    det = (a * b - c * c) ** 2
    return np.sqrt(2.0 * det / (delta + np.sqrt(delta * delta - 4.0 * det)))


def check_oracle(path: Path) -> list[str]:
    report = json.loads(path.read_text())
    if report.get("passed") is not True:
        return [f"{path.name}: passed is not true (max error {report.get('max_relative_error')})"]
    return []


def _slit(x, width, center, dx):
    """Pixel coverage of an open slit; the same model the object grid uses."""
    return np.clip((width / 2.0 - np.abs(x - center)) / dx + 0.5, 0.0, 1.0)


def _transmission(obj: dict, x: np.ndarray, dx: float) -> np.ndarray:
    center = float(obj.get("center", 0.0))
    width = float(obj["width"])
    if obj["type"] == "single-slit":
        return _slit(x, width, center, dx)
    half = float(obj["separation"]) / 2.0
    return np.clip(_slit(x, width, center - half, dx) + _slit(x, width, center + half, dx), 0.0, 1.0)


def check_ghost_image(cfg: dict, path: Path) -> list[str]:
    """Normalized cross-correlation of the image with |t(-x_R/M)|^2."""
    _, rows = _read_csv(path)
    x_r = _column(rows, 0)
    image = _column(rows, 2)
    geo = cfg["geometry"]
    det = cfg["detector"]
    x_t = np.linspace(-det["x_t_span"] / 2.0, det["x_t_span"] / 2.0, det["x_t_count"])
    if len(rows) != det.get("x_r_count", 512) or cfg["object"]["type"] not in ("single-slit", "double-slit"):
        return [f"{path.name}: unexpected row count or object type"]
    magnification = geo["d3"] / (geo["d1"] + geo["d2"])
    target = _transmission(cfg["object"], -x_r / magnification, x_t[1] - x_t[0]) ** 2
    target[np.abs(x_r / magnification) > x_t[-1]] = 0.0
    ncc = float(image @ target / math.sqrt((image @ image) * (target @ target)))
    if not ncc >= MIN_IMAGE_NCC:
        return [f"{path.name}: image NCC {ncc:.4f} against |t(-x_R/M)|^2 is below {MIN_IMAGE_NCC}"]
    return []


def check_ghost_diffraction(cfg: dict, path: Path) -> list[str]:
    """Zeros of a single-slit pattern at k lambda d3 / a within half a step."""
    if cfg["object"]["type"] != "single-slit":
        return [f"{path.name}: zero positions are only checked for a single slit"]
    _, rows = _read_csv(path)
    x_r = _column(rows, 0)
    pattern = _column(rows, 2)
    geo = cfg["geometry"]
    step = float(np.diff(x_r)[0])
    spacing = geo["wavelength"] * geo["d3"] / cfg["object"]["width"]
    problems = []
    for order in (-2, -1, 1, 2):
        target = order * spacing
        window = np.nonzero(np.abs(x_r - target) <= 3.0 * step)[0]
        if window.size == 0:
            problems.append(f"{path.name}: zero of order {order} is outside the pattern")
            continue
        dip = window[np.argmin(pattern[window])]
        if abs(x_r[dip] - target) > step / 2.0:
            problems.append(f"{path.name}: zero of order {order} is {x_r[dip] - target:.3e} m off")
    return problems
