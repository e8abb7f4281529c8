"""Seeded scenario generators for the four benchmark workloads.

Every timed call gets a fresh scenario config of a fixed size.  The draws
for call ``i`` come from a Kronecker (Weyl) sequence ``frac(shift + i*alpha)``
whose shift is drawn from the seed: the same seed gives the same configs,
no two calls share inputs, and any run of consecutive calls covers each
drawn range evenly, so a run's median does not depend on a lucky draw.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DEMO_CONFIGS = ROOT / "demos" / "configs"

# Sweep grid: 16 x 16 x 16 x 2 = 8192 points per scenario.
SWEEP_AXIS = 16

ORACLE_CUTOFF = 80

# Matched 1025 x 1025 ghost-image geometry (the demo's optics and momentum
# grid, with one detector sample per momentum over a full period).
GHOST_GEOMETRY = {"wavelength": 7e-07, "d1": 0.1, "d2": 0.1, "d3": 0.6, "f_r": 0.15}
GHOST_N_HALF = 512
GHOST_DQ = 2454.3692606171526
GHOST_COUNT = 2 * GHOST_N_HALF + 1


def config_digest(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def _alphas(dims: int) -> np.ndarray:
    """Fractional parts of square roots of the first `dims` primes."""
    primes: list[int] = []
    k = 2
    while len(primes) < dims:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return np.sqrt(np.array(primes, dtype=float)) % 1.0


def unit_draws(seed: int, stream: int, call: int, dims: int) -> np.ndarray:
    """Point `call` of a seed-shifted Kronecker sequence in [0, 1)^dims."""
    shift = np.random.default_rng([seed, stream]).random(dims)
    return (shift + (call + 1) * _alphas(dims)) % 1.0


def _log_uniform(u, lo, hi):
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def sweep_config(seed: int, call: int) -> dict:
    """Calls 2k and 2k+1 are a separability-sweep and an nrf-sweep over the
    same grid.  mu_t, mu_r in [0, 3] and n_pdc log-uniform in [0.01, 5];
    every grid starts at 0, so vacuum rows appear; tau in {1, [0.05, 1)}."""
    pair = call // 2
    u = unit_draws(seed, 0, pair, 3 * (SWEEP_AXIS - 1) + 1)
    axis = SWEEP_AXIS - 1
    mu_t = [0.0] + sorted(3.0 * float(v) for v in u[:axis])
    mu_r = [0.0] + sorted(3.0 * float(v) for v in u[axis : 2 * axis])
    n_pdc = [0.0] + sorted(_log_uniform(float(v), 0.01, 5.0) for v in u[2 * axis : 3 * axis])
    tau = [1.0, 0.05 + 0.95 * float(u[-1])]
    return {
        "kind": "separability-sweep" if call % 2 == 0 else "nrf-sweep",
        "grids": {"mu_t": mu_t, "mu_r": mu_r, "n_pdc": n_pdc, "tau": tau},
    }


def oracle_config(seed: int, call: int) -> dict:
    """Fock oracle at cutoff 80, mu_t, mu_r in [0.8, 1.2], n_pdc in [0.1, 0.4]."""
    u = unit_draws(seed, 1, call, 3)
    return {
        "kind": "oracle-validate",
        "params": {
            "mu_t": 0.8 + 0.4 * float(u[0]),
            "mu_r": 0.8 + 0.4 * float(u[1]),
            "n_pdc": 0.1 + 0.3 * float(u[2]),
        },
        "cutoff": ORACLE_CUTOFF,
    }


def ghost_config(seed: int, call: int) -> dict:
    """Matched 1025 x 1025 ghost image of a drawn double slit: width in
    [30, 50] um, separation in [3, 5] widths, center within +-100 um."""
    u = unit_draws(seed, 2, call, 3)
    width = 30e-6 + 20e-6 * float(u[0])
    x_t_span = (GHOST_COUNT - 1) * 2.0 * math.pi / (GHOST_COUNT * GHOST_DQ)
    g = GHOST_GEOMETRY
    magnification = g["d3"] / (g["d1"] + g["d2"])
    return {
        "kind": "ghost-image",
        "geometry": dict(g),
        "profile": {"type": "constant", "n_pdc": 1.0},
        "object": {
            "type": "double-slit",
            "width": width,
            "separation": (3.0 + 2.0 * float(u[1])) * width,
            "center": -100e-6 + 200e-6 * float(u[2]),
        },
        "qgrid": {"n_half": GHOST_N_HALF, "dq": GHOST_DQ},
        "detector": {
            "x_t_count": GHOST_COUNT,
            "x_t_span": x_t_span,
            "x_r_count": GHOST_COUNT,
            "x_r_span": magnification * x_t_span,
        },
    }


def demo_suite_configs() -> list[dict]:
    """The committed demo configs, in file-name order; the seed does not
    change them."""
    return [json.loads(p.read_text()) for p in sorted(DEMO_CONFIGS.glob("*.json"))]


def _sweep_items(cfg: dict) -> int:
    return math.prod(len(v) for v in cfg["grids"].values())


@dataclass(frozen=True)
class Workload:
    """One timed call runs every config of ``configs(seed, call)`` back to
    back; ``items`` counts the work a config completes."""

    name: str
    configs: Callable[[int, int], list[dict]]
    items: Callable[[dict], int]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", lambda s, i: [sweep_config(s, i)], _sweep_items),
        Workload("oracle", lambda s, i: [oracle_config(s, i)], lambda cfg: 1),
        Workload(
            "ghost-image",
            lambda s, i: [ghost_config(s, i)],
            lambda cfg: cfg["detector"]["x_r_count"] * cfg["detector"]["x_t_count"],
        ),
        Workload("demo-suite", lambda s, i: demo_suite_configs(), lambda cfg: 1),
    )
}
