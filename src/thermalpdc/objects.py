"""Transmission objects sampled on a transverse grid.

Objects carry a uniform position grid and complex transmission values with
|t| <= 1.  Their sampled Fourier transform is the plain Riemann sum
dx * sum_j t_j exp(i k x_j), evaluated on whatever momenta the caller
requests; ghost_diffraction takes it for an object grid off its FFT
lattice.  The slit and grating builders raise ValueError naming the field
for a length, fraction or center that is a bool, not a real number, not
finite, or out of its range.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .gaussian import _real, _reals


@dataclass(frozen=True, eq=False)
class SampledObject:
    """Complex transmission t(x) on a uniform grid, finite support inside it.

    t must have an integer, float or complex dtype: a bool, string or
    object array is refused, never cast, as for every physics array.
    """

    x: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        x = _reals("x", self.x)
        t = np.asarray(self.t)
        if t.dtype.kind not in "iufc":
            raise ValueError(f"t must be integer, float or complex numbers, got a {t.dtype} array")
        t = t.astype(complex, copy=False)
        if x.ndim != 1 or x.shape != t.shape:
            raise ValueError("x and t must be 1-D arrays of equal length")
        if x.size < 2:
            raise ValueError("object grid needs at least two samples")
        dx = np.diff(x)
        if not np.abs(dx - dx[0]).max() <= 1e-9 * abs(dx[0]):  # NaN fails too
            raise ValueError("object grid must be finite and uniform")
        if not np.abs(t).max() <= 1.0 + 1e-12:
            raise ValueError("|t| must be finite and not exceed 1")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "t", t)

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    def amplitude(self, x_query) -> np.ndarray:
        """Transmission at arbitrary positions; zero outside the grid."""
        xq = np.asarray(x_query, dtype=float)
        re = np.interp(xq, self.x, self.t.real, left=0.0, right=0.0)
        im = np.interp(xq, self.x, self.t.imag, left=0.0, right=0.0)
        return re + 1j * im

    def sampled_transform(self, k) -> np.ndarray:
        """Riemann-sum Fourier transform dx * sum_j t_j exp(i k x_j)."""
        k = np.asarray(k, dtype=float)
        phases = np.exp(1j * np.multiply.outer(k, self.x))
        return self.dx * phases @ self.t


def _slit_coverage(x, width, center):
    # fraction of each pixel [x - dx/2, x + dx/2] covered by the open slit;
    # keeps the effective width equal to the nominal one regardless of how
    # the edges fall against the grid, so sampled spectra carry their zeros
    # at the analytic positions
    dx = x[1] - x[0]
    return np.clip((width / 2.0 - np.abs(x - center)) / dx + 0.5, 0.0, 1.0)


def single_slit(x, width, center=0.0) -> SampledObject:
    """Unit-transmission slit of the given full width."""
    width, center = _real("width", width, lambda v: v > 0, "> 0"), _real("center", center)
    x = _reals("x", x)
    return SampledObject(x, _slit_coverage(x, width, center).astype(complex))


def double_slit(x, width, separation, center=0.0) -> SampledObject:
    """Two identical slits with centers `separation` apart."""
    width, center = _real("width", width, lambda v: v > 0, "> 0"), _real("center", center)
    separation = _real("separation", separation)
    if separation < width:
        raise ValueError("slits overlap: separation must be >= width")
    x = _reals("x", x)
    t = _slit_coverage(x, width, center - separation / 2.0) + _slit_coverage(
        x, width, center + separation / 2.0
    )
    return SampledObject(x, np.clip(t, 0.0, 1.0).astype(complex))


def grating(x, period, duty=0.5, center=0.0) -> SampledObject:
    """Binary grating: open fraction `duty` of every period."""
    period, center = _real("period", period, lambda v: v > 0, "> 0"), _real("center", center)
    duty = _real("duty", duty, lambda v: 0 < v < 1, "in (0, 1)")
    x = _reals("x", x)
    frac = np.mod((x - center) / period + duty / 2.0, 1.0)
    return SampledObject(x, (frac < duty).astype(complex))


def load_object_csv(path) -> SampledObject:
    """Read (x, re(t), im(t)) rows; a non-numeric first row is a header.

    Blank rows are skipped.  Raises ValueError, naming the path and the row,
    for any other row that is not three numbers.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            try:
                values = [float(field) for field in row]
            except ValueError:
                if reader.line_num == 1:  # a header
                    continue
                values = []
            if len(values) == 3:
                rows.append(values)
            elif row:
                raise ValueError(f"{path}: row {row} is not x, re(t), im(t)")
    if not rows:
        raise ValueError(f"no data rows in {path}")
    data = np.array(rows)
    return SampledObject(data[:, 0], data[:, 1] + 1j * data[:, 2])
