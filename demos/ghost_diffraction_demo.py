"""Recover a slit's diffraction pattern from intensity correlations.

With the Reference detector on the focal plane (d3 = f_R) and a collection
lens in the Test arm, the correlation at x_T = 0 samples the squared
spectrum of the object: a width-a slit produces a sinc^2 with zeros every
lambda d3 / a along the Reference detector.  The unseeded source is a flat
GainProfile, so every momentum carries the same correlation amplitude.
Writes ghost_diffraction.csv.
"""

import numpy as np

from thermalpdc import (
    GainProfile,
    GhostGeometry,
    ModeParams,
    MomentumGrid,
    ghost_diffraction,
    single_slit,
)
from thermalpdc.artifacts import write_csv


def main():
    slit_width = 40e-6
    geometry = GhostGeometry(
        wavelength=0.7e-6, d1=0.1, d2=0.1, d3=0.3, f_r=0.3, f_t=0.1,
    )
    qgrid = MomentumGrid(512, 2.0 * np.pi / (32.0 * slit_width))
    x = np.linspace(-640e-6, 640e-6, 1025)
    pattern = ghost_diffraction(geometry, single_slit(x, slit_width),
                                GainProfile(ModeParams.from_npdc(0.0, 0.0, 1.0)),
                                qgrid)

    spacing = geometry.wavelength * geometry.d3 / slit_width
    print(f"expected zero spacing lambda d3 / a = {spacing * 1e3:.2f} mm")
    print(f"{'order':>6} {'x_r (mm)':>10} {'pattern':>10}")
    step = pattern.x_r[1] - pattern.x_r[0]
    for order in (1, 2, 3):
        idx = np.argmin(np.abs(pattern.x_r - order * spacing))
        lo, hi = idx - 3, idx + 4
        dip = lo + int(np.argmin(pattern.normalized[lo:hi]))
        print(f"{order:6d} {pattern.x_r[dip] * 1e3:10.3f} {pattern.normalized[dip]:10.2e}")

    write_csv("ghost_diffraction.csv", {"x_r": pattern.x_r, "value_raw": pattern.raw,
                                        "value_normalized": pattern.normalized})
    print("wrote ghost_diffraction.csv")


if __name__ == "__main__":
    main()
