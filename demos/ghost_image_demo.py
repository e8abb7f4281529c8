"""Reconstruct a double slit by ghost imaging, entangled and separable.

Geometry: object 0.1 m from the source in the Test arm; the Reference arm
propagates 0.1 m to an f = 0.15 m lens and 0.6 m to the scanning detector,
satisfying the back-propagating thin-lens relation with magnification 3.
The bucket-integrated correlation reproduces the slit pair inverted and
magnified, and the normalized reconstruction is bit-for-bit the same
whether the source is entangled (unseeded) or separable (bright seeds):
only the overall correlation strength changes.

Writes ghost_image.csv and ghost_image_g2.pgm.
"""

import math

import numpy as np

from thermalpdc import (
    ConstantProfile,
    GhostGeometry,
    ModeParams,
    MomentumGrid,
    double_slit,
    ghost_image,
    separability_margin,
)
from thermalpdc.artifacts import write_csv, write_pgm


def main():
    geometry = GhostGeometry(wavelength=0.7e-6, d1=0.1, d2=0.1, d3=0.6, f_r=0.15)
    print(f"magnification {geometry.magnification:.1f}, "
          f"thin-lens residual {geometry.thin_lens_residual:.1e}")

    qgrid = MomentumGrid(512, 8.0 * (2.0 * math.pi / 40e-6) / 512)
    x_t = np.linspace(-256e-6, 256e-6, 512)
    x_r = np.linspace(-768e-6, 768e-6, 512)
    obj = double_slit(x_t, 40e-6, 160e-6)
    target = np.abs(obj.amplitude(-x_r / geometry.magnification)) ** 2

    results = {}
    for label, params in (
        ("entangled (no seeds, n_pdc=1)", ModeParams.from_npdc(0.0, 0.0, 1.0)),
        ("separable (mu=5, n_pdc=0.5)", ModeParams.from_npdc(5.0, 5.0, 0.5)),
    ):
        image = ghost_image(geometry, obj, ConstantProfile(params), qgrid, x_r, x_t)
        ncc = image.normalized @ target / math.sqrt(
            (image.normalized @ image.normalized) * (target @ target)
        )
        results[label] = image
        print(f"{label:32s} margin={separability_margin(params):+7.2f}  "
              f"overlap with magnified object {ncc:.4f}  peak G2 {image.raw.max():.3e}")

    pair = list(results.values())
    print("normalized reconstructions differ by",
          f"{np.abs(pair[0].normalized - pair[1].normalized).max():.2e}")

    write_csv("ghost_image.csv", {"x_r": x_r, "value_raw": pair[0].raw, "value_normalized": pair[0].normalized})
    write_pgm("ghost_image_g2.pgm", pair[0].g2)
    print("wrote ghost_image.csv and ghost_image_g2.pgm")


if __name__ == "__main__":
    main()
