"""Map the entanglement/separability phase diagram of the seeded pair.

Spontaneous downconversion (no seeds) is entangled at any gain, and seeding
only one arm never restores separability.  With thermal seeds on both arms
the pair turns separable once the seed product outweighs the gain:
mu_t mu_r >= n_pdc (1 + mu_t + mu_r).  This script scans equal seeds
against gain, prints the boundary, and confirms that losses never move it.
"""

import numpy as np

from thermalpdc import (
    ModeParams,
    check_separability,
    check_separability_lossy,
    noise_reduction_threshold,
    sweep_columns,
)


def main():
    print("Equal-seed phase boundary: smallest separable seed at each gain")
    print(f"{'n_pdc':>8} {'mu boundary (scan)':>20} {'mu^2/(1+2mu) = n_pdc':>22}")
    seeds = np.linspace(0.0, 8.0, 3201)
    for gain in (0.1, 1.0 / 3.0, 1.0, 3.0):
        separable = sweep_columns(seeds, seeds, gain)["separable"]
        mu_star = seeds[np.argmax(separable)]  # the first separable seed
        implied = mu_star ** 2 / (1.0 + 2.0 * mu_star)
        print(f"{gain:8.3f} {mu_star:20.4f} {implied:22.4f}")

    print("\nOne-arm seeding stays entangled no matter how bright the seed:")
    for mu in (0.1, 1.0, 10.0, 100.0):
        v = check_separability(ModeParams.from_npdc(mu, 0.0, 0.05))
        print(f"  mu_t={mu:7.1f}  margin={v.margin:+.3f}  separable={v.separable}")

    print("\nLosses rescale the margin but never flip the verdict:")
    p = ModeParams.from_npdc(1.0, 1.0, 0.3)
    for tau in (1.0, 0.5, 0.1):
        v = check_separability_lossy(p, tau)
        print(f"  tau={tau:4.1f}  margin={v.margin:+.4f}  separable={v.separable}")

    print("\nSub-shot-noise needs more gain than bare inseparability when the")
    print("seeds differ (thresholds in n_pdc):")
    for mu_t, mu_r in ((1.0, 1.0), (2.0, 0.0), (3.0, 1.0)):
        sep = 0.0 if mu_t * mu_r == 0 else mu_t * mu_r / (1.0 + mu_t + mu_r)
        print(
            f"  mu=({mu_t}, {mu_r})  separability at {sep:.4f}, "
            f"noise reduction at {noise_reduction_threshold(mu_t, mu_r):.4f}"
        )


if __name__ == "__main__":
    main()
