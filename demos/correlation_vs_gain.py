"""Correlation index and noise reduction factor against the gain.

Reproduces the two canonical seeding regimes: one thermal seed with the
other arm unseeded, and equal seeds on both arms.  The correlation index
climbs monotonically toward 1 with no threshold, while the NRF crosses the
shot-noise level 1 exactly at (mu_t^2 + mu_r^2) / (2 (1 + mu_t + mu_r)).
Writes the sweep to correlation_vs_gain.csv for plotting.
"""

import numpy as np

from thermalpdc import noise_reduction_threshold, sweep_columns
from thermalpdc.artifacts import write_csv
from thermalpdc.scenario import NRF_COLUMNS


def main():
    gains = np.geomspace(0.01, 20.0, 25)
    for mu_t, mu_r in ((0.0, 2.0), (2.0, 2.0)):
        rows = sweep_columns(mu_t, mu_r, gains)
        crossing = noise_reduction_threshold(mu_t, mu_r)
        print(f"\nmu_t={mu_t}, mu_r={mu_r}  (NRF crosses 1 at n_pdc={crossing:.4f})")
        print(f"{'n_pdc':>10} {'gamma':>10} {'NRF':>10} {'separable':>10}")
        for i in range(0, gains.size, 4):
            print(f"{rows['n_pdc'][i]:10.4f} {rows['gamma'][i]:10.6f} {rows['nrf'][i]:10.4f} "
                  f"{str(rows['separable'][i]):>10}")

    columns = sweep_columns(*np.meshgrid([0.0, 2.0], [2.0], gains, indexing="ij"))
    write_csv("correlation_vs_gain.csv", {name: columns[name] for name in NRF_COLUMNS})
    print("\nwrote correlation_vs_gain.csv")


if __name__ == "__main__":
    main()
