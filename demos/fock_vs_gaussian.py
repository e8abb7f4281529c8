"""Cross-check the closed-form moments against the exact Fock evolution.

Evolves thermal seeds through the truncated pair interaction and compares
photon-number means, variances and the cross covariance against the
Gaussian closed forms, printing the trace deficit of the truncation next
to the worst relative error so the agreement can be judged fairly.
"""

from thermalpdc import (
    ModeParams,
    cross_amplitude,
    evolve_thermal_pair,
    moments,
    predicted_moments,
)

# mu_t, mu_r, n_pdc, cutoff
POINTS = [
    (0.0, 0.0, 1.0, 60),   # spontaneous twin beams
    (0.5, 0.0, 0.3, 60),   # one-arm seeded
    (1.0, 1.0, 1.0 / 3.0, 60),  # equal seeds at the separability boundary
    (2.0, 1.0, 0.5, 80),   # bright asymmetric seeds
    (3.0, 3.0, 1.0, 120),  # bright equal seeds at high gain
]


def main():
    print(f"{'mu_t':>5} {'mu_r':>5} {'n_pdc':>7} {'cutoff':>7} "
          f"{'deficit':>10} {'worst rel err':>14}")
    for mu_t, mu_r, gain, cutoff in POINTS:
        p = ModeParams.from_npdc(mu_t, mu_r, gain)
        state = evolve_thermal_pair(p, cutoff, max_trace_deficit=1e-4)
        got = moments(state)
        want = predicted_moments(p)
        worst = max(
            abs(getattr(got, k) - getattr(want, k)) / max(abs(getattr(want, k)), 1.0)
            for k in ("mean_t", "mean_r", "var_t", "var_r", "cross")
        )
        print(f"{mu_t:5.2f} {mu_r:5.2f} {gain:7.3f} {cutoff:7d} "
              f"{state.trace_deficit:10.2e} {worst:14.2e}")

    print("\nAnomalous moment <a_T a_R> equals the covariance cross entry:")
    p = ModeParams.from_npdc(0.5, 0.25, 0.4)
    state = evolve_thermal_pair(p, 45)
    got = cross_amplitude(state)
    want = p.u * p.v * (1.0 + p.mu_t + p.mu_r)
    print(f"  oracle {got.real:+.8f}{got.imag:+.1e}j   closed form {want:+.8f}")


if __name__ == "__main__":
    main()
