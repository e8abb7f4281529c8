"""Independent references for the Fock oracle's band evolutions.

fock._evolutions evaluates O = e^{kappa K} of the bands d = +-gap in closed
form, through the Jacobi degree recurrence.  Two other routes give the same
matrix and are the tests' oracle:

- reference_evolution exponentiates K itself.  K only couples even rungs to
  odd ones, so one SVD of its even-odd block gives O; the generator is
  padded beyond the band until the rungs at its edge carry at most
  EDGE_AMPLITUDE of any kept column, so its truncation reflects nothing
  back.  Its own rounding grows with the padded size: against a 40-digit
  evaluation it reached 3.4e-14 at cutoff 30, n_pdc 1 (padding 512), where
  the closed form stays within 2.1e-15 of a 50-digit evaluation up to
  cutoff 200, for couplings 0.01 to 3.
- jacobi_entry evaluates one entry from the explicit Jacobi sum
  (DLMF 18.5.8) in decimal arithmetic, from the same float tanh and cosh of
  the coupling, and rounds it once.
"""

import math
from decimal import Decimal, localcontext

import numpy as np

# Largest amplitude the padded generator's last two rungs may carry from any
# kept rung; the weight a truncated edge reflects back is far smaller.
EDGE_AMPLITUDE = 1e-10


def band_svd(gap, h):
    """SVD B = P Sigma Q^T of the even-odd block of the generator K of the
    bands d = +-gap on 2 h rungs.

    K = L - L^T, with L raising rung r by sqrt((r + 1)(r + 1 + gap)), so
    B[j, j] = K[2 j, 2 j + 1] is negative and B[j + 1, j] = K[2 j + 2, 2 j + 1]
    positive.
    """
    r = np.arange(2 * h - 1)
    off = np.sqrt((r + 1.0) * (r + 1.0 + gap))
    b = np.zeros((h, h))
    flat = b.reshape(-1)
    flat[:: h + 1] = -off[::2]
    flat[h :: h + 1] = off[1::2]
    return np.linalg.svd(b)


def padded_evolution(coupling, gap, side, pad):
    """O = e^{coupling K} on all 2 h rungs of the generator padded by pad or
    pad + 1 rungs, from each of the bottom side rungs: shape (2 h, side).

    In the even-odd order K = [[0, B], [-B^T, 0]], so from B = P Sigma Q^T,
    e^{coupling K} has even block P cos(coupling Sigma) P^T, odd block
    Q cos(coupling Sigma) Q^T, even-odd block P sin(coupling Sigma) Q^T and
    odd-even block -Q sin(coupling Sigma) P^T.  The diagonal blocks are
    written as identity plus correction.
    """
    p_even, sigma, q_t = band_svd(gap, (side + pad + 1) // 2)
    q_odd = q_t.T
    p_kept, q_kept = p_even[: (side + 1) // 2], q_odd[: side // 2]
    cos_m1 = -2.0 * np.sin(0.5 * coupling * sigma) ** 2
    sin = np.sin(coupling * sigma)
    o = np.empty((2 * len(sigma), side))
    o[::2, ::2] = (p_even * cos_m1) @ p_kept.T
    o[1::2, 1::2] = (q_odd * cos_m1) @ q_kept.T
    o[::2, 1::2] = (p_even * sin) @ q_kept.T
    o[1::2, ::2] = -(q_odd * sin) @ p_kept.T
    o.reshape(-1)[: side * (side + 1) : side + 1] += 1.0
    return o


def reference_evolution(coupling, gap, side):
    """O of the bands d = +-gap on their side rungs, from the SVD of a
    generator whose padding doubles from 8 rungs until its last two rungs
    carry at most EDGE_AMPLITUDE of every kept column."""
    pad = 8
    while True:
        o = padded_evolution(coupling, gap, side, pad)
        if np.abs(o[-2:]).max() <= EDGE_AMPLITUDE:
            return o[:side]
        pad *= 2


def jacobi_entry(coupling, gap, m, n, digits=60):
    """O[m, n] of the bands d = +-gap, from the explicit sum

        O[m, n] = t^delta c^-(gap+1) sqrt(n! (m+gap)! / (m! (n+gap)!))
                  sum_s C(n + delta, n - s) C(n + gap, s) (-t^2)^s (1 - t^2)^(n - s)

    for m = n + delta >= n, and O[n, m] = (-1)^delta O[m, n], with t and c the
    float tanh and cosh of the coupling, evaluated to digits significant
    digits and rounded once to a float.
    """
    if m < n:
        return (-1) ** (n - m) * jacobi_entry(coupling, gap, n, m, digits)
    delta = m - n

    def power(base, k):  # decimal reads 0 ** 0 as an invalid operation
        return base**k if k else Decimal(1)

    with localcontext() as ctx:
        ctx.prec = digits
        t, c = Decimal(math.tanh(coupling)), Decimal(math.cosh(coupling))
        t2 = t * t
        jacobi = sum(
            math.comb(n + delta, n - s) * math.comb(n + gap, s) * power(-t2, s) * power(1 - t2, n - s)
            for s in range(n + 1)
        )
        norm = Decimal(math.factorial(n) * math.factorial(m + gap)) / (math.factorial(m) * math.factorial(n + gap))
        return float(power(t, delta) / c ** (gap + 1) * norm.sqrt() * jacobi)
