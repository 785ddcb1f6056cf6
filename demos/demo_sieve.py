"""Which initial Gaussian state decoheres slowest?

Ranks pure states (A = 1) by their initial linear-entropy production rate.
The analytic answer — squeezing matched to the diffusion anisotropy,
aleph* = d and theta* = phi — is compared against an independent brute-force
grid search over the (aleph, theta) landscape, whose best cell is polished by
Newton steps on the rate's bracket until the rate agrees to rounding.
"""

import math

from lindosc import (DiffDecomposition, analytic_minimizer, grid_search,
                     rate_at, run_sieve)


def main():
    diff = DiffDecomposition(Delta=1.2, d=2.5, phi=0.6)
    lam = 0.4
    area = 1.0

    best = analytic_minimizer(area, lam, diff)
    print("analytic minimizer:")
    print(f"  aleph* = {best.aleph_star:.6f}   (diffusion anisotropy d = {diff.d})")
    print(f"  theta* = {best.theta_star:.6f}   (diffusion angle phi = {diff.phi})")
    print(f"  min ds/dt = {best.min_rate:.6f}  [= 2(Delta - A*lambda)/A^2]")

    g_aleph, g_theta, g_rate = grid_search(area, lam, diff,
                                           n_aleph=801, n_theta=721,
                                           aleph_range=(0.5, 8.0))
    print("\nindependent grid search (801 x 721), best cell polished:")
    print(f"  aleph = {g_aleph:.6f}  theta = {g_theta:.6f}  rate = {g_rate:.6f}")
    print(f"  rate excess over analytic minimum: {g_rate - best.min_rate:.3e}")

    print("\nhow much worse are mismatched states?")
    for aleph, theta, label in [
            (1.0, 0.0, "coherent (unsqueezed)"),
            (diff.d, diff.phi + math.pi / 2, "right squeezing, wrong angle"),
            (1.0 / diff.d, diff.phi, "inverse squeezing"),
    ]:
        r = rate_at(aleph, theta, area, lam, diff)
        print(f"  {label:32s} rate = {r:8.4f}  ({r / best.min_rate:5.2f}x minimum)")

    n_aleph, n_theta, aleph_range = 401, 361, (0.5, 8.0)
    result = run_sieve(area, lam, diff, n_aleph, n_theta, aleph_range)
    print(f"\nrun_sieve record: degenerate_angle={result.degenerate_angle}, "
          f"grid {n_aleph} x {n_theta} over aleph in {aleph_range}")


if __name__ == "__main__":
    main()
