"""Evolve a squeezed Gaussian state under damped-oscillator dynamics.

Builds a model from microscopic couplings, integrates the first and second
moments with the fixed-step RK4 integrator, and tracks the phase-space area,
the linear entropy, and the distance to the stationary covariance.
"""

import numpy as np

from lindosc import (CovDecomposition, GaussianState, LindbladCouplings,
                     ModelParams, build_drift, build_scaled_diffusion,
                     compose, evolve, heisenberg_slack, stationary_covariance,
                     validate)

HBAR = 1.0


def main():
    couplings = LindbladCouplings(a1=0.9 + 0.2j, b1=-0.3 - 0.7j,
                                  a2=0.1j, b2=0.4)
    params = ModelParams.from_couplings(couplings, m=1.0, omega=1.0,
                                        mu=0.1, hbar=HBAR)
    report = validate(params)
    print(f"model: lambda={params.lam:.4f}  mu={params.mu}  "
          f"valid={report.passed}  hurwitz={report.hurwitz}")

    sigma0 = compose(CovDecomposition(A=1.0, aleph=2.0, theta=0.8), HBAR)
    state = GaussianState(mean=[1.5, -0.5], sigma=sigma0)
    traj = evolve(state, params, t_final=12.0, dt=1e-3, sample_every=500)

    target = stationary_covariance(build_drift(params),
                                   build_scaled_diffusion(params))
    print(f"{'t':>6} {'area':>9} {'lin_entropy':>12} "
          f"{'ds/dt':>10} {'dist to stationary':>19}")
    for i in range(len(traj)):
        dist = np.linalg.norm(traj.sigma[i] - target)
        print(f"{traj.t[i]:6.2f} {traj.area[i]:9.5f} "
              f"{traj.lin_entropy[i]:12.6f} {traj.entropy_rate[i]:10.2e} "
              f"{dist:19.3e}")

    slack = heisenberg_slack(traj.sigma[-1], HBAR)
    print(f"\nfinal det-sigma slack above hbar^2/4: {slack:.3e} (>= 0 expected)")
    print("for the full trajectory as CSV, run: lindosc evolve --config "
          "demos/config_example.json (writes trajectory.csv)")


if __name__ == "__main__":
    main()
