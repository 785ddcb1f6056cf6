"""The benchmark's four workloads: seeded inputs, one item of work, and the
check of that item's outputs against :mod:`reference`.

Each workload exercises lindosc through its public module functions, looked
up as module attributes at call time so that the traced run's wrappers see
every call.  ``run`` holds only program calls, so item latency is program
time; ``check`` runs after it and outside the item timer.

Tolerances sit beside the baseline error they were set from, measured on a
2-CPU x86-64 container with numpy 2.4.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
from lindosc import cli, decomposition, dynamics, model, sieve, wigner

import reference as ref

HBAR = 1.0

#: RK4 commits a local error of about (h mu)^5 / 120 per step on a mode with
#: exponent mu, and the covariance modes have exponents up to twice the
#: drift's spectral radius, so the relative error of n steps is compared with
#: RK4_FACTOR * n (h rho)^5 / 120 + RK4_FLOOR.  Over 1000 criterion-6 models
#: the worst error was 1.44 times that estimate (anti-damped models, whose
#: covariance grows like exp(2|lam| t), reach 1.6e-5); damped models stayed
#: below 6e-11, certify_dense's trajectories below 4.2e-12 and the example
#: config's evolve at 1.8e-15.
RK4_FACTOR = 10.0
RK4_FLOOR = 1e-8

#: Criterion 6: det(Sigma) may fall below hbar^2/4 by at most 1e-9 of it.
SLACK_TOL = 1e-9 * HBAR ** 2 / 4

#: Criterion 8's band for the second-order ratio r(dt, h) / r(dt/2, h/2).
#: It is applied to the ratio of the summed |residual| over the 20 points:
#: a single point's ratio is meaningless where the leading error term
#: crosses zero, which random states hit (2 items in a sample of 300, at
#: |r| ~ 1e-4 of the item's largest residual).  Summed ratios over 450
#: items lay in [3.9991, 3.99992].
FP_RATIO_BAND = (3.5, 4.5)

#: Criterion 8's normalization tolerance, also used for the mass of the
#: example's wigner.csv; worst seen 1.3e-15 over 450 items, and 0 for the CSV.
NORM_TOL = 1e-8

#: Agreement of rates and decompositions computed by the benchmark and by
#: lindosc in different operation orders, relative to the rate scale; worst
#: seen over 3000 sieve_scan models 5.4e-14 (landscape), 4.5e-15 otherwise.
ROUND_TOL = 1e-12


def rk4_tol(y, t_final, n_steps):
    h = t_final / n_steps
    return RK4_FLOOR + RK4_FACTOR * n_steps * (h * 2.0 * ref.spectral_radius(y)) ** 5 / 120.0


def _read_table(path, width):
    """Parse a CSV of floats under one header line into an (n, width) array."""
    with open(path) as fh:
        fh.readline()
        body = fh.read().replace("\n", ",").rstrip(",")
    return np.fromstring(body, sep=",").reshape(-1, width)


def _packed(sigma):
    return sigma[0, 0], sigma[0, 1], sigma[1, 1]


def _unpacked(row):
    return np.array([[row[0], row[1]], [row[1], row[2]]])


def _close(got, want, tol, what):
    err = ref.rel_err(got, want)
    return [] if err <= tol else [f"{what}: relative error {err:.3e} > {tol:.3e}"]


class Ensemble:
    """Random criterion-6 models, anti-damped ones kept, sampled sparsely."""

    name = "ensemble_sparse"
    pool = 2048
    probe = ("steps", "interp", "grid")
    n_steps = 3000
    sample_every = 100

    def __init__(self, root, tmp):
        pass

    def inputs(self, seed):
        """Rows of (8 coupling parts, omega, mu, mean, S11, S12, S22)."""
        rng = np.random.default_rng([seed, 1])
        n = self.pool
        z = rng.normal(size=(n, 8))
        omega = rng.uniform(0.5, 2.0, n)
        mu = rng.uniform(-0.3, 0.3, n)
        aleph = rng.uniform(1.0, 3.0, n)
        theta = rng.uniform(0.0, math.pi, n)
        mean = rng.normal(size=(n, 2))
        sigma = np.array([_packed(ref.covariance(1.0, aleph[k], theta[k], HBAR))
                          for k in range(n)])
        return np.column_stack([z, omega, mu, mean, sigma])

    @staticmethod
    def _unpack(x):
        couplings = tuple(complex(x[i], x[i + 1]) for i in range(0, 8, 2))
        return couplings, x[8], x[9], x[10:12], _unpacked(x[12:15])

    def run(self, x):
        couplings, omega, mu, mean, sigma = self._unpack(x)
        p = model.ModelParams.from_couplings(model.LindbladCouplings(*couplings),
                                             m=1.0, omega=omega, mu=mu, hbar=HBAR)
        t_final = 10.0 / max(p.lam, p.omega)
        state = dynamics.GaussianState(mean=mean, sigma=sigma)
        return dynamics.evolve(state, p, t_final, t_final / self.n_steps, self.sample_every)

    def check(self, x, traj, tally):
        couplings, omega, mu, mean0, sigma0 = self._unpack(x)
        d_qq, d_pp, d_pq, lam = ref.coefficients(*couplings, HBAR)
        y = ref.drift(lam, mu, omega)
        d = ref.scaled_diffusion(1.0, omega, d_qq, d_pp, d_pq)
        t_final = 10.0 / max(lam, omega)
        bad = []
        if len(traj.t) != self.n_steps // self.sample_every + 1:
            bad.append(f"{len(traj.t)} samples")
        s = traj.sigma
        slack = float(np.min(s[:, 0, 0] * s[:, 1, 1] - s[:, 0, 1] * s[:, 1, 0])) - HBAR ** 2 / 4
        if slack < -SLACK_TOL:
            bad.append(f"Heisenberg slack {slack:.3e}")
        mean, sigma = ref.moments(y, d, mean0, sigma0, t_final)
        tol = rk4_tol(y, t_final, self.n_steps)
        bad += _close(traj.sigma[-1], sigma, tol, "final sigma")
        bad += _close(traj.mean[-1], mean, tol, "final mean")
        return bad


class Certify:
    """Criterion 8: densely sampled trajectories certified against the
    Fokker-Planck equation, from seeded initial states."""

    name = "certify_dense"
    pool = 1024
    probe = ("steps", "interp", "grid")
    coefficients = dict(m=1.0, omega=1.0, mu=0.15, D_qq=0.8, D_pp=0.5, D_pq=0.1, lam=0.6)

    def __init__(self, root, tmp):
        self.params = model.ModelParams(hbar=HBAR, **self.coefficients)

    def inputs(self, seed):
        """Rows of (mean, S11, S12, S22, 20 point offsets in standard deviations)."""
        rng = np.random.default_rng([seed, 2])
        n = self.pool
        area = rng.uniform(1.0, 2.0, n)
        aleph = rng.uniform(1.0, 2.5, n)
        theta = rng.uniform(0.0, math.pi, n)
        mean = rng.normal(size=(n, 2))
        offsets = rng.uniform(-2.0, 2.0, size=(n, 40))
        sigma = np.array([_packed(ref.covariance(area[k], aleph[k], theta[k], HBAR))
                          for k in range(n)])
        return np.column_stack([mean, sigma, offsets])

    def run(self, x):
        state = dynamics.GaussianState(mean=x[:2], sigma=_unpacked(x[2:5]))
        coarse = dynamics.evolve(state, self.params, 1.0, 2e-3, sample_every=1)
        fine = dynamics.evolve(state, self.params, 1.0, 1e-3, sample_every=1)
        center = coarse.mean[250]
        sd = math.sqrt(max(np.linalg.eigvalsh(coarse.sigma[250])))
        residuals = [(wigner.fp_residual(coarse, center + u * sd, 250, 2e-2),
                      wigner.fp_residual(fine, center + u * sd, 500, 1e-2))
                     for u in x[5:].reshape(20, 2)]
        mid = dynamics.GaussianState(mean=coarse.mean[250], sigma=coarse.sigma[250])
        norm = wigner.wigner_normalization(mid, wigner.QuadratureSpec(8.0, 501))
        return coarse, fine, np.array(residuals), norm

    def check(self, x, out, tally):
        coarse, fine, residuals, norm = out
        p = self.coefficients
        y = ref.drift(p["lam"], p["mu"], p["omega"])
        d = ref.scaled_diffusion(p["m"], p["omega"], p["D_qq"], p["D_pp"], p["D_pq"])
        mean, sigma = ref.moments(y, d, x[:2], _unpacked(x[2:5]), 1.0)
        bad = []
        for traj, n in ((coarse, 500), (fine, 1000)):
            if len(traj.t) != n + 1:
                bad.append(f"{len(traj.t)} samples, expected {n + 1}")
                continue
            tol = rk4_tol(y, 1.0, n)
            bad += _close(traj.sigma[-1], sigma, tol, f"final sigma ({n} steps)")
            bad += _close(traj.mean[-1], mean, tol, f"final mean ({n} steps)")
        ratio = np.abs(residuals[:, 0]).sum() / np.abs(residuals[:, 1]).sum()
        if not FP_RATIO_BAND[0] <= ratio <= FP_RATIO_BAND[1]:
            bad.append(f"Fokker-Planck residual ratio {ratio:.4f}")
        if not abs(norm - 1.0) <= NORM_TOL:
            bad.append(f"normalization error {abs(norm - 1.0):.3e}")
        return bad


class SieveScan:
    """Seeded (Delta, d, phi, lam, A) models: diffusion round trip, the
    401x361 sieve and a 65x72 landscape.  No dynamics, no I/O."""

    name = "sieve_scan"
    pool = 32768
    # Its items are vectorised passes over grids, which a busy host slows
    # less than numpy calls on 2x2 matrices: over 250 s of items of all four
    # workloads in turn, the medians of its scaled times over windows of
    # about 10 s varied by 7.1% (coefficient of variation) with the steps
    # part and by 3.4% without.
    probe = ("interp", "grid")
    # Known defect, counted and not failed: the sieve reports its grid cell
    # unpolished, so its rate exceeds the minimum by more than criterion 1's
    # relative 1e-6 on most models.
    counts = ("sieve.rate_excess_violations",)
    grid = (401, 361, (0.5, 8.0))
    landscape = (65, 72, (0.25, 8.0))

    def __init__(self, root, tmp):
        n_a, _n_t, (lo, hi) = self.grid
        self.grid_alephs = np.geomspace(lo, hi, n_a)
        n_a, n_t, (lo, hi) = self.landscape
        self.table = (np.repeat(np.geomspace(lo, hi, n_a), n_t),
                      np.tile(np.linspace(0.0, math.pi, n_t, endpoint=False), n_a))

    def inputs(self, seed):
        """Rows of (Delta, d, phi, lam, A)."""
        rng = np.random.default_rng([seed, 3])
        n = self.pool
        delta = rng.uniform(0.2, 2.0, n)
        return np.column_stack([delta, rng.uniform(1.0, 5.0, n), rng.uniform(0.0, math.pi, n),
                                rng.uniform(0.0, 1.0, n) * delta, rng.uniform(1.0, 4.0, n)])

    def run(self, x):
        delta, d, phi, lam, area = map(float, x)
        dmat = decomposition.compose_diffusion(
            decomposition.DiffDecomposition(Delta=delta, d=d, phi=phi), HBAR)
        dec = decomposition.decompose_diffusion(dmat, HBAR)
        n_a, n_t, rng_a = self.grid
        result = sieve.run_sieve(area, lam, dec, n_aleph=n_a, n_theta=n_t, aleph_range=rng_a)
        n_a, n_t, rng_a = self.landscape
        table = sieve.rate_landscape(area, lam, dec, n_a, n_t, rng_a)
        return dmat, dec, result, table

    def check(self, x, out, tally):
        delta, d, phi, lam, area = map(float, x)
        dmat, dec, res, table = out
        bad = []
        want = ref.covariance(delta, d, phi, HBAR)  # same congruence as the diffusion
        bad += _close(dmat, want, ROUND_TOL, "composed diffusion")
        back = ref.covariance(dec.Delta, dec.d, dec.phi, HBAR)
        bad += _close(back, want, ROUND_TOL, "diffusion round trip")
        r_min = ref.min_rate(area, lam, delta)
        scale = abs(r_min) + delta / area ** 2 * (d * d + 1.0 / (d * d)) + 2.0 * abs(lam) / area
        if res.aleph_star != dec.d or abs(res.min_rate - r_min) > ROUND_TOL * scale:
            bad.append(f"analytic minimizer {res.aleph_star}, {res.min_rate} vs {d}, {r_min}")

        # The grid minimum can be no lower than the true minimum and no
        # higher than the cell nearest the analytic optimum.
        n_a, n_t, (lo, hi) = self.grid
        i = round(math.log(d / lo) / (math.log(hi / lo) / (n_a - 1)))
        j = round(phi / (math.pi / n_t)) % n_t
        nearest = ref.rate(self.grid_alephs[i], j * math.pi / n_t,
                           area, lam, delta, d, phi)
        at_grid = ref.rate(res.grid_aleph, res.grid_theta, area, lam, delta, d, phi)
        if not (r_min - ROUND_TOL * scale <= res.grid_rate <= nearest + ROUND_TOL * scale
                and abs(at_grid - res.grid_rate) <= ROUND_TOL * scale):
            bad.append(f"grid rate {res.grid_rate} outside [{r_min}, {nearest}]")
        if (res.grid_rate - r_min) / max(abs(r_min), 1e-300) > 1e-6:
            tally["sieve.rate_excess_violations"] += 1

        alephs, thetas = self.table
        if table.shape != (len(alephs), 3):
            return bad + [f"landscape shape {table.shape}"]
        rates = ref.rate(alephs, thetas, area, lam, delta, d, phi)
        if (np.max(np.abs(table[:, 0] - alephs) / alephs) > ROUND_TOL
                or np.max(np.abs(table[:, 1] - thetas)) > ROUND_TOL
                or np.max(np.abs(table[:, 2] - rates)) > ROUND_TOL * scale):
            bad.append("landscape table differs from the rate formula")
        return bad


class CliExample:
    """validate -> evolve -> sieve -> sweep -> wigner on the example config.

    The CLI is driven in-process through ``lindosc.cli.main(argv)``:
    ``python -m lindosc.cli`` has no ``__main__`` guard and exits 0 without
    running anything, and the ``lindosc`` console script exists only after an
    install.  Both would call ``main`` with the same argv.
    """

    name = "cli_example"
    probe = ("steps", "interp", "grid")
    commands = {
        "validate": {"validate.report_json": "validate_report.json"},
        "evolve": {"evolve.trajectory_csv": "trajectory.csv",
                   "evolve.summary_json": "evolve_summary.json"},
        "sieve": {"sieve.summary_json": "sieve_summary.json"},
        "sweep": {"sweep.landscape_csv": "landscape.csv"},
        "wigner": {"wigner.grid_csv": "wigner.csv",
                   "wigner.sidecar_json": "wigner_meta.json"},
    }

    def __init__(self, root, tmp):
        self.config = root / "demos" / "config_example.json"
        self.out = tmp
        self.doc = json.loads(self.config.read_text())
        self.argv = {cmd: [cmd, "--config", str(self.config)]
                     + [a for key, name in sets.items()
                        for a in ("--set", f"{key}={tmp / name}")]
                     for cmd, sets in self.commands.items()}

    def inputs(self, seed):
        # The example config itself, for every seed, so that the digests of
        # its outputs can be compared across versions of the program.
        return [self.config]

    def run(self, _config):
        return {cmd: cli.main(argv) for cmd, argv in self.argv.items()}

    def digests(self):
        return {name: hashlib.sha256((self.out / name).read_bytes()).hexdigest()
                for sets in self.commands.values() for name in sets.values()}

    def check(self, _config, codes, tally):
        bad = [f"{cmd} exited {code}" for cmd, code in codes.items() if code != 0]
        if bad:
            return bad
        doc, out = self.doc, self.out
        m = doc["model"]
        dm = m["diffusion"]
        y = ref.drift(m["lambda"], m["mu"], m["omega"])
        d = ref.scaled_diffusion(m["m"], m["omega"], dm["D_qq"], dm["D_pp"], dm["D_pq"])
        st, ev = doc["state"], doc["evolve"]
        sigma0 = ref.covariance(st["A"], st["aleph"], st["theta"], m["hbar"])

        if not json.loads((out / "validate_report.json").read_text())["passed"]:
            bad.append("validate did not pass the example model")

        n_steps = round(ev["t_final"] / ev["dt"])
        mean, sigma = ref.moments(y, d, np.array(st["mean"]), sigma0, ev["t_final"])
        tol = rk4_tol(y, ev["t_final"], n_steps)
        summary = json.loads((out / "evolve_summary.json").read_text())
        bad += _close(summary["final_sigma"], sigma, tol, "evolve final_sigma")
        traj = _read_table(out / "trajectory.csv", 9)
        if len(traj) != n_steps // ev["sample_every"] + 1:
            bad.append(f"trajectory.csv has {len(traj)} rows")
        else:
            bad += _close(traj[-1, 1:3], mean, tol, "trajectory.csv final mean")
            bad += _close(traj[-1, [3, 4, 4, 5]].reshape(2, 2), sigma, tol,
                          "trajectory.csv final sigma")

        _delta, d_star, phi_star = ref.diffusion_shape(d, m["hbar"])
        sv = json.loads((out / "sieve_summary.json").read_text())["grid"]
        log_step = math.log(sv["aleph_max"] / sv["aleph_min"]) / (sv["n_aleph"] - 1)
        bad += self._near("sieve", sv["aleph"], sv["theta"], d_star, phi_star,
                          log_step, math.pi / sv["n_theta"])

        sw = doc["sweep"]
        table = _read_table(out / "landscape.csv", 3)
        if len(table) != sw["n_aleph"] * sw["n_theta"]:
            bad.append(f"landscape.csv has {len(table)} rows")
        else:
            k = int(np.argmin(table[:, 2]))
            log_step = math.log(sw["aleph_max"] / sw["aleph_min"]) / (sw["n_aleph"] - 1)
            bad += self._near("sweep", table[k, 0], table[k, 1], d_star, phi_star,
                              log_step, math.pi / sw["n_theta"])

        n = doc["wigner"]["n_points"]
        grid = _read_table(out / "wigner.csv", 3)
        if len(grid) != n * n:
            bad.append(f"wigner.csv has {len(grid)} rows")
        else:
            mass = ref.trapezoid_mass(grid[::n, 0], grid[:n, 1], grid[:, 2].reshape(n, n))
            if not abs(mass - 1.0) <= NORM_TOL:
                bad.append(f"wigner.csv mass {mass!r}")
        return bad

    @staticmethod
    def _near(what, aleph, theta, d_star, phi_star, log_step, theta_step):
        aleph, theta = ref.canonical(aleph, theta)
        if (abs(math.log(aleph / d_star)) <= log_step
                and ref.angle_dist(theta, phi_star) <= theta_step):
            return []
        return [f"{what} minimum ({aleph}, {theta}) not within one cell of "
                f"({d_star}, {phi_star})"]


WORKLOADS = {w.name: w for w in (CliExample, Ensemble, Certify, SieveScan)}
