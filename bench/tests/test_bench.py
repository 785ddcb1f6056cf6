"""Tests of the benchmark's own arithmetic, references and inputs.

    python3 -m pytest bench/tests -q
"""

import math
import statistics
import time

import numpy as np
import pytest
from lindosc import dynamics, model

import hostspeed
import reference as ref
import run
import spans
import workloads


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 6] > (b [2, 3], c [4, 5.5]); root > d [7, 9]
    tree = [(5, 1, "x.b", 2.0, 3.0, 0), (6, 1, "x.c", 4.0, 5.5, 0),
            (1, 0, "x.a", 1.0, 6.0, 0), (2, 0, "x.d", 7.0, 9.0, 0),
            (0, -1, "x.root", 0.0, 10.0, 0)]
    got = spans.self_times(tree)
    assert got == pytest.approx({0: 3.0, 1: 2.5, 2: 2.0, 5: 1.0, 6: 1.5})


def test_self_time_counts_overlapping_children_once():
    tree = [(1, 0, "x.a", 1.0, 4.0, 0), (2, 0, "x.b", 3.0, 5.0, 0),
            (0, -1, "x.root", 0.0, 10.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(6.0)


def test_sigma_reference_matches_evolve():
    p = model.ModelParams(m=1.0, omega=1.3, mu=0.2, hbar=1.0,
                          D_qq=0.7, D_pp=0.4, D_pq=-0.1, lam=0.5)
    mean0 = np.array([0.8, -0.3])
    sigma0 = ref.covariance(1.5, 1.8, 0.4, 1.0)
    traj = dynamics.evolve(dynamics.GaussianState(mean=mean0, sigma=sigma0),
                           p, 4.0, 1e-3, sample_every=4000)
    y = ref.drift(p.lam, p.mu, p.omega)
    d = ref.scaled_diffusion(p.m, p.omega, p.D_qq, p.D_pp, p.D_pq)
    mean, sigma = ref.moments(y, d, mean0, sigma0, 4.0)
    assert ref.rel_err(traj.sigma[-1], sigma) < 1e-12
    assert ref.rel_err(traj.mean[-1], mean) < 1e-12
    # The exact solution also relaxes to the stationary covariance.
    _, late = ref.moments(y, d, mean0, sigma0, 200.0)
    assert ref.rel_err(late, ref.lyapunov(y, d)) < 1e-12


def test_expm2_degenerate_eigenvalues():
    y = np.array([[-1.0, 1.0], [0.0, -1.0]])  # one double eigenvalue
    want = math.exp(-2.0) * np.array([[1.0, 2.0], [0.0, 1.0]])
    assert ref.rel_err(ref.expm2(y, 2.0), want) < 1e-15


def _numbers(inputs):
    items = (x.values() if isinstance(x, dict) else x for x in inputs)
    return np.concatenate([np.ravel(np.asarray(v, dtype=complex))
                           for values in items for v in values])


@pytest.mark.parametrize("name", ["ensemble_sparse", "certify_dense", "sieve_scan"])
def test_inputs_follow_the_seed(name, tmp_path):
    wl = workloads.WORKLOADS[name](tmp_path, tmp_path)
    a, b, c = (_numbers(wl.inputs(seed)) for seed in (7, 7, 8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_trace_catches_nested_calls_and_restores_functions():
    p = model.ModelParams(m=1.0, omega=1.0, mu=0.0, hbar=1.0,
                          D_qq=0.5, D_pp=0.5, D_pq=0.0, lam=0.4)
    state = dynamics.GaussianState(mean=[0.0, 0.0], sigma=0.5 * np.eye(2))
    original = dynamics.evolve
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        rec.run_item(0, lambda: dynamics.evolve(state, p, 0.1, 0.01, sample_every=5))
    finally:
        spans.uninstall(undo)
    assert dynamics.evolve is original
    names = {s[0]: s[2] for s in rec.spans}
    parents = {s[2]: names.get(s[1]) for s in rec.spans}
    assert parents["entropy.report"] == "dynamics.evolve"
    assert parents["dynamics.evolve"] == "bench.item"
    assert rec.counts["dynamics.steps"] == 10
    assert rec.counts["dynamics.samples"] == 3
    m = spans.layer_metrics(rec, 1.0, 1.0)
    assert m["entropy.calls"][0] == 3


def test_measure_brackets_side_calls_with_probes():
    calls = []

    def probe():
        calls.append("p")
        return 1.0

    def side():
        calls.append("s")

    def step():
        calls.append("i")
        time.sleep(0.002)

    out, sides, probes, busy = run.measure(step, 0.05, probe, side, 4)
    assert len(sides) == 4 and len(out) >= run.MIN_ITEMS and busy >= 0.05
    seq = "".join(calls)
    assert seq[0] == seq[-1] == "p" and len(probes) == seq.count("p")
    assert all(seq[i - 1] == seq[i + 1] == "p" for i, c in enumerate(seq) if c == "s")
    # Each result names the probe sample just before it.
    for _, j in out + sides:
        assert 0 <= j < len(probes) - 1


def test_slowness_is_the_mean_of_the_samples_around():
    probe = hostspeed.Probe(("interp", "grid"))
    assert probe.ref_s == hostspeed.PARTS["interp"][1] + hostspeed.PARTS["grid"][1]
    samples = [probe.ref_s * k for k in (1, 2, 4, 8)]
    assert probe.slowness(samples, 0) == pytest.approx(1.5)
    assert probe.slowness(samples, 2) == pytest.approx(6.0)
    assert probe.sample() > 0.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_names_probe_parts(name):
    assert set(workloads.WORKLOADS[name].probe) <= set(hostspeed.PARTS)


def test_item_stats_uses_every_item():
    lat = [0.01] * 60 + [0.03] * 40
    rate, p50, (tail, pct), rates = run.item_stats(lat)
    assert len(rates) == 10
    assert p50 == pytest.approx(10.0)
    assert rate == pytest.approx(statistics.median(rates))
    assert (tail, pct) == (pytest.approx(30.0), 90.0)
