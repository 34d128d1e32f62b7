"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line (run with -s to see them live) and then
asserts. The heavy run batches are shared across criteria via module fixtures.
Expected total runtime: a few minutes.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from dpdgd import cli
from dpdgd.analysis import assert_contraction
from dpdgd.optimizer import RunConfig, StepsizeSchedule, run, run_batch
from dpdgd.privacy import budget_for_variance, sensitivity, variance_for_budget
from dpdgd.problems import QuadraticProblem, make_ica_problem
from dpdgd.topology import Graph, build_metropolis_weights

PAPER_SCHEDULE = StepsizeSchedule("piecewise_paper", lambda0=0.02, switch_k=500, scale=1.0)
ICA_SCHEDULE = StepsizeSchedule("piecewise_paper", lambda0=0.003, switch_k=100, scale=0.3)
TABLE1_REFERENCE = {0.1: 0.048, 0.2: 0.058, 0.3: 0.064, 0.4: 0.070, 0.5: 0.078, 0.6: 0.091}
MASTER_SEED = 20240801


def _report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _derived_seed(*key):
    return int(np.random.SeedSequence(tuple(int(k) for k in key)).generate_state(
        1, dtype=np.uint64)[0])


@pytest.fixture(scope="module")
def saddle_runs(paper_problem, complete5):
    """Criterion-2 batch: 100 noisy runs from the saddle, shared with criterion 3."""
    configs = [
        RunConfig(
            problem=paper_problem, weights=complete5, schedule=PAPER_SCHEDULE,
            noise_variance=0.5, iterations=3000, seed=_derived_seed(MASTER_SEED, 2, i),
            init_mode="at_saddle", record_every=3000,
        )
        for i in range(100)
    ]
    return [trace.records[-1] for trace in run_batch(configs)]


@pytest.mark.acceptance
def test_criterion_1_table1_sweep(tmp_path):
    # the bundled sweep through the command: 100 runs per variance cell
    config = cli.bundled_config_path("estimation_table1.json")
    assert cli.main(["table1", "--config", str(config), "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line in (tmp_path / "table1.csv").read_text().splitlines()[1:]]
    variances = [float(row[0]) for row in rows]
    means = [float(row[1]) for row in rows]
    assert variances == json.loads(config.read_text())["variances"]
    in_band = [
        0.5 * TABLE1_REFERENCE[v] <= m <= 2.0 * TABLE1_REFERENCE[v]
        for v, m in zip(variances, means)
    ]
    inversions = sum(1 for a, b in zip(means[:-1], means[1:]) if b < a)
    detail = (
        "cells " + ", ".join(f"{v}:{m:.4f}" for v, m in zip(variances, means))
        + f"; adjacent inversions = {inversions}"
    )
    _report("1 (noise sweep vs reference row)", all(in_band) and inversions <= 1, detail)


@pytest.mark.acceptance
def test_criterion_2_saddle_escape(paper_problem, complete5, saddle_runs):
    reached = sum(1 for rec in saddle_runs if rec.opt_error_mean <= 0.3)

    # zero-variance control: the same config must stay at the refined saddle;
    # noise draws are disabled, so distinct seeds must give one trajectory
    devs = []
    for seed in (1, 2, 3):
        cfg = RunConfig(
            problem=paper_problem, weights=complete5, schedule=PAPER_SCHEDULE,
            noise_variance=0.0, iterations=3000, seed=seed,
            init_mode="at_saddle", record_every=1, record_state=True,
        )
        trace = run(cfg)
        saddle = trace.records[0].x[0]
        devs.append(max(np.linalg.norm(r.x - saddle, axis=1).max() for r in trace.records))
    ok = reached >= 95 and max(devs) <= 1e-6
    _report(
        "2 (saddle escape + trapped control)",
        ok,
        f"{reached}/100 noisy runs within 0.3 of the minimum; "
        f"control max deviation {max(devs):.2e} (tolerance 1e-6)",
    )


@pytest.mark.acceptance
def test_criterion_3_consensus(paper_problem, rpc5, saddle_runs):
    consensual = sum(1 for rec in saddle_runs if rec.consensus_error <= 0.05)

    # mean-square consensus decay on the reference random-init configuration
    sq_100, sq_3000 = [], []
    configs = [
        RunConfig(
            problem=paper_problem, weights=rpc5, schedule=PAPER_SCHEDULE,
            noise_variance=0.5, iterations=3000, seed=_derived_seed(MASTER_SEED, 3, i),
            init_mode="random_box", record_every=100,
        )
        for i in range(50)
    ]
    for trace in run_batch(configs):
        by_k = {rec.k: rec for rec in trace.records}
        sq_100.append(by_k[100].consensus_error ** 2)
        sq_3000.append(by_k[3000].consensus_error ** 2)
    ratio = float(np.mean(sq_3000) / np.mean(sq_100))
    ok = consensual >= 95 and ratio <= 0.10
    _report(
        "3 (consensus + mean-square decay)",
        ok,
        f"{consensual}/100 runs with consensus error <= 0.05 at k=3000; "
        f"mean-square ratio k=3000/k=100 = {ratio:.4f} (<= 0.10)",
    )


@pytest.mark.acceptance
def test_criterion_4_contraction_inequality():
    rng = np.random.default_rng(0xC0417AC7)
    violations = 0
    pairs = 0
    for _ in range(200):
        m = int(rng.integers(2, 9))
        d = int(rng.integers(1, 5))
        perm = rng.permutation(m)
        edges = {(int(min(a, b)), int(max(a, b))) for a, b in zip(perm[:-1], perm[1:])}
        for a, b in rng.integers(0, m, size=(m, 2)):
            if a != b:
                edges.add((int(min(a, b)), int(max(a, b))))
        w = build_metropolis_weights(Graph(m, frozenset(edges)))
        problem = QuadraticProblem(
            diag=rng.uniform(0.2, 1.5, size=d), m=m, offsets=rng.standard_normal((m, d))
        )
        schedule = (
            StepsizeSchedule("constant", lambda0=float(rng.uniform(0.01, 0.2)))
            if rng.random() < 0.5
            else StepsizeSchedule("piecewise_paper", lambda0=float(rng.uniform(0.05, 0.2)),
                                  switch_k=int(rng.integers(20, 120)), scale=1.0)
        )
        cfg = RunConfig(
            problem=problem, weights=w, schedule=schedule,
            noise_variance=float(rng.uniform(0.0, 1.0)), iterations=200,
            seed=int(rng.integers(2**32)), record_every=1, record_state=True,
        )
        report = assert_contraction(run(cfg), w, tol=1e-9)
        violations += len(report.violations)
        pairs += report.pairs_checked
    _report(
        "4 (per-step contraction inequality)",
        violations == 0,
        f"{violations} violations over {pairs} recorded steps in 200 randomized runs",
    )


@pytest.mark.acceptance
def test_criterion_5_stationary_point_fidelity(paper_problem):
    p = paper_problem
    printed_ok = all(
        np.linalg.norm(p.aggregated_gradient(np.array(pt.coords))) <= 1e-2
        for pt in p.known_points
    )
    gmin = np.linalg.norm(p.aggregated_gradient(p.reference_minimum()))
    gsad = np.linalg.norm(p.aggregated_gradient(p.known_saddle()))
    eig_min = np.linalg.eigvalsh(p.aggregated_hessian(p.reference_minimum()))
    eig_sad = np.linalg.eigvalsh(p.aggregated_hessian(p.known_saddle()))
    ok = (
        printed_ok
        and gmin <= 1e-10
        and gsad <= 1e-10
        and (eig_min > 0).all()
        and eig_sad[0] < -1e-3
        and eig_sad[-1] > 1e-3
    )
    _report(
        "5 (stationary-point fidelity)",
        ok,
        f"|grad| refined min {gmin:.2e}, saddle {gsad:.2e}; "
        f"min eigs {eig_min.round(4).tolist()}, saddle eigs {eig_sad.round(4).tolist()}",
    )


@pytest.mark.acceptance
def test_criterion_6_privacy_calibration(paper_problem):
    # round trips on a 1000-point grid
    worst_rt = 0.0
    for eps in np.linspace(0.05, 0.95, 10):
        for delta in np.linspace(0.01, 0.5, 10):
            for lam in np.geomspace(1e-4, 0.5, 10):
                for target in ("sample", "gradient", "variable"):
                    args = (float(delta), target, 3.3, float(lam), 17)
                    var = variance_for_budget(float(eps), *args)
                    back = budget_for_variance(var, *args)
                    worst_rt = max(worst_rt, abs(back - eps) / eps)

    # adjacent-observation sensitivity never exceeds the formula bound
    rng = np.random.default_rng(0x5EED)
    lam = 0.02
    theta = np.array([0.7, -1.2])
    bound, _ = sensitivity("sample", paper_problem.constants.nu, lam, 1)
    worst_emp = 0.0
    for _ in range(1000):
        agent = int(rng.integers(paper_problem.m))
        delta_s = rng.standard_normal(3)
        delta_s = delta_s / np.abs(delta_s).sum() * rng.uniform(0.0, 1.0)
        g0 = paper_problem.agent_gradient(agent, theta)
        g1 = paper_problem.agent_gradient_for_observation(
            agent, theta, paper_problem.Y[agent] + delta_s
        )
        worst_emp = max(worst_emp, float(np.abs(lam * (g1 - g0)).sum()))

    # monotonicity sweeps
    mono_ok = True
    grid = np.linspace(0.05, 0.95, 15)
    for target in ("sample", "gradient", "variable"):
        vals = [variance_for_budget(float(e), 0.05, target, nu=2.0, lam=0.05, n_i=3)
                for e in grid]
        mono_ok &= all(a > b for a, b in zip(vals[:-1], vals[1:]))
    lams = np.geomspace(1e-3, 0.5, 15)
    for target, sign in (("sample", 1), ("gradient", 1), ("variable", -1)):
        vals = [variance_for_budget(0.3, 0.05, target, nu=2.0, lam=float(l), n_i=3)
                for l in lams]
        mono_ok &= all(sign * (b - a) > 0 for a, b in zip(vals[:-1], vals[1:]))
    ns = (1, 2, 5, 20, 100)
    vals = [variance_for_budget(0.3, 0.05, "sample", nu=2.0, lam=0.05, n_i=n) for n in ns]
    mono_ok &= all(a > b for a, b in zip(vals[:-1], vals[1:]))

    ok = worst_rt <= 1e-12 and worst_emp <= bound + 1e-9 and mono_ok
    _report(
        "6 (privacy calibration)",
        ok,
        f"round-trip worst rel err {worst_rt:.2e}; empirical sensitivity "
        f"{worst_emp:.3e} <= bound {bound:.3e}; monotonicity {'ok' if mono_ok else 'BROKEN'}",
    )


@pytest.mark.acceptance
def test_criterion_7_ica_desk_scale(ica4, rpc5, complete5):
    # random unit initialization, noisy runs
    random_ok = 0
    configs = [
        RunConfig(
            problem=ica4, weights=rpc5, schedule=ICA_SCHEDULE, noise_variance=1.0,
            iterations=3000, seed=_derived_seed(MASTER_SEED, 7, i),
            init_mode="random_box", record_every=3000,
        )
        for i in range(100)
    ]
    for trace in run_batch(configs):
        if trace.records[-1].opt_error_max <= 0.3:
            random_ok += 1

    # saddle initialization, noisy runs escape
    saddle_ok = 0
    configs = [
        RunConfig(
            problem=ica4, weights=complete5, schedule=ICA_SCHEDULE, noise_variance=1.0,
            iterations=3000, seed=_derived_seed(MASTER_SEED, 8, i),
            init_mode="at_saddle", record_every=3000,
        )
        for i in range(100)
    ]
    for trace in run_batch(configs):
        if trace.records[-1].opt_error_max <= 0.3:
            saddle_ok += 1

    # zero-variance control stays on the refined saddle direction
    cfg = RunConfig(
        problem=ica4, weights=complete5, schedule=ICA_SCHEDULE, noise_variance=0.0,
        iterations=3000, seed=0, init_mode="at_saddle", record_every=1, record_state=True,
    )
    trace = run(cfg)
    u_star = trace.records[0].x[0]
    control_dev = max(np.linalg.norm(r.x - u_star, axis=1).max() for r in trace.records)

    # reference-scale instance (d = 10): error decreases, checked qualitatively
    p10 = make_ica_problem(d=10, m=5, samples_per_agent=160, seed=7)
    drops = []
    configs = [
        RunConfig(
            problem=p10, weights=rpc5, schedule=ICA_SCHEDULE, noise_variance=1.0,
            iterations=3000, seed=_derived_seed(MASTER_SEED, 9, i),
            init_mode="random_box", record_every=3000,
        )
        for i in range(5)
    ]
    for t in run_batch(configs):
        drops.append(t.records[-1].opt_error_max / t.records[0].opt_error_max)
    qualitative_ok = float(np.median(drops)) < 0.7

    ok = random_ok >= 80 and saddle_ok >= 80 and control_dev <= 1e-3 and qualitative_ok
    _report(
        "7 (ICA desk scale)",
        ok,
        f"random init {random_ok}/100, saddle escape {saddle_ok}/100, "
        f"control deviation {control_dev:.2e} (<= 1e-3), "
        f"d=10 median error drop factor {float(np.median(drops)):.3f}",
    )


@pytest.mark.acceptance
def test_criterion_8_byte_identical_outputs(tmp_path):
    run_cfg = {
        "problem": {"name": "estimation_paper"},
        "topology": {"builtin": "ring_plus_chord", "m": 5},
        "schedule": {"kind": "piecewise_paper", "lambda0": 0.02, "switch_k": 500,
                     "scale": 1.0},
        "noise": {"variance": 0.5},
        "init": {"mode": "random_box"},
        "iterations": 300,
        "record_every": 10,
        "seed": 777,
    }
    sweep_cfg = {
        "base": dict(run_cfg, iterations=200, record_every=200),
        "variances": [0.1, 0.5],
        "runs_per_cell": 3,
    }
    coupling_cfg = {
        "problem": {"name": "estimation_paper"},
        "topology": {"builtin": "complete", "m": 5},
        "schedule": run_cfg["schedule"],
        "variance": 0.5,
        "runs": 5,
        "horizon": 400,
        "escape_radius": 0.5,
        "seed": 777,
    }
    privacy_cfg = {
        "schedule": run_cfg["schedule"],
        "variance": 0.5,
        "delta": 0.05,
        "nu": 8.37,
        "n_i": 1,
        "horizon": 600,
    }
    jobs = [
        ("run", run_cfg, ("trace.csv", "summary.json")),
        ("table1", sweep_cfg, ("table1.csv",)),
        ("coupling", coupling_cfg, ("coupling.json",)),
        ("privacy-report", privacy_cfg, ("privacy_report.csv",)),
    ]
    mismatches = []
    for command, cfg, outputs in jobs:
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        dirs = [tmp_path / f"{command}_a", tmp_path / f"{command}_b"]
        for d in dirs:
            d.mkdir()
            rc = cli.main([command, "--config", str(cfg_path), "--out", str(d)])
            assert rc == 0, f"{command} exited {rc}"
        for name in outputs:
            if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
                mismatches.append(f"{command}:{name}")
    _report(
        "8 (byte-identical reruns)",
        not mismatches,
        "all outputs byte-identical" if not mismatches else f"mismatches: {mismatches}",
    )
