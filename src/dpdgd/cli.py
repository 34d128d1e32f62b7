"""Batch experiment runner: seeded runs, noise sweeps, coupling experiments,
per-iteration privacy reports, and a built-in verification suite.

Config files are JSON with a closed schema: unknown keys are errors, so typos
cannot silently corrupt a sweep. All outputs are plain CSV/JSON written with
17-significant-digit floats; identical config + seed reproduces identical
bytes.

Exit codes: 0 success, 1 configuration/validation error, 2 numerical
divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from importlib.resources import files as resource_files
from pathlib import Path

import numpy as np

from . import analysis, privacy
from .optimizer import (
    InvalidConfig,
    NonFiniteState,
    RunConfig,
    StepsizeSchedule,
    run,
    run_batch,
)
from .problems import (
    ProblemError,
    QuadraticProblem,
    classify_stationary_point,
    make_ica_problem,
    make_paper_estimation_problem,
)
from .topology import (
    Graph,
    TopologyError,
    build_metropolis_weights,
    builtin_topology,
    validate_weight_matrix,
)

ENV_OUT_DIR = "DPDGD_OUT"
TRACE_HEADER = "k,lambda,consensus_error,opt_error_mean,opt_error_max,noise_norm"
TABLE1_HEADER = "sigma,mean_final_error,std_final_error,runs"
PRIVACY_HEADER = "k,lambda,eps_sample,eps_gradient,eps_variable,delta,variance"

_TABLE1_STREAM = 10


def _fail(msg) -> int:
    print(f"config error: {msg}", file=sys.stderr)
    return 1


def _check_keys(obj, allowed, required, path):
    if not isinstance(obj, dict):
        raise InvalidConfig(f"{path}: expected an object")
    for key in obj:
        if key not in allowed:
            raise InvalidConfig(f"{path}: unknown key {key!r} (allowed: {sorted(allowed)})")
    for key in required:
        if key not in obj:
            raise InvalidConfig(f"{path}: missing required key {key!r}")


def _integer(value, name, flag=False):
    """int(value) for an integral number, or for a numeral given as a command-line
    flag; booleans, fractions, config strings and anything int() refuses are errors."""
    try:
        if (isinstance(value, bool) or (isinstance(value, str) and not flag)
                or (isinstance(value, float) and not value.is_integer())):
            raise ValueError
        return int(value)
    except (TypeError, ValueError):
        raise InvalidConfig(f"{name} must be an integer, got {value!r}") from None


def _real(value, name):
    """float(value) for a number; booleans, strings, other types and integers
    beyond the float range are errors."""
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError
        return float(value)
    except (TypeError, OverflowError):
        raise InvalidConfig(f"{name} must be a number, got {value!r}") from None


def _seed(cfg, args):
    """The --seed flag if given, else the config's seed."""
    if args.seed is None:
        return _integer(cfg["seed"], "seed")
    return _integer(args.seed, "--seed", flag=True)


def load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidConfig(f"cannot read config {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidConfig(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def build_problem(spec):
    # instances are shared per spec within a process (constants estimation is
    # the expensive part); callers must treat them as immutable
    key = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    if key in _PROBLEM_CACHE:
        return _PROBLEM_CACHE[key]
    problem = _build_problem_uncached(spec)
    _PROBLEM_CACHE[key] = problem
    return problem


_PROBLEM_CACHE = {}


def _build_problem_uncached(spec):
    _check_keys(
        spec,
        {"name", "d", "m", "samples_per_agent", "seed", "diag", "offsets", "init_half_width"},
        {"name"},
        "problem",
    )
    name = spec["name"]
    if name == "estimation_paper":
        extra = set(spec) - {"name"}
        if extra:
            raise InvalidConfig(f"problem: estimation_paper takes no parameters, got {sorted(extra)}")
        return make_paper_estimation_problem()
    if name == "ica":
        for key in ("d", "m", "samples_per_agent", "seed"):
            if key not in spec:
                raise InvalidConfig(f"problem: ica requires {key!r}")
        return make_ica_problem(**{
            key: _integer(spec[key], f"problem {key}")
            for key in ("d", "m", "samples_per_agent", "seed")
        })
    if name == "custom_quadratic":
        if "diag" not in spec:
            raise InvalidConfig("problem: custom_quadratic requires 'diag'")
        return QuadraticProblem(
            diag=spec["diag"],
            m=_integer(spec.get("m", 1), "problem m"),
            offsets=spec.get("offsets"),
            init_half_width=_real(spec.get("init_half_width", 3.0), "problem init_half_width"),
        )
    raise InvalidConfig(f"problem: unknown name {name!r}")


def build_weights(spec):
    _check_keys(spec, {"builtin", "m", "edges", "matrix"}, set(), "topology")
    forms = [k for k in ("builtin", "edges", "matrix") if k in spec]
    if len(forms) != 1:
        raise InvalidConfig("topology: give exactly one of builtin | edges | matrix")
    if "matrix" in spec:
        return validate_weight_matrix(np.asarray(spec["matrix"], dtype=float))
    if "m" not in spec:
        raise InvalidConfig("topology: graph forms require 'm'")
    m = _integer(spec["m"], "topology m")
    if "builtin" in spec:
        graph = builtin_topology(spec["builtin"], m)
    else:
        edges = frozenset((_integer(i, "topology edge"), _integer(j, "topology edge"))
                          for i, j in spec["edges"])
        graph = Graph(m=m, edges=edges)
    return build_metropolis_weights(graph)


def build_schedule(spec):
    _check_keys(spec, {"kind", "lambda0", "switch_k", "scale"}, {"kind"}, "schedule")
    kind = spec["kind"]
    lambda0 = _real(spec.get("lambda0", 0.0), "schedule lambda0")
    scale = _real(spec.get("scale", 0.0), "schedule scale")
    if kind == "constant":
        return StepsizeSchedule.constant(lambda0)
    if kind == "harmonic":
        return StepsizeSchedule.harmonic(scale)
    if kind == "piecewise_paper":
        return StepsizeSchedule.piecewise_paper(
            lambda0=lambda0,
            switch_k=_integer(spec.get("switch_k", 0), "schedule switch_k"),
            scale=scale,
        )
    raise InvalidConfig(f"schedule: unknown kind {kind!r}")


def fingerprint(cfg) -> str:
    """sha256 of the canonical config, output paths excluded."""
    core = {k: v for k, v in cfg.items() if k != "output"}
    blob = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def build_run_config(cfg, seed_override=None, record_every_override=None):
    _check_keys(
        cfg,
        {"problem", "topology", "schedule", "noise", "init", "iterations",
         "record_every", "record_state", "seed", "output"},
        {"problem", "topology", "schedule", "noise", "iterations", "seed"},
        "run config",
    )
    _check_keys(cfg["noise"], {"variance"}, {"variance"}, "noise")
    init = cfg.get("init", {"mode": "random_box"})
    _check_keys(init, {"mode", "coords"}, {"mode"}, "init")
    resolved = dict(cfg)
    if seed_override is not None:
        resolved["seed"] = _integer(seed_override, "--seed", flag=True)
    if record_every_override is not None:
        resolved["record_every"] = _integer(record_every_override, "--record-every", flag=True)
    problem = build_problem(resolved["problem"])
    weights = build_weights(resolved["topology"])
    schedule = build_schedule(resolved["schedule"])
    config = RunConfig(
        problem=problem,
        weights=weights,
        schedule=schedule,
        noise_variance=_real(resolved["noise"]["variance"], "noise.variance"),
        iterations=_integer(resolved["iterations"], "iterations"),
        seed=_integer(resolved["seed"], "seed"),
        init_mode=init["mode"],
        init_coords=init.get("coords"),
        record_every=_integer(resolved.get("record_every", 1), "record_every"),
        record_state=bool(resolved.get("record_state", False)),
        fingerprint=fingerprint(resolved),
    )
    return config, resolved


def output_paths(flag_value, cfg, **defaults):
    """Output files named by the config's `output` object, else by the defaults, in the
    directory from --out, $DPDGD_OUT or `output.dir`, else the current one (created)."""
    names = cfg["output"] if isinstance(cfg.get("output"), dict) else {}
    if flag_value:
        out = Path(flag_value)
    elif os.environ.get(ENV_OUT_DIR):
        out = Path(os.environ[ENV_OUT_DIR])
    else:
        out = Path(names.get("dir") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return [out / names.get(key, name) for key, name in defaults.items()]


def write_trace_csv(path, trace):
    rows = ["%d,%.17g,%.17g,%.17g,%.17g,%.17g" % (r.k, r.lam, r.consensus_error, r.opt_error_mean,
                                                   r.opt_error_max, r.noise_norm)
            for r in trace.records]
    Path(path).write_text("\n".join([TRACE_HEADER, *rows]) + "\n")


def write_summary_json(path, trace):
    final = trace.records[-1]
    payload = {
        "config_fingerprint": trace.config_fingerprint,
        "seed": trace.seed,
        "final_metrics": {
            "k": final.k,
            "consensus_error": final.consensus_error,
            "opt_error_mean": final.opt_error_mean,
            "opt_error_max": final.opt_error_max,
        },
        "final_state": trace.final_state.x.tolist(),
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        config, resolved = build_run_config(
            cfg, seed_override=args.seed, record_every_override=args.record_every
        )
    except (InvalidConfig, TopologyError, ProblemError, TypeError, ValueError) as exc:
        return _fail(f"[{type(exc).__name__}] {exc}")
    trace_path, summary_path = output_paths(
        args.out, resolved, trace_csv="trace.csv", summary_json="summary.json"
    )
    try:
        trace = run(config)
    except NonFiniteState as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 2
    write_trace_csv(trace_path, trace)
    write_summary_json(summary_path, trace)
    print(f"wrote {trace_path} and {summary_path}")
    return 0


def _table1_seed(master_seed, cell_index, r):
    key = (int(master_seed), _TABLE1_STREAM, int(cell_index), r)
    return int(np.random.SeedSequence(key).generate_state(1, dtype=np.uint64)[0])


def _table1_finals(payload):
    """Final mean optimization errors of sweep runs, given as (variance,
    seed) pairs over one base config, advanced as one lockstep batch."""
    base_cfg, runs = payload
    config, _ = build_run_config(base_cfg, seed_override=runs[0][1])
    traces = run_batch(
        [dataclasses.replace(config, noise_variance=float(v), seed=s) for v, s in runs]
    )
    return [trace.records[-1].opt_error_mean for trace in traces]


def _cell_stats(finals):
    finals = np.array(finals)
    return float(finals.mean()), float(finals.std()), len(finals)


def _table1_cell(payload):
    """One sweep cell: repeated seeded runs at a fixed variance."""
    base_cfg, variance, runs_per_cell, master_seed, cell_index = payload
    runs = [(variance, _table1_seed(master_seed, cell_index, r)) for r in range(runs_per_cell)]
    return _cell_stats(_table1_finals((base_cfg, runs)))


def cmd_table1(args) -> int:
    try:
        cfg = load_config(args.config)
        _check_keys(cfg, {"base", "variances", "runs_per_cell", "output"},
                    {"base", "variances", "runs_per_cell"}, "sweep config")
        base_cfg = dict(cfg["base"])
        base_cfg.pop("output", None)
        # validate the base config once up front
        build_run_config(base_cfg, seed_override=args.seed)
        variances = [_real(v, "variances") for v in cfg["variances"]]
        if not all(v >= 0 for v in variances):
            raise InvalidConfig("sweep config: variances must be >= 0")
        runs_per_cell = _integer(cfg["runs_per_cell"], "runs_per_cell")
        if runs_per_cell < 1:
            raise InvalidConfig("sweep config: runs_per_cell must be >= 1")
        master_seed = _seed(base_cfg, args)
        jobs = _integer(args.jobs, "--jobs", flag=True)
        if jobs < 1:
            raise InvalidConfig(f"--jobs must be >= 1, got {jobs}")
    except (InvalidConfig, TopologyError, ProblemError, TypeError, ValueError) as exc:
        return _fail(f"[{type(exc).__name__}] {exc}")
    # every (cell, run) pair in one lockstep batch, or in one contiguous chunk
    # per worker; a run's numbers do not depend on the batch it is in
    runs = [
        (v, _table1_seed(master_seed, i, r))
        for i, v in enumerate(variances) for r in range(runs_per_cell)
    ]
    jobs = min(jobs, len(runs))
    bounds = [len(runs) * c // jobs for c in range(jobs + 1)]
    chunks = [(base_cfg, runs[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    try:
        if jobs > 1:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                parts = list(pool.map(_table1_finals, chunks))
        else:
            parts = [_table1_finals(chunks[0])]
    except NonFiniteState as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 2
    finals = [f for part in parts for f in part]
    path, = output_paths(args.out, cfg, csv="table1.csv")
    lines = [TABLE1_HEADER]
    for i, v in enumerate(variances):
        mean, std, n = _cell_stats(finals[i * runs_per_cell:(i + 1) * runs_per_cell])
        lines.append("%.17g,%.17g,%.17g,%d" % (v, mean, std, n))
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")
    return 0


def cmd_coupling(args) -> int:
    try:
        cfg = load_config(args.config)
        _check_keys(
            cfg,
            {"problem", "topology", "schedule", "variance", "runs", "horizon",
             "escape_radius", "seed", "output"},
            {"problem", "topology", "schedule", "variance", "runs", "horizon",
             "escape_radius", "seed"},
            "coupling config",
        )
        problem = build_problem(cfg["problem"])
        weights = build_weights(cfg["topology"])
        schedule = build_schedule(cfg["schedule"])
        seed = _seed(cfg, args)
        result = analysis.run_coupling_experiment(
            problem, weights, problem.known_saddle(), schedule,
            variance=_real(cfg["variance"], "variance"), runs=_integer(cfg["runs"], "runs"),
            horizon=_integer(cfg["horizon"], "horizon"),
            escape_radius=_real(cfg["escape_radius"], "escape_radius"),
            seed=seed,
        )
    except (InvalidConfig, TopologyError, ProblemError, analysis.AnalysisError, TypeError,
            ValueError) as exc:
        return _fail(f"[{type(exc).__name__}] {exc}")
    except NonFiniteState as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 2
    resolved = dict(cfg)
    resolved["seed"] = seed
    payload = {
        "config_fingerprint": fingerprint(resolved),
        "escape_count": result.escape_count,
        "total_runs": result.total_runs,
        "escape_radius": result.escape_radius,
        "iterations_to_escape": result.iterations_to_escape,
        "e1": result.e1.tolist(),
        "seed": result.seed,
    }
    path, = output_paths(args.out, cfg, json="coupling.json")
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


def cmd_privacy_report(args) -> int:
    try:
        cfg = load_config(args.config)
        _check_keys(
            cfg,
            {"schedule", "variance", "delta", "nu", "n_i", "horizon", "output"},
            {"schedule", "variance", "delta", "nu", "n_i", "horizon"},
            "privacy config",
        )
        schedule = build_schedule(cfg["schedule"])
        delta, variance = _real(cfg["delta"], "delta"), _real(cfg["variance"], "variance")
        report = privacy.per_iteration_report(
            schedule, variance=variance, nu=_real(cfg["nu"], "nu"),
            n_i=_integer(cfg["n_i"], "n_i"), delta=delta,
            horizon=_integer(cfg["horizon"], "horizon"),
        )
    except (InvalidConfig, privacy.PrivacyError, TypeError, ValueError) as exc:
        return _fail(f"[{type(exc).__name__}] {exc}")
    path, = output_paths(args.out, cfg, csv="privacy_report.csv")
    row = "%d,%.17g,%.17g,%.17g,%.17g," + "%.17g,%.17g" % (delta, variance)
    columns = (report.k, report.lam, report.eps_sample, report.eps_gradient, report.eps_variable)
    rows = [row % r for r in zip(*(c.tolist() for c in columns))]
    path.write_text("\n".join([PRIVACY_HEADER, *rows]) + "\n")
    print(f"wrote {path}")
    return 0


def _verify_checks():
    """Fast property suite; yields (name, ok, detail)."""
    from . import numdiff
    from .topology import spectral_gap

    # weight-matrix invariants on built-in graphs
    ok, detail = True, ""
    try:
        for name in ("complete", "ring", "path", "ring_plus_chord"):
            for m in (2, 3, 5, 8, 13):
                w = build_metropolis_weights(builtin_topology(name, m))
                if not (0.0 <= w.eta < 1.0):
                    ok, detail = False, f"{name} m={m}: eta={w.eta}"
        tri = build_metropolis_weights(builtin_topology("complete", 3))
        if np.abs(tri.w - 1.0 / 3.0).max() > 1e-15:
            ok, detail = False, "triangle weights differ from 1/3"
    except TopologyError as exc:
        ok, detail = False, str(exc)
    yield "weight_invariants", ok, detail

    # spectral gap vs dense SVD oracle
    w = build_metropolis_weights(builtin_topology("ring_plus_chord", 5))
    dev = w.w - np.ones((5, 5)) / 5
    svd = float(np.linalg.svd(dev, compute_uv=False).max())
    ok = abs(spectral_gap(w) - svd) <= 1e-10
    yield "spectral_gap_oracle", ok, f"eigh={spectral_gap(w):.12f} svd={svd:.12f}"

    # finite-difference gradient agreement on the estimation benchmark
    p = make_paper_estimation_problem()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        theta = rng.uniform(p.lo - 1.0, p.hi + 1.0)
        agent = int(rng.integers(p.m))
        g = p.agent_gradient(agent, theta)
        fd = numdiff.gradient(lambda t: p.agent_objective(agent, t), theta, step=1e-6)
        worst = max(worst, float(np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1.0)))
    ok = worst <= 1e-5
    yield "gradient_finite_difference", ok, f"worst rel err {worst:.2e}"

    # contraction inequality on a short live run
    from .topology import build_metropolis_weights as _bmw

    weights = _bmw(builtin_topology("ring_plus_chord", 5))
    config = RunConfig(
        problem=p, weights=weights,
        schedule=StepsizeSchedule.piecewise_paper(0.02, 500, 1.0),
        noise_variance=0.5, iterations=120, seed=11, init_mode="random_box",
        record_every=1, record_state=True,
    )
    report = analysis.assert_contraction(run(config), weights)
    yield "contraction_inequality", report.ok, f"{report.pairs_checked} pairs checked"

    # privacy calibration round trips
    worst = 0.0
    for eps in (0.1, 0.5, 0.9):
        for target in privacy.TARGETS:
            inputs = privacy.SensitivityInputs(nu=2.0, lambda_k=0.02, n_i=5)
            var = privacy.variance_for_budget(
                privacy.PrivacyBudget(epsilon=eps, delta=0.05, target=target), inputs
            )
            back = privacy.budget_for_variance(var, target, inputs, delta=0.05).epsilon
            worst = max(worst, abs(back - eps) / eps)
    ok = worst <= 1e-12
    yield "privacy_roundtrip", ok, f"worst rel err {worst:.2e}"

    # classification of the benchmark stationary points
    kinds = [
        classify_stationary_point(p, np.array(pt.coords), grad_tol=1e-2, eig_tol=1e-6)
        for pt in p.known_points
    ]
    ok = kinds == [pt.kind for pt in p.known_points]
    yield "stationary_classification", ok, (
        f"(1.3478, 1.0690) -> {kinds[0]}; (-7.4336, 1.3959) -> {kinds[1]}"
    )


def cmd_verify(_args) -> int:
    failed = None
    for name, ok, detail in _verify_checks():
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"{status} {name}{suffix}")
        if not ok and failed is None:
            failed = name
    if failed:
        print(f"first failing property: {failed}", file=sys.stderr)
        return 1
    return 0


def bundled_config_path(name) -> Path:
    """Path to a config shipped with the package (see `dpdgd list-configs`)."""
    return Path(str(resource_files("dpdgd").joinpath("configs", name)))


def cmd_list_configs(_args) -> int:
    cfg_dir = resource_files("dpdgd").joinpath("configs")
    for entry in sorted(p.name for p in cfg_dir.iterdir()):
        print(entry)
    return 0


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse, but a usage error raises instead of exiting 2, the divergence code."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def main(argv=None) -> int:
    parser = _Parser(
        prog="dpdgd",
        description="Differentially private decentralized nonconvex optimization runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, jobs=False):
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default=None, help=f"output directory (or ${ENV_OUT_DIR})")
        sp.add_argument("--seed", default=None, help="override the config seed (an integer)")
        if jobs:
            sp.add_argument("--jobs", default=1, help="parallel sweep workers (an integer >= 1)")

    sp_run = sub.add_parser("run", help="single seeded run; writes trace CSV + summary JSON")
    add_common(sp_run)
    sp_run.add_argument("--record-every", default=None, help="trace row spacing (an integer)")
    sp_run.set_defaults(func=cmd_run)

    sp_t1 = sub.add_parser("table1", help="final-error sweep over noise variances")
    add_common(sp_t1, jobs=True)
    sp_t1.set_defaults(func=cmd_table1)

    sp_cp = sub.add_parser("coupling", help="paired saddle-escape experiment")
    add_common(sp_cp)
    sp_cp.set_defaults(func=cmd_coupling)

    sp_pr = sub.add_parser("privacy-report", help="per-iteration epsilon report CSV")
    sp_pr.add_argument("--config", required=True)
    sp_pr.add_argument("--out", default=None)
    sp_pr.set_defaults(func=cmd_privacy_report)

    sp_vf = sub.add_parser("verify", help="run the built-in fast property suite")
    sp_vf.set_defaults(func=cmd_verify)

    sp_lc = sub.add_parser("list-configs", help="list bundled experiment configs")
    sp_lc.set_defaults(func=cmd_list_configs)

    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
