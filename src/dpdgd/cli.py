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
from typing import NamedTuple

import numpy as np

from . import analysis, privacy
from .optimizer import (
    _TABLE1_STREAM,
    InvalidConfig,
    NonFiniteState,
    RunConfig,
    StepsizeSchedule,
    check_batch_memory,
    run,
    run_batch,
    stream_keys,
)
from .problems import (
    ProblemError,
    QuadraticProblem,
    classify_stationary_point,
    make_ica_problem,
    make_paper_estimation_problem,
)
from .topology import (
    BUILTIN_TOPOLOGIES,
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

# -- config schema: a table maps each key of a JSON object to a Field; an object
# with variants (problem `name`, schedule `kind`, init `mode`, topology form) has
# a table per variant. Ranges the library checks (RunConfig, StepsizeSchedule,
# Graph, validate_weight_matrix, problems, coupling, privacy) are left to it.


class Field(NamedTuple):
    type: str  # "object" or a key of _WHAT
    required: bool = False
    default: object = None
    checks: tuple = ()  # (predicate, what the value must be) for ranges only the CLI knows
    sub: object = None  # the table of an object, or the options of a choice


class _Variants(dict):
    """The tables of an object's variants, chosen by the value of `key` or,
    when `key` is None, by which variant's name is a key of the object."""

    def __init__(self, key, **tables):
        super().__init__(tables)
        self.key = key


_WHAT = {"int": "a 64-bit integer", "real": "a number", "choice": "one of {}",
         "path": "a printable string", "edges": "a list of [i, j] pairs",
         "array": "a list of numbers (a list of lists for a matrix)"}


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers_only(value):
    return all(map(_numbers_only, value)) if isinstance(value, list) else _is_number(value)


def _convert(value, field, name):
    """`value` as a `field.type`, or InvalidConfig naming the field."""
    kind = field.type
    try:
        if kind == "int" and _is_number(value) and -2**63 <= value < 2**64 and (
                isinstance(value, int) or value.is_integer()):
            return int(value)
        if kind == "real" and _is_number(value):
            return float(value)  # OverflowError beyond the float range
        if (kind == "choice" and value in field.sub
                or kind == "path" and isinstance(value, str) and value.isprintable()):
            return value
        if kind == "array" and isinstance(value, list) and _numbers_only(value):
            return np.asarray(value, dtype=float)  # ValueError if ragged
        if kind == "edges" and isinstance(value, list) and all(
                isinstance(e, list) and len(e) == 2 for e in value):
            return frozenset((_convert(i, _INT, name), _convert(j, _INT, name)) for i, j in value)
    except (ValueError, OverflowError):
        pass
    raise InvalidConfig(f"{name} must be {_WHAT[kind].format(list(field.sub or ()))}, "
                        f"got {value!r}")


def _walk(value, table, label, prefix=""):
    """`value` checked against `table`, with its fields named `prefix + key`."""
    if not isinstance(value, dict):
        raise InvalidConfig(f"{label} must be an object, got {value!r}")
    if isinstance(table, _Variants):
        table, prefix = _variant(value, table, label), label + " "
    for key in value:
        if key not in table:
            raise InvalidConfig(f"{label}: unknown key {key!r} (allowed: {sorted(table)})")
    out = {}
    for key, field in table.items():
        name, given = prefix + key, value.get(key, field.default)
        if key not in value and field.required:
            raise InvalidConfig(f"{label}: missing required key {key!r}")
        if key not in value and given is None:
            out[key] = None
        elif field.type == "object":
            out[key] = _walk(given, field.sub, name, name + ".")
        else:
            out[key] = _convert(given, field, name)
            for ok, what in field.checks:
                if not ok(out[key]):
                    raise InvalidConfig(f"{name} must be {what}, got {given!r}")
    return out


def _variant(value, variants, label):
    """The table of the variant that the object `value` is."""
    key = variants.key
    names = [name for name in variants if (value.get(key) == name if key else name in value)]
    if len(names) != 1:
        raise InvalidConfig(f"{label} {key} must be one of {list(variants)}, got {value.get(key)!r}"
                            if key else f"{label}: give exactly one of {' | '.join(variants)}")
    table = variants[names[0]]
    return {key: Field("choice", True, sub=names), **table} if key else table


def _output(**files):
    """The `output` object of a command that writes `files` (key=default name):
    the directory they go to and their names."""
    plain = ((lambda s: s not in ("", ".", "..") and "/" not in s and len(s.encode()) <= 255,
              "a file name without '/' of at most 255 bytes"),)
    names = {key: Field("path", default=name, checks=plain) for key, name in files.items()}
    return Field("object", default={}, sub={"dir": Field("path", default="."), **names})


_INT, _REAL = Field("int", True), Field("real", True)

# an all-zero diag has no curvature to bound: the problem's nu would be 0
_DIAG = Field("array", True, checks=((lambda c: np.isfinite(c).all() and c.any(),
                                      "finite with a nonzero entry"),))
_PROBLEM = _Variants(  # the keys are the parameters of _PROBLEM_MAKERS
    "name",
    estimation_paper={},
    ica={"d": _INT, "m": _INT, "samples_per_agent": _INT, "seed": _INT},
    custom_quadratic={"diag": _DIAG, "m": Field("int", default=1),
                      "offsets": Field("array", checks=((lambda c: np.isfinite(c).all(), "finite"),))},
)
_TOPOLOGY = _Variants(
    None,
    builtin={"builtin": Field("choice", True, sub=BUILTIN_TOPOLOGIES), "m": _INT},
    edges={"edges": Field("edges", True), "m": _INT},
    matrix={"matrix": Field("array", True)},
)
_SCHEDULE = _Variants(  # the keys are StepsizeSchedule's fields
    "kind",
    constant={"lambda0": _REAL},
    harmonic={"scale": _REAL},
    piecewise_paper={"lambda0": _REAL, "switch_k": _INT, "scale": _REAL},
)
_INIT = _Variants("mode", random_box={}, explicit={"coords": Field("array", True)}, at_saddle={})

_SHARED = {  # the entries of more than one command's table
    "problem": Field("object", True, sub=_PROBLEM),
    "topology": Field("object", True, sub=_TOPOLOGY),
    "schedule": Field("object", True, sub=_SCHEDULE),
}
_BASE = {  # a run without its output files: `table1.base`
    **_SHARED,
    "noise": Field("object", True, sub={"variance": _REAL}),
    "init": Field("object", default={"mode": "random_box"}, sub=_INIT),
    "iterations": _INT,
    "record_every": Field("int", default=1),
    "seed": _INT,
}
_RUN = {**_BASE, "output": _output(trace_csv="trace.csv", summary_json="summary.json")}
_TABLE1 = {
    "base": Field("object", True, sub=_BASE),
    "variances": Field("array", True, checks=((lambda v: v.ndim == 1 and v.size and (v >= 0).all(),
                                               ">= 0, in a non-empty list"),)),
    "runs_per_cell": Field("int", True, checks=(
        (lambda n: n >= 1, ">= 1"),
        (lambda n: n <= 2**32,
         "at most 2**32, so that a run index fits its stream key's 32-bit word"),
    )),
    "output": _output(csv="table1.csv"),
}
_COUPLING = {**_SHARED, "variance": _REAL, "runs": _INT, "horizon": _INT, "escape_radius": _REAL,
             "seed": _INT, "output": _output(json="coupling.json")}
_PRIVACY = {"schedule": _SHARED["schedule"], "variance": _REAL, "delta": _REAL, "nu": _REAL,
            "n_i": _INT, "horizon": _INT, "output": _output(csv="privacy_report.csv")}


def _flag(text, name):
    """The integer a command-line numeral gives."""
    try:
        return int(text)
    except ValueError:
        raise InvalidConfig(f"{name} must be an integer, got {text!r}") from None


def _with_flags(cfg, **flags):
    """The config with each given flag's integer in place of the key of its name."""
    given = {key: _flag(text, "--" + key.replace("_", "-"))
             for key, text in flags.items() if text is not None}
    return {**cfg, **given} if given and isinstance(cfg, dict) else cfg


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
    if key not in _PROBLEM_CACHE:
        params = _walk(spec, _PROBLEM, "problem")
        _PROBLEM_CACHE[key] = _PROBLEM_MAKERS[params.pop("name")](**params)
    return _PROBLEM_CACHE[key]


_PROBLEM_CACHE = {}
_PROBLEM_MAKERS = {"estimation_paper": make_paper_estimation_problem, "ica": make_ica_problem,
                   "custom_quadratic": QuadraticProblem}


def build_weights(spec, agents=None):
    """The mixing matrix of a topology. One whose agent count is not `agents` is
    rejected before it is built (a graph costs O(m^2))."""
    spec = _walk(spec, _TOPOLOGY, "topology")
    m = spec["m"] if "m" in spec else len(spec["matrix"])
    if agents is not None and m != agents:
        raise InvalidConfig(f"topology has {m} agents but problem has {agents}")
    if "matrix" in spec:
        return validate_weight_matrix(spec["matrix"])
    graph = builtin_topology(spec["builtin"], m) if "builtin" in spec else Graph(m, spec["edges"])
    return build_metropolis_weights(graph)


def build_schedule(spec):
    return StepsizeSchedule(**_walk(spec, _SCHEDULE, "schedule"))


def fingerprint(cfg) -> str:
    """sha256 of the canonical config, output paths excluded."""
    core = {k: v for k, v in cfg.items() if k != "output"}
    blob = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def build_run_config(cfg, seed_override=None, record_every_override=None):
    """The RunConfig of a run config, and the config as checked by the schema."""
    resolved = _with_flags(cfg, seed=seed_override, record_every=record_every_override)
    checked = _walk(resolved, _RUN, "run config")
    problem = build_problem(resolved["problem"])
    init = checked["init"]
    config = RunConfig(
        problem=problem,
        weights=build_weights(resolved["topology"], problem.m),
        schedule=build_schedule(resolved["schedule"]),
        noise_variance=checked["noise"]["variance"],
        iterations=checked["iterations"],
        seed=checked["seed"],
        init_mode=init["mode"],
        init_coords=init.get("coords"),
        record_every=checked["record_every"],
        fingerprint=fingerprint(resolved),
    )
    return config, checked


def output_paths(flag_value, names):
    """The files of a checked `output` object, in the directory from --out,
    $DPDGD_OUT or `output.dir` (created)."""
    out = Path(flag_value or os.environ.get(ENV_OUT_DIR) or names["dir"])
    out.mkdir(parents=True, exist_ok=True)
    return [out / name for key, name in names.items() if key != "dir"]


def write_trace_csv(path, trace):
    rows = ["%d,%.17g,%.17g,%.17g,%.17g,%.17g" % (r.k, r.lam, r.consensus_error, r.opt_error_mean,
                                                   r.opt_error_max, r.noise_norm)
            for r in trace.records]
    Path(path).write_text("\n".join([TRACE_HEADER, *rows]) + "\n")


def write_summary_json(path, trace, config):
    final = trace.records[-1]
    payload = {
        "config_fingerprint": config.fingerprint,
        "seed": config.seed,
        "final_metrics": {
            "k": final.k,
            "consensus_error": final.consensus_error,
            "opt_error_mean": final.opt_error_mean,
            "opt_error_max": final.opt_error_max,
        },
        "final_state": trace.final_state.tolist(),
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def cmd_run(args) -> int:
    config, checked = build_run_config(
        load_config(args.config), seed_override=args.seed, record_every_override=args.record_every
    )
    trace = run(config)
    trace_path, summary_path = output_paths(args.out, checked["output"])
    write_trace_csv(trace_path, trace)
    write_summary_json(summary_path, trace, config)
    print(f"wrote {trace_path} and {summary_path}")
    return 0


def _table1_seeds(master_seed, cells, runs_per_cell):
    """Seeds of runs 0..runs_per_cell-1 of each sweep cell in `cells`, cell by
    cell, from one key pass: run r of cell i takes word 0 of the stream key
    (master_seed, _TABLE1_STREAM, i, r), SeedSequence's generate_state(1, np.uint64)[0]."""
    keys = [(_TABLE1_STREAM, i, r) for i in cells for r in range(runs_per_cell)]
    return stream_keys([master_seed], keys)[0, :, 0].tolist()


def _table1_finals(payload):
    """Final mean optimization errors of sweep runs, given as (variance,
    seed) pairs over one base RunConfig, advanced as one lockstep batch."""
    config, runs = payload
    traces = run_batch(
        [dataclasses.replace(config, noise_variance=v, seed=s) for v, s in runs]
    )
    return [trace.records[-1].opt_error_mean for trace in traces]


def cmd_table1(args) -> int:
    cfg = load_config(args.config)
    if isinstance(cfg, dict) and "base" in cfg:  # --seed stands in for base.seed, as in `run`
        cfg = {**cfg, "base": _with_flags(cfg["base"], seed=args.seed)}
    checked = _walk(cfg, _TABLE1, "sweep config")
    # builds the base run once up front, so that the library's checks fail early
    config, base = build_run_config(cfg["base"])
    jobs = _flag(args.jobs, "--jobs")
    if jobs < 1:
        raise InvalidConfig(f"--jobs must be >= 1, got {jobs}")
    variances, runs_per_cell = checked["variances"].tolist(), checked["runs_per_cell"]
    agents = config.problem.m
    check_batch_memory(len(variances) * runs_per_cell * agents * config.problem.d,
                       sum(v > 0 for v in variances) * runs_per_cell * agents)
    # every (cell, run) pair in one lockstep batch, or in one contiguous chunk
    # per worker; a run's numbers do not depend on the batch it is in
    seeds = _table1_seeds(base["seed"], range(len(variances)), runs_per_cell)
    runs = list(zip([v for v in variances for _ in range(runs_per_cell)], seeds))
    jobs = min(jobs, len(runs))
    bounds = [len(runs) * c // jobs for c in range(jobs + 1)]
    chunks = [(config, runs[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_table1_finals, chunks))
    else:
        parts = [_table1_finals(chunks[0])]
    finals = [f for part in parts for f in part]
    path, = output_paths(args.out, checked["output"])
    lines = [TABLE1_HEADER]
    for i, v in enumerate(variances):
        cell = np.array(finals[i * runs_per_cell:(i + 1) * runs_per_cell])
        lines.append("%.17g,%.17g,%.17g,%d" % (v, cell.mean(), cell.std(), len(cell)))
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")
    return 0


def cmd_coupling(args) -> int:
    cfg = _with_flags(load_config(args.config), seed=args.seed)
    checked = _walk(cfg, _COUPLING, "coupling config")
    problem = build_problem(cfg["problem"])
    result = analysis.run_coupling_experiment(
        problem, build_weights(cfg["topology"], problem.m), problem.known_saddle(),
        build_schedule(cfg["schedule"]), variance=checked["variance"], runs=checked["runs"],
        horizon=checked["horizon"], escape_radius=checked["escape_radius"], seed=checked["seed"],
    )
    payload = dict(vars(result), e1=result.e1.tolist(),
                   config_fingerprint=fingerprint(dict(cfg, seed=checked["seed"])))
    path, = output_paths(args.out, checked["output"])
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


def cmd_privacy_report(args) -> int:
    checked = _walk(load_config(args.config), _PRIVACY, "privacy config")
    delta, variance = checked["delta"], checked["variance"]
    report = privacy.per_iteration_report(
        StepsizeSchedule(**checked["schedule"]), variance=variance, nu=checked["nu"],
        n_i=checked["n_i"], delta=delta, horizon=checked["horizon"],
    )
    path, = output_paths(args.out, checked["output"])
    row = "%d,%.17g,%.17g,%.17g,%.17g," + "%.17g,%.17g" % (delta, variance)
    columns = (report.k, report.lam, report.eps_sample, report.eps_gradient, report.eps_variable)
    rows = [row % r for r in zip(*(c.tolist() for c in columns))]
    path.write_text("\n".join([PRIVACY_HEADER, *rows]) + "\n")
    print(f"wrote {path}")
    return 0


def _verify_checks():
    """Fast property suite; yields (name, ok, detail)."""
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
        step = 1e-6  # central differences
        fd = np.array([(p.agent_objective(agent, theta + e) - p.agent_objective(agent, theta - e))
                       / (2 * step) for e in np.eye(p.d) * step])
        worst = max(worst, float(np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1.0)))
    ok = worst <= 1e-5
    yield "gradient_finite_difference", ok, f"worst rel err {worst:.2e}"

    # contraction inequality on a short live run
    weights = build_metropolis_weights(builtin_topology("ring_plus_chord", 5))
    config = RunConfig(
        problem=p, weights=weights,
        schedule=StepsizeSchedule("piecewise_paper", lambda0=0.02, switch_k=500, scale=1.0),
        noise_variance=0.5, iterations=120, seed=11, init_mode="random_box", record_every=1,
    )
    report = analysis.assert_contraction(run(config), weights)
    yield "contraction_inequality", report.ok, f"{report.pairs_checked} pairs checked"

    # privacy calibration round trips
    worst = 0.0
    for eps in (0.1, 0.5, 0.9):
        for target in privacy.TARGETS:
            var = privacy.variance_for_budget(eps, 0.05, target, nu=2.0, lam=0.02, n_i=5)
            back = privacy.budget_for_variance(var, 0.05, target, nu=2.0, lam=0.02, n_i=5)
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


def _build_parser():
    parser = _Parser(
        prog="dpdgd",
        description="Differentially private decentralized nonconvex optimization runner",
    )
    # the chosen command's name; main calls the cmd_* function of that name
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, seed=True, jobs=False):
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default=None, help=f"output directory (or ${ENV_OUT_DIR})")
        if seed:
            sp.add_argument("--seed", default=None, help="override the config seed (an integer)")
        if jobs:
            sp.add_argument("--jobs", default=1, help="parallel sweep workers (an integer >= 1)")

    sp_run = sub.add_parser("run", help="single seeded run; writes trace CSV + summary JSON")
    add_common(sp_run)
    sp_run.add_argument("--record-every", default=None, help="trace row spacing (an integer)")

    add_common(sub.add_parser("table1", help="final-error sweep over noise variances"), jobs=True)
    add_common(sub.add_parser("coupling", help="paired saddle-escape experiment"))
    add_common(sub.add_parser("privacy-report", help="per-iteration epsilon report CSV"),
               seed=False)

    sub.add_parser("verify", help="run the built-in fast property suite")
    sub.add_parser("list-configs", help="list bundled experiment configs")
    return parser


_PARSER = None  # built by the first main call, not at import, and kept for later calls


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["--"]:  # the end-of-options marker, which argparse reads as the command
        argv = argv[1:]
    try:
        args = _PARSER.parse_args(argv)
        # looked up at each call, so that a command replaced after the first call runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except _UsageError as exc:
        first = argv[:1]
        # argparse misreads an option given before the command (or its value) as the command
        if first and first[0].startswith("-") and first[0] != "-":
            exc = (f"dpdgd: the command comes first, before its options; "
                   f"got {first[0].split('=')[0]!r} first")
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (InvalidConfig, TopologyError, ProblemError, analysis.AnalysisError,
            privacy.PrivacyError) as exc:  # inputs the method does not take
        print(f"config error: [{type(exc).__name__}] {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a size that the inputs ask for and memory cannot hold
        print(f"config error: [MemoryError] {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except NonFiniteState as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
