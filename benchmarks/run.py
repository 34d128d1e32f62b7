"""dpdgd benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workload's inputs are generated from
--seed into `.bench_work/`; each repetition is one fresh single-threaded
child interpreter (BLAS pinned to one thread) that sets up and then runs the
`dpdgd` CLI on them, closed loop, until --seconds have passed. Every
repetition's outputs must be byte-identical to the first one's and agree with
the independent restatement in `reference.py`.

--trace 0 reports the end-to-end metrics (medians over repetitions):
iters_per_s, setup_s and peak_rss_mb. --trace 1 alternates untraced and
traced repetitions and reports the per-layer metrics from the traced ones.
Operations attempted and failed are the `attempted` and `failed` fields of
the last stdout line, a JSON object; lines before it give each metric with
its spread and the provenance of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
BUDGET_S = 170.0  # every run must end within 180 s
MIN_REPS = 3

END_TO_END_UNITS = {"iters_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; every one is printed on every workload, reading 0
# where the workload never enters that layer
US_PER_CALL = (
    "cli.build_run_config", "topology.build_metropolis_weights", "problems.agent_gradients",
    "problems.retract", "problems.optimization_errors", "optimizer.noise_streams",
    "optimizer.mixing_update", "analysis.mirror_noise", "privacy.budget_for_variance",
)
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.write_outputs_ms": "ms",
    **{f"{name}.calls": "count" for name in tracing.SPAN_NAMES},
    **{f"{name}.us_per_call": "us" for name in US_PER_CALL},
    "problems.construct_s": "s",
    "problems.agent_gradients.outside_box_frac": "frac",
    "optimizer.run.self_us_per_iter": "us",
    "optimizer.polish_fixed_point_s": "s",
    "analysis.classify_stationary_point_s": "s",
    "analysis.run_coupling_experiment.self_us_per_pair_step": "us",
    "analysis.escape_iteration.p50": "iters",
    "analysis.escape_iteration.max": "iters",
    "privacy.per_iteration_report.self_us_per_row": "us",
    "trace.overhead_ratio": "ratio",
}


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def tree_digest(root):
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class Repetition:
    def __init__(self, index, traced):
        self.index, self.traced = index, traced
        self.result = None  # the child's result file, None if it failed
        self.failed = set()  # indices of failed operations
        self.digest = None  # sha256 of the output tree
        self.wall = 0.0  # seconds from spawn to exit, unscaled
        self.scale = self.setup_s = self.timed_s = self.iterations = None


def run_repetition(wl, work, index, traced, src, timeout, argvs=True):
    rep_dir = work / f"rep{index}"
    out = rep_dir / "out"
    out.mkdir(parents=True)
    rep = Repetition(index, traced)
    rep.out, rep.spans = out, rep_dir / "spans.npz"
    spec = dict(
        wl.setup(), src=str(src), trace=traced, box=workloads.ESTIMATION_BOX,
        argvs=wl.argvs(out) if argvs else [], result=str(rep_dir / "result.json"), spans=str(rep.spans),
    )
    spec_path = rep_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path)], env=child_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"repetition {index}: child timed out after {timeout:.0f} s", file=sys.stderr)
        rep.failed = set(range(wl.n_ops))
        rep.wall = timeout
        return rep
    rep.wall = time.monotonic() - t_spawn
    if proc.stderr.strip():
        print(f"repetition {index} stderr:\n{proc.stderr.strip()[-2000:]}", file=sys.stderr)
    if proc.returncode != 0 or not Path(spec["result"]).is_file():
        rep.failed = set(range(wl.n_ops))
        return rep
    rep.result = json.loads(Path(spec["result"]).read_text())
    # times at the probe's reference speed (see child.py)
    rep.scale = rep.result["speed_scale"]
    rep.setup_s = (rep.result["t_setup"] - t_spawn) * rep.scale
    rep.timed_s = (rep.result["t_end"] - rep.result["t_start"]) * rep.scale
    if not argvs:
        return rep
    for i, code in enumerate(rep.result["codes"]):
        if code != 0:
            rep.failed.update(wl.command_ops(i))
    rep.failed |= wl.check(out)
    rep.digest = tree_digest(out)
    if not rep.failed:
        rep.iterations = wl.iterations(out)
    return rep


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def layer_metrics(wl, rep):
    """Per-layer metrics of one traced repetition; times are scaled to the
    probe's reference speed like the end-to-end ones."""
    stats, raw, counters = tracing.span_stats(rep.spans)
    metrics = {f"{name}.calls": s["calls"] for name, s in stats.items()}

    def per_call(name, scale):
        s = stats[name]
        return s["total_ns"] / s["calls"] / scale if s["calls"] else 0.0

    # the median call, so that a one-off first call (the problem built inside
    # the first build_run_config, lazy imports) does not stand for the rest
    for name in US_PER_CALL:
        metrics[f"{name}.us_per_call"] = stats[name]["median_ns"] / 1e3
    metrics["problems.construct_s"] = stats["problems.construct"]["total_ns"] / 1e9
    metrics["optimizer.polish_fixed_point_s"] = per_call("optimizer.polish_fixed_point", 1e9)
    metrics["analysis.classify_stationary_point_s"] = per_call("analysis.classify_stationary_point", 1e9)
    est_calls = counters.get("estimation_calls", 0)
    metrics["problems.agent_gradients.outside_box_frac"] = (
        counters.get("outside_box_calls", 0) / est_calls if est_calls else 0.0
    )
    run_iters = wl.iterations(rep.out) if wl.runs_iterations else 0
    metrics["optimizer.run.self_us_per_iter"] = (
        stats["optimizer.run"]["self_ns"] / run_iters / 1e3 if run_iters and stats["optimizer.run"]["calls"] else 0.0
    )
    escapes = wl.escape_iterations(rep.out) if isinstance(wl, workloads.Coupling) else []
    metrics["analysis.run_coupling_experiment.self_us_per_pair_step"] = (
        stats["analysis.run_coupling_experiment"]["self_ns"] / sum(escapes) / 1e3 if escapes else 0.0
    )
    metrics["analysis.escape_iteration.p50"] = float(statistics.median(escapes)) if escapes else 0.0
    metrics["analysis.escape_iteration.max"] = float(max(escapes)) if escapes else 0.0
    rows = wl.iterations(rep.out) if isinstance(wl, workloads.Privacy) else 0
    metrics["privacy.per_iteration_report.self_us_per_row"] = (
        stats["privacy.per_iteration_report"]["self_ns"] / rows / 1e3 if rows else 0.0
    )
    # output time: the tail of each command after its last traced callee returns
    cmd_id = raw["names"].index("cli.command")
    tails = []
    for c in (raw["name_id"] == cmd_id).nonzero()[0]:
        children = raw["parent"] == c
        last = raw["end"][children].max() if children.any() else raw["start"][c]
        tails.append((raw["end"][c] - last) / 1e6)
    metrics["cli.write_outputs_ms"] = statistics.fmean(tails) if tails else 0.0
    for name, unit in PER_LAYER_UNITS.items():
        if unit in ("s", "ms", "us") and name in metrics:
            metrics[name] *= rep.scale
    return metrics


def provenance(root, src, seed, first):
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    py_files = sorted(src.rglob("*.py"))
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": first["python"],
        "numpy": first["numpy"],
        "scipy": first["scipy"],
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
        "git_commit": commit,
        "src_sha256": hashlib.sha256(b"".join(p.read_bytes() for p in py_files)).hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in py_files),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "dpdgd" / "__init__.py").is_file():
        print(f"no dpdgd package under {src}; run from the repository root", file=sys.stderr)
        return 2
    t_start = time.monotonic()
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)

        def remaining():
            return BUDGET_S - (time.monotonic() - t_start)

        # fills bytecode and file caches; its set-up time is not reported
        warm = run_repetition(wl, work, 0, False, src, remaining(), argvs=False)
        if warm.result is None:
            print("set-up failed; no repetition can run", file=sys.stderr)
            return 1
        reps = []
        t_loop = time.monotonic()
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            rep = run_repetition(wl, work, len(reps) + 1, traced, src, max(remaining(), 1.0))
            reps.append(rep)
            walls = [r.wall for r in reps]
            elapsed = time.monotonic() - t_loop
            if len(reps) >= MIN_REPS and elapsed + statistics.median(walls) > args.seconds:
                break
            if remaining() < 2 * max(walls):
                break
        return report(args, wl, reps, root, src, warm.result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


def report(args, wl, reps, root, src, first):
    digests = [r.digest for r in reps if r.digest is not None]
    for rep in reps:
        if rep.digest is not None and rep.digest != digests[0]:
            print(f"repetition {rep.index}: outputs differ from the first repetition's", file=sys.stderr)
            rep.failed = set(range(wl.n_ops))
    good = [r for r in reps if r.result is not None and not r.failed]
    attempted = wl.n_ops * len(reps)
    failed = sum(len(r.failed) for r in reps)
    for rep in reps:
        if rep.failed:
            print(f"repetition {rep.index}: {len(rep.failed)} of {wl.n_ops} operations failed", file=sys.stderr)
    if not good:
        print("no repetition completed without failures", file=sys.stderr)
        return 1

    untraced = [r for r in good if not r.traced]
    traced = [r for r in good if r.traced]
    samples = {}
    if not args.trace:
        # all iterations over all timed seconds: the machine's speed drifts over
        # seconds, and the pooled rate averages that drift where a median
        # of few repetitions would pick one phase of it
        samples["iters_per_s"] = [sum(r.iterations for r in untraced) / sum(r.timed_s for r in untraced)]
        samples["setup_s"] = [r.setup_s for r in untraced]
        samples["peak_rss_mb"] = [r.result["peak_rss_mb"] for r in untraced]
        units = END_TO_END_UNITS
    else:
        per_rep = [layer_metrics(wl, r) for r in traced]
        for name in PER_LAYER_UNITS:
            samples[name] = [m[name] for m in per_rep if name in m]
            if name.endswith(".calls") and len(set(samples[name])) > 1:
                print(f"{name} differs between traced repetitions: {samples[name]}", file=sys.stderr)
                failed = attempted  # the program is not deterministic
        samples["cli.import_s"] = [r.result["import_s"] * r.scale for r in good]
        if untraced and traced:
            samples["trace.overhead_ratio"] = [
                statistics.median(r.timed_s for r in traced) / statistics.median(r.timed_s for r in untraced)
            ]
        units = PER_LAYER_UNITS

    print(f"workload {wl.name}, seed {args.seed}: {len(reps)} repetitions "
          f"({len(traced)} traced), {failed} of {attempted} operations failed, "
          f"failed_frac {failed / attempted:.6g}")
    metrics = {}
    for name, unit in units.items():
        values = samples.get(name) or [0.0]
        value = statistics.median(values)
        lo, hi = quartiles(values)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:58s} {value:14.6g} {unit:6s} n={len(values)} q1={lo:.6g} q3={hi:.6g}")
    print("provenance " + json.dumps(provenance(root, src, args.seed, first), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
