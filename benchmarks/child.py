"""One benchmark repetition in a fresh interpreter: set up, then run the CLI.

Usage: python3 child.py SPEC.json

The spec names the workload, its generated config, the `dpdgd` argument lists
to run and where to write the result. Set-up ends just before the first
`dpdgd.cli.main` call; it performs the same public library calls the command
makes before its first iteration (config loading and validation, building the
problem, weights and schedule, and for coupling the saddle refinement,
classification and fixed-point polish), so the command then finds the problem
in its per-process cache. The result file holds CLOCK_MONOTONIC stamps, which
the parent compares with its own spawn time.

On a host whose cores are shared with other tenants, speed drifts by up to
1.5x over tens of seconds, far more than the changes the benchmark must
resolve. So the child also times a fixed probe, a loop of small numpy calls
and plain Python like the simulator's own, just before and just after the
timed section. The parent multiplies measured seconds by `speed_scale`, the
reference probe time over the measured one, which expresses every time at
the speed at which the probe takes PROBE_REF_S.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path


def _set_up(spec, cli, optimizer, problems):
    cfg = cli.load_config(spec["config"])
    kind = spec["workload"]
    if kind == "table1":
        cli.build_run_config(cfg["base"])
    elif kind == "ica":
        cli.build_run_config(cfg, seed_override=spec["first_seed"])
    elif kind == "coupling":
        problem = cli.build_problem(cfg["problem"])
        weights = cli.build_weights(cfg["topology"])
        schedule = cli.build_schedule(cfg["schedule"])
        saddle = problem.known_saddle()
        problems.classify_stationary_point(problem, saddle, grad_tol=1e-6, eig_tol=1e-6)
        optimizer.polish_fixed_point(problem, weights, optimizer.stepsize(schedule, 1), saddle)
    elif kind == "privacy":
        cli.build_schedule(cfg["schedule"])
    else:
        raise ValueError(f"unknown workload {kind!r}")


def _outside_box_probe(tracer, lo, hi):
    """Counts estimation gradient calls with an agent outside the box [lo, hi],
    the calls that take the per-agent wall fallback."""
    import numpy as np

    def probe(_problem, x, *rest):
        tracer.counters["estimation_calls"] = tracer.counters.get("estimation_calls", 0) + 1
        x = np.asarray(x)
        if (np.clip(x, lo, hi) != x).any():
            tracer.counters["outside_box_calls"] = tracer.counters.get("outside_box_calls", 0) + 1

    return probe


PROBE_LOOPS = 60000
PROBE_REF_S = 0.25


def probe_seconds(loops=PROBE_LOOPS):
    import numpy as np

    x, w = np.full((5, 2), 0.5), np.full((5, 5), 0.2)
    acc = 0.0
    t = time.perf_counter()
    for i in range(loops):
        acc += float(np.linalg.norm(w @ (x - 0.01 * x)))
        acc += math.sqrt(i + 1.0) / (i + 1)
    return time.perf_counter() - t


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import dpdgd
    import dpdgd.cli as cli
    from dpdgd import optimizer, problems

    import_s = time.perf_counter() - t0
    if src not in Path(dpdgd.__file__).resolve().parents:
        raise SystemExit(f"dpdgd imported from {dpdgd.__file__}, not from {src}")
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        probe = _outside_box_probe(tracer, spec["box"][0], spec["box"][1])
        missing = tracer.install({"EstimationProblem.agent_gradients": probe})
        if missing:
            print("not traced (absent): " + ", ".join(missing), file=sys.stderr)

    _set_up(spec, cli, optimizer, problems)
    t_setup = time.monotonic()
    probe_seconds(loops=PROBE_LOOPS // 10)
    probe_before = probe_seconds()
    t_start = time.monotonic()
    codes = []
    for argv in spec["argvs"]:
        try:
            codes.append(cli.main(argv))
        except (Exception, SystemExit):  # one failed command fails its operation only
            traceback.print_exc()
            codes.append(None)
    t_end = time.monotonic()
    probe_after = probe_seconds()
    if tracer is not None:
        tracer.dump(spec["spans"])
    import numpy
    import scipy

    result = {
        "t_setup": t_setup,
        "t_start": t_start,
        "t_end": t_end,
        "speed_scale": PROBE_REF_S / ((probe_before + probe_after) / 2.0),
        "import_s": import_s,
        "codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
