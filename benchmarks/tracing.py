"""Span tracing of dpdgd layers from outside the package.

`install` replaces the public functions and methods listed in TARGETS, at
every module or class that binds them, with wrappers that record one span per
call: name, start, end and the enclosing span. Spans are kept in flat
in-memory arrays and written once, by `dump`, when the traced process ends.
`span_stats` turns a dump into per-name call counts, inclusive time and self
time, where self time is a span's duration minus the time its direct child
spans cover (calls nest, since the child process is single-threaded).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

import numpy as np

# (span name, defining module, attribute path); a target the package no longer
# defines is skipped, and its counts read 0
TARGETS = (
    ("cli.load_config", "dpdgd.cli", "load_config"),
    ("cli.build_run_config", "dpdgd.cli", "build_run_config"),
    ("cli.command", "dpdgd.cli", "cmd_run"),
    ("cli.command", "dpdgd.cli", "cmd_table1"),
    ("cli.command", "dpdgd.cli", "cmd_coupling"),
    ("cli.command", "dpdgd.cli", "cmd_privacy_report"),
    ("topology.build_metropolis_weights", "dpdgd.topology", "build_metropolis_weights"),
    ("problems.construct", "dpdgd.problems.estimation", "make_paper_estimation_problem"),
    ("problems.construct", "dpdgd.problems.ica", "make_ica_problem"),
    ("problems.agent_gradients", "dpdgd.problems.estimation", "EstimationProblem.agent_gradients"),
    ("problems.agent_gradients", "dpdgd.problems.ica", "IcaProblem.agent_gradients"),
    ("problems.retract", "dpdgd.problems.base", "Problem.retract"),
    ("problems.retract", "dpdgd.problems.ica", "IcaProblem.retract"),
    ("problems.optimization_errors", "dpdgd.problems.base", "Problem.optimization_errors"),
    ("problems.optimization_errors", "dpdgd.problems.ica", "IcaProblem.optimization_errors"),
    ("analysis.classify_stationary_point", "dpdgd.problems.base", "classify_stationary_point"),
    ("optimizer.run", "dpdgd.optimizer", "run"),
    ("optimizer.noise_streams", "dpdgd.optimizer", "noise_streams"),
    ("optimizer.mixing_update", "dpdgd.optimizer", "mixing_update"),
    ("optimizer.stepsize", "dpdgd.optimizer", "stepsize"),
    ("optimizer.polish_fixed_point", "dpdgd.optimizer", "polish_fixed_point"),
    ("analysis.run_coupling_experiment", "dpdgd.analysis", "run_coupling_experiment"),
    ("analysis.mirror_noise", "dpdgd.analysis", "mirror_noise"),
    ("privacy.per_iteration_report", "dpdgd.privacy", "per_iteration_report"),
    ("privacy.budget_for_variance", "dpdgd.privacy", "budget_for_variance"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))


class Tracer:
    def __init__(self):
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.counters = {}
        self._open = []

    def wrap(self, name, fn, probe=None):
        """`fn` recording one span per call; `probe(*args)` runs before the
        span opens, so its cost is not charged to the layer."""
        nid = SPAN_NAMES.index(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                probe(*args)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._open[-1] if self._open else -1)
            self.end.append(0)
            self._open.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._open.pop()

        return traced

    def install(self, probes=None):
        """Wrap every target found; returns the names of targets not found."""
        probes = probes or {}
        missing = []
        for name, module, path in TARGETS:
            owner = sys.modules.get(module)
            attr = path
            if owner is not None and "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name, None)
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is None:
                missing.append(f"{module}.{path}")
                continue
            wrapped = self.wrap(name, fn, probes.get(path))
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "dpdgd":
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapped)
        return missing

    def dump(self, path):
        arrays = {
            key: np.frombuffer(getattr(self, key), dtype=np.int64)
            for key in ("name_id", "start", "end", "parent")
        }
        np.savez(path, names=np.array(SPAN_NAMES), counters=json.dumps(self.counters), **arrays)


def span_stats(path):
    """{name: {"calls", "total_ns", "median_ns", "self_ns"}} for every span name, plus the
    raw arrays for callers that need span order, and the counters."""
    with np.load(path) as z:
        names = [str(n) for n in z["names"]]
        name_id, start, end, parent = z["name_id"], z["start"], z["end"], z["parent"]
        counters = json.loads(str(z["counters"]))
    dur = end - start
    has_parent = parent >= 0
    child_ns = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_ns = dur - child_ns
    stats = {}
    for i, name in enumerate(names):
        mask = name_id == i
        stats[name] = {
            "calls": int(mask.sum()),
            "total_ns": float(dur[mask].sum()),
            "median_ns": float(np.median(dur[mask])) if mask.any() else 0.0,
            "self_ns": float(self_ns[mask].sum()),
        }
    return stats, {"name_id": name_id, "start": start, "end": end, "parent": parent, "names": names}, counters
