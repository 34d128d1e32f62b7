"""The four benchmark workloads: generated inputs, CLI calls and output checks.

Each workload writes its configs from the workload seed alone, in the shape
of one bundled config (restated here, so that edits to the bundled files do
not change the benchmark). One repetition runs `argvs` in one child process.
An operation is one trajectory (`table1`, `ica`), one coupling pair or one
privacy report. `check` returns the indices of the operations whose output
is missing or disagrees with `reference`; float results must agree within a
relative 1e-9, which admits last-bit drift from reordered sums and nothing
a changed algorithm, seed or noise stream would produce.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import reference

RTOL, ATOL = 1e-9, 1e-12

# reference row and band of the Table-1 acceptance test (0.5x - 2x)
TABLE1_REFERENCE = {0.1: 0.048, 0.2: 0.058, 0.3: 0.064, 0.4: 0.070, 0.5: 0.078, 0.6: 0.091}

PAPER_SCHEDULE = {"kind": "piecewise_paper", "lambda0": 0.02, "switch_k": 500, "scale": 1.0}
ESTIMATION_BOX = (list(reference.EST_LO), list(reference.EST_HI))


def _seeds(seed, n):
    return [int(s) for s in np.random.SeedSequence(int(seed)).generate_state(n)]


def _write(path, cfg):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=1) + "\n")
    return str(path)


def _read_csv(path):
    """Columns by header name as float arrays; None if the file is missing."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError:
        return None
    if not rows:
        return None
    try:
        return {key: np.array([float(r[key]) for r in rows]) for key in rows[0]}
    except (TypeError, ValueError):
        return None


def _close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.allclose(got, want, rtol=RTOL, atol=ATOL))


def _columns_close(cols, want):
    return cols is not None and all(key in cols and _close(cols[key], val) for key, val in want.items())


class Workload:
    """One generated input set; subclasses fill in the fields below."""

    name = ""
    n_ops = 0  # operations per repetition
    runs_iterations = False  # whether every iteration runs inside optimizer.run

    def __init__(self, seed, work):
        self.work = Path(work)
        self._reference = None

    def setup(self):
        """Child set-up spec: workload name, config path, extra keys."""
        raise NotImplementedError

    def argvs(self, out):
        raise NotImplementedError

    def command_ops(self, i):
        """Operation indices produced by command i of argvs."""
        raise NotImplementedError

    def iterations(self, out):
        raise NotImplementedError

    def check(self, out):
        raise NotImplementedError

    def reference(self):
        if self._reference is None:
            self._reference = self.compute_reference()
        return self._reference


class Table1(Workload):
    """`dpdgd table1` on the bundled estimation_table1.json shape."""

    name = "table1"
    variances = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    runs_per_cell = 3
    horizon = 3000
    n_ops = len(variances) * runs_per_cell
    runs_iterations = True

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.cfg = {
            "base": {
                "problem": {"name": "estimation_paper"},
                "topology": {"builtin": "ring_plus_chord", "m": 5},
                "schedule": {"kind": "constant", "lambda0": 0.02},
                "noise": {"variance": 0.5},
                "init": {"mode": "random_box"},
                "iterations": self.horizon,
                "record_every": 1000,
                "seed": _seeds(seed, 1)[0],
            },
            "variances": self.variances,
            "runs_per_cell": self.runs_per_cell,
            "output": {"csv": "table1.csv"},
        }
        self.path = _write(self.work / "table1.json", self.cfg)

    def setup(self):
        return {"workload": self.name, "config": self.path}

    def argvs(self, out):
        return [["table1", "--config", self.path, "--out", str(out), "--jobs", "1"]]

    def command_ops(self, i):
        return range(self.n_ops)

    def iterations(self, out):
        return self.n_ops * self.horizon

    def compute_reference(self):
        return reference.table1(self.cfg)

    def check(self, out):
        cols = _read_csv(Path(out) / "table1.csv")
        if cols is None or any(k not in cols for k in ("sigma", "mean_final_error", "std_final_error", "runs")):
            return set(range(self.n_ops))
        if len(cols["sigma"]) != len(self.variances):
            return set(range(self.n_ops))
        failed = set()
        for i, (v, mean, std, n) in enumerate(self.reference()):
            got = [cols[k][i] for k in ("sigma", "mean_final_error", "std_final_error", "runs")]
            ok = _close(got, [v, mean, std, n])
            ok = ok and math.isfinite(got[1]) and 0.5 * TABLE1_REFERENCE[v] <= got[1] <= 2.0 * TABLE1_REFERENCE[v]
            if not ok:
                failed.update(range(i * self.runs_per_cell, (i + 1) * self.runs_per_cell))
        return failed


class Coupling(Workload):
    """`dpdgd coupling` on the bundled estimation_coupling.json shape."""

    name = "coupling"
    n_ops = 200
    horizon = 3000

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.cfg = {
            "problem": {"name": "estimation_paper"},
            "topology": {"builtin": "complete", "m": 5},
            "schedule": PAPER_SCHEDULE,
            "variance": 0.5,
            "runs": self.n_ops,
            "horizon": self.horizon,
            "escape_radius": 0.5,
            "seed": _seeds(seed, 1)[0],
            "output": {"json": "coupling.json"},
        }
        self.path = _write(self.work / "coupling.json", self.cfg)

    def setup(self):
        return {"workload": self.name, "config": self.path}

    def argvs(self, out):
        return [["coupling", "--config", self.path, "--out", str(out)]]

    def command_ops(self, i):
        return range(self.n_ops)

    def escape_iterations(self, out):
        """Escape iteration per pair, the horizon for censored pairs."""
        got = json.loads((Path(out) / "coupling.json").read_text())["iterations_to_escape"]
        return [self.horizon if k is None else int(k) for k in got]

    def iterations(self, out):
        return 2 * sum(self.escape_iterations(out))

    def compute_reference(self):
        return reference.coupling(self.cfg)

    def check(self, out):
        everything = set(range(self.n_ops))
        try:
            got = json.loads((Path(out) / "coupling.json").read_text())
        except (OSError, ValueError):
            return everything
        want = self.reference()
        hits = got.get("iterations_to_escape")
        if not isinstance(hits, list) or len(hits) != self.n_ops:
            return everything
        scalars_ok = (
            got.get("total_runs") == want["total_runs"]
            and got.get("escape_count") == want["escape_count"]
            and got.get("seed") == want["seed"]
            and _close(got.get("escape_radius", math.nan), want["escape_radius"])
            and _close(got.get("e1", []), want["e1"])
        )
        if not scalars_ok:
            return everything
        return {r for r, (a, b) in enumerate(zip(hits, want["iterations_to_escape"])) if a != b}


class Ica(Workload):
    """`dpdgd run`, one seed at a time, on the bundled ica_d10.json shape."""

    name = "ica"
    n_ops = 4
    horizon = 3000
    runs_iterations = True
    columns = ("k", "lambda", "consensus_error", "opt_error_mean", "opt_error_max", "noise_norm")

    def __init__(self, seed, work):
        super().__init__(seed, work)
        problem_seed, *self.run_seeds = _seeds(seed, 1 + self.n_ops)
        self.cfg = {
            "problem": {"name": "ica", "d": 10, "m": 5, "samples_per_agent": 160, "seed": problem_seed},
            "topology": {"builtin": "ring_plus_chord", "m": 5},
            "schedule": {"kind": "piecewise_paper", "lambda0": 0.003, "switch_k": 100, "scale": 0.3},
            "noise": {"variance": 1.0},
            "init": {"mode": "random_box"},
            "iterations": self.horizon,
            "record_every": 10,
            "seed": self.run_seeds[0],
            "output": {"trace_csv": "ica10_trace.csv", "summary_json": "ica10_summary.json"},
        }
        self.path = _write(self.work / "ica.json", self.cfg)

    def setup(self):
        return {"workload": self.name, "config": self.path, "first_seed": self.run_seeds[0]}

    def argvs(self, out):
        return [["run", "--config", self.path, "--out", str(Path(out) / f"run{i}"), "--seed", str(s)]
                for i, s in enumerate(self.run_seeds)]

    def command_ops(self, i):
        return [i]

    def iterations(self, out):
        return self.n_ops * self.horizon

    def compute_reference(self):
        return [reference.ica_run(self.cfg, s) for s in self.run_seeds]

    def check(self, out):
        failed = set()
        for i, (rows, summary) in enumerate(self.reference()):
            run_dir = Path(out) / f"run{i}"
            cols = _read_csv(run_dir / "ica10_trace.csv")
            want = {key: [r[key] for r in rows] for key in self.columns}
            try:
                got = json.loads((run_dir / "ica10_summary.json").read_text())
                final = got["final_metrics"]
                ok = (
                    _columns_close(cols, want)
                    and got["seed"] == summary["seed"]
                    and final["k"] == self.horizon
                    and _close([final[k] for k in self.columns[2:5]], [rows[-1][k] for k in self.columns[2:5]])
                    and _close(got["final_state"], summary["final_state"])
                )
            except (OSError, ValueError, KeyError, TypeError):
                ok = False
            if not ok:
                failed.add(i)
        return failed


class Privacy(Workload):
    """`dpdgd privacy-report` over a seeded grid of variances around the
    bundled privacy_report.json (variance 0.5, horizon 3000)."""

    name = "privacy"
    n_ops = 30
    horizon = 3000

    def __init__(self, seed, work):
        super().__init__(seed, work)
        exponents = np.random.default_rng(np.random.SeedSequence(int(seed))).uniform(-1.0, 1.0, self.n_ops)
        self.cfgs = [
            {
                "schedule": PAPER_SCHEDULE,
                "variance": float(0.5 * 10.0**e),
                "delta": 0.05,
                "nu": 8.3685,
                "n_i": 1,
                "horizon": self.horizon,
                "output": {"csv": "privacy_report.csv"},
            }
            for e in exponents
        ]
        self.paths = [_write(self.work / f"privacy{i}.json", c) for i, c in enumerate(self.cfgs)]

    def setup(self):
        return {"workload": self.name, "config": self.paths[0]}

    def argvs(self, out):
        return [["privacy-report", "--config", p, "--out", str(Path(out) / f"report{i}")]
                for i, p in enumerate(self.paths)]

    def command_ops(self, i):
        return [i]

    def iterations(self, out):
        return self.n_ops * self.horizon

    def compute_reference(self):
        return [reference.privacy_report(c) for c in self.cfgs]

    def check(self, out):
        failed = set()
        for i, (cfg, want) in enumerate(zip(self.cfgs, self.reference())):
            cols = _read_csv(Path(out) / f"report{i}" / "privacy_report.csv")
            want = dict(want, delta=np.full(self.horizon, cfg["delta"]),
                        variance=np.full(self.horizon, cfg["variance"]))
            if not _columns_close(cols, want):
                failed.add(i)
        return failed


WORKLOADS = {w.name: w for w in (Table1, Coupling, Ica, Privacy)}
