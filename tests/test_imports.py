"""A command imports only what it runs: scipy is loaded for the ICA saddle
refinement alone, and the process pool for `table1 --jobs > 1` alone.

Each check runs in a fresh interpreter, since this test process may already
hold those modules.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import dpdgd

SRC = str(Path(dpdgd.__file__).resolve().parents[1])

ICA_RUN_CFG = {
    "problem": {"name": "ica", "d": 10, "m": 5, "samples_per_agent": 160, "seed": 99},
    "topology": {"builtin": "ring_plus_chord", "m": 5},
    "schedule": {"kind": "piecewise_paper", "lambda0": 0.003, "switch_k": 100, "scale": 0.3},
    "noise": {"variance": 1.0},
    "init": {"mode": "random_box"},
    "iterations": 30,
    "record_every": 10,
    "seed": 20240801,
}

SWEEP_CFG = {
    "base": {
        "problem": {"name": "estimation_paper"},
        "topology": {"builtin": "ring_plus_chord", "m": 5},
        "schedule": {"kind": "piecewise_paper", "lambda0": 0.02, "switch_k": 500, "scale": 1.0},
        "noise": {"variance": 0.5},
        "iterations": 60,
        "record_every": 60,
        "seed": 4242,
    },
    "variances": [0.1, 0.5],
    "runs_per_cell": 2,
}


LOADED = "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
LOADED += " or m == 'concurrent.futures.process'))\n"


def _run_fresh(tmp_path, body, report=LOADED):
    """Runs `body` and then `report` in a fresh interpreter with `cli` and
    `sys` bound; returns the words of the last line printed."""
    script = "import sys\nimport dpdgd.cli as cli\n" + textwrap.dedent(body) + report
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("DPDGD_OUT", None)
    out = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return (out.stdout.splitlines() or [""])[-1].split()


def test_import_loads_neither_scipy_nor_process_pool(tmp_path):
    assert _run_fresh(tmp_path, "") == []


def test_run_privacy_and_table1_load_no_scipy(tmp_path):
    (tmp_path / "ica.json").write_text(json.dumps(ICA_RUN_CFG))
    (tmp_path / "sweep.json").write_text(json.dumps(SWEEP_CFG))
    loaded = _run_fresh(tmp_path, """
        argvs = [
            ["run", "--config", "ica.json", "--out", "run"],
            ["privacy-report", "--config", str(cli.bundled_config_path("privacy_report.json")),
             "--out", "privacy"],
            ["table1", "--config", "sweep.json", "--out", "table1", "--jobs", "1"],
        ]
        for argv in argvs:
            assert cli.main(argv) == 0, argv
    """)
    assert loaded == []
    assert (tmp_path / "run" / "trace.csv").exists()
    assert (tmp_path / "privacy" / "privacy_report.csv").exists()
    assert (tmp_path / "table1" / "table1.csv").exists()


def test_at_saddle_run_refines_saddle_with_scipy_on_demand(tmp_path):
    cfg = dict(ICA_RUN_CFG, problem=dict(ICA_RUN_CFG["problem"], d=4),
               topology={"builtin": "complete", "m": 5}, init={"mode": "at_saddle"})
    (tmp_path / "saddle.json").write_text(json.dumps(cfg))
    out = _run_fresh(tmp_path, """
        import numpy as np
        before = "scipy.optimize" in sys.modules
        assert cli.main(["run", "--config", "saddle.json", "--out", "run"]) == 0
        problem = cli.build_problem(cli.load_config("saddle.json")["problem"])
        u = problem._refined_saddle
        print(before, "scipy.optimize" in sys.modules, u is not None
              and np.linalg.norm(problem.aggregated_gradient(u)) <= 1e-10
              and not np.array_equal(u, problem.nominal_saddle()))
    """, report="")
    assert out == ["False", "True", "True"]
