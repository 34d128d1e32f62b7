"""A command imports only what it runs: the process pool for `table1 --jobs > 1`
alone, and scipy never, so that the package runs on numpy alone.

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
from dpdgd import cli

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


# the command that runs each bundled config; `run` for the others
COMMANDS = {"estimation_table1": "table1", "estimation_coupling": "coupling",
            "privacy_report": "privacy-report"}

LOADED = "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
LOADED += " or m == 'concurrent.futures.process'))\n"

# a finder ahead of every other, which makes any import of scipy fail
NO_SCIPY = """
import importlib.abc
class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"{name} is blocked", name=name)
sys.meta_path.insert(0, NoScipy())
"""


def _start_fresh(tmp_path, body, report=LOADED, prelude=""):
    """Starts a fresh interpreter that runs `prelude`, then `body` and `report`
    with `cli` and `sys` bound."""
    script = ("import sys\n" + prelude + "import dpdgd.cli as cli\n" + textwrap.dedent(body)
              + report)
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("DPDGD_OUT", None)
    return subprocess.Popen([sys.executable, "-c", script], env=env, cwd=tmp_path,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _finish(proc):
    """Waits for a `_start_fresh` interpreter; returns the words of the last line it printed."""
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    return (out.splitlines() or [""])[-1].split()


def _run_fresh(*args, **kwargs):
    return _finish(_start_fresh(*args, **kwargs))


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


def test_bundled_configs_run_without_scipy(tmp_path):
    # every bundled config through its command, where `import scipy` fails,
    # writes the bytes of an unblocked run, and scipy is never loaded
    configs = sorted(str(p) for p in cli.resource_files("dpdgd").joinpath("configs").iterdir())
    saddle_cfg = str(cli.bundled_config_path("ica_saddle.json"))
    blocked = _start_fresh(tmp_path, f"""
        import numpy as np
        from pathlib import Path
        for path in {configs!r}:
            name = Path(path).stem
            argv = [{COMMANDS!r}.get(name, "run"), "--config", path, "--out", "blocked/" + name]
            assert cli.main(argv) == 0, argv
        # the at_saddle ICA run started at a refined saddle: stationary, not its starting point
        problem = cli.build_problem(cli.load_config({saddle_cfg!r})["problem"])
        u = problem.known_saddle()
        assert np.linalg.norm(problem.aggregated_gradient(u)) <= 1e-10
        assert not np.array_equal(u, problem.known_points[1].coords)
    """, prelude=NO_SCIPY)
    try:
        # the unblocked runs, here, while that interpreter runs the blocked ones
        for path in configs:
            name = Path(path).stem
            out = tmp_path / "unblocked" / name
            assert cli.main([COMMANDS.get(name, "run"), "--config", path, "--out", str(out)]) == 0
        assert _finish(blocked) == []
    finally:
        blocked.kill()  # nothing to kill once it has finished
        blocked.wait(timeout=60)
    for path in configs:
        got, want = (tmp_path / kind / Path(path).stem for kind in ("blocked", "unblocked"))
        assert sorted(p.name for p in got.iterdir()) == sorted(p.name for p in want.iterdir())
        assert all((got / p.name).read_bytes() == p.read_bytes() for p in want.iterdir()), path
