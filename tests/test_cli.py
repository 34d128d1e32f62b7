from __future__ import annotations

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import dpdgd
from dpdgd import cli, optimizer, privacy
from dpdgd.optimizer import run, stepsize

BASE_RUN_CFG = {
    "problem": {"name": "estimation_paper"},
    "topology": {"builtin": "ring_plus_chord", "m": 5},
    "schedule": {"kind": "piecewise_paper", "lambda0": 0.02, "switch_k": 500, "scale": 1.0},
    "noise": {"variance": 0.5},
    "init": {"mode": "random_box"},
    "iterations": 100,
    "record_every": 10,
    "seed": 4242,
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


class TestRunCommand:
    def test_row_count_and_header(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_RUN_CFG)
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "k,lambda,consensus_error,opt_error_mean,opt_error_max,noise_norm"
        # 100/10 + 1 data rows (k = 0, 10, ..., 100)
        assert len(lines) == 1 + (100 // 10 + 1)
        assert not lines[1].endswith(",")

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_RUN_CFG)
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        for name in ("trace.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_RUN_CFG)
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        cli.main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
        cli.main(["run", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "9"])
        sa = json.loads((tmp_path / "a" / "summary.json").read_text())
        sb = json.loads((tmp_path / "b" / "summary.json").read_text())
        assert sa["seed"] == 4242 and sb["seed"] == 9
        assert sa["config_fingerprint"] != sb["config_fingerprint"]
        assert sa["final_state"] != sb["final_state"]

    def test_summary_holds_the_final_state(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_RUN_CFG)
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        config, _, _ = cli.build_run_config(BASE_RUN_CFG)
        assert summary["final_state"] == run(config).final_state.tolist()

    def test_env_var_out_dir(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "from_env"
        monkeypatch.setenv(cli.ENV_OUT_DIR, str(target))
        cfg = write_cfg(tmp_path, BASE_RUN_CFG)
        assert cli.main(["run", "--config", cfg]) == 0
        assert (target / "trace.csv").exists()

    def test_spectral_gap_violation_exit_one(self, tmp_path, capsys):
        cfg = dict(BASE_RUN_CFG)
        cfg["topology"] = {"matrix": np.eye(5).tolist()}
        path = write_cfg(tmp_path, cfg)
        assert cli.main(["run", "--config", path, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "config error: [TopologyError] eta = 1.000000 >= 1 (disagreement does not contract)\n")

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = dict(BASE_RUN_CFG)
        cfg["stepsize"] = 0.5  # typo for schedule
        path = write_cfg(tmp_path, cfg)
        assert cli.main(["run", "--config", path, "--out", str(tmp_path)]) == 1
        assert "stepsize" in capsys.readouterr().err

    def test_bad_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n "problem": {,}\n}\n')
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_edge_list_topology(self, tmp_path):
        cfg = dict(BASE_RUN_CFG)
        cfg["topology"] = {"m": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0], [0, 2]]}
        path = write_cfg(tmp_path, cfg)
        assert cli.main(["run", "--config", path, "--out", str(tmp_path)]) == 0

    def test_record_every_flag(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_RUN_CFG)
        assert cli.main(
            ["run", "--config", cfg, "--out", str(tmp_path), "--record-every", "50"]
        ) == 0
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert len(lines) == 1 + (100 // 50 + 1)

    def test_bundled_paper_config_row_count(self, tmp_path):
        path = str(cli.bundled_config_path("estimation_paper.json"))
        assert cli.main(["run", "--config", path, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "estimation_trace.csv").read_text().splitlines()
        # 3000 iterations recorded every 10 plus the initial row
        assert len(lines) == 1 + (3000 // 10 + 1)

    def test_divergence_exit_two(self, tmp_path, capsys):
        cfg = {
            "problem": {"name": "custom_quadratic", "diag": [8.0], "m": 2},
            "topology": {"builtin": "complete", "m": 2},
            "schedule": {"kind": "constant", "lambda0": 0.9},
            "noise": {"variance": 0.0},
            "init": {"mode": "explicit", "coords": [1.0]},
            "iterations": 5000,
            "seed": 1,
        }
        path = write_cfg(tmp_path, cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(["run", "--config", path, "--out", str(tmp_path)]) == 2
        assert "divergence" in capsys.readouterr().err

    @pytest.mark.parametrize("coords", [[1.0, 2.0, 3.0], [float("nan"), 1.0]])
    def test_bad_explicit_coords_exit_one(self, tmp_path, capsys, coords):
        cfg = dict(BASE_RUN_CFG, init={"mode": "explicit", "coords": coords})
        path = write_cfg(tmp_path, cfg)
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and "coords" in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, flags", [
        ({"iterations": 10.7}, []), ({"record_every": 2.5}, []), ({"seed": True}, []),
        ({"seed": float("inf")}, []), ({"iterations": "ten"}, []),
        ({"problem": {"name": "ica", "d": 4.5, "m": 5, "samples_per_agent": 16, "seed": 1}}, []),
        ({"problem": {"name": "ica", "d": 4, "m": 5, "samples_per_agent": 16, "seed": 1.5}}, []),
        ({"problem": {"name": "custom_quadratic", "diag": [1.0, 1.0], "m": 5.5}}, []),
        ({"topology": {"builtin": "ring", "m": 5.5}}, []),
        ({"topology": {"m": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4.5], [4, 0]]}}, []),
        ({"schedule": {"kind": "piecewise_paper", "lambda0": 0.02, "switch_k": 500.5,
                       "scale": 1.0}}, []),
        ({"init": {"mode": "explicit", "coords": {"a": 1}}}, []),
        ({}, ["--seed", "10.7"]), ({}, ["--seed", "seven"]), ({}, ["--record-every", "2.5"]),
    ])
    def test_bad_integer_or_type_exit_one(self, tmp_path, capsys, edit, flags):
        path = write_cfg(tmp_path, dict(BASE_RUN_CFG, **edit))
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out"), *flags]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert not (tmp_path / "out").exists()

    def test_integral_floats_accepted(self, tmp_path):
        floats = dict(BASE_RUN_CFG, iterations=100.0, record_every=10.0, seed=4242.0,
                      topology={"builtin": "ring_plus_chord", "m": 5.0})
        assert cli.main(["run", "--config", write_cfg(tmp_path, BASE_RUN_CFG, "a.json"),
                         "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["run", "--config", write_cfg(tmp_path, floats, "b.json"),
                         "--out", str(tmp_path / "b")]) == 0
        trace = (tmp_path / "a" / "trace.csv").read_bytes()
        assert trace == (tmp_path / "b" / "trace.csv").read_bytes()


class TestTable1Command:
    def _sweep_cfg(self, runs_per_cell=1, variances=(0.1, 0.5)):
        base = dict(BASE_RUN_CFG)
        base["iterations"] = 60
        base["record_every"] = 60
        return {
            "base": base,
            "variances": list(variances),
            "runs_per_cell": runs_per_cell,
        }

    def test_single_run_cell_has_zero_std(self, tmp_path):
        path = write_cfg(tmp_path, self._sweep_cfg(runs_per_cell=1))
        assert cli.main(["table1", "--config", path, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "table1.csv").read_text().splitlines()
        assert lines[0] == "sigma,mean_final_error,std_final_error,runs"
        for row in lines[1:]:
            sigma, mean, std, runs = row.split(",")
            assert float(std) == 0.0
            assert runs == "1"

    def test_rerun_identical_and_jobs_equivalent(self, tmp_path):
        path = write_cfg(tmp_path, self._sweep_cfg(runs_per_cell=2))
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        assert cli.main(["table1", "--config", path, "--out", str(tmp_path / "a")]) == 0
        assert cli.main(
            ["table1", "--config", path, "--out", str(tmp_path / "b"), "--jobs", "2"]
        ) == 0
        assert (tmp_path / "a" / "table1.csv").read_bytes() == (
            tmp_path / "b" / "table1.csv"
        ).read_bytes()

    def test_builds_the_base_run_once(self, tmp_path, monkeypatch):
        # the built RunConfig goes to each chunk; no chunk rebuilds it from the config
        built, build = [], cli.build_run_config
        monkeypatch.setattr(cli, "build_run_config",
                            lambda *args, **kw: built.append(args) or build(*args, **kw))
        path = write_cfg(tmp_path, self._sweep_cfg(runs_per_cell=2))
        assert cli.main(["table1", "--config", path, "--out", str(tmp_path)]) == 0
        assert len(built) == 1

    @pytest.mark.parametrize("given", [{}, {"seed": "x"}, {"seed": 9}])
    def test_seed_flag_stands_in_for_base_seed(self, tmp_path, given):
        # as with `run --seed`, the flag replaces base.seed, given or not, valid or not
        cfg = self._sweep_cfg()
        want = dict(cfg, base=dict(cfg["base"], seed=5))
        got = dict(cfg, base={**{k: v for k, v in cfg["base"].items() if k != "seed"}, **given})
        runs = (("base", cfg, []), ("want", want, []), ("got", got, ["--seed", "5"]))
        for name, c, flags in runs:
            path = write_cfg(tmp_path, c, name=f"{name}.json")
            out = str(tmp_path / name)
            assert cli.main(["table1", "--config", path, "--out", out, *flags]) == 0
        csv = {name: (tmp_path / name / "table1.csv").read_bytes() for name, _, _ in runs}
        assert csv["got"] == csv["want"] != csv["base"]

    def test_jobs_split_inside_a_cell(self, tmp_path):
        # 3 chunks over 2 cells x 2 runs: one chunk crosses the cell boundary
        path = write_cfg(tmp_path, self._sweep_cfg(runs_per_cell=2))
        for jobs in ("1", "3"):
            (tmp_path / jobs).mkdir()
            assert cli.main(
                ["table1", "--config", path, "--out", str(tmp_path / jobs), "--jobs", jobs]
            ) == 0
        assert (tmp_path / "1" / "table1.csv").read_bytes() == (
            tmp_path / "3" / "table1.csv"
        ).read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_divergence_exit_two(self, tmp_path, capsys, jobs):
        # |1 - 0.9 * 2 * 8| = 13.4: every run overflows at iteration 274; with
        # --jobs 2 the error reaches the parent pickled
        base = dict(BASE_RUN_CFG, problem={"name": "custom_quadratic", "diag": [8.0], "m": 2},
                    topology={"builtin": "complete", "m": 2},
                    schedule={"kind": "constant", "lambda0": 0.9},
                    init={"mode": "explicit", "coords": [1.0]}, iterations=5000)
        path = write_cfg(tmp_path, {"base": base, "variances": [0.0, 0.5], "runs_per_cell": 1})
        out = tmp_path / "out"
        assert cli.main(["table1", "--config", path, "--out", str(out), "--jobs", jobs]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["divergence: non-finite state at iteration 274"]
        assert not out.exists()

    @pytest.mark.parametrize("master_seed", [None, 2**64 - 1])
    def test_seeds_are_seed_sequence_words(self, master_seed):
        # the bundled sweep's seed, and a 64-bit one, which splits into two words
        cfg = json.loads(cli.bundled_config_path("estimation_table1.json").read_text())
        master = cfg["base"]["seed"] if master_seed is None else master_seed
        cells, runs = len(cfg["variances"]), cfg["runs_per_cell"]
        want = [int(np.random.SeedSequence((master, optimizer._TABLE1_STREAM, i, r))
                    .generate_state(1, np.uint64)[0])
                for i in range(cells) for r in range(runs)]
        assert cli._table1_seeds(master, range(cells), runs) == want
        assert cli._table1_seeds(master, [cells - 1], runs) == want[-runs:]

    def test_negative_variance_exit_one(self, tmp_path, capsys):
        path = write_cfg(tmp_path, self._sweep_cfg(variances=(0.1, -0.5)))
        assert cli.main(["table1", "--config", path, "--out", str(tmp_path)]) == 1
        assert "variances must be >= 0" in capsys.readouterr().err

    def test_rejects_bad_sweep(self, tmp_path, capsys):
        cfg = self._sweep_cfg()
        cfg["runs_per_cell"] = 0
        path = write_cfg(tmp_path, cfg)
        assert cli.main(["table1", "--config", path, "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("edit, flags", [
        ({"runs_per_cell": 1.5}, []), ({"runs_per_cell": True}, []),
        ({"variances": [0.1, {"a": 1}]}, []), ({}, ["--seed", "1.5"]),
    ])
    def test_bad_integer_or_type_exit_one(self, tmp_path, capsys, edit, flags):
        path = write_cfg(tmp_path, dict(self._sweep_cfg(), **edit))
        assert cli.main(["table1", "--config", path, "--out", str(tmp_path / "out"), *flags]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert not (tmp_path / "out").exists()


class TestCouplingCommand:
    def _cfg(self, variance=0.5):
        return {
            "problem": {"name": "estimation_paper"},
            "topology": {"builtin": "complete", "m": 5},
            "schedule": {"kind": "piecewise_paper", "lambda0": 0.02, "switch_k": 500,
                         "scale": 1.0},
            "variance": variance,
            "runs": 4,
            "horizon": 500,
            "escape_radius": 0.5,
            "seed": 31,
        }

    def test_schema_and_determinism(self, tmp_path):
        path = write_cfg(tmp_path, self._cfg())
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        assert cli.main(["coupling", "--config", path, "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["coupling", "--config", path, "--out", str(tmp_path / "b")]) == 0
        blob_a = (tmp_path / "a" / "coupling.json").read_bytes()
        assert blob_a == (tmp_path / "b" / "coupling.json").read_bytes()
        payload = json.loads(blob_a)
        assert set(payload) == {
            "config_fingerprint", "escape_count", "total_runs", "escape_radius",
            "iterations_to_escape", "e1", "seed",
        }
        assert payload["escape_count"] == 4
        assert len(payload["iterations_to_escape"]) == 4

    # the bundled estimation_coupling.json's escape iterations and e1 (every
    # pair escapes); a new layout of the coupling's noise blocks, pair blocks
    # or escape test must leave them as they are
    BUNDLED_ESCAPES = [
        64, 77, 62, 58, 58, 88, 71, 78, 60, 88, 82, 60, 81, 81, 71, 57, 72, 94, 81, 66,
        62, 68, 84, 96, 64, 54, 52, 81, 40, 81, 74, 90, 70, 89, 70, 71, 67, 58, 97, 66,
        64, 62, 77, 102, 72, 107, 58, 59, 52, 76, 84, 77, 98, 134, 69, 58, 78, 68, 56, 103,
        112, 94, 65, 84, 77, 66, 74, 71, 55, 88, 62, 92, 64, 85, 69, 54, 96, 83, 53, 60,
        68, 56, 52, 86, 60, 66, 117, 50, 94, 128, 70, 70, 54, 106, 107, 64, 114, 67, 85, 83,
    ]
    BUNDLED_E1 = ("0x1.ff5893554197cp-1", "-0x1.9dec92b81054fp-5")

    def test_bundled_config_pinned(self, tmp_path):
        path = str(cli.bundled_config_path("estimation_coupling.json"))
        assert cli.main(["coupling", "--config", path, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "coupling.json").read_text())
        assert payload["iterations_to_escape"] == self.BUNDLED_ESCAPES
        assert tuple(map(float.hex, payload["e1"])) == self.BUNDLED_E1
        assert payload["escape_count"] == payload["total_runs"] == 100

    def test_ica_saddle_exit_zero(self, tmp_path):
        # ICA d = 4's refined k = 2 saddle is a strict saddle on the sphere
        problem = {"name": "ica", "d": 4, "m": 5, "samples_per_agent": 160, "seed": 99}
        path = write_cfg(tmp_path, dict(self._cfg(), problem=problem, runs=2))
        assert cli.main(["coupling", "--config", path, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "coupling.json").read_text())
        assert payload["total_runs"] == 2 and len(payload["e1"]) == 4

    def test_zero_variance_control(self, tmp_path):
        path = write_cfg(tmp_path, self._cfg(variance=0.0))
        assert cli.main(["coupling", "--config", path, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "coupling.json").read_text())
        assert payload["escape_count"] == 0
        assert payload["iterations_to_escape"] == [None] * 4


    def test_divergence_exit_two(self, tmp_path, capsys):
        # |1 - 5 * 2 * c| > 1 on both axes: the pairs grow without bound, and
        # the escape distance overflows long before the huge radius is met
        cfg = {
            "problem": {"name": "custom_quadratic", "diag": [1.0, -1.0], "m": 2},
            "topology": {"builtin": "complete", "m": 2},
            "schedule": {"kind": "constant", "lambda0": 5.0},
            "variance": 0.5,
            "runs": 3,
            "horizon": 3000,
            "escape_radius": 1e308,
            "seed": 1,
        }
        path = write_cfg(tmp_path, cfg)
        assert cli.main(["coupling", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("divergence:")
        assert not (tmp_path / "coupling.json").exists()

    @pytest.mark.filterwarnings("error")
    def test_overflow_at_the_saddle_exit_two(self, tmp_path, capsys):
        # the saddle polish meets the overflow first; it leaves the report to
        # the kernel, without a warning or a search of every ULP candidate
        cfg = dict(self._cfg(), schedule={"kind": "constant", "lambda0": 1e308})
        path = write_cfg(tmp_path, cfg)
        assert cli.main(["coupling", "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["divergence: non-finite state at iteration 1"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("runs", 0), ("escape_radius", -1.0),
                                            ("escape_radius", float("nan")), ("seed", -1),
                                            ("horizon", 0), ("horizon", -3)])
    def test_bad_bounds_exit_one(self, tmp_path, capsys, key, value):
        path = write_cfg(tmp_path, dict(self._cfg(), **{key: value}))
        assert cli.main(["coupling", "--config", path, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: [AnalysisError]")
        assert not (tmp_path / "coupling.json").exists()

    @pytest.mark.parametrize("edit, flags", [
        ({"runs": 2.5, "horizon": 300.9}, []), ({"runs": 2.5}, []), ({"horizon": 300.9}, []),
        ({"seed": True}, []), ({"variance": {"a": 1}}, []), ({}, ["--seed", "31.5"]),
    ])
    def test_bad_integer_or_type_exit_one(self, tmp_path, capsys, edit, flags):
        path = write_cfg(tmp_path, dict(self._cfg(), **edit))
        assert cli.main(["coupling", "--config", path, "--out", str(tmp_path / "out"), *flags]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert not (tmp_path / "out").exists()


def _privacy_restatement(cfg):
    """The report CSV restated row by row from scalar budget_for_variance
    calls and "%.17g"."""
    schedule = cli.build_schedule(cfg["schedule"])
    lines = [cli.PRIVACY_HEADER]
    for k in range(1, cfg["horizon"] + 1):
        lam = stepsize(schedule, k)
        eps = [privacy.budget_for_variance(cfg["variance"], cfg["delta"], target, cfg["nu"], lam,
                                           cfg["n_i"])
               for target in privacy.TARGETS]
        values = [lam, *eps, cfg["delta"], cfg["variance"]]
        lines.append(",".join([str(k)] + ["%.17g" % float(v) for v in values]))
    return "\n".join(lines) + "\n"


class TestPrivacyReportCommand:
    def _cfg(self, **kw):
        cfg = {
            "schedule": {"kind": "piecewise_paper", "lambda0": 0.02, "switch_k": 500,
                         "scale": 1.0},
            "variance": 0.5,
            "delta": 0.05,
            "nu": 8.37,
            "n_i": 1,
            "horizon": 600,
        }
        cfg.update(kw)
        return cfg

    def test_switch_weakens_variable_privacy(self, tmp_path):
        path = write_cfg(tmp_path, self._cfg())
        assert cli.main(["privacy-report", "--config", path, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "privacy_report.csv").read_text().splitlines()
        assert lines[0] == "k,lambda,eps_sample,eps_gradient,eps_variable,delta,variance"
        row500 = lines[500].split(",")
        row501 = lines[501].split(",")
        assert float(row501[4]) > float(row500[4])

    def test_constant_schedule_constant_rows(self, tmp_path):
        path = write_cfg(tmp_path, self._cfg(schedule={"kind": "constant", "lambda0": 0.01},
                                             horizon=50))
        assert cli.main(["privacy-report", "--config", path, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "privacy_report.csv").read_text().splitlines()
        bodies = {line.split(",", 1)[1] for line in lines[1:]}
        assert len(bodies) == 1

    def test_help_describes_both_flags(self, capsys, monkeypatch):
        # the same two lines as in the help of run, table1 and coupling
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit):
            cli.main(["privacy-report", "--help"])
        assert capsys.readouterr().out.endswith(
            "  --config CONFIG  JSON config path\n"
            "  --out OUT        output directory (or $DPDGD_OUT)\n")

    def test_zero_horizon_exit_one(self, tmp_path, capsys):
        path = write_cfg(tmp_path, self._cfg(horizon=0))
        assert cli.main(["privacy-report", "--config", path, "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("schedule", [
        {"kind": "constant", "lambda0": 0.01},
        {"kind": "harmonic", "scale": 0.7},
        {"kind": "piecewise_paper", "lambda0": 0.02, "switch_k": 500, "scale": 1.0},
    ])
    @pytest.mark.parametrize("variance", [0.05, 0.5, 3.7])
    def test_csv_equals_scalar_restatement(self, tmp_path, schedule, variance):
        cfg = self._cfg(schedule=schedule, variance=variance, nu=8.3685, n_i=3, horizon=3000)
        path = write_cfg(tmp_path, cfg)
        assert cli.main(["privacy-report", "--config", path, "--out", str(tmp_path)]) == 0
        text = (tmp_path / "privacy_report.csv").read_text()
        assert text == _privacy_restatement(cfg)

    def test_pins_pow_rounded_row(self, tmp_path):
        # lambda**2 by libm pow, not lambda*lambda: the two differ in the last
        # bit of this row's eps_variable
        path = write_cfg(tmp_path, self._cfg(variance=3.7, horizon=3000))
        assert cli.main(["privacy-report", "--config", path, "--out", str(tmp_path)]) == 0
        row = (tmp_path / "privacy_report.csv").read_text().splitlines()[2947].split(",")
        assert row[0] == "2947" and row[4] == "3887.2850063916994"

    @pytest.mark.parametrize("key, value", [
        ("variance", float("nan")), ("variance", float("inf")), ("nu", float("nan")),
        ("nu", float("inf")), ("delta", float("nan")), ("horizon", 10.7), ("n_i", 2.9),
        ("horizon", True), ("n_i", True), ("nu", [1.0]),
        ("schedule", {"kind": "constant", "lambda0": float("nan")}),
        pytest.param("n_i", 10**400, id="n_i-beyond-float"),
        pytest.param("schedule", {"kind": "piecewise_paper", "lambda0": 0.02, "switch_k": 10**400,
                                  "scale": 1.0}, id="switch_k-beyond-float"),
        ("variance", 5e-324), ("schedule", {"kind": "constant", "lambda0": 1e200}),
    ])
    def test_no_guarantee_exit_one(self, tmp_path, capsys, key, value):
        path = write_cfg(tmp_path, self._cfg(**{key: value}))
        assert cli.main(["privacy-report", "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("horizon", [2**50, 2**62])
    def test_horizon_beyond_memory_exit_one(self, tmp_path, capsys, horizon):
        # the report's columns are sized against physical memory before any is built
        path = write_cfg(tmp_path, self._cfg(horizon=horizon))
        out = tmp_path / "out"
        _assert_one_line_exit_one(["privacy-report", "--config", path, "--out", str(out)], out,
                                  capsys, "config error: [InvalidConfig]", "physical memory")

    def test_integral_float_horizon_accepted(self, tmp_path):
        path = write_cfg(tmp_path, self._cfg(horizon=50.0, n_i=2.0))
        assert cli.main(["privacy-report", "--config", path, "--out", str(tmp_path)]) == 0
        assert len((tmp_path / "privacy_report.csv").read_text().splitlines()) == 51


class TestCsvWriter:
    """`cli.write_csv`, which formats CSV_ROWS rows at a time, writes what one
    `row % values` line per row gives, across chunk boundaries and on values
    whose text is easy to get wrong."""

    FORMATS = {  # the three commands' rows: (header, row, kinds of its columns)
        "trace": (cli.TRACE_HEADER, "%d,%.17g,%.17g,%.17g,%.17g,%.17g", "ifffff"),
        "table1": (cli.TABLE1_HEADER, "%.17g,%.17g,%.17g,%d", "fffi"),
        "privacy": (cli.PRIVACY_HEADER, "%d,%.17g,%.17g,%.17g,%.17g,0.050000000000000003,0.5",
                    "iffff"),
    }
    SPECIAL = {"f": [np.nan, np.inf, -np.inf, -0.0, 5e-324, 2.2250738585072009e-308, 1e300,
                     0.1, 1 / 3],
               "i": [2**62, -2**62, 0, 2**63 - 1, -1]}

    @pytest.mark.parametrize("form", FORMATS)
    @pytest.mark.parametrize("rows", [1, cli.CSV_ROWS - 1, cli.CSV_ROWS, cli.CSV_ROWS + 1,
                                      2 * cli.CSV_ROWS + 1])
    def test_rows_equal_the_per_row_format(self, tmp_path, form, rows):
        header, row, kinds = self.FORMATS[form]
        rng = np.random.default_rng(rows)
        columns = []
        for c, kind in enumerate(kinds):
            dtype = np.int64 if kind == "i" else float
            col = (rng.integers(-2**62, 2**62, rows) if kind == "i"
                   else rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows))
            col = col.astype(dtype)
            # the special values at the chunk boundaries and the ends, shifted per column
            at = sorted({0, rows - 1} | {a + o for a in range(cli.CSV_ROWS, rows, cli.CSV_ROWS)
                                         for o in (-1, 0, 1) if a + o < rows})
            for i, where in enumerate(at):
                col[where] = self.SPECIAL[kind][(i + c) % len(self.SPECIAL[kind])]
            columns.append(col)
        path = tmp_path / "out.csv"
        cli.write_csv(path, header, row, columns)
        lines = [row % values for values in zip(*(c.tolist() for c in columns))]
        assert path.read_text() == "\n".join([header, *lines]) + "\n"


class TestVerifyCommand:
    def test_passes_and_prints_classifications(self, capsys):
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS weight_invariants" in out
        assert "(1.3478, 1.0690) -> minimum" in out
        assert "(-7.4336, 1.3959) -> strict_saddle" in out
        assert "ICA d=4 maximum -> maximum, saddle -> strict_saddle" in out
        assert "FAIL" not in out


class TestBundledConfigs:
    def test_round_trip(self):
        cfg_dir = cli.resource_files("dpdgd").joinpath("configs")
        names = sorted(p.name for p in cfg_dir.iterdir())
        assert names  # package data present
        for name in names:
            text = cfg_dir.joinpath(name).read_text()
            parsed = json.loads(text)
            assert json.loads(json.dumps(parsed)) == parsed

    def test_bundled_run_configs_validate(self):
        for name in ("estimation_paper.json", "estimation_saddle.json", "ica_desk.json",
                     "ica_saddle.json", "ica_d10.json"):
            cfg = json.loads(cli.bundled_config_path(name).read_text())
            config, _, _ = cli.build_run_config(cfg)
            assert config.iterations >= 1

    def test_bundled_table1_base_validates(self):
        cfg = json.loads(cli.bundled_config_path("estimation_table1.json").read_text())
        base = dict(cfg["base"])
        cli.build_run_config(base)
        assert cfg["variances"] == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        assert cfg["runs_per_cell"] == 100


def _assert_one_line_exit_one(argv, out, capsys, prefix, *words):
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(prefix), err
    assert all(word in err[0] for word in words), err
    assert not out.exists()


class TestUsageErrors:
    """argparse's own exit code 2 is the divergence code; usage errors exit 1."""

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["run"], ["run", "--config"],
                                      ["privacy-report", "--config", "x.json", "--extra"]])
    def test_usage_error_exit_one(self, tmp_path, capsys, argv):
        _assert_one_line_exit_one(argv, tmp_path / "out", capsys, "usage error:")

    @pytest.mark.parametrize("argv", [["--out", "x"], ["--out", "x", "run", "--config", "y"],
                                      ["--seed", "3"], ["--out=x"]])
    def test_option_before_the_command_exit_one(self, tmp_path, capsys, monkeypatch, argv):
        # argparse alone would name the option's value as an invalid command
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 1
        option = argv[0].split("=")[0]
        assert capsys.readouterr().err == ("usage error: dpdgd: the command comes first, "
                                           f"before its options; got '{option}' first\n")
        assert list(tmp_path.iterdir()) == []

    def test_end_of_options_marker_before_the_command(self, tmp_path, capsys):
        # one leading `--` is dropped; the run writes what it writes without it
        cfg = write_cfg(tmp_path, BASE_RUN_CFG)
        assert cli.main(["--", "run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        assert capsys.readouterr().err == ""
        for name in ("trace.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_bare_end_of_options_marker_exit_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["--"]) == 1
        assert capsys.readouterr().err == (
            "usage error: dpdgd: the following arguments are required: command\n")
        assert list(tmp_path.iterdir()) == []

    def test_no_arguments_and_top_level_help_unchanged(self, capsys, monkeypatch):
        assert cli.main([]) == 1
        assert capsys.readouterr().err == (
            "usage error: dpdgd: the following arguments are required: command\n")
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_:
            cli.main(["-h"])
        help_ = capsys.readouterr()
        assert exit_.value.code == 0 and help_.err == ""
        assert help_.out.startswith("usage: dpdgd [-h] {run,table1,coupling,privacy-report,verify,"
                                    "list-configs} ...\n\nDifferentially private decentralized")

    @pytest.mark.parametrize("jobs", ["2.5", "0", "-3", "two", "true"])
    def test_bad_jobs_exit_one(self, tmp_path, capsys, jobs):
        path = write_cfg(tmp_path, TestTable1Command()._sweep_cfg())
        out = tmp_path / "out"
        _assert_one_line_exit_one(["table1", "--config", path, "--out", str(out), "--jobs", jobs],
                                  out, capsys, "config error:", "--jobs")


class TestNumericTypes:
    """JSON strings and booleans are not numbers, even when they parse as one."""

    @pytest.mark.parametrize("edit, field", [
        ({"iterations": "10"}, "iterations"),
        ({"record_every": "10"}, "record_every"),
        ({"seed": "4242"}, "seed"),
        ({"noise": {"variance": "0.5"}}, "noise.variance"),
        ({"noise": {"variance": True}}, "noise.variance"),
        ({"schedule": {"kind": "constant", "lambda0": "0.02"}}, "lambda0"),
        ({"schedule": {"kind": "harmonic", "scale": True}}, "scale"),
        ({"schedule": {"kind": "piecewise_paper", "lambda0": 0.02, "switch_k": "500",
                       "scale": 1.0}}, "switch_k"),
        ({"problem": {"name": "ica", "d": "4", "m": 5, "samples_per_agent": 16, "seed": 1}},
         "problem d"),
        ({"init": {"mode": "explicit", "coords": ["1.3", "1.0"]}}, "coords"),
        ({"problem": {"name": "custom_quadratic", "diag": ["1.0", "2.0"], "m": 5}}, "diag"),
        ({"problem": {"name": "custom_quadratic", "diag": [1.0, 2.0], "m": 5,
                      "offsets": [["0.0", 0.0]] * 5}}, "offsets"),
        ({"topology": {"matrix": [["0.2"] * 5] * 5}}, "matrix"),
        ({"problem": {"name": "custom_quadratic", "diag": [], "m": 5}}, "diag"),
    ])
    def test_run_fields(self, tmp_path, capsys, edit, field):
        path = write_cfg(tmp_path, dict(BASE_RUN_CFG, **edit))
        out = tmp_path / "out"
        _assert_one_line_exit_one(["run", "--config", path, "--out", str(out)], out, capsys,
                                  "config error:", field)

    def test_bundled_config_with_string_numbers(self, tmp_path, capsys):
        cfg = json.loads(cli.bundled_config_path("estimation_paper.json").read_text())
        cfg["iterations"] = "10"
        cfg["noise"] = {"variance": "0.5"}
        out = tmp_path / "out"
        _assert_one_line_exit_one(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(out)],
                                  out, capsys, "config error:")

    def test_flags_still_parse_numerals(self, tmp_path):
        path = write_cfg(tmp_path, BASE_RUN_CFG)
        assert cli.main(["run", "--config", path, "--out", str(tmp_path), "--seed", "9",
                         "--record-every", "50"]) == 0
        assert len((tmp_path / "trace.csv").read_text().splitlines()) == 1 + 3

    @pytest.mark.parametrize("variances", [["0.1", 0.5], [0.1, True]])
    def test_table1_variances(self, tmp_path, capsys, variances):
        cfg = dict(TestTable1Command()._sweep_cfg(), variances=variances)
        out = tmp_path / "out"
        _assert_one_line_exit_one(["table1", "--config", write_cfg(tmp_path, cfg), "--out",
                                   str(out)], out, capsys, "config error:", "variances")

    @pytest.mark.parametrize("key, value", [("variance", "0.5"), ("variance", True),
                                            ("escape_radius", "0.5"), ("escape_radius", True)])
    def test_coupling_fields(self, tmp_path, capsys, key, value):
        cfg = dict(TestCouplingCommand()._cfg(), **{key: value})
        out = tmp_path / "out"
        _assert_one_line_exit_one(["coupling", "--config", write_cfg(tmp_path, cfg), "--out",
                                   str(out)], out, capsys, "config error:", key)

    @pytest.mark.parametrize("key, value", [("variance", "0.5"), ("delta", "0.05"),
                                            ("nu", True), ("nu", "8.37")])
    def test_privacy_fields(self, tmp_path, capsys, key, value):
        cfg = TestPrivacyReportCommand()._cfg(**{key: value})
        out = tmp_path / "out"
        _assert_one_line_exit_one(["privacy-report", "--config", write_cfg(tmp_path, cfg),
                                   "--out", str(out)], out, capsys, "config error:", key)


class TestSchema:
    """The `output` object, agent counts and the ICA saddle go through the same
    exit-1 path as every other field."""

    @pytest.mark.parametrize("command, cfg, output", [
        ("run", BASE_RUN_CFG, {"trace_csv": 5}),
        ("run", BASE_RUN_CFG, "x"),
        ("run", BASE_RUN_CFG, None),
        ("run", BASE_RUN_CFG, {"csv": "a.csv"}),
        ("run", BASE_RUN_CFG, {"summary_json": "sub/s.json"}),
        ("privacy-report", TestPrivacyReportCommand()._cfg(), {"csv": None}),
        ("coupling", TestCouplingCommand()._cfg(), {"json": ""}),
        ("table1", TestTable1Command()._sweep_cfg(), {"dir": 3}),
    ])
    def test_bad_output_exit_one(self, tmp_path, capsys, command, cfg, output):
        path = write_cfg(tmp_path, dict(cfg, output=output))
        out = tmp_path / "out"
        _assert_one_line_exit_one([command, "--config", path, "--out", str(out)], out, capsys,
                                  "config error:", "output")

    @pytest.mark.parametrize("value", [True, False])
    def test_record_state_is_not_a_key(self, tmp_path, capsys, value):
        path = write_cfg(tmp_path, dict(BASE_RUN_CFG, record_state=value))
        out = tmp_path / "out"
        _assert_one_line_exit_one(["run", "--config", path, "--out", str(out)], out, capsys,
                                  "config error:", "unknown key 'record_state'")

    @pytest.mark.parametrize("command, cfg, module, name", [
        ("run", BASE_RUN_CFG, cli, "run"),
        ("table1", TestTable1Command()._sweep_cfg(), cli, "run_batch"),
        ("coupling", TestCouplingCommand()._cfg(), cli.analysis, "run_coupling_experiment"),
        ("privacy-report", TestPrivacyReportCommand()._cfg(), cli.privacy, "per_iteration_report"),
    ])
    @pytest.mark.parametrize("error, words", [
        (MemoryError("Unable to allocate 80.0 TiB for an array"), "80.0 TiB"),
        (MemoryError(), "out of memory"),  # a Python allocation failure carries no message
    ])
    def test_memory_error_exit_one(self, tmp_path, capsys, monkeypatch, command, cfg, module,
                                   name, error, words):
        def too_big(*args, **kwargs):
            raise error

        monkeypatch.setattr(module, name, too_big)
        out = tmp_path / "out"
        path = write_cfg(tmp_path, cfg)
        _assert_one_line_exit_one([command, "--config", path, "--out", str(out)], out, capsys,
                                  "config error: [MemoryError]", words)

    def test_output_names_and_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = dict(BASE_RUN_CFG, output={"dir": "results", "summary_json": "s.json"})
        assert cli.main(["run", "--config", write_cfg(tmp_path, cfg)]) == 0
        assert sorted(p.name for p in (tmp_path / "results").iterdir()) == ["s.json", "trace.csv"]

    @pytest.mark.parametrize("command, cfg", [
        ("run", BASE_RUN_CFG), ("coupling", TestCouplingCommand()._cfg()),
    ])
    def test_agent_count_mismatch_before_graph(self, tmp_path, capsys, monkeypatch, command, cfg):
        def never(*args):
            raise AssertionError("graph built")

        monkeypatch.setattr(cli, "builtin_topology", never)
        monkeypatch.setattr(cli, "build_metropolis_weights", never)
        path = write_cfg(tmp_path, dict(cfg, topology={"builtin": "complete", "m": 1000}))
        out = tmp_path / "out"
        _assert_one_line_exit_one([command, "--config", path, "--out", str(out)], out, capsys,
                                  "config error:", "1000 agents")

    def test_coupling_matrix_agent_count(self, tmp_path, capsys):
        cfg = dict(TestCouplingCommand()._cfg(), topology={"matrix": [[1 / 3] * 3] * 3})
        out = tmp_path / "out"
        _assert_one_line_exit_one(["coupling", "--config", write_cfg(tmp_path, cfg), "--out",
                                   str(out)], out, capsys, "config error:", "3 agents")

    @pytest.mark.parametrize("seed", [99, 1])
    def test_ica_d10_saddle_run_exit_zero(self, tmp_path, seed):
        # at_saddle on ica_d10.json's instance (data seed 99) starts at the root
        # from A (a_1 + a_2)/sqrt(2); with data seed 1 that root is a maximum,
        # and the run starts at the root from A (a_1 + a_4)/sqrt(2)
        cfg = json.loads(cli.bundled_config_path("ica_d10.json").read_text())
        cfg.update(init={"mode": "at_saddle"}, iterations=20)
        cfg["problem"] = dict(cfg["problem"], seed=seed)
        assert cli.main(["run", "--config", write_cfg(tmp_path, cfg), "--out",
                         str(tmp_path / "ok")]) == 0
        summary = json.loads((tmp_path / "ok" / "ica10_summary.json").read_text())
        assert summary["final_metrics"]["k"] == 20

    def test_failed_ica_saddle_refinement_exit_one(self, tmp_path, capsys):
        # at d = 2 the roots from both pair starts A (a_1 +/- a_2)/sqrt(2) are maxima
        cfg = json.loads(cli.bundled_config_path("ica_d10.json").read_text())
        cfg.update(init={"mode": "at_saddle"}, iterations=20)
        cfg["problem"] = dict(cfg["problem"], d=2)
        out = tmp_path / "out"
        _assert_one_line_exit_one(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(out)],
                                  out, capsys, "config error: [ProblemError]",
                                  "Newton's roots from all 2 known strict_saddle starts are of "
                                  "other kinds: the last classifies as 'maximum'")

    def test_ica_explicit_init_off_the_sphere_exit_one(self, tmp_path, capsys, monkeypatch):
        # the initial state is checked once, before iteration 1, not first
        # on the k = 0 row's metrics after the whole run
        def never(*args, **kwargs):
            raise AssertionError("lockstep entered")

        monkeypatch.setattr(optimizer, "lockstep", never)
        cfg = json.loads(cli.bundled_config_path("ica_desk.json").read_text())
        cfg["init"] = {"mode": "explicit", "coords": [1.0, 1.0, 0.0, 0.0]}
        out = tmp_path / "out"
        _assert_one_line_exit_one(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(out)],
                                  out, capsys, "config error: [ProblemError]",
                                  "||u|| = 1.4142135624 is not 1 within 1e-08")

    def test_problem_ranges_exit_one(self, tmp_path, capsys):
        out = tmp_path / "out"
        problem = {"name": "ica", "d": 3, "m": 5, "samples_per_agent": 4, "seed": -1}
        path = write_cfg(tmp_path, dict(BASE_RUN_CFG, problem=problem))
        _assert_one_line_exit_one(["run", "--config", path, "--out", str(out)], out, capsys,
                                  "config error: [ProblemError]", "seed")

    def test_init_half_width_is_not_a_key(self, tmp_path, capsys):
        # the quadratic's initial box is fixed at [-3, 3]^d
        out = tmp_path / "out"
        problem = {"name": "custom_quadratic", "diag": [1.0, -1.0], "m": 5, "init_half_width": 3.0}
        path = write_cfg(tmp_path, dict(BASE_RUN_CFG, problem=problem))
        _assert_one_line_exit_one(["run", "--config", path, "--out", str(out)], out, capsys,
                                  "config error:", "unknown key 'init_half_width'")

    @pytest.mark.parametrize("entry", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_offsets_exit_one(self, tmp_path, capsys, entry):
        # JSON NaN and Infinity once ran, and exited 2 as a divergence at iteration 1
        out = tmp_path / "out"
        problem = {"name": "custom_quadratic", "diag": [1.0, 1.0], "m": 2,
                   "offsets": [[entry, 0.0], [0.0, 0.0]]}
        path = write_cfg(tmp_path, dict(BASE_RUN_CFG, problem=problem,
                                        topology={"builtin": "complete", "m": 2}))
        _assert_one_line_exit_one(["run", "--config", path, "--out", str(out)], out, capsys,
                                  "config error:", "problem offsets must be finite")

    @pytest.mark.parametrize("diag", [[0.0, 0.0], [0.0], [float("nan"), 1.0], [float("inf"), 1.0]])
    def test_degenerate_diag_exit_one(self, tmp_path, capsys, diag):
        out = tmp_path / "out"
        path = write_cfg(tmp_path, dict(BASE_RUN_CFG, problem={"name": "custom_quadratic",
                                                               "diag": diag, "m": 5}))
        _assert_one_line_exit_one(["run", "--config", path, "--out", str(out)], out, capsys,
                                  "config error:", "problem diag must be finite with a nonzero entry")


def _library_errors():
    """The exception classes defined in the modules of dpdgd."""
    found = set()
    for info in pkgutil.walk_packages(dpdgd.__path__, "dpdgd."):
        module = importlib.import_module(info.name)
        found.update(c for _, c in inspect.getmembers(module, inspect.isclass)
                     if issubclass(c, BaseException) and c.__module__ == module.__name__)
    return sorted(found, key=lambda c: c.__name__)


# a two-agent run whose topology or problem the edits below replace
_QUADRATIC_RUN = dict(BASE_RUN_CFG, topology={"builtin": "complete", "m": 2},
                      problem={"name": "custom_quadratic", "diag": [1.0, -1.0], "m": 2})
# an edit of a config that the schema accepts and the library rejects, with the line it
# prints; the gap violation and an ICA start off the sphere have tests of their own
_LIBRARY_FAILURES = {
    "disconnected": ({"problem": {"name": "custom_quadratic", "diag": [1.0, -1.0], "m": 4},
                      "topology": {"edges": [[0, 1], [2, 3]], "m": 4}},
                     "[TopologyError] graph on 4 agents with 2 edges is not connected"),
    "not-symmetric": ({"topology": {"matrix": [[0.6, 0.4], [0.5, 0.5]]}},
                      "[TopologyError] weight matrix is not symmetric: max |w_ij - w_ji| = "
                      "1.000e-01 exceeds 1e-12"),
    "not-stochastic": ({"topology": {"matrix": [[0.7, 0.4], [0.4, 0.7]]}},
                       "[TopologyError] row/col sums deviate from 1 by up to 1.000e-01"),
    "negative-entry": ({"topology": {"matrix": [[1.2, -0.2], [-0.2, 1.2]]}},
                       "[TopologyError] w[0,1] = -2.000e-01 is negative"),
    "zero-self-weight": ({"topology": {"matrix": [[0.0, 1.0], [1.0, 0.0]]}},
                         "[TopologyError] w[0,0] = 0.000e+00 must be positive"),
    # at d = 2, A (a_1 + a_2)/sqrt(2) is the population maximum, and it refines to a maximum
    "ica-maximum-coupling": ({"problem": {"name": "ica", "d": 2, "m": 5, "samples_per_agent": 160,
                                          "seed": 99}},
                             "[ProblemError] Newton's roots from all 2 known strict_saddle "
                             "starts are of other kinds: the last classifies as 'maximum'"),
}


class TestLibraryErrors:
    """Each module raises one input-error class, a ValueError that exits 1;
    a numerical blow-up exits 2. Either prints one stderr line."""

    def test_six_classes_and_the_parser_error(self):
        assert [c.__name__ for c in _library_errors()] == [
            "AnalysisError", "InvalidConfig", "NonFiniteState", "PrivacyError", "ProblemError",
            "TopologyError", "_UsageError"]

    @pytest.mark.parametrize("error", _library_errors(), ids=lambda c: c.__name__)
    def test_every_library_error_maps_to_an_exit_code(self, capsys, monkeypatch, error):
        exc = error(7) if error is optimizer.NonFiniteState else error("what went wrong")

        def failing(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_run", failing)
        code = cli.main(["run", "--config", "a.json"])
        err = capsys.readouterr().err
        if error is optimizer.NonFiniteState:
            assert (code, err) == (2, "divergence: non-finite state at iteration 7\n")
        elif error is cli._UsageError:
            assert (code, err) == (1, "usage error: what went wrong\n")
        else:
            assert issubclass(error, ValueError)
            assert (code, err) == (1, f"config error: [{error.__name__}] what went wrong\n")

    @pytest.mark.parametrize("name", _LIBRARY_FAILURES)
    def test_library_failures_of_a_config_exit_one(self, tmp_path, capsys, name):
        edit, line = _LIBRARY_FAILURES[name]
        command, cfg = (("coupling", {**TestCouplingCommand()._cfg(), "runs": 2, **edit})
                        if name.endswith("coupling") else ("run", {**_QUADRATIC_RUN, **edit}))
        out = tmp_path / "out"
        assert cli.main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {line}\n"
        assert not out.exists()


SRC = str(Path(cli.__file__).resolve().parents[1])


def _fresh(args, cwd, limit=None, script=None):
    """A fresh interpreter running `dpdgd` with args (or `script`), under an
    address-space limit of `limit` bytes when given."""
    code = script or "import sys\nfrom dpdgd.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    if limit:
        code = ("import resource\n"
                f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n" + code)
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    env.pop("DPDGD_OUT", None)
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


class TestSharedParser:
    """main builds its parser on the first call and parses every later call
    with it; what a call prints, writes and returns is what a fresh process's
    first call gives."""

    def _argvs(self, tmp_path):
        cfgs = {"run": BASE_RUN_CFG, "privacy-report": TestPrivacyReportCommand()._cfg(),
                "table1": TestTable1Command()._sweep_cfg(runs_per_cell=2),
                "coupling": TestCouplingCommand()._cfg()}
        paths = {cmd: write_cfg(tmp_path, cfg, cmd + ".json") for cmd, cfg in cfgs.items()}
        return [["run", "--config", paths["run"], "--seed", "7"], ["run", "--config"],
                ["privacy-report", "--config", paths["privacy-report"]],
                ["table1", "--config", paths["table1"]],
                ["coupling", "--config", paths["coupling"]]]

    def test_back_to_back_commands_equal_fresh_processes(self, tmp_path, capsys):
        argvs = self._argvs(tmp_path)
        shared = []
        for i, argv in enumerate(argvs):
            code = cli.main([*argv, "--out", str(tmp_path / "shared" / str(i))])
            captured = capsys.readouterr()
            shared.append((code, captured.out.replace(str(tmp_path / "shared"), "OUT"),
                           captured.err))
        for i, argv in enumerate(argvs):
            fresh = _fresh([*argv, "--out", str(tmp_path / "fresh" / str(i))], tmp_path)
            assert shared[i] == (fresh.returncode,
                                 fresh.stdout.replace(str(tmp_path / "fresh"), "OUT"), fresh.stderr)
        assert [c for c, _, _ in shared] == [0, 1, 0, 0, 0]
        assert shared[1][2].startswith("usage error: dpdgd run:")

        def files(root):
            return {str(p.relative_to(root)): p.read_bytes()
                    for p in sorted(root.rglob("*")) if p.is_file()}

        assert files(tmp_path / "shared") == files(tmp_path / "fresh")
        assert len(files(tmp_path / "shared")) == 5

    @pytest.mark.parametrize("command", ["run", "table1", "coupling", "privacy-report", "verify",
                                         "list-configs"])
    def test_command_replaced_after_first_call_runs(self, monkeypatch, command):
        assert cli.main(["run"]) == 1  # the parser exists from here on
        seen = []

        def replaced(args):
            seen.append(args)
            return 7

        monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), replaced)
        flags = ["--config", "a.json"] if command not in ("verify", "list-configs") else []
        assert cli.main([command, *flags]) == 7
        assert cli.main([command, *flags]) == 7
        assert len(seen) == 2 and seen[0] is not seen[1] and seen[0].command == command

    def test_each_call_parses_into_a_fresh_namespace(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_run", lambda args: seen.append(args) or 0)
        assert cli.main(["run", "--config", "a.json", "--seed", "5", "--record-every", "2"]) == 0
        assert cli.main(["run", "--config", "b.json"]) == 0
        assert [(a.config, a.seed, a.record_every) for a in seen] == [("a.json", "5", "2"),
                                                                        ("b.json", None, None)]

    def test_out_dir_from_the_environment_at_each_call(self, tmp_path, monkeypatch):
        path = write_cfg(tmp_path, TestPrivacyReportCommand()._cfg(horizon=20))
        for name in ("a", "b"):
            monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path / name))
            assert cli.main(["privacy-report", "--config", path]) == 0
            assert (tmp_path / name / "privacy_report.csv").is_file()
        assert (tmp_path / "a" / "privacy_report.csv").read_bytes() == (
            tmp_path / "b" / "privacy_report.csv").read_bytes()

    @pytest.mark.parametrize("command", [[], ["run"], ["table1"], ["coupling"], ["privacy-report"],
                                         ["verify"], ["list-configs"]])
    def test_help_equals_a_new_parser(self, capsys, monkeypatch, command):
        # the width is read when the help is printed, not when the parser is built
        assert cli.main(["run"]) == 1
        monkeypatch.setenv("COLUMNS", "60")
        capsys.readouterr()
        helps = []
        for parse in (cli.main, cli._build_parser().parse_args):
            with pytest.raises(SystemExit) as exit_:
                parse([*command, "--help"])
            assert exit_.value.code == 0
            helps.append(capsys.readouterr())
        assert helps[0] == helps[1] and helps[0].err == ""
        assert helps[0].out.startswith("usage: dpdgd")

    def test_built_once_by_the_first_call_not_at_import(self, tmp_path):
        # counts the argparse parsers made: none at import, and the first
        # call's (dpdgd and its six commands) for any number of calls
        script = textwrap.dedent("""
            import argparse
            made = []
            init = argparse.ArgumentParser.__init__
            def counting(self, *args, **kwargs):
                made.append(kwargs.get("prog"))
                init(self, *args, **kwargs)
            argparse.ArgumentParser.__init__ = counting
            import dpdgd.cli as cli
            counts = [len(made)]
            for argv in (["run"], ["list-configs"], ["bogus"], ["verify", "--x"], ["list-configs"]):
                cli.main(argv)
                counts.append(len(made))
            print(*counts)
        """)
        out = _fresh([], tmp_path, script=script)
        assert out.returncode == 0, out.stderr
        counts = [int(c) for c in out.stdout.split()[-6:]]
        assert counts == [0, 7, 7, 7, 7, 7]


class TestSizeBounds:
    """A run, sweep or coupling too large for its stream keys or for memory
    exits 1 before anything per run is built. The cases run in one fresh interpreter
    whose address space is capped at 1 GB, so that a size that got past the
    check would fail fast instead of filling the machine."""

    CASES = {  # name: (command, config edit, words of the one stderr line, flags...)
        # a recorded row keeps its (m, d) state, so unbounded rows are refused up front
        "run-rows-memory": ("run", {"iterations": 2**62, "record_every": 1}, "physical memory"),
        "run-rows-memory-flag": ("run", {"iterations": 2**62, "record_every": 2**62},
                                 "physical memory", "--record-every", "1"),
        "table1-rows-memory": ("table1",
                               {"base": dict(BASE_RUN_CFG, iterations=2**62, record_every=1)},
                               "physical memory"),
        "table1-key": ("table1", {"runs_per_cell": 2**32 + 1},
                       "runs_per_cell must be at most 2**32"),
        "table1-memory": ("table1", {"runs_per_cell": 2**32}, "physical memory"),
        "table1-memory-noiseless": ("table1", {"runs_per_cell": 2**32, "variances": [0.0]},
                                    "physical memory"),
        "coupling-key": ("coupling", {"runs": 2**40}, "runs must be at most 2**32"),
        "coupling-key-edge": ("coupling", {"runs": 2**32 + 1}, "runs must be at most 2**32"),
        "coupling-memory-noiseless": ("coupling", {"runs": 2**32, "variance": 0.0},
                                      "physical memory"),
        "coupling-memory": ("coupling", {"runs": 2**30}, "physical memory"),
        "privacy-report-memory": ("privacy-report", {"horizon": 2**50}, "physical memory"),
    }

    @pytest.fixture(scope="class")
    def results(self, tmp_path_factory):
        """(the cases' directory, {name: [exit code, stderr]}) from one capped interpreter."""
        tmp = tmp_path_factory.mktemp("sizes")
        argvs = {}
        for name, (command, edit, _, *flags) in self.CASES.items():
            cfg = {"run": BASE_RUN_CFG, "table1": TestTable1Command()._sweep_cfg(),
                   "coupling": TestCouplingCommand()._cfg(),
                   "privacy-report": TestPrivacyReportCommand()._cfg()}[command]
            path = write_cfg(tmp, dict(cfg, **edit), name + ".json")
            argvs[name] = [command, "--config", path, "--out", str(tmp / name), *flags]
        script = textwrap.dedent("""
            import contextlib, io, json, sys
            from dpdgd.cli import main
            out = {}
            for name, argv in json.loads(sys.argv[1]).items():
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    out[name] = [main(argv), err.getvalue()]
            print(json.dumps(out))
        """)
        run = _fresh([json.dumps(argvs)], tmp, limit=2**30, script=script)
        assert run.returncode == 0, run.stderr
        return tmp, json.loads(run.stdout.splitlines()[-1])

    @pytest.mark.parametrize("name", CASES)
    def test_rejected_before_allocation(self, results, name):
        tmp, codes = results
        code, stderr = codes[name]
        err = stderr.strip().splitlines()
        assert code == 1 and len(err) == 1, stderr
        assert err[0].startswith("config error:") and self.CASES[name][2] in err[0], err
        assert not (tmp / name).exists()

    # bundled configs grown to many rows: {name: (command, config, edit, rows, the bytes
    # that a row's columns occupy, the most that a row may cost at the peak)}
    PEAKS = {
        # x (5, 2), mean_gn (2,), k, lam, three metrics and two norms: 19 doubles
        "estimation": ("run", "estimation_paper.json", {"iterations": 20000, "record_every": 1},
                       20001, 8 * 19, 250),
        # x (5, 10), mean_gn (10,) and the same seven scalars: 67 doubles
        "ica-d10-m5": ("run", "ica_d10.json", {"iterations": 20000, "record_every": 1},
                       20001, 8 * 67, 650),
        # k, lam and three epsilons
        "privacy-report": ("privacy-report", "privacy_report.json", {"horizon": 200000},
                           200000, 8 * 5, 80),
    }

    @pytest.fixture(scope="class")
    def peaks(self, tmp_path_factory):
        """{name: [tracemalloc peak, exit code and stderr with memory set to the peak less a byte]},
        each case in a fresh interpreter, all started at once."""
        tmp = tmp_path_factory.mktemp("peaks")
        script = textwrap.dedent("""
            import contextlib, io, json, os, sys, tracemalloc
            from dpdgd import cli
            argv, problem = json.loads(sys.argv[1]), json.loads(sys.argv[2])
            if problem:  # built once per process and shared by every run, so not per row
                cli.build_problem(problem)
            tracemalloc.start()
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            os.sysconf = {"SC_PHYS_PAGES": peak - 1, "SC_PAGE_SIZE": 1}.get
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(argv)
            print(json.dumps([peak, code, err.getvalue()]))
        """)
        env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
        env.pop("DPDGD_OUT", None)
        procs = {}
        for name, (command, bundled, edit, *_) in self.PEAKS.items():
            cfg = dict(json.loads(cli.bundled_config_path(bundled).read_text()), **edit)
            cfg.pop("output")
            argv = [command, "--config", write_cfg(tmp, cfg, name + ".json"), "--out", str(tmp)]
            procs[name] = subprocess.Popen(
                [sys.executable, "-c", script, json.dumps(argv), json.dumps(cfg.get("problem"))],
                cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        out = {}
        for name, proc in procs.items():
            stdout, stderr = proc.communicate(timeout=300)
            assert proc.returncode == 0, stderr
            out[name] = json.loads(stdout.splitlines()[-1])
        return out

    @pytest.mark.parametrize("name", PEAKS)
    def test_need_covers_the_measured_peak(self, peaks, name):
        # a need at or above the peak refuses the run when memory holds a byte less
        peak, code, stderr = peaks[name]
        rows, columns = self.PEAKS[name][3:5]
        assert peak >= rows * columns  # the recorded columns were traced
        assert code == 1 and "physical memory" in stderr, (peak, stderr)

    @pytest.mark.parametrize("name", PEAKS)
    def test_row_cost_is_bounded(self, peaks, name):
        # a row costs its columns and a share of one fixed-size output chunk,
        # not a Python object of its own
        rows, _, bound = self.PEAKS[name][3:]
        assert peaks[name][0] <= rows * bound, peaks[name][0] / rows

    def test_memory_bound_is_the_physical_memory(self):
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        optimizer.check_batch_memory(rows=1, row_bytes=have)
        with pytest.raises(optimizer.InvalidConfig, match="physical memory"):
            optimizer.check_batch_memory(rows=1, row_bytes=have + 1)

    def test_need_counts_states_rows_and_streams(self, monkeypatch):
        config, _, _ = cli.build_run_config(BASE_RUN_CFG)
        m, d = config.problem.m, config.problem.d
        # a row holds x and mean_gn, 8 bytes an entry, and _ROW_BYTES of the rest
        assert config.row_bytes == 8 * (m * d + d) + optimizer._ROW_BYTES
        # 2 runs of 16 bytes a state entry and 4 rows, and 5 streams
        need = 2 * (16 * m * d + 4 * config.row_bytes) + 5 * optimizer._STREAM_BYTES
        counts = dict(runs=2, entries=m * d, rows=4, streams=5, row_bytes=config.row_bytes)
        monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": need, "SC_PAGE_SIZE": 1}.get)
        optimizer.check_batch_memory(**counts)
        monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": need - 1, "SC_PAGE_SIZE": 1}.get)
        with pytest.raises(optimizer.InvalidConfig, match="physical memory"):
            optimizer.check_batch_memory(**counts)
