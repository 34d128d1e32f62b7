"""Property test of the config schema: a config built from a command's schema
keys, with arbitrary JSON values, exits 0, 1 or 2 without a traceback. Exit 0
prints nothing to stderr and no warning. Exits 1 and 2 print exactly one
stderr line (warnings counted) and create no output directory.

Cases are valid configs (every problem, topology form, schedule kind and init
mode) with a few schema keys replaced, dropped or added, and configs drawn
from the schema alone."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpdgd import cli
from dpdgd.topology import BUILTIN_TOPOLOGIES

COMMANDS = {"run": cli._RUN, "table1": cli._TABLE1, "coupling": cli._COUPLING,
            "privacy-report": cli._PRIVACY}

# the keys that size a case's work and memory are drawn small
BOUNDED = {"m", "d", "samples_per_agent", "iterations", "horizon", "runs", "runs_per_cell"}

SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8,
)
NOT_NUMBERS = st.none() | st.booleans() | st.text(max_size=8) | st.lists(SCALARS, max_size=3)
NUMBERS = st.integers(-3, 3) | st.floats(-3, 3)
SMALL = st.integers(-2, 6) | st.sampled_from([2.0, 3.5, 5.0])


def typed(field, key):
    """A value of the field's type."""
    kind = field.type
    if kind == "object":
        return objects(field.sub)
    if kind == "int":
        return SMALL if key in BOUNDED else st.integers() | SMALL | st.floats()
    if kind == "real":
        return st.floats() | NUMBERS | st.integers()
    if kind == "choice":
        return st.sampled_from(list(field.sub))
    if kind == "path":
        return st.text(max_size=12)
    if kind == "array":
        return st.lists(NUMBERS, max_size=4) | st.lists(st.lists(NUMBERS, max_size=4), max_size=4)
    assert kind == "edges", kind
    return st.lists(st.lists(st.integers(-1, 6), min_size=2, max_size=2), max_size=8)


def value(field, key):
    wild = NOT_NUMBERS if key in BOUNDED else JSON
    return st.one_of(typed(field, key), typed(field, key), wild)


def fields(obj, table):
    """The table of `obj`, the tag of a keyed variant included."""
    if not isinstance(table, cli._Variants):
        return table
    if table.key is None:
        return table[next(name for name in table if name in obj)]
    return {table.key: cli.Field("choice", True, sub=tuple(table)), **table[obj[table.key]]}


@st.composite
def objects(draw, table):
    """An object drawn from its table alone."""
    obj = {}
    if isinstance(table, cli._Variants):
        name = draw(st.sampled_from(list(table)))
        obj[table.key or name] = name
        table = fields(obj, table)
    for key, field in table.items():
        if draw(st.integers(0, 9)):
            obj[key] = draw(value(field, key))
    if draw(st.integers(0, 19)) == 0:
        obj[draw(st.text(max_size=6))] = draw(JSON)
    return obj


@st.composite
def mutated(draw, obj, table):
    """`obj` with now and then a schema key replaced, dropped, or a key added."""
    obj = dict(obj)
    for key, field in fields(obj, table).items():
        roll = draw(st.integers(0, 79))
        if roll == 0:
            obj.pop(key, None)
        elif roll <= 2:
            obj[key] = draw(value(field, key))
        elif field.type == "object" and isinstance(obj.get(key), dict):
            obj[key] = draw(mutated(obj[key], field.sub))
    if draw(st.integers(0, 79)) == 0:
        obj[draw(st.text(max_size=6))] = draw(JSON)
    return obj


PROBLEMS = [  # (problem, m, d)
    ({"name": "estimation_paper"}, 5, 2),
    ({"name": "ica", "d": 3, "m": 3, "samples_per_agent": 8, "seed": 1}, 3, 3),
    ({"name": "custom_quadratic", "diag": [1.0, -1.0], "m": 2}, 2, 2),
]
SCHEDULES = [
    {"kind": "constant", "lambda0": 0.02},
    {"kind": "harmonic", "scale": 0.05},
    {"kind": "piecewise_paper", "lambda0": 0.02, "switch_k": 3, "scale": 0.05},
]


@st.composite
def valid(draw, command):
    """A config the command runs."""
    problem, m, d = draw(st.sampled_from(PROBLEMS))
    topology = draw(st.sampled_from(
        [{"builtin": name, "m": m} for name in BUILTIN_TOPOLOGIES]
        + [{"m": m, "edges": [[i, (i + 1) % m] for i in range(m)]},
           {"matrix": [[1.0 / m] * m] * m}]))
    schedule = draw(st.sampled_from(SCHEDULES))
    init = draw(st.sampled_from([{"mode": "random_box"}, {"mode": "at_saddle"},
                                 {"mode": "explicit", "coords": [1.0] + [0.0] * (d - 1)}]))
    base = {"problem": problem, "topology": topology, "schedule": schedule,
            "noise": {"variance": 0.5}, "init": init, "iterations": 5, "record_every": 2,
            "seed": 7}
    return {
        "run": dict(base, output={"dir": "d", "trace_csv": "t.csv", "summary_json": "s.json"}),
        "table1": {"base": base, "variances": [0.1, 0.5], "runs_per_cell": 2,
                   "output": {"csv": "x.csv"}},
        "coupling": {"problem": problem, "topology": topology, "schedule": schedule,
                     "variance": 0.5, "runs": 2, "horizon": 5, "escape_radius": 0.5, "seed": 3,
                     "output": {"json": "c.json"}},
        "privacy-report": {"schedule": schedule, "variance": 0.5, "delta": 0.05, "nu": 8.0,
                           "n_i": 1, "horizon": 5, "output": {"csv": "p.csv"}},
    }[command]


@st.composite
def cases(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    table = COMMANDS[command]
    roll = draw(st.integers(0, 19))
    if roll == 0:
        return command, draw(JSON)
    if roll <= 4:
        return command, draw(objects(table))
    return command, draw(mutated(draw(valid(command)), table))


def run_case(command, cfg):
    """(exit code, stderr lines and warnings, whether the output directory exists)."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([command, "--config", str(path), "--out", str(out)])
        return code, err.getvalue().splitlines() + [str(w.message) for w in caught], out.exists()


PRIVACY = {"schedule": SCHEDULES[0], "delta": 0.05, "n_i": 1, "horizon": 5}


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(cases())
# inputs that once printed numpy warnings: an overflow in the saddle polish,
# epsilons that overflow, and a quadratic constant that overflowed; and
# non-finite offsets, which once exited 2 as a divergence
@example(("coupling", {"problem": PROBLEMS[0][0], "topology": {"builtin": "complete", "m": 5},
                       "schedule": {"kind": "constant", "lambda0": 1e308}, "variance": 0.5,
                       "runs": 2, "horizon": 5, "escape_radius": 0.5, "seed": 3}))
@example(("privacy-report", dict(PRIVACY, nu=1e308, variance=1e-308)))
@example(("privacy-report", dict(PRIVACY, nu=8.0, variance=5e-324)))
@example(("run", {"problem": dict(PROBLEMS[2][0], offsets=[[1e308, 0.0], [0.0, 0.0]]),
                  "topology": {"builtin": "complete", "m": 2}, "schedule": SCHEDULES[0],
                  "noise": {"variance": 0.5}, "iterations": 5, "seed": 7}))
@example(("run", {"problem": dict(PROBLEMS[2][0], offsets=[[float("nan"), 0.0], [0.0, 0.0]]),
                  "topology": {"builtin": "complete", "m": 2}, "schedule": SCHEDULES[0],
                  "noise": {"variance": 0.5}, "iterations": 5, "seed": 7}))
def test_any_config_exits_cleanly(case):
    code, lines, wrote = run_case(*case)
    assert code in (0, 1, 2)
    assert not any("Traceback" in line for line in lines)
    if code == 0:
        assert lines == []
    else:
        prefix = "config error:" if code == 1 else "divergence:"
        assert len(lines) == 1 and lines[0].startswith(prefix), lines
        assert not wrote
