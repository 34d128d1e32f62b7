from __future__ import annotations

import json

import numpy as np
import pytest

from dpdgd import cli
from dpdgd.problems import make_ica_problem, make_paper_estimation_problem
from dpdgd.topology import build_metropolis_weights, builtin_topology


@pytest.fixture(scope="session")
def paper_problem():
    return make_paper_estimation_problem()


@pytest.fixture(scope="session")
def config_nu():
    """nu of the bundled privacy-report config: the sensitivity constant's one source."""
    return json.loads(cli.bundled_config_path("privacy_report.json").read_text())["nu"]


@pytest.fixture(scope="session")
def rpc5():
    return build_metropolis_weights(builtin_topology("ring_plus_chord", 5))


@pytest.fixture(scope="session")
def complete5():
    return build_metropolis_weights(builtin_topology("complete", 5))


@pytest.fixture(scope="session")
def ica4():
    return make_ica_problem(d=4, m=5, samples_per_agent=160, seed=99)


@pytest.fixture
def rng():
    return np.random.default_rng(0xDEC0)
