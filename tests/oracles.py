"""Restatements of problem quantities that only the tests read: the aggregated
objective, an ICA instance's sources and its reconstruction error."""

from __future__ import annotations

import numpy as np

from dpdgd.problems import NotUnitNorm
from dpdgd.problems.ica import UNIT_NORM_TOL


def objective(problem, theta) -> float:
    """F(theta) = (1/m) sum_i f_i(theta), from the agents' own objectives."""
    return float(np.mean([problem.agent_objective(i, theta) for i in range(problem.m)]))


def ica_sources(d, m, samples_per_agent, seed) -> np.ndarray:
    """The Rademacher sources Z (m, samples_per_agent, d) behind
    make_ica_problem(d, m, samples_per_agent, seed): its generator's draws
    after the d x d Gaussian that the mixing matrix comes from."""
    rng = np.random.default_rng(seed)
    rng.standard_normal((d, d))
    return rng.choice(np.array([-1.0, 1.0]), size=(m, samples_per_agent, d))


def reconstruction_error(problem, u) -> float:
    """min over the columns a_j of an ICA problem's A and signs s of
    ||u - s a_j||, from every signed column's distance; NotUnitNorm off the
    sphere, as the problem's own metric raises."""
    u = np.asarray(u, dtype=float)
    if not abs(np.linalg.norm(u) - 1.0) <= UNIT_NORM_TOL:
        raise NotUnitNorm(f"||u|| = {np.linalg.norm(u)} is not 1")
    return min(float(np.linalg.norm(u - s * col, axis=-1))
               for col in problem.A.T for s in (1.0, -1.0))
