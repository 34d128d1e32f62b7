"""Restatements of quantities that only the tests read: the aggregated
objective, an ICA instance's sources and its reconstruction error, and every
state of a run."""

from __future__ import annotations

import numpy as np

from dpdgd import optimizer
from dpdgd.problems import ProblemError
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
    ||u - s a_j||, from every signed column's distance; ProblemError off the
    sphere, as the problem's own metric raises."""
    u = np.asarray(u, dtype=float)
    if not abs(np.linalg.norm(u) - 1.0) <= UNIT_NORM_TOL:
        raise ProblemError(f"||u|| = {np.linalg.norm(u)} is not 1")
    return min(float(np.linalg.norm(u - s * col, axis=-1))
               for col in problem.A.T for s in (1.0, -1.0))


def run_steps(config):
    """Every state of config's run, (iterations + 1, m, d) from k = 0, and the
    g + N of the step to each (zeros at k = 0): the run that run_batch gives
    the config, from its initial state and noise streams, read at every step
    through lockstep's per-step hook."""
    p = config.problem
    keys = optimizer.stream_keys([config.seed], [(optimizer._NOISE_STREAM, j) for j in range(p.m)]
                                 + [(optimizer._INIT_STREAM, 0)])[0]
    x0 = optimizer._initial_state(config, keys[-1])
    xs, gns = [x0], [np.zeros_like(x0)]

    def observe(k, x, n, gn):
        xs.append(x[0].copy())
        gns.append(gn[0].copy())

    optimizer.lockstep(p, config.weights.w, x0[None], config.schedule, config.iterations,
                       keys[None, :-1], [np.sqrt(config.noise_variance)], observe)
    return np.array(xs), np.array(gns)
