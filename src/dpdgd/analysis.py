"""The per-step contraction check and coupled saddle-escape runs.

The contraction check asserts the norm inequality that drives consensus:
one mixing step shrinks disagreement by the spectral gap eta and injects at
most eta * lambda_k ||g + N||. The coupling experiment drives paired
trajectories from a strict saddle whose noises are mirror images along the
most unstable Hessian direction e1; with noise the pair separates and escapes,
without noise both stay put.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import optimizer
from .problems import classify_stationary_point
from .topology import WeightMatrix


class AnalysisError(ValueError):
    pass


class NoConsecutiveRows(AnalysisError):
    pass


class NotAStrictSaddle(AnalysisError):
    pass


@dataclass(frozen=True)
class ContractionViolation:
    k: int
    lhs: float
    rhs: float


@dataclass(frozen=True)
class ContractionReport:
    pairs_checked: int
    violations: tuple
    eta: float
    tolerance: float

    @property
    def ok(self):
        return len(self.violations) == 0


def assert_contraction(trace: optimizer.RunTrace, w: WeightMatrix, tol=1e-9) -> ContractionReport:
    """Check ||x^{k+1} - mean|| <= eta ||x^k - mean|| + eta lambda ||g + N|| + tol
    over every adjacent recorded pair.

    Reads each row's recorded consensus_error; needs a trace with consecutive
    rows (record_every=1), and raises NoConsecutiveRows otherwise.
    """
    eta = w.eta
    recs = trace.records
    pairs = [
        (a, b) for a, b in zip(recs[:-1], recs[1:]) if b.k == a.k + 1
    ]
    if not pairs:
        raise NoConsecutiveRows("contraction check needs consecutive iterations in the trace")
    violations = []
    for a, b in pairs:
        lhs = b.consensus_error
        rhs = eta * a.consensus_error + eta * b.lam * b.gn_norm + tol
        if lhs > rhs:
            violations.append(ContractionViolation(k=b.k, lhs=lhs, rhs=rhs))
    return ContractionReport(
        pairs_checked=len(pairs), violations=tuple(violations), eta=eta, tolerance=tol
    )


def min_eigvec(h) -> np.ndarray:
    """Unit eigenvector of the smallest eigenvalue, sign-fixed so the first
    nonzero component is positive."""
    h = np.asarray(h, dtype=float)
    vals, vecs = np.linalg.eigh(0.5 * (h + h.T))
    v = vecs[:, int(np.argmin(vals))]
    for comp in v:
        if comp != 0.0:
            if comp < 0:
                v = -v
            break
    return v / np.linalg.norm(v)


def mirror_noise(n, e1) -> np.ndarray:
    """Negate every agent's component along e1 (flips the aggregate too);
    n is (..., m, d)."""
    return n - 2.0 * (n @ e1)[..., None] * e1


def agent_mean(x) -> np.ndarray:
    """The agents' mean of x (..., m, d): the agent slices added one at a
    time, then divided by m. That order does not depend on the leading axes,
    so a run's mean does not depend on its batch. x.mean(axis=-2) gives the
    same bits on the states the tests pin, in about twice the time on a
    200-pair coupling batch."""
    v = x[..., 0, :].copy()
    for j in range(1, x.shape[-2]):
        v += x[..., j, :]
    v /= x.shape[-2]
    return v


def escape_distances(x, saddle) -> np.ndarray:
    """Distance from saddle of each agents' mean in x (..., m, d), by
    np.linalg.norm's formula without its wrapper."""
    v = agent_mean(x)
    v -= saddle
    return np.sqrt(np.add.reduce(v * v, axis=-1))


@dataclass
class CouplingResult:
    total_runs: int
    escape_count: int
    iterations_to_escape: list
    escape_radius: float
    e1: np.ndarray
    seed: int


def run_coupling_experiment(problem, w: WeightMatrix, saddle, schedule, variance,
                            runs, horizon, escape_radius, seed) -> CouplingResult:
    """Paired runs from all-agents-at-saddle with e1-mirrored noises.

    A run escapes at the first iteration where either trajectory's mean
    iterate leaves the escape_radius ball around the saddle; censored runs
    record None. The starting point is polished to a numerical fixed point of
    the noise-free update when one exists, so variance 0 yields no escapes.
    """
    if not variance >= 0:
        raise AnalysisError(f"variance must be >= 0, got {variance}")
    if runs < 1 or horizon < 1 or not 0 < escape_radius < np.inf or not 0 <= seed < 2**64:
        raise AnalysisError(f"need runs >= 1, horizon >= 1, a finite escape_radius > 0 and a seed "
                            f"in [0, 2**64), got {runs}, {horizon}, {escape_radius} and {seed}")
    if runs > 2**32:
        raise AnalysisError(f"runs must be at most 2**32, so that a pair index fits its stream "
                            f"key's 32-bit word, got {runs}")
    m, d = problem.m, problem.d
    optimizer.check_batch_memory(runs * 2 * m * d, runs * m if variance > 0 else 0)
    saddle = np.asarray(saddle, dtype=float)
    kind = classify_stationary_point(problem, saddle, grad_tol=1e-6, eig_tol=1e-6)
    if kind != "strict_saddle":
        raise NotAStrictSaddle(f"initial point classifies as {kind!r}")
    e1 = min_eigvec(problem.aggregated_hessian(saddle))
    start = optimizer.polish_fixed_point(problem, w, optimizer.stepsize(schedule, 1), saddle)
    streams = [None] * runs
    if variance > 0:
        keys = optimizer.stream_keys([seed], [(optimizer._COUPLING_STREAM, r, j)
                                              for r in range(runs) for j in range(m)])
        streams = [[optimizer.philox(key) for key in pair] for pair in keys.reshape(runs, m, 2)]

    def escaped(x, k):
        # x is (pairs, 2, m, d); a pair escapes when either mean leaves the ball
        dist = escape_distances(x, saddle)
        if not np.isfinite(dist).all():
            raise optimizer.NonFiniteState(k, "escape distance")
        return (dist > escape_radius).any(axis=-1)

    out = optimizer.lockstep(
        problem, w.w, np.tile(start, (runs, 2, m, 1)), schedule, horizon, streams,
        [np.sqrt(variance)] * runs,
        noise_map=lambda n: np.stack([n, mirror_noise(n, e1)], axis=-3), stop=escaped,
    )
    iterations = out.stopped_at
    return CouplingResult(
        total_runs=runs,
        escape_count=sum(1 for it in iterations if it is not None),
        iterations_to_escape=iterations,
        escape_radius=escape_radius,
        e1=e1,
        seed=seed,
    )

