"""Trace metrics, the per-step contraction check, and coupled saddle-escape runs.

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

_COUPLING_STREAM = 3


class AnalysisError(ValueError):
    pass


class MissingPerAgentData(AnalysisError):
    pass


class NotAStrictSaddle(AnalysisError):
    pass


@dataclass(frozen=True)
class MetricRow:
    k: int
    consensus_error: float
    opt_error_mean: float
    opt_error_max: float
    grad_norm_mean: float


def consensus_error(state) -> float:
    """Stacked Euclidean norm of per-agent deviations from the agent mean."""
    x = state.x if isinstance(state, optimizer.AgentState) else np.asarray(state, dtype=float)
    return float(np.linalg.norm(x - x.mean(axis=0)))


def compute_metrics(trace: optimizer.RunTrace, problem) -> list[MetricRow]:
    """Re-derive metric rows from recorded per-agent states, by the kernel's own
    row metrics; grad_norm_mean is the aggregated gradient norm at the agent mean."""
    if any(rec.x is None for rec in trace.records):
        raise MissingPerAgentData("trace was recorded without per-agent states")
    metrics = optimizer.row_metrics(problem, [rec.x for rec in trace.records])
    return [
        MetricRow(rec.k, *errors,
                  float(np.linalg.norm(problem.aggregated_gradient(rec.x.mean(axis=0)))))
        for rec, errors in zip(trace.records, metrics)
    ]


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

    Needs a trace recorded with record_every=1 and record_state=True; raises
    MissingPerAgentData otherwise.
    """
    eta = w.eta
    recs = trace.records
    if any(r.x is None for r in recs):
        raise MissingPerAgentData("contraction check needs per-agent states at every row")
    pairs = [
        (a, b) for a, b in zip(recs[:-1], recs[1:]) if b.k == a.k + 1
    ]
    if not pairs:
        raise MissingPerAgentData("contraction check needs consecutive iterations in the trace")
    violations = []
    for a, b in pairs:
        lhs = consensus_error(b.x)
        rhs = eta * consensus_error(a.x) + eta * b.lam * b.gn_norm + tol
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
    if runs < 1 or not 0 < escape_radius < np.inf or not 0 <= seed < 2**64:
        raise AnalysisError(f"need runs >= 1, a finite escape_radius > 0 and a seed in [0, 2**64), "
                            f"got {runs}, {escape_radius} and {seed}")
    saddle = np.asarray(saddle, dtype=float)
    kind = classify_stationary_point(problem, saddle, grad_tol=1e-6, eig_tol=1e-6)
    if kind != "strict_saddle":
        raise NotAStrictSaddle(f"initial point classifies as {kind!r}")
    e1 = min_eigvec(problem.aggregated_hessian(saddle))
    start = optimizer.polish_fixed_point(problem, w, optimizer.stepsize(schedule, 1), saddle)
    m = problem.m
    streams = [None] * runs
    if variance > 0:
        rngs = optimizer.philox_streams(seed, [(_COUPLING_STREAM, r, j)
                                               for r in range(runs) for j in range(m)])
        streams = [rngs[r * m:(r + 1) * m] for r in range(runs)]

    def escaped(x, k):
        # x is (pairs, 2, m, d); a pair escapes when either mean leaves the ball
        dist = np.linalg.norm(x.mean(axis=-2) - saddle, axis=-1)
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

