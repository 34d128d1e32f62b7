"""The per-step contraction check and coupled saddle-escape runs.

The contraction check asserts the norm inequality that drives consensus:
one mixing step shrinks disagreement by the spectral gap eta and injects at
most eta * lambda_k ||g + N||. The coupling experiment drives paired
trajectories from a strict saddle whose noises are mirror images along the
most unstable direction e1 of the problem's tangent Hessian; with noise the
pair separates and escapes, without noise both stay put at a fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import optimizer
from .problems import classify_stationary_point
from .topology import WeightMatrix


class AnalysisError(ValueError):
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
    rows (record_every=1), and raises AnalysisError otherwise.
    """
    eta = w.eta
    k, err = trace.k, trace.consensus_error
    b = np.flatnonzero(k[1:] == k[:-1] + 1) + 1  # the later row of each consecutive pair
    if not b.size:
        raise AnalysisError("contraction check needs consecutive iterations in the trace")
    lhs = err[b]
    rhs = eta * err[b - 1] + eta * trace.lam[b] * trace.gn_norm[b] + tol
    bad = lhs > rhs
    violations = tuple(map(ContractionViolation, k[b][bad].tolist(), lhs[bad].tolist(),
                           rhs[bad].tolist()))
    return ContractionReport(pairs_checked=len(b), violations=violations, eta=eta, tolerance=tol)


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


def mirror_noise(n, e1, out=None) -> np.ndarray:
    """Negate every agent's component along e1 (flips the aggregate too);
    n is (..., m, d), and `out`, when given, may be strided. Formed one
    coordinate at a time over the whole block, with the two roundings of
    the broadcast form n - 2 (n @ e1) e1, so no inner loop runs over d alone."""
    c = n @ e1  # a BLAS product per (m, d) block, whose bits the 2-D form would move at d = 10
    c *= 2.0
    out = np.empty_like(n) if out is None else out
    term = np.empty_like(c)
    for i in range(n.shape[-1]):
        np.multiply(c, e1[i], out=term)
        np.subtract(n[..., i], term, out=out[..., i])
    return out


def mirror_pairs(n, e1) -> np.ndarray:
    """The (K, R, 2, m, d) pair block of the (K, R, m, d) noise block n: each
    pair's n and its mirror, written straight into the two halves (n as whole
    (m, d) blocks, through a void view), bitwise what np.stack gave."""
    k, r, m, d = n.shape
    block = np.dtype((np.void, 8 * m * d))
    pairs = np.empty((k, r, 2, m, d))
    pairs.reshape(k, r, 2, -1).view(block)[:, :, 0, 0] = n.reshape(k, r, -1).view(block)[..., 0]
    mirror_noise(n, e1, out=pairs[:, :, 1])
    return pairs


def _mean_by_coordinate(x) -> np.ndarray:
    """The agents' mean of x (..., m, d) as a (d, n) array over the n leading
    indices: x copied coordinate-major, (m, d, n), and the agents' (d, n)
    slabs added in order, then divided by m. No batch size changes that
    order, and every inner loop runs over all n, none over d entries alone."""
    m, d = x.shape[-2:]
    slabs = x.reshape(-1, m, d).transpose(1, 2, 0).copy()
    v = slabs[0]
    for slab in slabs[1:]:
        v += slab
    v /= m
    return v


def agent_mean(x) -> np.ndarray:
    """The agents' mean of x (..., m, d), with the bits of x.mean(axis=-2)
    on the states the tests pin."""
    return _mean_by_coordinate(x).T.reshape(x.shape[:-2] + x.shape[-1:])


def escape_distances(x, saddle) -> np.ndarray:
    """Distance from saddle of each agents' mean in x (..., m, d), with the
    bits of np.linalg.norm(agent_mean(x) - saddle, axis=-1): numpy's row
    reduction adds fewer than 8 entries in order, as a reduction over the
    (d, n) squares' outer axis does, and 8 or more pairwise, as rows."""
    v = _mean_by_coordinate(x)
    v -= np.asarray(saddle, dtype=float)[:, None]
    v *= v
    sq = np.add.reduce(v, axis=0) if len(v) < 8 else np.add.reduce(v.T.copy(), axis=-1)
    return np.sqrt(sq, out=sq).reshape(x.shape[:-2])


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
    record None. Variance 0 yields no escapes only where the start is polished
    to a bitwise fixed point of the noise-free update (a flat problem, d <= 3,
    on an exactly-averaging W); on ICA rounding alone can carry a pair out.
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
    optimizer.check_batch_memory(runs, 2 * m * d, streams=runs * m * (variance > 0))
    saddle = np.asarray(saddle, dtype=float)
    kind = classify_stationary_point(problem, saddle, grad_tol=1e-6, eig_tol=1e-6)
    if kind != "strict_saddle":
        raise AnalysisError(f"the coupling start is not a strict saddle: it classifies as {kind!r}")
    basis, h = problem.tangent_hessian(saddle)
    e1 = basis @ min_eigvec(h)
    start = optimizer.polish_fixed_point(problem, w, optimizer.stepsize(schedule, 1), saddle)
    streams = [None] * runs
    if variance > 0:
        keys = optimizer.stream_keys([seed], [(optimizer._COUPLING_STREAM, r, j)
                                              for r in range(runs) for j in range(m)])
        streams = [[optimizer.philox(key) for key in pair] for pair in keys.reshape(runs, m, 2)]

    def escaped(x, k):
        # x is (pairs, 2, m, d); a pair escapes when either mean leaves the ball
        dist = escape_distances(x, saddle)
        if np.count_nonzero(np.isfinite(dist)) != dist.size:
            raise optimizer.NonFiniteState(k, "escape distance")
        far = dist > escape_radius
        return far[:, 0] | far[:, 1]

    traces = optimizer.lockstep(
        problem, w.w, np.tile(start, (runs, 2, m, 1)), schedule, horizon, streams,
        [np.sqrt(variance)] * runs,
        noise_map=lambda n: mirror_pairs(n, e1), stop=escaped,
    )
    iterations = [t.stopped_at for t in traces]
    return CouplingResult(
        total_runs=runs,
        escape_count=sum(1 for it in iterations if it is not None),
        iterations_to_escape=iterations,
        escape_radius=escape_radius,
        e1=e1,
        seed=seed,
    )

