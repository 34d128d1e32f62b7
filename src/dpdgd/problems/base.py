"""Objective-function interface shared by all benchmark problems.

A problem distributes a nonconvex objective F(theta) = (1/m) sum_i f_i(theta)
over m agents; each agent only ever evaluates its own gradient. Problems also
carry the gradient-Lipschitz constant used by the privacy calibration and the
known stationary points used by the experiment harnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CLASSIFICATIONS = ("minimum", "maximum", "strict_saddle", "degenerate", "not_stationary")


class ProblemError(ValueError):
    pass


@dataclass(frozen=True)
class ProblemConstants:
    """Gradient Lipschitz constant nu and per-agent sample counts n_i.

    For the built-in problems nu is estimated numerically over the working
    region (a documented upper-ish bound, not claimed tight). The `sample`
    sensitivity also reads nu as the data-direction Lipschitz constant. That
    holds only for estimation, whose nu is at least nu_data = 2 ||M^T|| (exact).
    custom_quadratic has no data, so it means nothing there. For ICA it is
    false: the per-sample Jacobian reaches several times nu (above 100 against
    nu = 32.4 on make_ica_problem(4, 5, 160, 99)).
    """

    nu: float
    n_i: tuple

    def __post_init__(self):
        if not self.nu > 0:
            raise ProblemError("constant nu must be positive")
        if any(n < 1 for n in self.n_i):
            raise ProblemError("per-agent sample counts must be >= 1")


@dataclass(frozen=True)
class KnownPoint:
    coords: tuple
    kind: str  # expected classification

    def __post_init__(self):
        arr = np.asarray(self.coords, dtype=float)
        if not np.isfinite(arr).all():
            raise ProblemError("known point has non-finite coordinates")
        if self.kind not in CLASSIFICATIONS:
            raise ProblemError(f"unknown classification {self.kind!r}")


class Problem:
    """Base class; subclasses implement per-agent objectives and the batched
    `agent_gradients`, the one gradient formula every other gradient reads."""

    name = "problem"
    d: int
    m: int
    constants: ProblemConstants
    known_points: tuple = ()

    # -- per-agent surface -------------------------------------------------

    def agent_objective(self, agent: int, theta) -> float:
        raise NotImplementedError

    def agent_gradients(self, x) -> np.ndarray:
        """Gradients for all agents, x being a float array of (..., m, d)
        per-agent iterates with any leading batch axes. x is not checked here:
        `lockstep` checks a state's shape once, at its entry."""
        raise NotImplementedError

    def agent_gradient(self, agent: int, theta) -> np.ndarray:
        """Row `agent` of agent_gradients with every agent at theta."""
        self._check_agent(agent)
        return self.agent_gradients(np.tile(self._check_theta(theta), (self.m, 1)))[agent]

    # -- aggregated surface ------------------------------------------------

    def aggregated_gradient(self, theta) -> np.ndarray:
        """Mean of the agent_gradients rows with every agent at theta."""
        return self.agent_gradients(np.tile(self._check_theta(theta), (self.m, 1))).mean(axis=0)

    def aggregated_hessian(self, theta) -> np.ndarray:
        """Mean per-agent Hessian; the default falls back to the symmetrized
        central-difference Jacobian of the aggregated gradient, step 1e-6."""
        j = central_jacobian(self.aggregated_gradient, self._check_theta(theta))
        return 0.5 * (j + j.T)

    # -- hooks used by the optimizer ----------------------------------------

    def retract(self, x) -> np.ndarray:
        """Map per-agent iterates back onto the feasible set (identity here)."""
        return x

    def sample_init(self, rng) -> np.ndarray:
        """Draw an (m, d) initial state for mode random_box."""
        raise NotImplementedError

    def known_saddle(self) -> np.ndarray:
        raise ProblemError(f"{self.name} has no known saddle")

    def reference_minimum(self):
        """Target point for optimization-error metrics, or None."""
        return None

    def optimization_errors(self, x) -> np.ndarray:
        """Per-agent distance to the reference minimum (nan if unknown)."""
        x = self._check_state(x)
        ref = self.reference_minimum()
        if ref is None:
            return np.full(x.shape[:-1], np.nan)
        return np.linalg.norm(x - np.asarray(ref), axis=-1)

    # -- helpers -------------------------------------------------------------

    def _check_theta(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.d,):
            raise ProblemError(f"theta has shape {theta.shape}, expected ({self.d},)")
        return theta

    def _check_agent(self, agent: int):
        if not (0 <= agent < self.m):
            raise ProblemError(f"agent index {agent} out of range [0, {self.m})")

    def _check_state(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-2:] != (self.m, self.d):
            raise ProblemError(f"state has shape {x.shape}, expected (..., {self.m}, {self.d})")
        return x


def dots(a, b):
    """Dot products along the last axis of a * b, summed in an order numpy fixes."""
    return np.add.reduce(a * b, axis=-1)


def central_jacobian(f, x) -> np.ndarray:
    """Central-difference Jacobian of f: R^d -> R^d at x, step 1e-6, one column per coordinate."""
    return np.stack([(f(x + e) - f(x - e)) / 2e-6 for e in np.eye(len(x)) * 1e-6], axis=1)


def _solve(a, b):
    """a^-1 b by Gaussian elimination with partial pivoting, in a fixed order
    (LAPACK's solve runs BLAS kernels)."""
    ab = np.column_stack((a, b))
    for j in range(len(b)):
        p = j + np.argmax(np.abs(ab[j:, j]))
        ab[[j, p]] = ab[[p, j]]
        ab[j + 1:] -= ab[j + 1:, j, None] / ab[j, j] * ab[j]
    x = ab[:, -1]
    for j in reversed(range(len(b))):
        x[j] = (x[j] - dots(ab[j, j + 1:-1], x[j + 1:])) / ab[j, j]
    return x


def newton_root(residual, jacobian, x) -> np.ndarray:
    """Newton's root of residual from x, in at most 100 steps. It stops when a
    step leaves x unchanged or, once |residual| < 1e-8, at the first step that
    does not lower it (that step is dropped): rounding can keep x dithering."""
    x = np.array(x, dtype=float)
    r = residual(x)
    for _ in range(100):
        nxt = x - _solve(jacobian(x), r)
        r_nxt = residual(nxt)
        sq, sq_nxt = dots(r, r), dots(r_nxt, r_nxt)
        if np.array_equal(nxt, x) or sq < 1e-16 and not sq_nxt < sq:
            break
        x, r = nxt, r_nxt
    return x


def classify_stationary_point(problem, theta, grad_tol=1e-6, eig_tol=1e-6) -> str:
    """Classify theta by gradient norm and Hessian eigenvalue signs.

    not_stationary if ||grad F|| > grad_tol; otherwise minimum / maximum when
    all eigenvalues clear +/-eig_tol, strict_saddle when both signs do, and
    degenerate when some eigenvalue sits inside the tolerance band.
    """
    if grad_tol <= 0 or eig_tol <= 0:
        raise ProblemError("tolerances must be positive")
    theta = np.asarray(theta, dtype=float)
    g = problem.aggregated_gradient(theta)
    if np.linalg.norm(g) > grad_tol:
        return "not_stationary"
    h = problem.aggregated_hessian(theta)
    eig = np.linalg.eigvalsh(0.5 * (h + h.T))
    if (eig > eig_tol).all():
        return "minimum"
    if (eig < -eig_tol).all():
        return "maximum"
    if (eig > eig_tol).any() and (eig < -eig_tol).any():
        return "strict_saddle"
    return "degenerate"
