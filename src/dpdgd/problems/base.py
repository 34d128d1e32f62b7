"""Objective-function interface shared by all benchmark problems.

A problem distributes a nonconvex objective F(theta) = (1/m) sum_i f_i(theta)
over m agents; each agent only ever evaluates its own gradient. Problems also
carry the smoothness/boundedness constants used by the privacy calibration and
the known stationary points used by the experiment harnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import numdiff

CLASSIFICATIONS = ("minimum", "maximum", "strict_saddle", "degenerate", "not_stationary")


class ProblemError(ValueError):
    pass


class DimensionMismatch(ProblemError):
    pass


class SingularPoint(ProblemError):
    """Analytic Hessian requested where it is undefined."""


class NotUnitNorm(ProblemError):
    pass


@dataclass(frozen=True)
class ProblemConstants:
    """Smoothness constants: gradient Lipschitz nu, Hessian Lipschitz rho,
    gradient bound G, and per-agent sample counts n_i.

    For the built-in problems these are estimated numerically over the working
    region (documented upper-ish bounds, not claimed tight); nu additionally
    covers the data-direction Lipschitz constant used by the sensitivity
    formulas.
    """

    nu: float
    rho: float
    G: float
    n_i: tuple

    def __post_init__(self):
        if not (self.nu > 0 and self.rho > 0 and self.G > 0):
            raise ProblemError("constants nu, rho, G must be positive")
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
    """Base class; subclasses implement per-agent objectives and gradients."""

    name = "problem"
    d: int
    m: int
    constants: ProblemConstants
    known_points: tuple = ()

    # -- per-agent surface -------------------------------------------------

    def agent_objective(self, agent: int, theta) -> float:
        raise NotImplementedError

    def agent_gradient(self, agent: int, theta) -> np.ndarray:
        raise NotImplementedError

    def agent_gradients(self, x) -> np.ndarray:
        """Gradients for all agents, x being (..., m, d) per-agent iterates
        with any leading batch axes."""
        x = self._check_state(x)
        flat = x.reshape(-1, self.m, self.d)
        g = [[self.agent_gradient(i, row[i]) for i in range(self.m)] for row in flat]
        return np.array(g, dtype=float).reshape(x.shape)

    # -- aggregated surface ------------------------------------------------

    def objective(self, theta) -> float:
        return float(np.mean([self.agent_objective(i, theta) for i in range(self.m)]))

    def aggregated_gradient(self, theta) -> np.ndarray:
        theta = self._check_theta(theta)
        return np.mean([self.agent_gradient(i, theta) for i in range(self.m)], axis=0)

    def aggregated_hessian(self, theta) -> np.ndarray:
        """Mean per-agent Hessian; the default falls back to central finite
        differences of the aggregated gradient."""
        theta = self._check_theta(theta)
        return numdiff.hessian_from_gradient(self.aggregated_gradient, theta)

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
            raise DimensionMismatch(f"theta has shape {theta.shape}, expected ({self.d},)")
        return theta

    def _check_agent(self, agent: int):
        if not (0 <= agent < self.m):
            raise DimensionMismatch(f"agent index {agent} out of range [0, {self.m})")

    def _check_state(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-2:] != (self.m, self.d):
            raise DimensionMismatch(
                f"state has shape {x.shape}, expected (..., {self.m}, {self.d})"
            )
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
