"""Independent component analysis as a fourth-moment contrast problem.

Observations are y = A z with A orthonormal and z a vector of independent
Rademacher entries (fourth moment 1 < 3, i.e. sub-Gaussian), so recovering a
column of A amounts to

    min_{||u|| = 1}  E[(u^T y)^4]

over the sphere. Minimizers are +/- columns of A; the points A v with
v = d^{-1/2}(+/-1, ..., +/-1) are stationary with negative tangent curvature,
which is what the noise-driven escape experiments start from. The unit-norm
constraint is handled by projecting gradients onto the tangent space and
renormalizing after every mixing step.

The instance, the nominal saddle and the saddle refinement (Newton's method,
its linear solves by elimination) sum with np.add.reduce, in an order numpy
fixes, so the refined saddle does not depend on the CPU's BLAS kernel. The
constant nu (through LAPACK's eigvalsh) and the per-step products still do.
"""

from __future__ import annotations

import numpy as np

from .base import (KnownPoint, Problem, ProblemConstants, ProblemError, central_jacobian, dots,
                   newton_root)

UNIT_NORM_TOL = 1e-8


class IcaProblem(Problem):
    name = "ica"

    def __init__(self, mixing, samples):
        self.A = np.array(mixing, dtype=float)
        self.samples = np.array(samples, dtype=float)  # (m, n, d)
        if self.samples.ndim != 3 or self.samples.shape[2] != self.A.shape[0]:
            raise ProblemError("samples must be (agents, per-agent count, d)")
        self._samples_t = np.ascontiguousarray(self.samples.transpose(0, 2, 1))  # (m, d, n)
        self._signed_columns = np.concatenate((self.A.T, -self.A.T))  # rows a_1..a_d, -a_1..-a_d
        self.d = self.A.shape[0]
        self.m = self.samples.shape[0]
        self.n_per_agent = self.samples.shape[1]
        # the back product's (m, n, d) samples carry the gradient's factor 4 / n,
        # so that no pass over the gradient divides by it
        self._back = self.samples / (self.n_per_agent / 4)
        ortho_err = np.abs(self.A.T @ self.A - np.eye(self.d)).max()
        if ortho_err > 1e-10:
            raise ProblemError(f"mixing matrix not orthonormal (error {ortho_err:.2e})")
        self.constants = self._estimate_constants()
        self._refined_saddle = None
        self.known_points = (
            KnownPoint(coords=tuple(self.nominal_saddle()), kind="strict_saddle"),
        )

    def _estimate_constants(self):
        rng = np.random.default_rng(0x1CA)
        us = rng.standard_normal((64, self.d))
        us /= np.linalg.norm(us, axis=1, keepdims=True)
        flat = self.samples.reshape(-1, self.d)
        nu = 0.0
        for u in us:
            proj = flat @ u
            # euclidean Hessian 12 * mean (u^T y)^2 y y^T; spectral norm bound
            h = 12.0 * (flat * (proj**2)[:, None]).T @ flat / flat.shape[0]
            nu = max(nu, float(np.abs(np.linalg.eigvalsh(h)).max()))
        # 5% headroom over the sphere sample, same caveat as the other problems
        return ProblemConstants(nu=1.05 * nu, n_i=tuple([self.n_per_agent] * self.m))

    # -- objective / gradients -----------------------------------------------

    def agent_objective(self, agent, u):
        self._check_agent(agent)
        u = self._check_theta(u)
        proj = self.samples[agent] @ u
        sq = proj * proj  # explicit squaring keeps f(u) == f(-u) bitwise
        return float(np.mean(sq * sq))

    def agent_gradients(self, x):
        """Tangent-space projections of the sample-average gradients, one
        stacked-vector product per (run, agent) for each of: proj = x Y^T,
        g = proj^3 (4 / n) Y and the tangent coefficient x . g."""
        proj = np.vecmat(x, self._samples_t)  # (..., m, n)
        cube = proj * proj
        cube *= proj
        g = np.vecmat(cube, self._back)  # (..., m, d)
        g -= np.vecdot(x, g)[..., None] * x
        return g

    def aggregated_euclidean_gradient(self, u):
        """4 mean((u^T y)^3 y) over all samples, summed in a fixed order."""
        u = self._check_theta(u)
        flat = self.samples.reshape(-1, self.d)
        proj = dots(flat, u)
        return 4.0 * np.add.reduce((proj * proj * proj)[:, None] * flat, axis=0) / flat.shape[0]

    # -- optimizer hooks ----------------------------------------------------------

    def retract(self, x):
        return x / np.sqrt(np.vecdot(x, x))[..., None]

    def sample_init(self, rng):
        x = rng.standard_normal((self.m, self.d))
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    def nominal_saddle(self):
        """A v with v = d^{-1/2}(1, ..., 1): stationary for the population
        objective, close to (but not exactly) stationary for the sampled one."""
        return np.add.reduce(self.A, axis=1) / np.sqrt(self.d)

    def known_saddle(self):
        """Stationary point of the *sampled* objective near the nominal saddle:
        Newton's root, from it, of the tangent gradient g - (u . g) u, which is
        0 at the unit u with g parallel to u. A root more than 0.5 from the
        nominal saddle is another point, and raises ProblemError."""
        if self._refined_saddle is None:
            def tangent(u):
                g = self.aggregated_euclidean_gradient(u)
                return g - dots(u, g) * u

            u0 = self.nominal_saddle()
            u = newton_root(tangent, lambda u: central_jacobian(tangent, u), u0)
            resid = np.linalg.norm(self.aggregated_gradient(u))
            if not resid <= 1e-10:
                raise ProblemError(f"saddle refinement did not converge (residual {resid:.2e})")
            dist = np.linalg.norm(u - u0)
            if not dist <= 0.5:
                raise ProblemError(f"saddle refinement ended {dist:.2f} > 0.5 off the nominal saddle")
            self._refined_saddle = u
        return self._refined_saddle.copy()

    # -- metrics ---------------------------------------------------------------------

    def optimization_errors(self, x):
        """min over columns a_j of A and signs of ||u -+ a_j||, for each
        agent's row u of x (..., m, d); raises ProblemError if any row is off
        the sphere.

        On the sphere ||u - s a_j||^2 = 2 - 2 s u^T a_j, so the nearest signed
        column s a_j is the one of largest s u^T a_j, i.e. the argmax of
        |u^T a_j| with its sign; one u [A, -A] product finds it. The distance
        to it is then formed from u - s a_j, never as 2 - 2 s u^T a_j, which
        loses a small distance to cancellation."""
        u = self._check_state(x)
        norms = np.linalg.norm(u, axis=-1)
        off = ~(np.abs(norms - 1.0) <= UNIT_NORM_TOL)  # a nan norm is off too
        if off.any():
            raise ProblemError(f"||u|| = {norms[off][0]:.10f} is not 1 within {UNIT_NORM_TOL:.0e}")
        nearest = (u @ self._signed_columns.T).argmax(axis=-1)
        return np.linalg.norm(u - self._signed_columns[nearest], axis=-1)


def make_ica_problem(d, m, samples_per_agent, seed) -> IcaProblem:
    """Random instance: Haar-ish orthonormal A (the Q of a Gaussian matrix),
    Rademacher sources Z, observations Y = A Z split evenly across agents.

    Rademacher entries have fourth moment 1, so -sign(mu - 3) = +1 and the
    contrast is minimized (not maximized).
    """
    if d < 2 or m < 1 or samples_per_agent < 1 or seed < 0:
        raise ProblemError("need d >= 2, m >= 1, samples_per_agent >= 1 and seed >= 0")
    rng = np.random.default_rng(seed)
    a = _orthonormal_columns(rng.standard_normal((d, d)))
    z = rng.choice(np.array([-1.0, 1.0]), size=(m, samples_per_agent, d))
    y = np.zeros(z.shape)  # Y = Z A^T, summed over the sources in order
    for k in range(d):
        y += z[..., k, None] * a[:, k]
    return IcaProblem(mixing=a, samples=y)


def _orthonormal_columns(g):
    """Q of g = QR with R's diagonal positive, by classical Gram-Schmidt run
    twice per column (the second pass restores the orthogonality the first
    loses to rounding), with sums in a fixed order."""
    q = np.array(g, dtype=float)
    for j in range(q.shape[1]):
        v, done = q[:, j], q[:, :j]
        for _ in range(2):
            v = v - np.add.reduce(done * dots(done.T, v), axis=1)
        q[:, j] = v / np.sqrt(dots(v, v))
    return q
