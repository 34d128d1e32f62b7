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
"""

from __future__ import annotations

import numpy as np

from .base import KnownPoint, NotUnitNorm, Problem, ProblemConstants, ProblemError

UNIT_NORM_TOL = 1e-8


class IcaProblem(Problem):
    name = "ica"

    def __init__(self, mixing, samples):
        self.A = np.array(mixing, dtype=float)
        self.samples = np.array(samples, dtype=float)  # (m, n, d)
        if self.samples.ndim != 3 or self.samples.shape[2] != self.A.shape[0]:
            raise ValueError("samples must be (agents, per-agent count, d)")
        self._samples_t = np.ascontiguousarray(self.samples.transpose(0, 2, 1))  # (m, d, n)
        self._signed_columns = np.concatenate((self.A.T, -self.A.T))  # rows a_1..a_d, -a_1..-a_d
        self.d = self.A.shape[0]
        self.m = self.samples.shape[0]
        self.n_per_agent = self.samples.shape[1]
        # the back product's samples carry the gradient's factor 4 / n, so that
        # no pass over the gradient divides by it
        self._back = self._samples_t / (self.n_per_agent / 4)
        ortho_err = np.abs(self.A.T @ self.A - np.eye(self.d)).max()
        if ortho_err > 1e-10:
            raise ValueError(f"mixing matrix not orthonormal (error {ortho_err:.2e})")
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
        product per (run, agent) for each of: proj = x Y^T as a (1, d) row,
        g = (4 / n) Y^T proj^3 as a (d, 1) column, and the tangent dot x g."""
        x = self._check_state(x)[..., None, :]
        proj = x @ self._samples_t
        cube = proj * proj
        cube *= proj
        g = self._back @ cube.swapaxes(-1, -2)  # (..., m, d, 1)
        g -= (x @ g) * x.swapaxes(-1, -2)
        return g[..., 0]

    def aggregated_euclidean_gradient(self, u):
        u = self._check_theta(u)
        flat = self.samples.reshape(-1, self.d)
        proj = flat @ u
        return 4.0 * (proj * proj * proj) @ flat / flat.shape[0]

    # -- optimizer hooks ----------------------------------------------------------

    def retract(self, x):
        # np.linalg.norm(x, axis=-1, keepdims=True) without its wrapper
        norm = np.add.reduce(x * x, axis=-1, keepdims=True)
        return x / np.sqrt(norm, out=norm)

    def sample_init(self, rng):
        x = rng.standard_normal((self.m, self.d))
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    def nominal_saddle(self):
        """A v with v = d^{-1/2}(1, ..., 1): stationary for the population
        objective, close to (but not exactly) stationary for the sampled one."""
        return self.A @ (np.ones(self.d) / np.sqrt(self.d))

    def known_saddle(self):
        """Stationary point of the *sampled* objective nearest the nominal
        saddle, found by root-finding on the Lagrangian system."""
        if self._refined_saddle is None:
            from scipy import optimize  # here, so that no other command pays for loading scipy
            u0 = self.nominal_saddle()
            lam0 = float(u0 @ self.aggregated_euclidean_gradient(u0))

            def system(w):
                u, lam = w[: self.d], w[self.d]
                g = self.aggregated_euclidean_gradient(u)
                return np.concatenate([g - lam * u, [u @ u - 1.0]])

            # full_output: a failure is reported in the result, not as a warning
            sol = optimize.fsolve(system, np.concatenate([u0, [lam0]]), xtol=1e-13,
                                  full_output=True)[0]
            u = sol[: self.d] / np.linalg.norm(sol[: self.d])
            resid = np.linalg.norm(self.aggregated_gradient(u))
            if resid > 1e-10:
                raise ProblemError(f"saddle refinement did not converge (residual {resid:.2e})")
            self._refined_saddle = u
        return self._refined_saddle.copy()

    # -- metrics ---------------------------------------------------------------------

    def optimization_errors(self, x):
        """min over columns a_j of A and signs of ||u -+ a_j||, for each
        agent's row u of x (..., m, d); raises NotUnitNorm if any row is off
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
            raise NotUnitNorm(f"||u|| = {norms[off][0]:.10f} is not 1 within {UNIT_NORM_TOL:.0e}")
        nearest = (u @ self._signed_columns.T).argmax(axis=-1)
        return np.linalg.norm(u - self._signed_columns[nearest], axis=-1)


def make_ica_problem(d, m, samples_per_agent, seed) -> IcaProblem:
    """Random instance: Haar-ish orthonormal A (QR with R-diagonal sign fix),
    Rademacher sources Z, observations Y = A Z split evenly across agents.

    Rademacher entries have fourth moment 1, so -sign(mu - 3) = +1 and the
    contrast is minimized (not maximized).
    """
    if d < 2 or m < 1 or samples_per_agent < 1 or seed < 0:
        raise ProblemError("need d >= 2, m >= 1, samples_per_agent >= 1 and seed >= 0")
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    a = q * signs[None, :]
    z = rng.choice(np.array([-1.0, 1.0]), size=(m, samples_per_agent, d))
    return IcaProblem(mixing=a, samples=z @ a.T)
