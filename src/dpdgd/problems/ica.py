"""Independent component analysis as a fourth-moment contrast problem.

Observations are y = A z with A orthonormal and z a vector of independent
Rademacher entries (fourth moment 1 < 3, i.e. sub-Gaussian), so recovering a
column of A amounts to

    min_{||u|| = 1}  E[(u^T y)^4]

over the sphere. The points A v with v_i = +/-k^{-1/2} on k of the d entries
are stationary for the population objective: the minima +/- a_i at k = 1, the
maximum at k = d and strict saddles in between (Ge, Huang, Jin & Yuan, 2015).
Newton's method refines k = d, and k = 2 points in turn until a root is a
saddle, to the sampled objective's. The unit-norm constraint is handled by
projecting gradients onto the tangent space and renormalizing after each step.

The instance, the known points and their refinement (Newton's method, its
linear solves by elimination) sum with np.add.reduce, in an order numpy
fixes, so the refined points do not depend on the CPU's BLAS kernel. The
constant nu (through LAPACK's eigvalsh) and the per-step products still do.

A step's gradient is two contiguous gemvs per (run, agent) into work arrays kept
while the state's shape holds (fresh batch-sized arrays cost page faults every
step); the retraction normalizes the kernel's fresh state in place.
"""

from __future__ import annotations

import numpy as np

from .base import KnownPoint, Problem, ProblemConstants, ProblemError, dots

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
        # the back product's (m, d, n) samples carry the gradient's factor 4 / n,
        # so that no pass over the gradient divides by it
        self._back = self._samples_t / (self.n_per_agent / 4)
        self._work = (None, None, None)  # agent_gradients' (state shape, proj, cube)
        ortho_err = np.abs(self.A.T @ self.A - np.eye(self.d)).max()
        if ortho_err > 1e-10:
            raise ProblemError(f"mixing matrix not orthonormal (error {ortho_err:.2e})")
        self.constants = self._estimate_constants()
        a, d = self.A, self.d  # A v at v = d^{-1/2} (1, ..., 1) and 2^{-1/2} (1, 1, 0, ..., 0)
        self.known_points = (KnownPoint(tuple(np.add.reduce(a, axis=1) / np.sqrt(d)), "maximum"),
                             KnownPoint(tuple((a[:, 0] + a[:, 1]) / np.sqrt(2.0)), "strict_saddle"))

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

    def starts(self, kind):
        """A saddle's d (d - 1) starts, built one at a time as `refined` reads them:
        A (a_i + a_j)/sqrt(2) over the pairs i < j in order, then A (a_i - a_j)/sqrt(2)."""
        if kind != "strict_saddle":
            return super().starts(kind)
        a, pairs = self.A, [(i, j) for i in range(self.d) for j in range(i + 1, self.d)]
        return ((a[:, i] + s * a[:, j]) / np.sqrt(2.0) for s in (1.0, -1.0) for i, j in pairs)

    # -- objective / gradients -----------------------------------------------

    def agent_objective(self, agent, u):
        self._check_agent(agent)
        u = self._check_theta(u)
        proj = self.samples[agent] @ u
        sq = proj * proj  # explicit squaring keeps f(u) == f(-u) bitwise
        return float(np.mean(sq * sq))

    def agent_gradients(self, x):
        """Tangent-space projections of the sample-average gradients, one
        contiguous vector product per (run, agent) for each of: proj = x Y^T,
        g = (4 / n) Y proj^3 and the tangent coefficient x . g; proj and its
        cube go into the work arrays, rebuilt when x's shape changes."""
        shape, proj, cube = self._work
        if x.shape != shape:
            proj, cube = np.empty((2, *x.shape[:-1], self.n_per_agent))
            self._work = x.shape, proj, cube
        np.vecmat(x, self._samples_t, out=proj)  # (..., m, n)
        np.multiply(proj, proj, out=cube)
        cube *= proj
        g = np.matvec(self._back, cube)  # (..., m, d)
        g -= np.vecdot(x, g)[..., None] * x
        return g

    def __getstate__(self):
        return {**vars(self), "_work": (None, None, None)}  # rebuilt at the first call

    def aggregated_euclidean_gradient(self, u):
        """4 mean((u^T y)^3 y) over all samples, summed in a fixed order."""
        u = self._check_theta(u)
        flat = self.samples.reshape(-1, self.d)
        proj = dots(flat, u)
        return 4.0 * np.add.reduce((proj * proj * proj)[:, None] * flat, axis=0) / flat.shape[0]

    def _euclidean_hessian(self, u):
        """12 mean((u^T y)^2 y y^T) over all samples, summed in a fixed order."""
        flat = self.samples.reshape(-1, self.d)
        proj = dots(flat, u)
        outer = flat[:, :, None] * flat[:, None, :]
        return 12.0 * np.add.reduce(outer * (proj * proj)[:, None, None], axis=0) / flat.shape[0]

    def tangent_hessian(self, u):
        """B, the last d - 1 columns of the Householder reflection that maps u
        to +/- e_1 (a basis of u's tangent space), and B^T (H - (u . g) I) B
        (Absil, Mahony & Sepulchre, 2008, 5.5); ProblemError off the sphere."""
        u = self._on_sphere(self._check_theta(u))
        w = u + np.copysign(np.eye(self.d)[0], u[0])
        basis = (np.eye(self.d) - (2.0 / dots(w, w)) * np.outer(w, w))[:, 1:]
        g = self.aggregated_euclidean_gradient(u)
        h = self._euclidean_hessian(u) - dots(u, g) * np.eye(self.d)
        return basis, basis.T @ h @ basis

    def newton_residual(self, u):
        """The tangent gradient g - (u . g) u, 0 only at the unit u with g parallel to u."""
        g = self.aggregated_euclidean_gradient(u)
        return g - dots(u, g) * u

    def newton_jacobian(self, u):
        """newton_residual's Jacobian H - u (g + H u)^T - (u . g) I, in a fixed order."""
        g = self.aggregated_euclidean_gradient(u)
        h = self._euclidean_hessian(u)
        return h - u[:, None] * (g + dots(h, u)) - dots(u, g) * np.eye(self.d)

    # -- optimizer hooks ----------------------------------------------------------

    def retract(self, x):
        x /= np.sqrt(np.vecdot(x, x))[..., None]
        return x

    def sample_init(self, rng):
        x = rng.standard_normal((self.m, self.d))
        return x / np.linalg.norm(x, axis=1, keepdims=True)

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
        u = self._on_sphere(self._check_state(x))
        nearest = (u @ self._signed_columns.T).argmax(axis=-1)
        return np.linalg.norm(u - self._signed_columns[nearest], axis=-1)

    def _on_sphere(self, x):
        """x, whose rows (..., d) must have unit norm, or ProblemError."""
        norms = np.linalg.norm(x, axis=-1, keepdims=True)
        off = ~(np.abs(norms - 1.0) <= UNIT_NORM_TOL)  # a nan norm is off too
        if off.any():
            raise ProblemError(f"||u|| = {norms[off][0]:.10f} is not 1 within {UNIT_NORM_TOL:.0e}")
        return x


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
