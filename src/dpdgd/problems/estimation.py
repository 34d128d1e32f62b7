"""Decentralized sensor-estimation benchmark with a cubic nonconvexity.

Each of m sensors holds one observation Y_i = M theta + noise and the local
cost

    f_i(theta) = ||Y_i - M theta||^2 + kappa ||theta||^3

with a negative kappa, which makes the aggregated objective nonconvex: on the
reference instance it has exactly one interior minimum and one interior strict
saddle. Outside a working box the objective is replaced by an extension that
grows linearly in the distance to the box, so iterates that wander out are
pushed back instead of sliding to -infinity along the cubic term.
"""

from __future__ import annotations

import numpy as np

from .base import KnownPoint, Problem, ProblemError

# The extension slope is this multiple of the largest per-agent gradient norm
# on the box boundary; > 1 keeps the radial derivative strictly positive
# outside, so the extension adds no stationary points.
WALL_SLOPE_FACTOR = 1.25
# The distance past the box over which the extension's first-order term fades out.
RAMP_RADIUS = 0.5
_ONES = np.ones((2, 2))  # sums each row's two entries into both (see _gradients)


def _smoothstep(t):
    return t * t * (3.0 - 2.0 * t)


def _dot_norm(v):
    """Euclidean norms of the rows of v (..., d), computed as sqrt(v . v)
    like np.linalg.norm of a single vector, so a batch matches per-row calls
    bitwise (a reduction along axis=-1 can differ in the last bit)."""
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


class EstimationProblem(Problem):
    """m-agent linear-measurement estimation with cubic regularization, in d = 2."""

    name = "estimation"

    def __init__(self, measurement, observations, kappa, region_lo, region_hi, known_points=()):
        self.M = np.array(measurement, dtype=float)
        self.Y = np.array(observations, dtype=float)  # (m, s)
        if self.M.shape[1:] != (2,):
            raise ProblemError(f"measurement {self.M.shape} is not (s, 2); the problem is 2-D")
        if self.Y.ndim != 2 or self.Y.shape[1] != self.M.shape[0]:
            raise ProblemError(
                f"observations {self.Y.shape} incompatible with measurement {self.M.shape}"
            )
        self.kappa = float(kappa)
        self.d = self.M.shape[1]
        self.m = self.Y.shape[0]
        self.lo = np.array(region_lo, dtype=float)
        self.hi = np.array(region_hi, dtype=float)
        if self.lo.shape != (self.d,) or self.hi.shape != (self.d,):
            raise ProblemError("region bounds must have length d")
        if not (self.lo < self.hi).all():
            raise ProblemError("region must be nonempty (lo < hi componentwise)")
        # the factor 2 folded in once: x @ 2A is 2 (x @ A) bit for bit unless a
        # product x_i A_ij is subnormal, and always for the paper's diag(1, 4)
        self._2MtM = 2.0 * (self.M.T @ self.M)
        self._MtY = self.Y @ self.M  # row i = (M^T Y_i)
        self._shaped = ((),)  # (shape, lo, hi, data); see _at_shape
        self.wall_slope = WALL_SLOPE_FACTOR * self._boundary_gradient_bound()
        self.known_points = tuple(known_points)  # Newton's starting points, by kind

    # -- construction-time constants ----------------------------------------

    def _boundary_gradient_bound(self):
        # 512 points along each side of the box, clipped into it, since
        # a + (b - a) t may round past b; so only the closed form is read (the
        # wall slope this sets is not yet known). The bounds and data terms
        # broadcast, so that no (2048, m, d) layout outlives construction
        corners = [self.lo, np.array([self.hi[0], self.lo[1]]), self.hi,
                   np.array([self.lo[0], self.hi[1]]), self.lo]
        ts = np.linspace(0.0, 1.0, 512)[:, None]
        pts = np.vstack([a + (b - a) * ts for a, b in zip(corners[:-1], corners[1:])])
        pts = np.clip(pts, self.lo, self.hi)
        g = self._gradients(np.broadcast_to(pts[:, None, :], (len(pts), self.m, self.d)),
                            self.lo, self.hi, -2.0 * self._MtY)
        return float(np.linalg.norm(g, axis=-1).max())

    # -- inside-region closed forms ------------------------------------------

    def _inside_objective(self, agent, theta):
        r = self.Y[agent] - self.M @ theta
        nt = np.linalg.norm(theta)
        return float(r @ r + self.kappa * nt**3)

    def _inside_gradients(self, x, nt, data):
        """Closed-form gradients at rows x (..., d) with data terms -2 M^T Y_i
        and the rows' norms nt, at x's shape (each norm repeated along the row)
        or broadcasting to it. The linear term is one 2-D product over all
        rows, not one per (m, d) block; each row's numbers are the same."""
        g = (x.reshape(-1, self.d) @ self._2MtM).reshape(x.shape)
        g += data
        g += 3.0 * self.kappa * nt * x
        return g

    def _inside_hessian(self, theta):
        """Hessian at theta (d,), or one per row of theta (..., d)."""
        nt = _dot_norm(theta)[..., None, None]
        if (nt == 0.0).any():
            raise ProblemError("analytic Hessian undefined at theta = 0 (cubic term)")
        outer = theta[..., :, None] * theta[..., None, :]
        return self._2MtM + 3.0 * self.kappa * (nt * np.eye(self.d) + outer / nt)

    # -- extension ------------------------------------------------------------

    def _wall_gradients(self, theta, data):
        """Gradients of the extension (see agent_objective) at rows theta
        (N, d), all outside the box, with data terms -2 M^T Y_i (N, d)."""
        tc = np.clip(theta, self.lo, self.hi)
        dvec = theta - tc
        r = _dot_norm(dvec)[:, None]
        nhat = dvec / r
        ntc = _dot_norm(tc)
        g = self._inside_gradients(tc, ntc[:, None], data)
        t = r / RAMP_RADIUS
        ramp = t < 1.0
        s = np.where(ramp, 1.0 - _smoothstep(t), 0.0)
        sp = np.where(ramp, -6.0 * t * (1.0 - t) / RAMP_RADIUS, 0.0)
        unclamped = (dvec == 0.0).astype(float)
        grad = unclamped * g + self.wall_slope * nhat
        hd = dvec @ self._2MtM
        curved = ntc > 0
        if curved.any():
            hd[curved] = (self._inside_hessian(tc[curved]) @ dvec[curved, :, None])[:, :, 0]
        gd = (g[:, None, :] @ dvec[:, :, None])[:, :, 0]
        ramped = grad + sp * gd * nhat + s * (unclamped * hd + (1.0 - unclamped) * g)
        return np.where(ramp, ramped, grad)

    def _gradients(self, x, lo, hi, data):
        """Extended gradients for x (..., m, d) with box bounds lo, hi and data
        terms -2 M^T Y_i of x's shape: the wall extension for agents outside
        the box, the closed form for the rest. The ufuncs are those that
        np.linalg.norm and np.clip run, without their Python wrappers; for
        d = 2 the norm's reduction is one sum of the two squares, formed for
        both entries of each row by one product with the 2 x 2 matrix of ones.
        Its two products are by 1, hence exact, so every order in which BLAS
        may add them gives the one rounding of the sum: np.linalg.norm's bits,
        at x's shape, with no ufunc broadcasting or looping over a row alone."""
        rows = x.reshape(-1, 2)
        nt = np.sqrt((rows * rows) @ _ONES).reshape(x.shape)
        g = self._inside_gradients(x, nt, data)
        outside = np.minimum(np.maximum(x, lo), hi) != x
        if np.count_nonzero(outside):
            rows = outside.any(axis=-1)
            g[rows] = self._wall_gradients(x[rows], data[rows])
        return g

    def _at_shape(self, shape):
        """lo, hi and -2 M^T Y laid out at a state's shape, so that no ufunc
        broadcasts; one entry, since a run keeps its state's shape. When a
        batch shrinks along its leading axis, the entry becomes leading slices
        of itself instead of being rebuilt."""
        cached = self._shaped[0]
        if cached != shape:
            if cached[1:] == shape[1:] and shape[0] <= cached[0]:
                self._shaped = (shape, *(a[:shape[0]] for a in self._shaped[1:]))
            else:
                self._shaped = (shape, *(np.ascontiguousarray(np.broadcast_to(a, shape))
                                         for a in (self.lo, self.hi, -2.0 * self._MtY)))
        return self._shaped[1:]

    # -- Problem interface ------------------------------------------------------

    def agent_objective(self, agent, theta):
        """f_i inside the box; outside it f_i(tc) + s grad f_i(tc).dvec + wall_slope r,
        with tc theta clipped to the box, dvec = theta - tc, r = |dvec| and s
        falling from 1 to 0 by a smoothstep as r goes from 0 to RAMP_RADIUS."""
        self._check_agent(agent)
        theta = self._check_theta(theta)
        tc = np.clip(theta, self.lo, self.hi)
        dvec = theta - tc
        r = float(np.linalg.norm(dvec))
        if r == 0.0:
            return self._inside_objective(agent, theta)
        g = self._inside_gradients(tc, np.linalg.norm(tc), -2.0 * self._MtY[agent])
        s = 1.0 - _smoothstep(min(r / RAMP_RADIUS, 1.0))
        return self._inside_objective(agent, tc) + s * float(g @ dvec) + self.wall_slope * r

    def agent_gradients(self, x):
        return self._gradients(x, *self._at_shape(x.shape))

    def __getstate__(self):
        return {**vars(self), "_shaped": ((),)}  # laid out anew at the first call, not pickled

    def agent_gradient_for_observation(self, agent, theta, y):
        """Gradient with agent's observation replaced by y (sensitivity probes):
        row `agent` of the batched gradients with that agent's data term M^T y."""
        self._check_agent(agent)
        data = -2.0 * self._MtY
        data[agent] = -2.0 * (self.M.T @ np.asarray(y, dtype=float))
        x = np.tile(self._check_theta(theta), (self.m, 1))
        return self._gradients(x, self.lo, self.hi, data)[agent]

    def tangent_hessian(self, theta):
        """The identity and the closed-form Hessian; ProblemError outside the box."""
        theta = self._check_theta(theta)
        if not ((theta >= self.lo).all() and (theta <= self.hi).all()):
            raise ProblemError(f"no analytic Hessian outside the box, at theta = {theta.tolist()}")
        return np.eye(self.d), self._inside_hessian(theta)

    def sample_init(self, rng):
        return rng.uniform(self.lo, self.hi, size=(self.m, self.d))


def make_paper_estimation_problem() -> EstimationProblem:
    """The reference 5-agent, d = 2 instance.

    M = [[1,0],[0,2],[0,0]], Y_i = i * (1/3, 2/3, 0) for i = 1..5,
    kappa = -0.1, working region [-8, 4] x [-3, 3]. The aggregated objective
    has a local minimum near (1.3478, 1.0690) and a strict saddle near
    (-7.4336, 1.3959); high-precision locations are recovered by Newton
    refinement from those seeds.
    """
    base = np.array([1.0 / 3.0, 2.0 / 3.0, 0.0])
    p = EstimationProblem(
        measurement=[[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]],
        observations=[i * base for i in range(1, 6)],
        kappa=-0.1,
        region_lo=[-8.0, -3.0],
        region_hi=[4.0, 3.0],
        known_points=(KnownPoint(coords=(1.3478, 1.0690), kind="minimum"),
                      KnownPoint(coords=(-7.4336, 1.3959), kind="strict_saddle")),
    )
    p.name = "estimation_paper"
    return p
