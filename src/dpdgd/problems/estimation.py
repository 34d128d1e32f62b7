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

from .base import DimensionMismatch, KnownPoint, Problem, ProblemConstants, SingularPoint

# The extension slope is this multiple of the largest per-agent gradient norm
# on the box boundary; > 1 keeps the radial derivative strictly positive
# outside, so the extension adds no stationary points.
WALL_SLOPE_FACTOR = 1.25


def _smoothstep(t):
    return t * t * (3.0 - 2.0 * t)


def _dot_norm(v):
    """Euclidean norms of the rows of v (..., d), computed as sqrt(v . v)
    like np.linalg.norm of a single vector, so a batch matches per-row calls
    bitwise (a reduction along axis=-1 can differ in the last bit)."""
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


class EstimationProblem(Problem):
    """m-agent linear-measurement estimation with cubic regularization."""

    name = "estimation"

    def __init__(self, measurement, observations, kappa, region_lo, region_hi,
                 ramp_radius=0.5):
        self.M = np.array(measurement, dtype=float)
        self.Y = np.array(observations, dtype=float)  # (m, s)
        if self.Y.ndim != 2 or self.Y.shape[1] != self.M.shape[0]:
            raise DimensionMismatch(
                f"observations {self.Y.shape} incompatible with measurement {self.M.shape}"
            )
        self.kappa = float(kappa)
        self.d = self.M.shape[1]
        self.m = self.Y.shape[0]
        self.lo = np.array(region_lo, dtype=float)
        self.hi = np.array(region_hi, dtype=float)
        if self.lo.shape != (self.d,) or self.hi.shape != (self.d,):
            raise DimensionMismatch("region bounds must have length d")
        if not (self.lo < self.hi).all():
            raise ValueError("region must be nonempty (lo < hi componentwise)")
        self.ramp_radius = float(ramp_radius)
        self._MtM = self.M.T @ self.M
        self._MtY = self.Y @ self.M  # row i = (M^T Y_i)
        self.wall_slope = WALL_SLOPE_FACTOR * self._boundary_gradient_bound()
        self.constants = self._estimate_constants()
        self._refined = {}

    # -- construction-time constants ----------------------------------------

    def _boundary_points(self, n_per_side=512):
        ts = np.linspace(0.0, 1.0, n_per_side)
        sides = []
        corners = [
            (self.lo, np.array([self.hi[0], self.lo[1]])),
            (np.array([self.hi[0], self.lo[1]]), self.hi),
            (self.hi, np.array([self.lo[0], self.hi[1]])),
            (np.array([self.lo[0], self.hi[1]]), self.lo),
        ] if self.d == 2 else None
        if corners is None:
            # generic d: sample each face on a coarse grid
            pts = []
            grid = [np.linspace(self.lo[j], self.hi[j], 16) for j in range(self.d)]
            for j in range(self.d):
                mesh = np.meshgrid(*[grid[i] for i in range(self.d) if i != j], indexing="ij")
                face = np.stack([m.ravel() for m in mesh], axis=1)
                for val in (self.lo[j], self.hi[j]):
                    full = np.insert(face, j, val, axis=1)
                    pts.append(full)
            return np.vstack(pts)
        for a, b in corners:
            sides.append(a[None, :] + (b - a)[None, :] * ts[:, None])
        return np.vstack(sides)

    def _boundary_gradient_bound(self):
        g = self._inside_gradients_all(self._boundary_points())
        return float(np.linalg.norm(g, axis=-1).max())

    def _estimate_constants(self):
        # grid over the region: gradient-Lipschitz nu from Hessian norms,
        # Hessian-Lipschitz rho from pairwise secants along the grid
        axes = [np.linspace(self.lo[j], self.hi[j], 41) for j in range(self.d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        pts = pts[np.linalg.norm(pts, axis=1) > 1e-9]
        hs = self._inside_hessian(pts)
        nu_theta = float(np.abs(np.linalg.eigvalsh(hs)).max())
        # data-direction Lipschitz constant of the per-sample gradient:
        # grad difference is -2 M^T (Y - Y'), so the l1->l1 operator norm of
        # 2 M^T bounds it exactly
        nu_data = 2.0 * float(np.abs(self.M.T).sum(axis=0).max())
        secants = np.abs(np.linalg.eigvalsh(hs[:-1] - hs[1:])).max(axis=-1)
        rho = max(1e-12, float((secants / _dot_norm(pts[:-1] - pts[1:])).max()))
        # gradient bound over the region plus the extension shell
        g_in = float(np.linalg.norm(self._inside_gradients_all(pts), axis=-1).max())
        shell = self._boundary_points(n_per_side=128)
        nvec = shell - np.clip(shell, self.lo + 1e-9, self.hi - 1e-9)
        nn = _dot_norm(nvec)[:, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            outward = np.where(nn > 0, nvec / nn, 1.0 / np.sqrt(self.d))
        g_out = 0.0
        for r in (0.1, 0.5, 2.0):
            probes = np.broadcast_to((shell + r * outward)[:, None, :], (len(shell), self.m, self.d))
            g_out = max(g_out, float(np.linalg.norm(self.agent_gradients(probes), axis=-1).max()))
        # 5% headroom: grid sampling slightly undershoots suprema (e.g. the
        # Hessian norm approaches its bound only near the cubic's singularity)
        return ProblemConstants(
            nu=max(1.05 * nu_theta, nu_data),
            rho=1.05 * rho,
            G=1.05 * max(g_in, g_out),
            n_i=tuple([1] * self.m),
        )

    # -- inside-region closed forms ------------------------------------------

    def _inside_objective(self, agent, theta, y=None):
        y = self.Y[agent] if y is None else np.asarray(y, dtype=float)
        r = y - self.M @ theta
        nt = np.linalg.norm(theta)
        return float(r @ r + self.kappa * nt**3)

    def _inside_gradient(self, agent, theta, y=None):
        mty = self._MtY[agent] if y is None else self.M.T @ np.asarray(y, dtype=float)
        return self._inside_gradients(theta, np.linalg.norm(theta), mty)

    def _inside_gradients_all(self, theta):
        """All agents' gradients at each row of theta (..., d): (..., m, d)."""
        nt = _dot_norm(theta)[..., None]
        base = 2.0 * (theta @ self._MtM) + 3.0 * self.kappa * nt * theta
        return -2.0 * self._MtY + base[..., None, :]

    def _inside_gradients(self, x, nt, mty):
        """Closed-form gradients at rows x (..., d) with norms nt (..., 1) and
        data terms mty = M^T Y_i."""
        return -2.0 * mty + 2.0 * (x @ self._MtM) + 3.0 * self.kappa * nt * x

    def _inside_hessian(self, theta):
        """Hessian at theta (d,), or one per row of theta (..., d)."""
        nt = _dot_norm(theta)[..., None, None]
        if (nt == 0.0).any():
            raise SingularPoint("analytic Hessian undefined at theta = 0 (cubic term)")
        outer = theta[..., :, None] * theta[..., None, :]
        return 2.0 * self._MtM + 3.0 * self.kappa * (nt * np.eye(self.d) + outer / nt)

    # -- extension ------------------------------------------------------------

    def _wall_parts(self, theta):
        tc = np.clip(theta, self.lo, self.hi)
        dvec = theta - tc
        r = float(np.linalg.norm(dvec))
        return tc, dvec, r

    def _extended_objective(self, agent, theta, y=None):
        tc, dvec, r = self._wall_parts(theta)
        if r == 0.0:
            return self._inside_objective(agent, theta, y=y)
        g = self._inside_gradient(agent, tc, y=y)
        t = min(r / self.ramp_radius, 1.0)
        s = 1.0 - _smoothstep(t)
        return self._inside_objective(agent, tc, y=y) + s * float(g @ dvec) + self.wall_slope * r

    def _extended_gradient(self, agent, theta, y=None):
        tc, dvec, r = self._wall_parts(theta)
        if r == 0.0:
            return self._inside_gradient(agent, theta, y=y)
        nhat = dvec / r
        g = self._inside_gradient(agent, tc, y=y)
        t = r / self.ramp_radius
        if t < 1.0:
            s = 1.0 - _smoothstep(t)
            sp = -6.0 * t * (1.0 - t) / self.ramp_radius
        else:
            s, sp = 0.0, 0.0
        unclamped = (dvec == 0.0).astype(float)
        grad = unclamped * g + self.wall_slope * nhat
        if s != 0.0 or sp != 0.0:
            nt = np.linalg.norm(tc)
            hd = self._inside_hessian(tc) @ dvec if nt > 0 else 2.0 * (self._MtM @ dvec)
            grad = grad + sp * float(g @ dvec) * nhat + s * (unclamped * hd + (1.0 - unclamped) * g)
        return grad

    def _wall_gradients(self, theta, agents):
        """_extended_gradient of the given agents at rows theta (N, d), all
        outside the box, vectorized over the rows."""
        tc = np.clip(theta, self.lo, self.hi)
        dvec = theta - tc
        r = _dot_norm(dvec)[:, None]
        nhat = dvec / r
        ntc = _dot_norm(tc)
        g = self._inside_gradients(tc, ntc[:, None], self._MtY[agents])
        t = r / self.ramp_radius
        ramp = t < 1.0
        s = np.where(ramp, 1.0 - _smoothstep(t), 0.0)
        sp = np.where(ramp, -6.0 * t * (1.0 - t) / self.ramp_radius, 0.0)
        unclamped = (dvec == 0.0).astype(float)
        grad = unclamped * g + self.wall_slope * nhat
        hd = 2.0 * (dvec @ self._MtM)
        curved = ntc > 0
        if curved.any():
            hd[curved] = (self._inside_hessian(tc[curved]) @ dvec[curved, :, None])[:, :, 0]
        gd = (g[:, None, :] @ dvec[:, :, None])[:, :, 0]
        ramped = grad + sp * gd * nhat + s * (unclamped * hd + (1.0 - unclamped) * g)
        return np.where(ramp, ramped, grad)

    # -- Problem interface ------------------------------------------------------

    def agent_objective(self, agent, theta):
        self._check_agent(agent)
        return self._extended_objective(agent, self._check_theta(theta))

    def agent_gradient(self, agent, theta):
        self._check_agent(agent)
        return self._extended_gradient(agent, self._check_theta(theta))

    def agent_gradient_for_observation(self, agent, theta, y):
        """Gradient with agent's observation replaced by y (sensitivity probes)."""
        self._check_agent(agent)
        return self._extended_gradient(agent, self._check_theta(theta), y=y)

    def agent_gradients(self, x):
        """Extended gradients for x (..., m, d); agents outside the box take
        the wall extension, the rest the closed form."""
        x = self._check_state(x)
        nt = np.linalg.norm(x, axis=-1, keepdims=True)
        g = self._inside_gradients(x, nt, self._MtY)
        outside = np.clip(x, self.lo, self.hi) != x
        if outside.any():
            rows = outside.any(axis=-1)
            g[rows] = self._wall_gradients(x[rows], np.nonzero(rows)[-1])
        return g

    def aggregated_hessian(self, theta):
        theta = self._check_theta(theta)
        inside = (theta >= self.lo).all() and (theta <= self.hi).all()
        if inside:
            return self._inside_hessian(theta)  # agent-independent
        return super().aggregated_hessian(theta)

    def sample_init(self, rng):
        return rng.uniform(self.lo, self.hi, size=(self.m, self.d))

    # -- stationary points -------------------------------------------------------

    def _newton_refine(self, seed_point):
        x = np.asarray(seed_point, dtype=float).copy()
        for _ in range(100):
            step = np.linalg.solve(self._inside_hessian(x), self.aggregated_gradient(x))
            nxt = x - step
            if np.array_equal(nxt, x):
                break
            x = nxt
        return x

    def refined_minimum(self):
        if "min" not in self._refined:
            self._refined["min"] = self._newton_refine(self._seed_minimum)
        return self._refined["min"].copy()

    def refined_saddle(self):
        if "saddle" not in self._refined:
            self._refined["saddle"] = self._newton_refine(self._seed_saddle)
        return self._refined["saddle"].copy()

    def known_saddle(self):
        return self.refined_saddle()

    def reference_minimum(self):
        return self.refined_minimum()


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
        ramp_radius=0.5,
    )
    p.name = "estimation_paper"
    p._seed_minimum = np.array([1.3478, 1.0690])
    p._seed_saddle = np.array([-7.4336, 1.3959])
    p.known_points = (
        KnownPoint(coords=(1.3478, 1.0690), kind="minimum"),
        KnownPoint(coords=(-7.4336, 1.3959), kind="strict_saddle"),
    )
    return p
