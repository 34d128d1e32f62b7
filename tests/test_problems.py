from __future__ import annotations

import pickle

import numpy as np
import pytest

from dpdgd.optimizer import RunConfig, StepsizeSchedule, run
from dpdgd.problems import (
    EstimationProblem,
    IcaProblem,
    ProblemError,
    QuadraticProblem,
    classify_stationary_point,
    make_ica_problem,
    make_paper_estimation_problem,
)
from dpdgd.problems.base import _solve, newton_root
from dpdgd.problems.estimation import RAMP_RADIUS

import numdiff
import oracles
from blas import KERNEL_FLAGS, run_on_kernel

PRINTED_MIN = np.array([1.3478, 1.0690])
PRINTED_SADDLE = np.array([-7.4336, 1.3959])
# reference_minimum() and known_saddle() of the paper's estimation problem,
# and known_saddle() of make_ica_problem(4 | 10, 5, 160, 99), on every BLAS kernel
ESTIMATION_MIN = ["0x1.590752ebb4cd6p+0", "0x1.11a72022a5114p+0"]
ESTIMATION_SADDLE = ["-0x1.dbbf8cb88b630p+2", "0x1.655b9bd7fa64bp+0"]
ICA4_SADDLE = ["-0x1.22fadb891a842p-3", "-0x1.0e2d95a7a8ab3p-2",
               "-0x1.2941be1412c12p-2", "0x1.d14f2c7e1fc46p-1"]
ICA10_SADDLE = ["-0x1.8c5aea033c621p-5", "0x1.c724f502011c2p-2", "-0x1.5b714701e9668p-4",
                "0x1.45842e5bb2ea4p-2", "0x1.9096cb99377a2p-2", "-0x1.f085e781ed275p-3",
                "-0x1.28dd85475e21ap-6", "0x1.6161f47f44f71p-1", "-0x1.7003edec900efp-5",
                "-0x1.28cb5ba6755bfp-5"]


def _extension_gradient(p, agent, theta):
    """Reference for the estimation problem's gradient, one agent at one point,
    from the closed forms: f_i(theta) inside the box, and outside it the
    gradient of f_i(tc) + s(r) grad f_i(tc).dvec + wall_slope r, where tc is
    theta clipped to the box, dvec = theta - tc, r = |dvec| and s falls from
    1 to 0 by a smoothstep as r goes from 0 to RAMP_RADIUS."""
    def inside(t):
        return (-2.0 * p.M.T @ p.Y[agent] + 2.0 * p.M.T @ p.M @ t
                + 3.0 * p.kappa * np.linalg.norm(t) * t)

    tc = np.clip(theta, p.lo, p.hi)
    dvec = theta - tc
    r = np.linalg.norm(dvec)
    if r == 0.0:
        return inside(theta)
    nhat, g, t = dvec / r, inside(tc), r / RAMP_RADIUS
    s, sp = 0.0, 0.0
    if t < 1.0:
        s, sp = 1.0 - t * t * (3.0 - 2.0 * t), -6.0 * t * (1.0 - t) / RAMP_RADIUS
    nt = np.linalg.norm(tc)
    hess = 2.0 * p.M.T @ p.M
    if nt > 0:
        hess = hess + 3.0 * p.kappa * (nt * np.eye(p.d) + np.outer(tc, tc) / nt)
    unclamped = (dvec == 0.0).astype(float)
    return (unclamped * g + p.wall_slope * nhat + sp * (g @ dvec) * nhat
            + s * (unclamped * (hess @ dvec) + (1.0 - unclamped) * g))


def _norm_and_clip_gradients(p, x, mty):
    """The estimation problem's gradients at x (..., m, d) with data terms
    mty = M^T Y_i (m, d), restated with np.linalg.norm and np.clip, whose
    ufuncs agent_gradients runs without their wrappers."""
    nt = np.linalg.norm(x, axis=-1, keepdims=True)
    g = -2.0 * mty + 2.0 * (x @ (p.M.T @ p.M)) + 3.0 * p.kappa * nt * x
    outside = np.clip(x, p.lo, p.hi) != x
    if outside.any():
        rows = outside.any(axis=-1)
        g[rows] = p._wall_gradients(x[rows], -2.0 * mty[np.nonzero(rows)[-1]])
    return g


def _ica_gradient(p, agent, u):
    """Reference for the ICA gradient, one agent at one point: the tangent
    projection of 4 mean((u^T y)^3 y) over the agent's samples."""
    ys = p.samples[agent]
    proj = ys @ u
    g = 4.0 * (proj * proj * proj) @ ys / ys.shape[0]
    return g - (u @ g) * u


class TestPaperEstimationInstance:
    def test_dimensions(self, paper_problem):
        assert paper_problem.m == 5
        assert paper_problem.d == 2
        assert paper_problem.kappa == -0.1

    def test_third_observation(self, paper_problem):
        # agent index 2 holds the third observation 3 * (1/3, 2/3, 0)
        assert np.allclose(paper_problem.Y[2], [1.0, 2.0, 0.0])

    def test_first_agent_gradient_at_origin(self, paper_problem):
        g = paper_problem.agent_gradient(0, np.zeros(2))
        assert np.allclose(g, [-2.0 / 3.0, -8.0 / 3.0], atol=1e-15)

    def test_aggregated_gradient_near_printed_points(self, paper_problem):
        for pt in (PRINTED_MIN, PRINTED_SADDLE):
            assert np.linalg.norm(paper_problem.aggregated_gradient(pt)) <= 1e-2

    def test_origin_is_not_stationary(self, paper_problem):
        g = paper_problem.aggregated_gradient(np.zeros(2))
        assert np.allclose(g, [-2.0, -8.0])
        kind = classify_stationary_point(paper_problem, np.zeros(2), grad_tol=1e-2, eig_tol=1e-6)
        assert kind == "not_stationary"

    def test_constants_positive(self, paper_problem, config_nu):
        # a sample's gradient moves by -2 M^T (Y - Y'), so the `sample` row holds
        # for any nu >= 2 ||M^T||_1, the largest l1 column sum of 2 M^T
        nu_data = 2.0 * np.abs(paper_problem.M.T).sum(axis=0).max()
        assert nu_data == 4.0
        assert config_nu >= nu_data

    def test_constants_pinned(self, paper_problem):
        # the wall slope of the per-point construction loop the vectorized one replaced
        assert paper_problem.wall_slope == float.fromhex("0x1.5c245188a6b3ap+5")

    def test_dimension_checks(self, paper_problem):
        with pytest.raises(ProblemError, match=r"theta has shape \(3,\), expected \(2,\)"):
            paper_problem.agent_gradient(0, np.zeros(3))
        with pytest.raises(ProblemError, match=r"agent index 9 out of range \[0, 5\)"):
            paper_problem.agent_gradient(9, np.zeros(2))
        # the problem exists at d = 2 only
        with pytest.raises(ProblemError, match=r"measurement \(3, 3\) is not \(s, 2\)"):
            EstimationProblem(np.eye(3), np.ones((5, 3)), -0.1, -np.ones(3), np.ones(3))


class TestGradientConsistency:
    def test_matches_finite_differences_everywhere(self, paper_problem, rng):
        # half the points inside the working box, half in the extension shell
        p = paper_problem
        pts = [rng.uniform(p.lo, p.hi) for _ in range(50)]
        pts += [rng.uniform(p.lo - 1.5, p.hi + 1.5) for _ in range(50)]
        worst = 0.0
        for theta in pts:
            agent = int(rng.integers(p.m))
            g = p.agent_gradient(agent, theta)
            fd = numdiff.gradient(lambda t: p.agent_objective(agent, t), theta, step=1e-6)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1.0)
            worst = max(worst, rel)
        assert worst <= 1e-5

    def test_vectorized_gradients_match_scalar(self, paper_problem, rng):
        p = paper_problem
        x = rng.uniform(p.lo - 1.0, p.hi + 1.0, size=(p.m, p.d))
        stacked = p.agent_gradients(x)
        for i in range(p.m):
            assert np.allclose(stacked[i], p.agent_gradient(i, x[i]), atol=1e-14)


def _ica_column_minimum(p, column):
    """Newton's root, with the problem's own residual and Jacobian, from the
    signed column `column` of A: a minimum of the sampled objective."""
    return newton_root(p.newton_residual, p.newton_jacobian, column)


class TestHessian:
    def test_symmetry(self, paper_problem, rng):
        for _ in range(10):
            theta = rng.uniform(paper_problem.lo, paper_problem.hi)
            basis, h = paper_problem.tangent_hessian(theta)
            assert np.array_equal(basis, np.eye(2))
            assert np.abs(h - h.T).max() <= 1e-10

    def test_analytic_matches_finite_differences(self, paper_problem):
        theta = np.array([1.0, 1.0])
        analytic = paper_problem.tangent_hessian(theta)[1]
        fd = numdiff.hessian(lambda t: oracles.objective(paper_problem, t), theta, step=1e-4)
        assert np.abs(analytic - fd).max() <= 1e-4

    @pytest.mark.parametrize("d", [4, 10])
    def test_ica_equals_the_finite_difference_oracle(self, d, rng):
        # B^T J B, with J the central-difference Jacobian of the tangent
        # gradient g - (u . g) u, is the Riemannian Hessian on the basis B
        p = make_ica_problem(d=d, m=5, samples_per_agent=160, seed=99)
        points = [p.known_saddle(), p.refined("maximum"), _ica_column_minimum(p, p.A[:, 0]),
                  _ica_column_minimum(p, -p.A[:, 0])]
        points += list(p.retract(rng.standard_normal((4, d))))
        for u in points:
            basis, h = p.tangent_hessian(u)
            assert basis.shape == (d, d - 1)
            assert np.allclose(basis.T @ basis, np.eye(d - 1), rtol=0.0, atol=1e-14)
            assert np.abs(basis.T @ u).max() <= 1e-14
            want = basis.T @ numdiff.jacobian(p.aggregated_gradient, u) @ basis
            assert np.abs(h - want).max() <= 1e-7

    def test_no_hessian_outside_the_box_or_off_the_sphere(self, paper_problem, ica4):
        for theta in (paper_problem.hi + [0.3, 0.2], paper_problem.lo - [0.7, 0.0],
                      paper_problem.hi + [2.0, -4.5]):
            with pytest.raises(ProblemError, match="no analytic Hessian outside the box"):
                paper_problem.tangent_hessian(theta)
        with pytest.raises(ProblemError, match=r"\|\|u\|\| = 2\.0000000000 is not 1"):
            ica4.tangent_hessian(2.0 * ica4.known_saddle())

    def test_singular_at_origin(self, paper_problem):
        with pytest.raises(ProblemError, match="analytic Hessian undefined at theta = 0"):
            paper_problem.tangent_hessian(np.zeros(2))

    def test_eigenvalue_signs_at_refined_points(self, paper_problem):
        h_min = paper_problem.tangent_hessian(paper_problem.reference_minimum())[1]
        assert (np.linalg.eigvalsh(h_min) > 0).all()
        h_sad = paper_problem.tangent_hessian(paper_problem.known_saddle())[1]
        eig = np.linalg.eigvalsh(h_sad)
        assert eig[0] < -1e-3 and eig[-1] > 1e-3

    @pytest.mark.parametrize("d, maximum, saddle", [
        (4, (-5.38, -2.73), (-7.90, 4.31)),
        (10, None, (-7.70, 6.01)),
    ])
    def test_ica_kinds_on_the_sphere(self, d, maximum, saddle):
        # A 1/sqrt(d) refines to a maximum, A (a_1 + a_2)/sqrt(2) to a strict
        # saddle and every +/- a_i to a minimum; the ranges are the tangent
        # eigenvalues' smallest and largest
        p = make_ica_problem(d=d, m=5, samples_per_agent=160, seed=99)

        def kind_and_range(u):
            eig = np.linalg.eigvalsh(p.tangent_hessian(u)[1])
            return classify_stationary_point(p, u), (round(eig[0], 2), round(eig[-1], 2))

        got_max, got_range = kind_and_range(p.refined("maximum"))
        assert got_max == "maximum" and (maximum is None or got_range == maximum)
        assert kind_and_range(p.known_saddle()) == ("strict_saddle", saddle)
        for column in (*p.A.T, *-p.A.T):
            assert kind_and_range(_ica_column_minimum(p, column))[0] == "minimum"


class TestClassification:
    def test_printed_points(self, paper_problem):
        assert (
            classify_stationary_point(paper_problem, PRINTED_MIN, grad_tol=1e-2, eig_tol=1e-6)
            == "minimum"
        )
        assert (
            classify_stationary_point(paper_problem, PRINTED_SADDLE, grad_tol=1e-2, eig_tol=1e-6)
            == "strict_saddle"
        )

    def test_pure_quadratic_saddle(self):
        q = QuadraticProblem(diag=[1.0, -1.0], m=2)
        assert classify_stationary_point(q, np.zeros(2)) == "strict_saddle"
        assert np.allclose(q.known_saddle(), np.zeros(2))

    def test_convex_quadratic_minimum(self):
        q = QuadraticProblem(diag=[1.0, 2.0], m=3, offsets=[[0, 0], [1, 1], [2, 2]])
        ref = q.reference_minimum()
        assert np.allclose(ref, [1.0, 1.0])
        assert classify_stationary_point(q, ref) == "minimum"

    def test_rejects_bad_tolerances(self, paper_problem):
        with pytest.raises(Exception):
            classify_stationary_point(paper_problem, PRINTED_MIN, grad_tol=0.0)


class TestRegionExtension:
    def test_objective_continuous_across_boundary(self, paper_problem, rng):
        p = paper_problem
        for _ in range(40):
            j = int(rng.integers(p.d))
            side = p.lo[j] if rng.random() < 0.5 else p.hi[j]
            theta = rng.uniform(p.lo, p.hi)
            theta[j] = side
            outward = np.zeros(p.d)
            outward[j] = -1.0 if side == p.lo[j] else 1.0
            agent = int(rng.integers(p.m))
            # straddle of 1e-8 per side: at 1e-7 the deliberate wall slope
            # (~43) contributes ~1e-5 of legitimate change at the worst corner
            fin = p.agent_objective(agent, theta - 1e-8 * outward)
            fout = p.agent_objective(agent, theta + 1e-8 * outward)
            assert abs(fin - fout) <= 1e-5

    def test_tangential_gradient_continuous(self, paper_problem, rng):
        # the wall kinks only in the outward-normal direction (by design, so
        # the extension adds no stationary points); tangential parts match
        p = paper_problem
        for _ in range(40):
            j = int(rng.integers(p.d))
            side = p.lo[j] if rng.random() < 0.5 else p.hi[j]
            theta = rng.uniform(p.lo + 0.2, p.hi - 0.2)
            theta[j] = side
            outward = np.zeros(p.d)
            outward[j] = -1.0 if side == p.lo[j] else 1.0
            tangent = 1.0 - np.abs(outward)
            agent = int(rng.integers(p.m))
            gin = p.agent_gradient(agent, theta - 1e-7 * outward)
            gout = p.agent_gradient(agent, theta + 1e-7 * outward)
            assert np.abs((gin - gout) * tangent).max() <= 1e-5
            # the normal jump is exactly the configured wall slope
            assert abs((gout - gin) @ outward - p.wall_slope) <= 1e-4

    def test_no_stationary_points_outside(self, paper_problem, rng):
        p = paper_problem
        for _ in range(300):
            theta = rng.uniform(p.lo - 2.0, p.hi + 2.0)
            if ((theta >= p.lo) & (theta <= p.hi)).all():
                continue
            tc = np.clip(theta, p.lo, p.hi)
            nhat = (theta - tc) / np.linalg.norm(theta - tc)
            g = p.aggregated_gradient(theta)
            # radial derivative stays strictly positive: the wall pushes in
            assert g @ nhat > 0.0

    def test_objective_grows_linearly_far_out(self, paper_problem):
        p = paper_problem
        base = np.array([p.lo[0], 0.0])
        f1 = oracles.objective(p, base + np.array([-2.0, 0.0]))
        f2 = oracles.objective(p, base + np.array([-3.0, 0.0]))
        assert abs((f2 - f1) - p.wall_slope) <= 1e-9


class TestBatchedGradients:
    def _points(self, p, rng, n):
        """n (m, d) states with every agent inside the box, n with every agent
        inside the ramp, and n with every agent beyond it."""
        pts = rng.uniform(p.lo - 3.0, p.hi + 3.0, size=(40 * n * p.m, p.d))
        r = np.linalg.norm(pts - np.clip(pts, p.lo, p.hi), axis=1)
        groups = (r == 0.0, (r > 0.0) & (r < RAMP_RADIUS), r >= RAMP_RADIUS)
        return [pts[g][: n * p.m].reshape(n, p.m, p.d) for g in groups]

    def test_wall_gradient_matches_per_agent_formula(self, paper_problem, rng):
        p = paper_problem
        for x in self._points(p, rng, 40):
            got = p.agent_gradients(x)
            want = np.array([[_extension_gradient(p, j, row[j]) for j in range(p.m)] for row in x])
            assert np.abs(got - want).max() <= 1e-12

    def test_mixed_batch_matches_per_state_calls(self, paper_problem, rng):
        p = paper_problem
        inside, in_ramp, beyond = self._points(p, rng, 6)
        pick = rng.integers(0, 3, size=(6, p.m, 1))
        x = np.where(pick == 0, inside, np.where(pick == 1, in_ramp, beyond))
        batch = p.agent_gradients(x)
        for r in range(len(x)):
            assert np.array_equal(batch[r], p.agent_gradients(x[r]))

    @np.errstate(all="ignore")
    def test_equal_to_norm_and_clip_restatement(self, paper_problem, rng):
        p = paper_problem
        # agents inside the box, in the ramp and beyond it, some coordinates special
        rows = np.concatenate(self._points(p, rng, 24)).reshape(-1, p.d)
        special = np.array([np.nan, np.inf, -np.inf, 5e-324, -5e-324, 0.0, -0.0, 1e300])
        y = rng.standard_normal(p.M.shape[0])
        # 0, 1 and 2 leading axes, alternating, so the per-shape bounds and data
        # terms are rebuilt and reused
        a, b, c = (p.m, p.d), (6, p.m, p.d), (2, 3, p.m, p.d)
        for shape in (a, b, a, c, b, c, a):
            for _ in range(20):
                x = rng.permutation(rows)[:np.prod(shape[:-1])].reshape(shape)
                x = np.where(rng.random(shape) < 0.1, rng.choice(special, shape), x)
                want = _norm_and_clip_gradients(p, x, p._MtY)
                assert p.agent_gradients(x).tobytes() == want.tobytes()
            theta, agent = x.reshape(-1, p.d)[0], int(rng.integers(p.m))
            mty = p._MtY.copy()
            mty[agent] = p.M.T @ y
            want = _norm_and_clip_gradients(p, np.tile(theta, (p.m, 1)), mty)[agent]
            assert p.agent_gradient_for_observation(agent, theta, y).tobytes() == want.tobytes()

    def test_folded_factor_on_a_non_diagonal_measurement(self, rng):
        # the factor 2 of 2 M^T M is folded in at construction; for normal-range
        # states that gives the bits of 2 (x @ M^T M), here for a random
        # non-diagonal M, whose products are inexact
        p = EstimationProblem(rng.standard_normal((3, 2)), rng.standard_normal((5, 3)), -0.1,
                              [-8.0, -3.0], [4.0, 3.0])
        assert (p.M.T @ p.M)[0, 1] != 0.0
        # agents inside the box, in the ramp and beyond it, and rows scaled
        # to magnitudes from 1e-5 to 1e5
        rows = np.concatenate(self._points(p, rng, 24)).reshape(-1, p.d)
        rows = np.concatenate([rows, rows * 10.0 ** rng.uniform(-5.0, 5.0, (len(rows), 1))])
        for shape in ((p.m, p.d), (6, p.m, p.d), (2, 3, p.m, p.d)):
            for _ in range(20):
                x = rng.permutation(rows)[:np.prod(shape[:-1])].reshape(shape)
                want = _norm_and_clip_gradients(p, x, p._MtY)
                assert p.agent_gradients(x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("lead", [(), (3,), (7, 2), (2, 3, 4)])
    def test_linear_term_is_the_stacked_product(self, paper_problem, rng, lead):
        # the inside gradient's linear term is one 2-D product over all rows;
        # each row carries the bits of the stacked x @ 2 M^T M, here for the
        # paper's M and a random non-diagonal one, whose products are inexact
        other = EstimationProblem(rng.standard_normal((3, 2)), rng.standard_normal((5, 3)), -0.1,
                                  [-8.0, -3.0], [4.0, 3.0])
        for p in (paper_problem, other):
            shape = lead + (p.m, p.d)
            x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-5.0, 5.0, shape)
            nt, data = np.linalg.norm(x, axis=-1, keepdims=True), -2.0 * p._MtY
            want = data + x @ p._2MtM + 3.0 * p.kappa * nt * x
            assert p._inside_gradients(x, nt, data).tobytes() == want.tobytes()
            # agent_objective's path: one (d,) row, its scalar norm, one data term
            theta, row = x.reshape(-1, p.d)[-1], data[-1]
            nt = np.linalg.norm(theta)
            want = row + theta @ p._2MtM + 3.0 * p.kappa * nt * theta
            assert p._inside_gradients(theta, nt, row).tobytes() == want.tobytes()

    def test_shrunk_batch_equals_a_fresh_problem(self, rng):
        # a batch that loses runs along its leading axis reads leading slices
        # of the bounds and data terms laid out for the larger batch; its
        # gradients are those of a problem that never saw the larger batch
        p = make_paper_estimation_problem()
        rows = np.concatenate(self._points(p, rng, 400)).reshape(-1, p.d)
        x = rng.permutation(rows)[:200 * 2 * p.m].reshape(200, 2, p.m, p.d)
        assert p.agent_gradients(x).tobytes() == \
            make_paper_estimation_problem().agent_gradients(x).tobytes()
        laid_out = p._shaped[1:]
        for n in (199, 137, 137, 50, 7, 1):
            got = p.agent_gradients(x[:n])
            assert got.tobytes() == make_paper_estimation_problem().agent_gradients(x[:n]).tobytes()
            assert all(np.shares_memory(a, b) for a, b in zip(p._shaped[1:], laid_out)), n
        # a batch that grows again, or changes its trailing shape, is laid out anew
        for y in (x[:60], x[:, 0], x[:3, 0]):
            got = p.agent_gradients(y)
            assert got.tobytes() == make_paper_estimation_problem().agent_gradients(y).tobytes()

    def test_a_fresh_problem_holds_no_laid_out_entry(self):
        # the 2048 boundary points that set the wall slope broadcast the bounds
        # and data terms, so construction leaves no entry for a run to slice
        assert make_paper_estimation_problem()._shaped == ((),)

    def test_boundary_points_that_round_past_the_box_are_clipped_into_it(self):
        # on this box lo[1] + (hi[1] - lo[1]) t rounds below lo[1] on the side
        # back to the first corner; the wall slope reads the closed form there
        lo, hi = [1.25730221e-03, -1.32104863e-06], [1.06157419e-01, 5.35669372e+02]
        ts = np.linspace(0.0, 1.0, 512)
        assert (hi[1] + (lo[1] - hi[1]) * ts < lo[1]).any()
        p = EstimationProblem([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]], np.ones((5, 3)), -0.1, lo, hi)
        assert np.isfinite(p.wall_slope) and p._shaped == ((),)

    def test_a_pickled_problem_carries_no_laid_out_arrays(self, rng):
        # run_batch pickles the problem for each --jobs worker, after a run
        # that lays out the bounds and data terms at its state's shape
        p = make_paper_estimation_problem()
        x = rng.uniform(p.lo, p.hi, size=(600, p.m, p.d))
        want = p.agent_gradients(x)
        assert len(pickle.dumps(p)) < 2048
        copy = pickle.loads(pickle.dumps(p))
        assert copy._shaped == ((),) and p._shaped[0] == x.shape
        assert copy.agent_gradients(x).tobytes() == want.tobytes()

    def test_quadratic_and_ica_accept_batches(self, ica4, rng):
        q = QuadraticProblem(diag=[1.0, -2.0], m=3, offsets=rng.standard_normal((3, 2)))
        xq = rng.standard_normal((4, 3, 2))
        assert all(np.array_equal(q.agent_gradients(xq)[r], q.agent_gradients(xq[r]))
                   for r in range(4))
        xi = ica4.retract(rng.standard_normal((4, 5, 4)))
        assert all(np.array_equal(ica4.agent_gradients(xi)[r], ica4.agent_gradients(xi[r]))
                   for r in range(4))


class TestRefinedPoints:
    def test_refined_gradients_vanish(self, paper_problem):
        for pt in (paper_problem.reference_minimum(), paper_problem.known_saddle()):
            assert np.linalg.norm(paper_problem.aggregated_gradient(pt)) <= 1e-10

    def test_refined_close_to_printed(self, paper_problem):
        assert np.linalg.norm(paper_problem.reference_minimum() - PRINTED_MIN) <= 5e-4
        assert np.linalg.norm(paper_problem.known_saddle() - PRINTED_SADDLE) <= 5e-4

    def test_refined_points_pinned(self, paper_problem, ica4):
        # Newton refinement and the saddle polish read these bits; a gradient
        # rewrite that moves them moves every at_saddle output
        assert [v.hex() for v in paper_problem.reference_minimum()] == ESTIMATION_MIN
        assert [v.hex() for v in paper_problem.known_saddle()] == ESTIMATION_SADDLE
        assert [v.hex() for v in ica4.known_saddle()] == ICA4_SADDLE
        assert [v.hex() for v in make_ica_problem(10, 5, 160, 99).known_saddle()] == ICA10_SADDLE

    @pytest.mark.parametrize("kernel", sorted(KERNEL_FLAGS))
    def test_ica_saddle_pinned_on_other_blas_kernels(self, kernel):
        # the ICA instance, both problems' residuals and Jacobians and
        # newton_root's solve sum in numpy's fixed order, so a process that
        # runs another OpenBLAS kernel refines the estimation points and the
        # ICA saddles to the same bits
        code = ("from dpdgd.problems import make_ica_problem, make_paper_estimation_problem\n"
                "p = make_paper_estimation_problem()\n"
                "print(*(v.hex() for v in [*p.reference_minimum(), *p.known_saddle(),\n"
                "                          *make_ica_problem(4, 5, 160, 99).known_saddle(),\n"
                "                          *make_ica_problem(10, 5, 160, 99).known_saddle()]))")
        assert (run_on_kernel(code, kernel).split()
                == ESTIMATION_MIN + ESTIMATION_SADDLE + ICA4_SADDLE + ICA10_SADDLE)

    def test_fixed_order_solve_matches_lapack(self, rng):
        # newton_root's elimination against np.linalg.solve; the permutation
        # has a zero leading entry, which only a pivoting elimination solves
        mats = [rng.standard_normal((d, d)) + d * np.eye(d) for d in range(1, 11)]
        mats.append(np.eye(4)[[2, 0, 3, 1]])
        for a in mats:
            b = rng.standard_normal(len(a))
            want = np.linalg.solve(a, b)
            assert np.allclose(_solve(a, b), want, rtol=1e-12, atol=1e-12)

    def test_constructor_built_problem_runs(self, paper_problem, rpc5):
        p = paper_problem
        cfg = dict(weights=rpc5, schedule=StepsizeSchedule("constant", lambda0=0.01),
                   noise_variance=0.1, iterations=10, seed=3)
        bare = EstimationProblem(p.M, p.Y, p.kappa, p.lo, p.hi)
        trace = run(RunConfig(problem=bare, **cfg))
        # without a known minimum the errors read NaN, without a saddle there is none
        assert trace.k.tolist() == list(range(11))
        assert np.isnan(trace.opt_error_mean).all()
        with pytest.raises(ProblemError):
            bare.known_saddle()
        # given the factory's points, it refines to the factory's bits and runs as it does
        known = EstimationProblem(p.M, p.Y, p.kappa, p.lo, p.hi, known_points=p.known_points)
        assert np.array_equal(known.reference_minimum(), p.reference_minimum())
        assert np.array_equal(known.known_saddle(), p.known_saddle())
        want = run(RunConfig(problem=p, **cfg))
        got = run(RunConfig(problem=known, **cfg))
        assert np.array_equal(got.final_state, trace.final_state)
        assert got.opt_error_mean.tolist() == want.opt_error_mean.tolist()


class TestOneGradientFormula:
    @pytest.mark.parametrize("name, theta", [
        ("paper_problem", [0.7, -1.2]),  # inside the box
        ("paper_problem", [-2.34622132, -2.10293703]),  # inside the box
        ("paper_problem", [4.2, 0.3]),  # in the ramp
        ("paper_problem", [-8.1, 3.3]),  # in the ramp, past a corner
        ("paper_problem", [6.0, -5.0]),  # beyond the ramp
        ("ica4", [0.5, -0.5, 0.5, 0.5]),
        ("ica4", [0.1, 0.7, -0.1, 0.7]),
        ("quadratic", [0.3, -0.7]),
    ])
    def test_per_agent_and_aggregated_are_rows_of_the_batch(self, name, theta, request):
        if name == "quadratic":
            p = QuadraticProblem(diag=[1.0, -2.0], m=3,
                                 offsets=[[0.5, -1.0], [2.0, 0.25], [-1.5, 3.0]])
        else:
            p = request.getfixturevalue(name)
        theta = np.array(theta)
        rows = p.agent_gradients(np.tile(theta, (p.m, 1)))
        for j in range(p.m):
            assert p.agent_gradient(j, theta).tobytes() == rows[j].tobytes()
        assert p.aggregated_gradient(theta).tobytes() == rows.mean(axis=0).tobytes()


class TestIca:
    def test_sample_counts(self, ica4):
        assert ica4.samples.shape == (5, 160, 4)

    def test_sources_are_rademacher(self, ica4):
        z = oracles.ica_sources(d=4, m=5, samples_per_agent=160, seed=99)
        assert set(np.unique(z)) == {-1.0, 1.0}
        # observations really are A z: undo the orthonormal mixing
        z_back = ica4.samples @ ica4.A
        assert np.abs(z_back - z).max() <= 1e-12
        assert (z**4).mean() == 1.0

    def test_mixing_orthonormal(self, ica4):
        assert np.abs(ica4.A.T @ ica4.A - np.eye(4)).max() <= 1e-10

    def test_total_samples_800(self):
        p = make_ica_problem(d=10, m=5, samples_per_agent=160, seed=3)
        assert p.samples.shape[0] * p.samples.shape[1] == 800

    def test_reconstruction_error_on_columns(self, ica4):
        a1 = ica4.A[:, 0]
        assert (ica4.optimization_errors(np.tile(a1, (5, 1))) == 0.0).all()
        assert (ica4.optimization_errors(np.tile(-a1, (5, 1))) == 0.0).all()

    def test_reconstruction_error_uniform_direction_identity_mixing(self):
        rng = np.random.default_rng(5)
        z = rng.choice([-1.0, 1.0], size=(2, 40, 4))
        p = IcaProblem(mixing=np.eye(4), samples=z)
        u = np.full(4, 0.5)
        assert (abs(p.optimization_errors(np.tile(u, (2, 1))) - 1.0) <= 1e-12).all()

    def test_not_unit_norm(self, ica4):
        with pytest.raises(ProblemError, match=r"\|\|u\|\| = 1\.4142135624 is not 1 within 1e-08"):
            ica4.optimization_errors(np.tile([1.0, 1.0, 0.0, 0.0], (5, 1)))

    def test_nan_is_not_unit_norm(self, ica4, rng):
        with pytest.raises(ProblemError, match=r"\|\|u\|\| = nan is not 1 within"):
            ica4.optimization_errors(np.tile([np.nan, 0.0, 0.0, 0.0], (5, 1)))
        x = ica4.retract(rng.standard_normal((5, 4)))
        x[2, 1] = np.nan
        with pytest.raises(ProblemError, match=r"\|\|u\|\| = nan is not 1 within"):
            ica4.optimization_errors(x)

    def test_optimization_errors_match_rows(self, ica4, rng):
        x = ica4.retract(rng.standard_normal((5, 4)))
        want = [oracles.reconstruction_error(ica4, row) for row in x]
        assert ica4.optimization_errors(x).tolist() == want

    @pytest.mark.parametrize("d", [4, 10])
    def test_sphere_errors_equal_the_all_columns_minimum(self, d, rng):
        # the one-product error pass against every signed column's exact
        # distance: near a column (where 2 - 2 u^T a loses the distance to
        # cancellation), near a two-column tie, and at the d-column tie of the
        # population maximum A 1/sqrt(d); each on both signs
        p = make_ica_problem(d=d, m=5, samples_per_agent=16, seed=d)
        a = p.A.T  # rows are the columns a_j

        def on_sphere(v):
            return v / np.linalg.norm(v)

        def tangent(u):
            t = rng.standard_normal(d)
            return on_sphere(t - (t @ u) * u)

        points = [on_sphere(a[j] + 1e-6 * tangent(a[j])) for j in range(d)]
        points += [on_sphere(a[0] + a[1] + 1e-9 * tangent(on_sphere(a[0] + a[1]))),
                   on_sphere(a[d - 1] - a[0] + 1e-12 * tangent(on_sphere(a[d - 1] - a[0]))),
                   np.array(p.known_points[0].coords)]
        points = np.array(points + [-u for u in points])
        want = [min(np.linalg.norm(u - s * col) for col in a for s in (1.0, -1.0)) for u in points]
        got = p.optimization_errors(np.broadcast_to(points[:, None], (len(points), p.m, d)))
        assert np.allclose(got, np.array(want)[:, None], rtol=1e-12, atol=0.0)
        assert 9e-7 <= min(want) <= 1.1e-6

    def test_optimization_errors_reject_any_row_off_sphere(self, ica4, rng):
        x = ica4.retract(rng.standard_normal((5, 4)))
        x[3] *= 1.0 + 1e-6
        with pytest.raises(ProblemError, match=r"\|\|u\|\| = 1\.0000010000 is not 1 within"):
            ica4.optimization_errors(x)

    def test_objective_sign_symmetric(self, ica4, rng):
        for _ in range(10):
            u = rng.standard_normal(4)
            u /= np.linalg.norm(u)
            for agent in range(ica4.m):
                assert ica4.agent_objective(agent, u) == ica4.agent_objective(agent, -u)

    def test_projected_gradient_matches_tangent_fd(self, ica4, rng):
        worst = 0.0
        for _ in range(20):
            u = rng.standard_normal(4)
            u /= np.linalg.norm(u)
            agent = int(rng.integers(ica4.m))
            g = ica4.agent_gradient(agent, u)
            fd = numdiff.gradient(lambda t: ica4.agent_objective(agent, t), u, step=1e-6)
            fd_tangent = fd - (u @ fd) * u
            rel = np.linalg.norm(g - fd_tangent) / max(np.linalg.norm(fd_tangent), 1.0)
            worst = max(worst, rel)
        assert worst <= 1e-5

    def test_gradient_tangency(self, ica4, rng):
        u = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        g = ica4.agent_gradients(np.tile(u, (5, 1)))
        assert np.abs(g @ u).max() <= 1e-12

    def test_refined_saddle_is_stationary(self, ica4):
        for p in [ica4] + [make_ica_problem(d, 5, 160, seed) for d in (3, 4) for seed in range(12)]:
            u = p.known_saddle()
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
            assert np.linalg.norm(p.aggregated_gradient(u)) <= 1e-10
            # close to, but not exactly, the population saddle A (a_1 + a_2)/sqrt(2)
            assert p.known_points[1].kind == "strict_saddle"
            assert 0 < np.linalg.norm(u - np.array(p.known_points[1].coords)) <= 0.15

    @pytest.mark.parametrize("d, seed", [(2, 99), (2, 1)])
    def test_saddle_refinement_to_a_maximum_refused(self, d, seed):
        # at d = 2 both pair starts A (a_1 +/- a_2)/sqrt(2) are population
        # maxima, and Newton's roots from them are maxima: not the saddle that
        # known_saddle promises
        p = make_ica_problem(d, 5, 160, seed)
        with pytest.raises(ProblemError, match=r"^Newton's roots from all 2 known strict_saddle "
                                               r"starts are of other kinds: the last classifies "
                                               r"as 'maximum'$"):
            p.known_saddle()
        assert classify_stationary_point(p, p.refined("maximum")) == "maximum"

    def test_saddle_from_a_later_pair_start(self):
        # data seed 1 at d = 10: the roots from A (a_1 + a_2)/sqrt(2) and
        # A (a_1 + a_3)/sqrt(2) are maxima, the third start's, from
        # A (a_1 + a_4)/sqrt(2), is the saddle that known_saddle returns
        p = make_ica_problem(10, 5, 160, 1)
        starts = list(p.starts("strict_saddle"))
        assert len(starts) == 90 and np.array_equal(starts[0], p.known_points[1].coords)
        assert np.array_equal(starts[2], (p.A[:, 0] + p.A[:, 3]) / np.sqrt(2.0))
        roots = [newton_root(p.newton_residual, p.newton_jacobian, s) for s in starts[:3]]
        kinds = [classify_stationary_point(p, r) for r in roots]
        assert kinds == ["maximum", "maximum", "strict_saddle"]
        u = p.known_saddle()
        assert np.array_equal(u, roots[2])
        assert np.linalg.norm(p.aggregated_gradient(u)) <= 1e-10
        assert classify_stationary_point(p, u) == "strict_saddle"
        # the minus pairs follow the plus pairs in the same order
        assert np.array_equal(starts[45], (p.A[:, 0] - p.A[:, 1]) / np.sqrt(2.0))

    @pytest.mark.parametrize("m", [5, 16, 50])
    @pytest.mark.parametrize("runs", [1, 7, 200, 600])
    def test_gradient_rows_of_a_batch_equal_single_runs(self, runs, m, rng):
        # every product keeps its per-(run, agent) shape, so a run's gradient
        # does not depend on the batch it is stacked in
        p = make_ica_problem(d=10, m=m, samples_per_agent=160, seed=m)
        x = p.retract(rng.standard_normal((runs, m, 10)))
        got = p.agent_gradients(x)
        assert got.shape == x.shape
        assert all(got[r].tobytes() == p.agent_gradients(x[r]).tobytes() for r in range(runs))

    def test_work_arrays_are_reused_while_the_shape_holds(self, rng):
        p = make_ica_problem(d=10, m=5, samples_per_agent=160, seed=5)
        x = p.retract(rng.standard_normal((18, 5, 10)))
        first = p.agent_gradients(x)
        shape, proj, cube = p._work
        assert shape == x.shape and proj.shape == cube.shape == (18, 5, 160)
        again = p.agent_gradients(x)
        assert all(a is b for a, b in zip(p._work, (shape, proj, cube))) and again is not first
        assert again.tobytes() == first.tobytes()

    def test_a_shrinking_batch_gives_a_fresh_problems_bits(self, rng):
        # as a coupling batch does when pairs stop: the work arrays are rebuilt
        # for the survivors, and their gradients are those of a fresh problem
        p = make_ica_problem(d=10, m=5, samples_per_agent=160, seed=5)
        x = p.retract(rng.standard_normal((600, 2, 5, 10)))
        p.agent_gradients(x)
        for keep in (599, 200, 7, 1):
            got = p.agent_gradients(x[:keep])
            assert p._work[1].shape == (keep, 2, 5, 160)
            fresh = make_ica_problem(d=10, m=5, samples_per_agent=160, seed=5)
            assert got.tobytes() == fresh.agent_gradients(x[:keep]).tobytes(), keep

    def test_a_pickled_problem_carries_no_work_arrays(self, rng):
        # run_batch pickles the problem for each --jobs worker
        p = make_ica_problem(d=10, m=5, samples_per_agent=160, seed=5)
        x = p.retract(rng.standard_normal((600, 5, 10)))
        size = len(pickle.dumps(p))
        want = p.agent_gradients(x)
        assert len(pickle.dumps(p)) == size
        copy = pickle.loads(pickle.dumps(p))
        assert copy._work == (None, None, None) and p._work[0] == x.shape
        assert copy.agent_gradients(x).tobytes() == want.tobytes()

    def test_retraction_normalizes(self, ica4, rng):
        x = rng.standard_normal((5, 4)) * 3
        assert np.allclose(np.linalg.norm(ica4.retract(x), axis=1), 1.0)

    def test_retraction_equals_norm_form(self, ica4, rng):
        # each row over its own norm, the root of the row's dot with itself
        for shape, scale in (((5, 4), 3.0), ((7, 5, 4), 1e-150), ((2, 3, 5, 4), 1e150)):
            x = rng.standard_normal(shape) * scale
            want = np.array([row / np.linalg.norm(row) for row in x.reshape(-1, 4)])
            got = ica4.retract(x)
            assert got is x  # in place: the kernel hands retract a fresh state
            assert got.tobytes() == want.reshape(shape).tobytes()

    @pytest.mark.parametrize("d", [2, 4, 10])
    def test_stacked_gradients_match_agent_gradient(self, d, rng):
        p = make_ica_problem(d=d, m=5, samples_per_agent=48, seed=d)
        x = p.retract(rng.standard_normal((3, p.m, d)))
        got = p.agent_gradients(x)
        want = np.array([[_ica_gradient(p, j, row[j]) for j in range(p.m)] for row in x])
        assert got.shape == x.shape
        assert np.allclose(got, want, rtol=0.0, atol=1e-14)
        assert np.array_equal(got[1], p.agent_gradients(x[1]))
