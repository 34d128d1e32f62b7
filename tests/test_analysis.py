from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from dpdgd.analysis import (
    AnalysisError,
    MissingPerAgentData,
    NotAStrictSaddle,
    assert_contraction,
    compute_metrics,
    consensus_error,
    min_eigvec,
    mirror_noise,
    run_coupling_experiment,
)
from dpdgd.optimizer import (
    RunConfig,
    StepsizeSchedule,
    mixing_update,
    polish_fixed_point,
    run,
    stepsize,
)

PAPER_SCHEDULE = StepsizeSchedule.piecewise_paper(0.02, 500, 1.0)


class TestConsensusError:
    def test_identical_agents(self):
        assert consensus_error(np.ones((4, 3))) == 0.0

    def test_hand_computed(self):
        assert consensus_error(np.array([[0.0], [2.0]])) == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_matches_stacked_oracle(self, rng):
        x = rng.standard_normal((6, 3)) * 4
        xbar = x.mean(axis=0)
        oracle = np.linalg.norm((x - xbar[None, :]).ravel())
        assert abs(consensus_error(x) - oracle) <= 1e-12


class TestComputeMetrics:
    def test_rows_match_trace(self, paper_problem, rpc5):
        cfg = RunConfig(problem=paper_problem, weights=rpc5, schedule=PAPER_SCHEDULE,
                        noise_variance=0.5, iterations=30, seed=2,
                        record_every=10, record_state=True)
        trace = run(cfg)
        rows = compute_metrics(trace, paper_problem)
        for rec, row in zip(trace.records, rows):
            assert row.k == rec.k
            assert row.consensus_error == pytest.approx(rec.consensus_error, abs=1e-15)
            assert row.opt_error_mean == pytest.approx(rec.opt_error_mean, abs=1e-15)
            assert row.grad_norm_mean >= 0.0

    def test_rows_equal_trace_rows_exactly(self, ica4, rpc5):
        # one definition of the row metrics: the kernel's and compute_metrics' agree bit for bit
        cfg = RunConfig(problem=ica4, weights=rpc5, schedule=StepsizeSchedule.constant(0.01),
                        noise_variance=0.5, iterations=70, seed=3, record_every=1,
                        record_state=True)
        trace = run(cfg)
        rows = compute_metrics(trace, ica4)
        assert len(rows) == len(trace.records) == 71
        for rec, row in zip(trace.records, rows):
            assert (row.k, row.consensus_error, row.opt_error_mean, row.opt_error_max) == (
                rec.k, rec.consensus_error, rec.opt_error_mean, rec.opt_error_max)
            assert row.grad_norm_mean == float(
                np.linalg.norm(ica4.aggregated_gradient(rec.x.mean(axis=0))))

    def test_needs_states(self, paper_problem, rpc5):
        cfg = RunConfig(problem=paper_problem, weights=rpc5, schedule=PAPER_SCHEDULE,
                        noise_variance=0.5, iterations=10, seed=2, record_every=5)
        with pytest.raises(MissingPerAgentData):
            compute_metrics(run(cfg), paper_problem)


class TestContraction:
    def _trace(self, paper_problem, rpc5, **kw):
        cfg = RunConfig(problem=paper_problem, weights=rpc5, schedule=PAPER_SCHEDULE,
                        noise_variance=kw.get("variance", 0.5),
                        iterations=kw.get("iterations", 150), seed=kw.get("seed", 13),
                        record_every=kw.get("record_every", 1), record_state=True)
        return run(cfg)

    def test_holds_on_valid_trace(self, paper_problem, rpc5):
        report = assert_contraction(self._trace(paper_problem, rpc5), rpc5)
        assert report.ok
        assert report.pairs_checked == 150

    def test_averaging_matrix_trivial(self, paper_problem, complete5):
        cfg = RunConfig(problem=paper_problem, weights=complete5, schedule=PAPER_SCHEDULE,
                        noise_variance=0.5, iterations=20, seed=1,
                        record_every=1, record_state=True)
        report = assert_contraction(run(cfg), complete5)
        assert report.ok  # eta = 0: disagreement is wiped every step

    def test_corrupted_trace_reports_violation(self, paper_problem, rpc5):
        trace = self._trace(paper_problem, rpc5)
        trace.records[5] = dataclasses.replace(trace.records[5], gn_norm=0.0)
        report = assert_contraction(trace, rpc5)
        assert not report.ok
        assert report.violations[0].k == trace.records[5].k

    def test_requires_dense_recording(self, paper_problem, rpc5):
        with pytest.raises(MissingPerAgentData):
            assert_contraction(self._trace(paper_problem, rpc5, record_every=2), rpc5)
        cfg = RunConfig(problem=paper_problem, weights=rpc5, schedule=PAPER_SCHEDULE,
                        noise_variance=0.5, iterations=10, seed=1, record_every=1)
        with pytest.raises(MissingPerAgentData):
            assert_contraction(run(cfg), rpc5)


class TestMinEigvec:
    def test_picks_most_negative_direction(self):
        e1 = min_eigvec(np.diag([1.0, -2.0, 3.0]))
        assert np.allclose(np.abs(e1), [0.0, 1.0, 0.0])

    def test_sign_canonicalized(self):
        h = np.diag([-1.0, 5.0])
        e1 = min_eigvec(h)
        assert e1[0] > 0.0
        assert np.linalg.norm(e1) == pytest.approx(1.0, abs=1e-10)


class TestMirrorNoise:
    def test_flips_only_e1_component(self, rng):
        e1 = rng.standard_normal(3)
        e1 /= np.linalg.norm(e1)
        n = rng.standard_normal((5, 3))
        m = mirror_noise(n, e1)
        # e1 components negate, orthogonal components survive untouched
        assert np.abs(m @ e1 + n @ e1).max() <= 1e-12
        perp = (n - (n @ e1)[:, None] * e1[None, :]) - (m - (m @ e1)[:, None] * e1[None, :])
        assert np.abs(perp).max() <= 1e-12
        # the aggregate flips too
        assert np.abs(m.mean(0) @ e1 + n.mean(0) @ e1) <= 1e-12

    def test_one_step_difference_is_mixed_mirrored_noise(self, paper_problem, complete5, rng):
        # first-step hand expansion: x'1 - x''1 = -lam * W (N' - N'')
        saddle = paper_problem.refined_saddle()
        x0 = np.tile(saddle, (5, 1))
        e1 = min_eigvec(paper_problem.aggregated_hessian(saddle))
        n = rng.standard_normal((5, 2)) * 0.7
        lam = 0.02
        g = paper_problem.agent_gradients(x0)
        xa = mixing_update(complete5.w, x0, g + n, lam)
        xb = mixing_update(complete5.w, x0, g + mirror_noise(n, e1), lam)
        expected = -lam * complete5.w @ (n - mirror_noise(n, e1))
        assert np.abs((xa - xb) - expected).max() <= 1e-12


class TestCouplingExperiment:
    def test_zero_variance_never_escapes(self, paper_problem, complete5):
        res = run_coupling_experiment(
            paper_problem, complete5, paper_problem.refined_saddle(), PAPER_SCHEDULE,
            variance=0.0, runs=3, horizon=400, escape_radius=0.5, seed=77,
        )
        assert res.escape_count == 0
        assert res.iterations_to_escape == [None, None, None]

    def test_noise_escapes_quickly(self, paper_problem, complete5):
        res = run_coupling_experiment(
            paper_problem, complete5, paper_problem.refined_saddle(), PAPER_SCHEDULE,
            variance=0.5, runs=10, horizon=1000, escape_radius=0.5, seed=42,
        )
        assert res.escape_count == 10
        assert all(it is not None and it < 400 for it in res.iterations_to_escape)
        assert np.linalg.norm(res.e1) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_non_saddle_start(self, paper_problem, complete5):
        with pytest.raises(NotAStrictSaddle):
            run_coupling_experiment(
                paper_problem, complete5, paper_problem.refined_minimum(), PAPER_SCHEDULE,
                variance=0.5, runs=2, horizon=100, escape_radius=0.5, seed=1,
            )

    @pytest.mark.parametrize("runs, radius", [(0, 0.5), (2, -1.0), (2, 0.0),
                                              (2, float("nan")), (2, float("inf"))])
    def test_rejects_bad_bounds(self, paper_problem, complete5, runs, radius):
        with pytest.raises(AnalysisError):
            run_coupling_experiment(
                paper_problem, complete5, paper_problem.refined_saddle(), PAPER_SCHEDULE,
                variance=0.5, runs=runs, horizon=100, escape_radius=radius, seed=1,
            )

    def test_deterministic(self, paper_problem, complete5):
        kw = dict(variance=0.5, runs=4, horizon=600, escape_radius=0.5, seed=9)
        a = run_coupling_experiment(paper_problem, complete5,
                                    paper_problem.refined_saddle(), PAPER_SCHEDULE, **kw)
        b = run_coupling_experiment(paper_problem, complete5,
                                    paper_problem.refined_saddle(), PAPER_SCHEDULE, **kw)
        assert a.iterations_to_escape == b.iterations_to_escape


    def test_batch_matches_pairs_one_at_a_time(self, paper_problem, complete5):
        # the per-pair loop restated: pair r draws from streams keyed
        # (seed, 3, r, j) and escapes when either mean leaves the ball
        saddle = paper_problem.refined_saddle()
        seed, horizon, radius, sig = 17, 600, 0.5, np.sqrt(0.5)
        e1 = min_eigvec(paper_problem.aggregated_hessian(saddle))
        start = polish_fixed_point(paper_problem, complete5, 0.02, saddle)
        one_at_a_time = []
        for r in range(6):
            rngs = [np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 3, r, j))))
                    for j in range(5)]
            xa = np.tile(start, (5, 1))
            xb = xa.copy()
            hit = None
            for k in range(1, horizon + 1):
                lam = stepsize(PAPER_SCHEDULE, k)
                n = np.stack([rng.standard_normal(2) for rng in rngs]) * sig
                ga, gb = paper_problem.agent_gradients(xa), paper_problem.agent_gradients(xb)
                xa = mixing_update(complete5.w, xa, ga + n, lam)
                xb = mixing_update(complete5.w, xb, gb + mirror_noise(n, e1), lam)
                if (np.linalg.norm(xa.mean(axis=0) - saddle) > radius
                        or np.linalg.norm(xb.mean(axis=0) - saddle) > radius):
                    hit = k
                    break
            one_at_a_time.append(hit)
        res = run_coupling_experiment(paper_problem, complete5, saddle, PAPER_SCHEDULE,
                                      variance=0.5, runs=6, horizon=horizon,
                                      escape_radius=radius, seed=seed)
        assert res.iterations_to_escape == one_at_a_time
        assert None not in one_at_a_time


class TestEscapeGrid:
    def test_larger_stepsize_escapes_no_slower(self, paper_problem, complete5):
        # the escape time scales like 1/lambda up to logs; stepsize index si
        # runs on the seed derived from (5, 4, 0, si)
        saddle = paper_problem.refined_saddle()
        med = {}
        for si, lam in enumerate([0.01, 0.02]):
            seed = int(np.random.SeedSequence((5, 4, 0, si)).generate_state(1)[0])
            res = run_coupling_experiment(
                paper_problem, complete5, saddle, StepsizeSchedule.constant(lam), variance=0.5,
                runs=10, horizon=1500, escape_radius=0.5, seed=seed,
            )
            med[lam] = np.median([np.inf if it is None else it for it in res.iterations_to_escape])
        assert np.isfinite(med[0.01]) and np.isfinite(med[0.02])
        # doubling the stable stepsize must not slow escape by more than 1.5x
        assert med[0.02] <= 1.5 * med[0.01]
