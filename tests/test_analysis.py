from __future__ import annotations

import numpy as np
import pytest

from dpdgd import analysis, optimizer
from dpdgd.analysis import (
    AnalysisError,
    assert_contraction,
    escape_distances,
    min_eigvec,
    mirror_noise,
    run_coupling_experiment,
)
from dpdgd.optimizer import (
    RunConfig,
    StepsizeSchedule,
    mixing_update,
    polish_fixed_point,
    row_metrics,
    run,
    stepsize,
)
from dpdgd.problems import QuadraticProblem, make_ica_problem
from dpdgd.topology import build_metropolis_weights, builtin_topology

from blas import KERNEL_FLAGS, run_on_kernel

PAPER_SCHEDULE = StepsizeSchedule("piecewise_paper", lambda0=0.02, switch_k=500, scale=1.0)


def consensus_error(x):
    """The consensus error the kernel records for the (m, d) state x, which
    the contraction check reads."""
    m, d = x.shape
    return row_metrics(QuadraticProblem(diag=[1.0] * d, m=m), x[None])[0, 0]


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


class TestContraction:
    def _trace(self, paper_problem, rpc5, **kw):
        cfg = RunConfig(problem=paper_problem, weights=rpc5, schedule=PAPER_SCHEDULE,
                        noise_variance=kw.get("variance", 0.5),
                        iterations=kw.get("iterations", 150), seed=kw.get("seed", 13),
                        record_every=kw.get("record_every", 1))
        return run(cfg)

    def test_holds_on_valid_trace(self, paper_problem, rpc5):
        report = assert_contraction(self._trace(paper_problem, rpc5), rpc5)
        assert report.ok
        assert report.pairs_checked == 150

    def test_averaging_matrix_trivial(self, paper_problem, complete5):
        cfg = RunConfig(problem=paper_problem, weights=complete5, schedule=PAPER_SCHEDULE,
                        noise_variance=0.5, iterations=20, seed=1, record_every=1)
        report = assert_contraction(run(cfg), complete5)
        assert report.ok  # eta = 0: disagreement is wiped every step

    def test_corrupted_trace_reports_violation(self, paper_problem, rpc5):
        trace = self._trace(paper_problem, rpc5)
        trace.gn_norm[5] = 0.0
        report = assert_contraction(trace, rpc5)
        assert not report.ok
        assert report.violations[0].k == trace.k[5]

    def test_requires_dense_recording(self, paper_problem, rpc5):
        with pytest.raises(AnalysisError, match="needs consecutive iterations"):
            assert_contraction(self._trace(paper_problem, rpc5, record_every=2), rpc5)
        # the recorded consensus errors suffice: no per-agent states needed
        cfg = RunConfig(problem=paper_problem, weights=rpc5, schedule=PAPER_SCHEDULE,
                        noise_variance=0.5, iterations=10, seed=1, record_every=1)
        report = assert_contraction(run(cfg), rpc5)
        assert report.ok and report.pairs_checked == 10


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

    def test_block_call_equals_per_step_calls(self, paper_problem, rng):
        # the kernel mirrors a whole (K, R, m, d) noise block at once; each
        # step's slice must carry the bytes of a call on that step alone, in
        # the block's layout and in the streams' (R, m, K, d) layout
        e1 = min_eigvec(paper_problem.tangent_hessian(paper_problem.known_saddle())[1])
        fill = rng.standard_normal((6, 5, 7, 2))
        block = np.ascontiguousarray(fill.transpose(2, 0, 1, 3))
        mirrored = mirror_noise(block, e1)
        for k in range(7):
            assert mirrored[k].tobytes() == mirror_noise(block[k], e1).tobytes()
            assert mirrored[k].tobytes() == mirror_noise(fill[:, :, k], e1).tobytes()

    @staticmethod
    def _broadcast_mirror(n, e1):
        """The mirror in its broadcast form, before it was formed by coordinate."""
        return n - 2.0 * (n @ e1)[..., None] * e1

    @pytest.mark.parametrize("d", [2, 4, 10])
    def test_pair_block_is_the_stacked_form(self, paper_problem, ica4, complete5, rng,
                                            monkeypatch, d):
        # coupling's noise map completes a kernel-shaped (K, R, 2, m, d) block
        # in place: it writes the mirror of each pair's first half, a strided
        # view, into its second with the bits of the stacked form, whatever
        # the block's size, and calls mirror_noise once per block. At d = 10
        # the n @ e1 product is where bits could move
        problem = {2: paper_problem, 4: ica4}.get(d) or make_ica_problem(10, 5, 160, 99)
        maps = []

        def kernel(*args, noise_map):
            maps.append(noise_map)
            return None, [None] * len(args[2])

        monkeypatch.setattr(optimizer, "lockstep", kernel)
        e1 = run_coupling_experiment(problem, complete5, problem.known_saddle(), PAPER_SCHEDULE,
                                     variance=0.5, runs=2, horizon=1, escape_radius=0.5,
                                     seed=1).e1
        calls = []
        monkeypatch.setattr(analysis, "mirror_noise",
                            lambda *a, **kw: calls.append(1) or mirror_noise(*a, **kw))
        shapes = ((1, 1, 5, d), (7, 3, 5, d), (32, 200, 5, d), (5, 4, 16, d))
        for shape in shapes:
            n = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
            block = np.full((*shape[:2], 2, *shape[2:]), np.nan)
            block[:, :, 0] = n
            maps[0](block)
            want = np.stack([n, self._broadcast_mirror(n, e1)], axis=-3)
            assert block.tobytes() == want.tobytes(), shape
        assert len(calls) == len(shapes)

    @pytest.mark.parametrize("d", [2, 10])
    def test_written_into_a_strided_half(self, rng, d):
        e1 = rng.standard_normal(d)
        e1 /= np.linalg.norm(e1)
        n = rng.standard_normal((6, 4, 5, d))
        out = np.full((6, 4, 2, 5, d), np.nan)
        assert mirror_noise(n, e1, out=out[:, :, 1]) is not None
        assert out[:, :, 1].tobytes() == self._broadcast_mirror(n, e1).tobytes()
        assert np.isnan(out[:, :, 0]).all()  # the other half is left alone
        assert mirror_noise(n, e1).tobytes() == self._broadcast_mirror(n, e1).tobytes()

    def test_one_step_difference_is_mixed_mirrored_noise(self, paper_problem, complete5, rng):
        # first-step hand expansion: x'1 - x''1 = -lam * W (N' - N'')
        saddle = paper_problem.known_saddle()
        x0 = np.tile(saddle, (5, 1))
        e1 = min_eigvec(paper_problem.tangent_hessian(saddle)[1])
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
            paper_problem, complete5, paper_problem.known_saddle(), PAPER_SCHEDULE,
            variance=0.0, runs=3, horizon=400, escape_radius=0.5, seed=77,
        )
        assert res.escape_count == 0
        assert res.iterations_to_escape == [None, None, None]

    def test_zero_variance_builds_no_stream(self, paper_problem, complete5, monkeypatch):
        # the pairs' keys are computed, but a scale of 0 builds no stream from them
        def unbuilt(key):
            raise AssertionError("stream built")

        monkeypatch.setattr(optimizer, "philox", unbuilt)
        res = run_coupling_experiment(
            paper_problem, complete5, paper_problem.known_saddle(), PAPER_SCHEDULE,
            variance=0.0, runs=3, horizon=100, escape_radius=0.5, seed=77,
        )
        assert res.iterations_to_escape == [None, None, None]

    def test_noise_escapes_quickly(self, paper_problem, complete5):
        res = run_coupling_experiment(
            paper_problem, complete5, paper_problem.known_saddle(), PAPER_SCHEDULE,
            variance=0.5, runs=10, horizon=1000, escape_radius=0.5, seed=42,
        )
        assert res.escape_count == 10
        assert all(it is not None and it < 400 for it in res.iterations_to_escape)
        assert np.linalg.norm(res.e1) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_non_saddle_start(self, paper_problem, complete5):
        with pytest.raises(AnalysisError, match="the coupling start is not a strict saddle: "
                                                "it classifies as 'minimum'"):
            run_coupling_experiment(
                paper_problem, complete5, paper_problem.reference_minimum(), PAPER_SCHEDULE,
                variance=0.5, runs=2, horizon=100, escape_radius=0.5, seed=1,
            )

    @pytest.mark.parametrize("runs, radius", [(0, 0.5), (2, -1.0), (2, 0.0),
                                              (2, float("nan")), (2, float("inf"))])
    def test_rejects_bad_bounds(self, paper_problem, complete5, runs, radius):
        with pytest.raises(AnalysisError):
            run_coupling_experiment(
                paper_problem, complete5, paper_problem.known_saddle(), PAPER_SCHEDULE,
                variance=0.5, runs=runs, horizon=100, escape_radius=radius, seed=1,
            )

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_rejects_horizon_below_one(self, paper_problem, complete5, horizon):
        # no step would run, and every pair would read as censored
        with pytest.raises(AnalysisError):
            run_coupling_experiment(
                paper_problem, complete5, paper_problem.known_saddle(), PAPER_SCHEDULE,
                variance=0.5, runs=2, horizon=horizon, escape_radius=0.5, seed=1,
            )

    def test_ica_pairs_escape_along_a_tangent_e1(self, ica4, complete5):
        # from ICA's refined k = 2 saddle on the sphere: e1 is a unit tangent
        # vector, no pair escapes without noise, and a pair's escape does not
        # depend on how many pairs run beside it
        saddle = ica4.known_saddle()
        schedule = StepsizeSchedule("piecewise_paper", lambda0=0.003, switch_k=100, scale=0.3)
        kw = dict(horizon=3000, escape_radius=0.5, seed=7)
        quiet = run_coupling_experiment(ica4, complete5, saddle, schedule, variance=0.0, runs=3,
                                        **kw)
        assert quiet.iterations_to_escape == [None] * 3
        assert np.linalg.norm(quiet.e1) == pytest.approx(1.0, abs=1e-12)
        assert abs(quiet.e1 @ saddle) <= 1e-12
        few, many = (run_coupling_experiment(ica4, complete5, saddle, schedule, variance=1.0,
                                             runs=runs, **kw) for runs in (3, 40))
        assert few.iterations_to_escape == many.iterations_to_escape[:3] == [299, 330, 1257]
        assert np.array_equal(few.e1, quiet.e1) and many.escape_count == 40

    # the escape iterations of a short ICA d = 10 coupling, which every
    # OpenBLAS kernel gives; ICA10_COUPLING is that run as a script, for a
    # subprocess on another kernel
    ICA10_ESCAPES = [675, 470, 385, 462, 277, 554, 411, 447, 725, 337, 468, 432]
    ICA10_COUPLING = (
        "from dpdgd.analysis import run_coupling_experiment\n"
        "from dpdgd.optimizer import StepsizeSchedule\n"
        "from dpdgd.problems import make_ica_problem\n"
        "from dpdgd.topology import build_metropolis_weights, builtin_topology\n"
        "p = make_ica_problem(10, 5, 160, 99)\n"
        "res = run_coupling_experiment(\n"
        "    p, build_metropolis_weights(builtin_topology('complete', 5)), p.known_saddle(),\n"
        "    StepsizeSchedule('piecewise_paper', lambda0=0.003, switch_k=100, scale=0.3),\n"
        "    variance=1.0, runs=12, horizon=1000, escape_radius=0.5, seed=7)\n"
        "print(*res.iterations_to_escape)\n"
    )

    def test_ica_d10_escapes_pinned(self, complete5):
        # at d = 10 the mirror's n @ e1 and the ICA gradient are BLAS products
        p = make_ica_problem(10, 5, 160, 99)
        res = run_coupling_experiment(
            p, complete5, p.known_saddle(),
            StepsizeSchedule("piecewise_paper", lambda0=0.003, switch_k=100, scale=0.3),
            variance=1.0, runs=12, horizon=1000, escape_radius=0.5, seed=7)
        assert res.iterations_to_escape == self.ICA10_ESCAPES

    @pytest.mark.parametrize("kernel", sorted(KERNEL_FLAGS))
    def test_ica_d10_escapes_pinned_on_other_blas_kernels(self, kernel):
        hits = run_on_kernel(self.ICA10_COUPLING, kernel).split()
        assert list(map(int, hits)) == self.ICA10_ESCAPES

    def test_deterministic(self, paper_problem, complete5):
        kw = dict(variance=0.5, runs=4, horizon=600, escape_radius=0.5, seed=9)
        a = run_coupling_experiment(paper_problem, complete5,
                                    paper_problem.known_saddle(), PAPER_SCHEDULE, **kw)
        b = run_coupling_experiment(paper_problem, complete5,
                                    paper_problem.known_saddle(), PAPER_SCHEDULE, **kw)
        assert a.iterations_to_escape == b.iterations_to_escape


    def test_batch_matches_pairs_one_at_a_time(self, paper_problem, complete5):
        # the per-pair loop restated: pair r draws from streams keyed
        # (seed, 3, r, j) and escapes when either mean leaves the ball
        saddle = paper_problem.known_saddle()
        seed, horizon, radius, sig = 17, 600, 0.5, np.sqrt(0.5)
        e1 = min_eigvec(paper_problem.tangent_hessian(saddle)[1])
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


class TestEscapeTest:
    LEADING = [(), (1,), (3,), (1, 2), (7, 2), (200, 2)]

    def _states(self, rng, lead, m, d):
        """Standard normal states scaled entry by entry to magnitudes from 1e-8 to 1e8."""
        shape = lead + (m, d)
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)

    @pytest.mark.parametrize("m, d", [(5, 2), (20, 2), (50, 10), (2, 2), (16, 2), (50, 2),
                                      (2, 10), (5, 10), (16, 10), (20, 10)])
    def test_escape_distances_are_the_old_formula(self, rng, m, d):
        # the escape test before it was unwrapped, restated; it pins the bits
        # of the agents' mean, x.mean(axis=-2), at every m and d listed
        for lead in self.LEADING:
            x, saddle = self._states(rng, lead, m, d), rng.standard_normal(d)
            want = np.linalg.norm(x.mean(axis=-2) - saddle, axis=-1)
            assert escape_distances(x, saddle).tobytes() == want.tobytes(), lead

    @pytest.mark.parametrize("d", range(1, 13))
    def test_every_width_gives_the_slice_sums(self, rng, d):
        # the escape test as it was before it went coordinate-major, restated:
        # agent slices added in order, divided by m, the saddle subtracted,
        # and the squares reduced along each row. numpy's row reduction adds
        # in order below 8 entries and pairwise from 8 on, so every width
        # from 1 to 12 is compared; signed zeros included
        for m in (1, 2, 9):
            for lead in ((), (1,), (7, 2), (200, 2)):
                x = self._states(rng, lead, m, d)
                x[rng.random(x.shape) < 0.1] = -0.0
                saddle = rng.standard_normal(d)
                saddle[rng.random(d) < 0.2] = 0.0
                v = x[..., 0, :].copy()
                for j in range(1, m):
                    v += x[..., j, :]
                v /= m
                v -= saddle
                want = np.sqrt(np.add.reduce(v * v, axis=-1))
                assert escape_distances(x, saddle).tobytes() == want.tobytes(), (m, lead)

    def test_escape_distances_leave_the_state_alone(self, rng):
        x = self._states(rng, (4, 2), 5, 2)
        before = x.copy()
        escape_distances(x, np.zeros(2))
        assert x.tobytes() == before.tobytes()


class TestCouplingBatchInvariance:
    """A pair's escape iteration does not depend on how many pairs share its
    lockstep batch, at the sizes the commands run. This guards every stacked
    product of the step, the per-run mixing W @ x among them: a single
    (m, m) @ (m, R d) product is not batch-invariant at m >= 16."""

    @pytest.mark.parametrize("case", ["estimation_complete5", "quadratic_ring20"])
    def test_pair_escapes_where_it_escapes_alone(self, paper_problem, complete5, case):
        if case == "estimation_complete5":
            problem, w = paper_problem, complete5
        else:
            problem = QuadraticProblem(diag=[1.0, -0.5], m=20)
            w = build_metropolis_weights(builtin_topology("ring", 20))
        hits = {
            runs: run_coupling_experiment(problem, w, problem.known_saddle(), PAPER_SCHEDULE,
                                          variance=0.5, runs=runs, horizon=3000,
                                          escape_radius=0.5, seed=2024).iterations_to_escape
            for runs in (1, 7, 200)
        }
        assert hits[200][:7] == hits[7]
        assert hits[200][:1] == hits[1]
        # every pair escapes, at many different iterations, so that the batch
        # shrinks through many stops
        assert None not in hits[200]
        assert len(set(hits[200])) >= 40


class TestEscapeGrid:
    def test_larger_stepsize_escapes_no_slower(self, paper_problem, complete5):
        # the escape time scales like 1/lambda up to logs; stepsize index si
        # runs on the seed derived from (5, 4, 0, si)
        saddle = paper_problem.known_saddle()
        med = {}
        for si, lam in enumerate([0.01, 0.02]):
            seed = int(np.random.SeedSequence((5, 4, 0, si)).generate_state(1)[0])
            res = run_coupling_experiment(
                paper_problem, complete5, saddle, StepsizeSchedule("constant", lambda0=lam),
                variance=0.5, runs=10, horizon=1500, escape_radius=0.5, seed=seed,
            )
            med[lam] = np.median([np.inf if it is None else it for it in res.iterations_to_escape])
        assert np.isfinite(med[0.01]) and np.isfinite(med[0.02])
        # doubling the stable stepsize must not slow escape by more than 1.5x
        assert med[0.02] <= 1.5 * med[0.01]
