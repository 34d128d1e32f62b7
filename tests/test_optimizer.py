from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from dpdgd import optimizer
from dpdgd.optimizer import (
    AgentState,
    InvalidConfig,
    NoiseSpec,
    NonFiniteState,
    RECORD_CHUNK,
    RunConfig,
    StepsizeSchedule,
    TraceRecord,
    init_rng,
    lockstep,
    noise_streams,
    philox_streams,
    polish_fixed_point,
    resolve_at_saddle_init,
    row_metrics,
    run,
    run_batch,
    step,
    stepsize,
    stepsizes,
    stream_keys,
)
from dpdgd.problems import QuadraticProblem
from dpdgd.topology import build_metropolis_weights, builtin_topology, validate_weight_matrix

PAPER_SCHEDULE = StepsizeSchedule.piecewise_paper(0.02, 500, 1.0)


def _records_equal(a, b):
    if len(a.records) != len(b.records):
        return False
    for ra, rb in zip(a.records, b.records):
        for f in ("k", "lam", "consensus_error", "opt_error_mean", "opt_error_max",
                  "noise_norm", "gn_norm"):
            if getattr(ra, f) != getattr(rb, f):
                return False
    return np.array_equal(a.final_state.x, b.final_state.x)


class TestStepsize:
    def test_paper_schedule_values(self):
        assert stepsize(PAPER_SCHEDULE, 100) == 0.02
        assert stepsize(PAPER_SCHEDULE, 500) == 0.02
        assert stepsize(PAPER_SCHEDULE, 1000) == 0.001

    def test_constant(self):
        s = StepsizeSchedule.constant(0.003)
        assert all(stepsize(s, k) == 0.003 for k in (0, 1, 7, 10**6))

    def test_harmonic_clamps_zero(self):
        s = StepsizeSchedule.harmonic(0.5)
        assert stepsize(s, 0) == 0.5
        assert stepsize(s, 10) == 0.05

    def test_non_increasing_over_horizon(self):
        for s in (PAPER_SCHEDULE, StepsizeSchedule.harmonic(2.0),
                  StepsizeSchedule.piecewise_paper(0.003, 100, 0.3)):
            lams = [stepsize(s, k) for k in range(1, 2000)]
            assert all(a >= b for a, b in zip(lams[:-1], lams[1:]))

    def test_vector_form_equals_scalar(self):
        ks = np.r_[0:1100, 2940:2960, 10**6]
        for s in (StepsizeSchedule.constant(0.003), StepsizeSchedule.harmonic(0.7),
                  PAPER_SCHEDULE, StepsizeSchedule.piecewise_paper(0.003, 100, 0.3)):
            lams = stepsizes(s, ks)
            assert lams.dtype == np.float64
            assert lams.tolist() == [stepsize(s, int(k)) for k in ks]

    def test_rejects_increasing_switch(self):
        with pytest.raises(InvalidConfig):
            StepsizeSchedule.piecewise_paper(0.001, 100, 1.0)

    def test_rejects_bad_kind_and_params(self):
        with pytest.raises(InvalidConfig):
            StepsizeSchedule(kind="geometric", lambda0=0.1)
        with pytest.raises(InvalidConfig):
            StepsizeSchedule.constant(0.0)
        with pytest.raises(InvalidConfig):
            stepsize(PAPER_SCHEDULE, -1)
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidConfig):
                StepsizeSchedule.constant(bad)
            with pytest.raises(InvalidConfig):
                StepsizeSchedule.harmonic(bad)
            with pytest.raises(InvalidConfig):
                StepsizeSchedule.piecewise_paper(0.02, 500, bad)

    def test_noise_spec_rejects_negative(self):
        with pytest.raises(InvalidConfig):
            NoiseSpec(variance=-0.1)


class TestStep:
    def test_fixed_point_at_optimum(self):
        q = QuadraticProblem(diag=[1.0, 1.0], m=2)
        w = validate_weight_matrix([[0.5, 0.5], [0.5, 0.5]])
        state = AgentState(x=np.zeros((2, 2)), k=0)
        out = step(state, w, q, StepsizeSchedule.constant(0.05), NoiseSpec(0.0, seed=1))
        assert np.array_equal(out.x, state.x)
        assert out.k == 1

    def test_single_agent_is_gradient_descent(self):
        q = QuadraticProblem(diag=[1.0, 2.0], m=1, offsets=[[1.0, -1.0]])
        w = validate_weight_matrix([[1.0]])
        cfg = RunConfig(problem=q, weights=w, schedule=StepsizeSchedule.constant(0.1),
                        noise_variance=0.0, iterations=50, seed=3,
                        init_mode="explicit", init_coords=np.array([[2.0, 2.0]]))
        trace = run(cfg)
        x = np.array([2.0, 2.0])
        for k in range(50):
            x = np.array([[1.0]]) @ (x[None, :] - 0.1 * 2.0 * q.c * (x - q.offsets[0]))
            x = x[0]
        assert np.array_equal(trace.final_state.x[0], x)

    def test_one_step_matches_kronecker_oracle(self, rng):
        m, d = 4, 3
        q = QuadraticProblem(diag=[0.5, 1.0, 1.5], m=m, offsets=rng.standard_normal((m, d)))
        w = build_metropolis_weights(builtin_topology("ring", m))
        x = rng.standard_normal((m, d))
        state = AgentState(x=x.copy(), k=0)
        lam = 0.07
        out = step(state, w, q, StepsizeSchedule.constant(lam), NoiseSpec(0.0, seed=0))
        g = q.agent_gradients(x)
        stacked = np.kron(w.w, np.eye(d)) @ (x - lam * g).ravel()
        assert np.abs(out.x.ravel() - stacked).max() <= 1e-12

    def test_noisy_step_uses_agent_streams(self):
        # same seed, same k: step() and a manual draw agree
        q = QuadraticProblem(diag=[1.0], m=3)
        w = build_metropolis_weights(builtin_topology("complete", 3))
        state = AgentState(x=np.ones((3, 1)), k=0)
        noise = NoiseSpec(variance=0.25, seed=77)
        out = step(state, w, q, StepsizeSchedule.constant(0.1), noise)
        rngs = noise_streams(77, 3)
        n = np.stack([r.standard_normal(1) for r in rngs]) * 0.5
        g = q.agent_gradients(state.x)
        expected = w.w @ (state.x - 0.1 * (g + n))
        assert np.array_equal(out.x, expected)


class TestRun:
    def test_record_row_pattern(self, paper_problem, rpc5):
        cfg = RunConfig(problem=paper_problem, weights=rpc5, schedule=PAPER_SCHEDULE,
                        noise_variance=0.5, iterations=100, seed=5, record_every=7)
        trace = run(cfg)
        ks = [rec.k for rec in trace.records]
        assert ks == [0] + [k for k in range(1, 101) if k % 7 == 0] + [100]

    def test_determinism_bitwise(self, paper_problem, rpc5):
        cfg = dict(problem=paper_problem, weights=rpc5, schedule=PAPER_SCHEDULE,
                   noise_variance=0.5, iterations=200, seed=123, record_every=10)
        assert _records_equal(run(RunConfig(**cfg)), run(RunConfig(**cfg)))

    def test_seed_changes_trajectory(self, paper_problem, rpc5):
        base = dict(problem=paper_problem, weights=rpc5, schedule=PAPER_SCHEDULE,
                    noise_variance=0.5, iterations=50, record_every=50)
        a = run(RunConfig(seed=1, **base))
        b = run(RunConfig(seed=2, **base))
        assert not np.array_equal(a.final_state.x, b.final_state.x)

    def test_mean_dynamics_identity(self, paper_problem, rpc5):
        # the agent mean follows x_mean <- x_mean - lambda * mean(g + n)
        cfg = RunConfig(problem=paper_problem, weights=rpc5, schedule=PAPER_SCHEDULE,
                        noise_variance=0.5, iterations=120, seed=9,
                        record_every=1, record_state=True)
        trace = run(cfg)
        for prev, cur in zip(trace.records[:-1], trace.records[1:]):
            predicted = prev.x.mean(axis=0) - cur.lam * cur.mean_gn
            assert np.abs(cur.x.mean(axis=0) - predicted).max() <= 1e-10

    def test_explicit_init_broadcast(self, paper_problem, rpc5):
        cfg = RunConfig(problem=paper_problem, weights=rpc5, schedule=PAPER_SCHEDULE,
                        noise_variance=0.0, iterations=1, seed=0,
                        init_mode="explicit", init_coords=np.array([1.0, 1.0]))
        trace = run(cfg)
        assert trace.records[0].consensus_error == 0.0

    def test_invalid_configs(self, paper_problem, rpc5):
        with pytest.raises(InvalidConfig):
            RunConfig(problem=paper_problem, weights=rpc5, schedule=PAPER_SCHEDULE,
                      noise_variance=0.5, iterations=0, seed=0)
        with pytest.raises(InvalidConfig):
            RunConfig(problem=paper_problem, weights=rpc5, schedule=PAPER_SCHEDULE,
                      noise_variance=0.5, iterations=10, seed=0, record_every=0)
        w3 = build_metropolis_weights(builtin_topology("ring", 3))
        with pytest.raises(InvalidConfig):
            RunConfig(problem=paper_problem, weights=w3, schedule=PAPER_SCHEDULE,
                      noise_variance=0.5, iterations=10, seed=0)

    @pytest.mark.parametrize("coords", [None, [1.0, 2.0, 3.0], [[1.0, 2.0]] * 4,
                                        [np.nan, 1.0], [[1.0, np.inf]] * 5])
    def test_rejects_bad_explicit_coords(self, paper_problem, rpc5, coords):
        with pytest.raises(InvalidConfig):
            RunConfig(problem=paper_problem, weights=rpc5, schedule=PAPER_SCHEDULE,
                      noise_variance=0.5, iterations=10, seed=0, init_mode="explicit",
                      init_coords=coords)

    def test_divergence_raises_with_iteration(self):
        q = QuadraticProblem(diag=[8.0], m=2)
        w = build_metropolis_weights(builtin_topology("complete", 2))
        cfg = RunConfig(problem=q, weights=w, schedule=StepsizeSchedule.constant(0.9),
                        noise_variance=0.0, iterations=5000, seed=0,
                        init_mode="explicit", init_coords=np.array([1.0]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteState) as err:
                run(cfg)
        assert err.value.iteration > 0
        # a sweep worker's error reaches the parent pickled
        copy = pickle.loads(pickle.dumps(err.value))
        assert copy.iteration == err.value.iteration
        assert str(copy) == str(err.value) == f"non-finite state at iteration {copy.iteration}"

    def test_single_agent_harmonic_converges(self):
        q = QuadraticProblem(diag=[1.0, 1.0], m=1)
        w = validate_weight_matrix([[1.0]])
        cfg = RunConfig(problem=q, weights=w, schedule=StepsizeSchedule.harmonic(0.45),
                        noise_variance=0.0, iterations=10_000, seed=0,
                        init_mode="explicit", init_coords=np.array([1.0, 1.0]),
                        record_every=10_000)
        trace = run(cfg)
        assert trace.records[-1].opt_error_mean <= 1e-3


class TestNoiseStatistics:
    def test_moments(self):
        variance = 0.7
        rngs = noise_streams(2024, 2)
        draws = np.concatenate([rngs[0].standard_normal(50_000),
                                rngs[1].standard_normal(50_000)]) * np.sqrt(variance)
        n = draws.size
        assert abs(draws.mean()) <= 4.0 * np.sqrt(variance) / np.sqrt(n)
        assert abs(draws.var() - variance) <= 0.05 * variance

    def test_streams_depend_only_on_seed_and_agent(self):
        a = noise_streams(5, 3)[1].standard_normal(4)
        b = noise_streams(5, 7)[1].standard_normal(4)
        assert np.array_equal(a, b)

    def test_zero_variance_consumes_no_draws(self, paper_problem, rpc5):
        cfg = dict(problem=paper_problem, weights=rpc5, schedule=PAPER_SCHEDULE,
                   noise_variance=0.0, iterations=20, record_every=20)
        a = run(RunConfig(seed=1, **cfg))
        b = run(RunConfig(seed=2, **cfg))
        # same random_box init seed differs, so fix init explicitly
        cfg["init_mode"] = "explicit"
        cfg["init_coords"] = np.array([1.0, 1.0])
        a = run(RunConfig(seed=1, **cfg))
        b = run(RunConfig(seed=2, **cfg))
        assert np.array_equal(a.final_state.x, b.final_state.x)


def _seed_sequence_stream(*key):
    """A stream built the way numpy documents: Philox seeded by a SeedSequence."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


class TestPhiloxKeys:
    """`stream_keys` restates numpy's SeedSequence in one vectorized pass."""

    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]

    def test_keys_match_seed_sequence(self):
        rng = np.random.default_rng(0x5EED)
        seeds = self.SEEDS + rng.integers(0, 2**32, 40).tolist() + [
            int(s) for s in rng.integers(0, 2**64, 40, dtype=np.uint64)]
        checked = 0
        for seed in seeds:
            for width in range(5):  # with 64-bit seeds, up to 6 entropy words
                keys = rng.integers(0, 2**32, (30, width)).tolist()
                keys[0], keys[1] = [0] * width, [2**32 - 1] * width
                want = [np.random.SeedSequence((seed, *key)).generate_state(2, np.uint64)
                        for key in keys]
                assert np.array_equal(stream_keys(seed, keys), want), (seed, width)
                checked += len(keys)
        assert checked >= 10_000

    @pytest.mark.parametrize("seed", [2024, 2**64 - 1])
    def test_streams_draw_what_seed_sequence_streams_draw(self, seed):
        coupling_keys = [(3, r, j) for r in range(40) for j in range(5)]  # (stream, pair, agent)
        for key, rng in zip(coupling_keys, philox_streams(seed, coupling_keys)):
            assert np.array_equal(rng.standard_normal(1000),
                                  _seed_sequence_stream(seed, *key).standard_normal(1000))
        for j, rng in enumerate(noise_streams(seed, 5)):
            assert np.array_equal(rng.standard_normal(1000),
                                  _seed_sequence_stream(seed, 1, j).standard_normal(1000))
        assert np.array_equal(init_rng(seed).uniform(-1.0, 1.0, 1000),
                              _seed_sequence_stream(seed, 2).uniform(-1.0, 1.0, 1000))

    @pytest.mark.parametrize("seed, keys", [
        (1, [(2**32,)]), (1, [(0, 2**32 + 5)]), (1, [(2**70,)]), (1, [(-1,)]), (1, [(0.5,)]),
        (-1, [(0,)]),
    ])
    def test_out_of_range_entries_raise(self, seed, keys):
        # SeedSequence splits an entry >= 2**32 into more words; keys take one word each
        with pytest.raises(ValueError):
            stream_keys(seed, keys)


class TestSaddleInit:
    def test_polished_saddle_is_frozen_on_complete_graph(self, paper_problem, complete5):
        theta = resolve_at_saddle_init(paper_problem, complete5, PAPER_SCHEDULE)
        # one noise-free step reproduces the state bitwise
        state = AgentState(x=np.tile(theta, (5, 1)), k=0)
        out = step(state, complete5, paper_problem, PAPER_SCHEDULE, NoiseSpec(0.0, seed=0))
        assert np.array_equal(out.x, state.x)
        # still a refined stationary point
        assert np.linalg.norm(paper_problem.aggregated_gradient(theta)) <= 1e-10

    def test_heterogeneous_topology_returns_newton_point(self, paper_problem, rpc5):
        theta = resolve_at_saddle_init(paper_problem, rpc5, PAPER_SCHEDULE)
        assert np.array_equal(theta, paper_problem.refined_saddle())

    def test_polish_noop_when_already_fixed(self, complete5, paper_problem):
        theta = paper_problem.refined_saddle()
        polished = polish_fixed_point(paper_problem, complete5, 0.02, theta)
        assert np.linalg.norm(polished - theta) <= 1e-12

    def test_zero_variance_control_stays_short_horizon(self, paper_problem, complete5):
        cfg = RunConfig(problem=paper_problem, weights=complete5, schedule=PAPER_SCHEDULE,
                        noise_variance=0.0, iterations=600, seed=4,
                        init_mode="at_saddle", record_every=1, record_state=True)
        trace = run(cfg)
        saddle = trace.records[0].x[0]
        dev = max(np.linalg.norm(r.x - saddle, axis=1).max() for r in trace.records)
        assert dev <= 1e-9


class TestLockstep:
    def _configs(self, problem, weights, schedule, seeds, variances, **kw):
        base = RunConfig(problem=problem, weights=weights, schedule=schedule,
                         noise_variance=variances[0], iterations=kw.pop("iterations", 150),
                         seed=seeds[0], record_every=kw.pop("record_every", 20), **kw)
        return [dataclasses.replace(base, seed=s, noise_variance=v)
                for s, v in zip(seeds, variances)]

    def _assert_slices_match_single_runs(self, configs):
        batch = run_batch(configs)
        for config, trace in zip(configs, batch):
            assert _records_equal(trace, run(config))

    def test_estimation_batch_slices_match_single_runs(self, paper_problem, rpc5):
        self._assert_slices_match_single_runs(
            self._configs(paper_problem, rpc5, PAPER_SCHEDULE, [3, 4, 5, 6], [0.1, 0.5, 0.0, 2.0])
        )

    def test_ica_batch_slices_match_single_runs(self, ica4, rpc5):
        self._assert_slices_match_single_runs(
            self._configs(ica4, rpc5, StepsizeSchedule.piecewise_paper(0.003, 100, 0.3),
                          [11, 12, 13], [1.0, 0.5, 1.0], record_every=30)
        )

    def test_quadratic_batch_slices_match_single_runs(self, rng):
        q = QuadraticProblem(diag=[0.5, 1.0, 1.5], m=4, offsets=rng.standard_normal((4, 3)))
        w = build_metropolis_weights(builtin_topology("ring", 4))
        configs = self._configs(q, w, StepsizeSchedule.constant(0.05), [1, 2, 3, 4, 5],
                                [0.3, 0.3, 0.0, 1.0, 0.7], record_state=True, record_every=7)
        self._assert_slices_match_single_runs(configs)

    def test_block_size_does_not_change_trajectories(self, paper_problem, rpc5, monkeypatch):
        x0 = np.stack([paper_problem.sample_init(init_rng(s)) for s in (1, 2, 3)])

        def final(block):
            monkeypatch.setattr(optimizer, "NOISE_BLOCK", block)
            out = lockstep(paper_problem, rpc5.w, x0, PAPER_SCHEDULE, 200,
                           [noise_streams(s, 5) for s in (1, 2, 3)], [0.5, 1.0, 0.25],
                           record_every=9)
            return out.x, [[(r.k, r.noise_norm, r.opt_error_mean) for r in recs]
                           for recs in out.records]

        x_default, rows_default = final(optimizer.NOISE_BLOCK)
        for block in (1, 7):
            x_block, rows_block = final(block)
            assert np.array_equal(x_default, x_block)
            assert rows_default == rows_block

    def test_stopped_runs_leave_the_others_unchanged(self, paper_problem, rpc5):
        x0 = np.stack([paper_problem.sample_init(init_rng(s)) for s in (1, 2, 3)])

        def streams():
            return [noise_streams(s, 5) for s in (1, 2, 3)]

        free = lockstep(paper_problem, rpc5.w, x0, PAPER_SCHEDULE, 120, streams(), [0.5] * 3)
        # stop run 1 at k = 50 and run 0 at k = 80
        when = {50: [False, True, False], 80: [True, False]}
        stopped = lockstep(paper_problem, rpc5.w, x0, PAPER_SCHEDULE, 120, streams(), [0.5] * 3,
                           stop=lambda x, k: when.get(k, [False] * len(x)))
        assert stopped.stopped_at == [80, 50, None]
        assert np.array_equal(stopped.x[2], free.x[2])

    def test_run_batch_rejects_mixed_configs(self, paper_problem, rpc5):
        a = RunConfig(problem=paper_problem, weights=rpc5, schedule=PAPER_SCHEDULE,
                      noise_variance=0.5, iterations=10, seed=1)
        with pytest.raises(InvalidConfig):
            run_batch([a, dataclasses.replace(a, iterations=11)])

    def test_negative_variance_rejected(self, paper_problem, rpc5):
        with pytest.raises(InvalidConfig):
            RunConfig(problem=paper_problem, weights=rpc5, schedule=PAPER_SCHEDULE,
                      noise_variance=-0.5, iterations=10, seed=1)


def _restated_row(problem, x, k, lam, noise_norm, gn_norm, keep_state, mean_gn):
    """One trace row computed from its own state alone."""
    errs = problem.optimization_errors(x)
    return TraceRecord(
        k=k, lam=lam, consensus_error=float(np.linalg.norm(x - x.mean(axis=0))),
        opt_error_mean=float(errs.mean()), opt_error_max=float(errs.max()),
        noise_norm=noise_norm, gn_norm=gn_norm, x=x.copy() if keep_state else None,
        mean_gn=mean_gn,
    )


def _restated_run(problem, w, x, schedule, iterations, seed, variance, keep_state, stop_k=None):
    """One run's rows (record_every 1), one iteration and one row at a time."""
    rngs = noise_streams(seed, problem.m)
    rows = [_restated_row(problem, x, 0, stepsize(schedule, 1), 0.0, 0.0, keep_state, None)]
    for k in range(1, iterations + 1):
        lam = stepsize(schedule, k)
        n = np.array([rng.standard_normal(problem.d) for rng in rngs]) * np.sqrt(variance)
        gn = problem.agent_gradients(x) + n
        x = problem.retract(w @ (x - lam * gn))
        rows.append(_restated_row(problem, x, k, lam, float(np.linalg.norm(n)),
                                  float(np.linalg.norm(gn)), keep_state,
                                  gn.mean(axis=0) if keep_state else None))
        if k == stop_k:
            break
    return rows


def _same_rows(got, want):
    """Every TraceRecord field equal bit for bit (NaN included)."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for field in dataclasses.fields(TraceRecord):
            va, vb = getattr(a, field.name), getattr(b, field.name)
            assert (va is None) == (vb is None), field.name
            if va is not None:
                assert type(va) is type(vb), field.name
                assert np.asarray(va).tobytes() == np.asarray(vb).tobytes(), field.name


def _row_problems():
    from dpdgd.problems import make_ica_problem, make_paper_estimation_problem

    ica = make_ica_problem(d=4, m=5, samples_per_agent=40, seed=5)
    offsets = np.arange(10.0).reshape(5, 2) / 7
    return {
        "estimation": (make_paper_estimation_problem(), StepsizeSchedule.constant(0.02)),
        "quadratic": (QuadraticProblem([0.5, 1.5], m=5, offsets=offsets),
                      StepsizeSchedule.constant(0.05)),
        "saddle_quadratic": (QuadraticProblem([0.5, -1.5], m=5),  # no minimum: NaN errors
                             StepsizeSchedule.constant(0.05)),
        "ica": (ica, StepsizeSchedule.constant(0.01)),
    }


class TestDeferredRows:
    """The kernel keeps each recorded state and computes the row metrics after
    the loop, RECORD_CHUNK states at a time; the rows must equal the per-row
    formulas exactly."""

    @pytest.fixture(scope="class")
    def problems(self):
        return _row_problems()

    @pytest.mark.parametrize("name", ["estimation", "quadratic", "saddle_quadratic", "ica"])
    @pytest.mark.parametrize("n_states", [1, RECORD_CHUNK - 1, RECORD_CHUNK, RECORD_CHUNK + 1])
    def test_row_metrics_equal_one_state_at_a_time(self, problems, name, n_states, rng):
        problem = problems[name][0]
        xs = [problem.retract(rng.standard_normal((problem.m, problem.d)))
              for _ in range(n_states)]
        want = [_restated_row(problem, x, 0, 0.0, 0.0, 0.0, False, None) for x in xs]
        got = row_metrics(problem, xs)
        assert len(got) == n_states
        for (ce, mean, mx), row in zip(got, want):
            assert (np.array([ce, mean, mx]).tobytes()
                    == np.array([row.consensus_error, row.opt_error_mean,
                                 row.opt_error_max]).tobytes())

    @pytest.mark.parametrize("name", ["estimation", "quadratic", "saddle_quadratic", "ica"])
    @pytest.mark.parametrize("iterations", [1, RECORD_CHUNK - 2, RECORD_CHUNK - 1, RECORD_CHUNK])
    @pytest.mark.parametrize("keep_state", [False, True])
    def test_single_run_rows_equal_restatement(self, problems, rpc5, name, iterations,
                                               keep_state):
        # record_every 1 gives iterations + 1 rows: 2, chunk - 1, chunk and chunk + 1
        problem, schedule = problems[name]
        x0 = problem.sample_init(init_rng(3))
        out = lockstep(problem, rpc5.w, x0[None], schedule, iterations, [noise_streams(8, 5)],
                       [np.sqrt(0.3)], record_every=1, keep_state=keep_state)
        want = _restated_run(problem, rpc5.w, x0, schedule, iterations, 8, 0.3, keep_state)
        _same_rows(out.records[0], want)

    @pytest.mark.parametrize("name", ["estimation", "quadratic", "ica"])
    @pytest.mark.parametrize("keep_state", [False, True])
    def test_batch_with_early_stops_equals_restatement(self, problems, rpc5, name, keep_state):
        # 3 runs, 2 of them stopping early: 21 + 6 + 41 rows cross two chunk boundaries
        problem, schedule = problems[name]
        seeds = (21, 22, 23)
        x0 = np.stack([problem.sample_init(init_rng(s)) for s in seeds])
        when = {5: [False, True, False], 20: [True, False]}
        out = lockstep(problem, rpc5.w, x0, schedule, 40, [noise_streams(s, 5) for s in seeds],
                       [np.sqrt(0.5)] * 3, record_every=1, keep_state=keep_state,
                       stop=lambda x, k: when.get(k, [False] * len(x)))
        assert out.stopped_at == [20, 5, None]
        for r, (seed, stop_k) in enumerate(zip(seeds, out.stopped_at)):
            want = _restated_run(problem, rpc5.w, x0[r], schedule, 40, seed, 0.5, keep_state,
                                 stop_k)
            _same_rows(out.records[r], want)

    def test_sparse_rows_are_the_dense_rows(self, problems, rpc5):
        # record_every 7 over 40 iterations keeps k = 0, 7, ..., 35 and the last step
        problem, schedule = problems["estimation"]
        x0 = problem.sample_init(init_rng(4))[None]
        dense, sparse = (
            lockstep(problem, rpc5.w, x0, schedule, 40, [noise_streams(4, 5)], [0.7],
                     record_every=every).records[0]
            for every in (1, 7)
        )
        _same_rows(sparse, [row for row in dense if row.k % 7 == 0 or row.k == 40])
