from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from dpdgd import optimizer
from dpdgd.analysis import min_eigvec, mirror_noise
from dpdgd.optimizer import (
    InvalidConfig,
    NonFiniteState,
    RECORD_CHUNK,
    RunConfig,
    StepsizeSchedule,
    lockstep,
    philox,
    polish_fixed_point,
    row_metrics,
    run,
    run_batch,
    stepsize,
    stepsizes,
    stream_keys,
)
from dpdgd.problems import ProblemError, QuadraticProblem
from dpdgd.topology import build_metropolis_weights, builtin_topology, validate_weight_matrix

PAPER_SCHEDULE = StepsizeSchedule("piecewise_paper", lambda0=0.02, switch_k=500, scale=1.0)


def _seed_sequence_stream(*key):
    """A stream built the way numpy documents: Philox seeded by a SeedSequence."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def _agent_streams(seed, m):
    """The noise streams (seed, 1, j) of agents j < m."""
    return [_seed_sequence_stream(seed, 1, j) for j in range(m)]


def _one_step(problem, w, x, lam):
    """x after one noise-free lockstep iteration at stepsize lam."""
    return lockstep(problem, w.w, np.asarray(x, dtype=float)[None],
                    StepsizeSchedule("constant", lambda0=lam), 1, [None], [0.0])[0].final_state


def _saddle_init(problem, w):
    """Agent 0's initial point of an at_saddle run on the paper schedule."""
    config = RunConfig(problem=problem, weights=w, schedule=PAPER_SCHEDULE, noise_variance=0.0,
                       iterations=1, seed=0, init_mode="at_saddle")
    return optimizer._initial_state(config, None)[0]


COLUMNS = ("k", "lam", "consensus_error", "opt_error_mean", "opt_error_max", "noise_norm",
           "gn_norm", "x", "mean_gn")


def _records_equal(a, b):
    """Every column and the final state, dtype, shape and bytes, so that a NaN
    entry (the opt_error columns of a problem without a reference minimum)
    equals itself."""
    def same(u, v):
        return u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()

    return all(same(getattr(a, c), getattr(b, c)) for c in COLUMNS + ("final_state",))


class TestStepsize:
    def test_paper_schedule_values(self):
        assert stepsize(PAPER_SCHEDULE, 100) == 0.02
        assert stepsize(PAPER_SCHEDULE, 500) == 0.02
        assert stepsize(PAPER_SCHEDULE, 1000) == 0.001

    def test_constant(self):
        s = StepsizeSchedule("constant", lambda0=0.003)
        assert all(stepsize(s, k) == 0.003 for k in (0, 1, 7, 10**6))

    def test_harmonic_clamps_zero(self):
        s = StepsizeSchedule("harmonic", scale=0.5)
        assert stepsize(s, 0) == 0.5
        assert stepsize(s, 10) == 0.05

    def test_non_increasing_over_horizon(self):
        for s in (PAPER_SCHEDULE, StepsizeSchedule("harmonic", scale=2.0),
                  StepsizeSchedule("piecewise_paper", lambda0=0.003, switch_k=100, scale=0.3)):
            lams = [stepsize(s, k) for k in range(1, 2000)]
            assert all(a >= b for a, b in zip(lams[:-1], lams[1:]))

    def test_vector_form_equals_scalar(self):
        def restated(s, k):
            k = max(k, 1)
            if s.kind == "constant" or (s.kind == "piecewise_paper" and k <= s.switch_k):
                return s.lambda0
            return s.scale / k

        ks = np.r_[0:1100, 2940:2960, 10**6]
        for s in (StepsizeSchedule("constant", lambda0=0.003),
                  StepsizeSchedule("harmonic", scale=0.7), PAPER_SCHEDULE,
                  StepsizeSchedule("piecewise_paper", lambda0=0.003, switch_k=100, scale=0.3)):
            lams = stepsizes(s, ks)
            assert lams.dtype == np.float64
            assert lams.tolist() == [restated(s, int(k)) for k in ks]
            assert [stepsize(s, int(k)) for k in ks] == lams.tolist()

    def test_rejects_increasing_switch(self):
        with pytest.raises(InvalidConfig):
            StepsizeSchedule("piecewise_paper", lambda0=0.001, switch_k=100, scale=1.0)

    def test_rejects_bad_kind_and_params(self):
        with pytest.raises(InvalidConfig):
            StepsizeSchedule(kind="geometric", lambda0=0.1)
        with pytest.raises(InvalidConfig):
            StepsizeSchedule("constant", lambda0=0.0)
        with pytest.raises(InvalidConfig):
            stepsize(PAPER_SCHEDULE, -1)
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidConfig):
                StepsizeSchedule("constant", lambda0=bad)
            with pytest.raises(InvalidConfig):
                StepsizeSchedule("harmonic", scale=bad)
            with pytest.raises(InvalidConfig):
                StepsizeSchedule("piecewise_paper", lambda0=0.02, switch_k=500, scale=bad)


class TestStep:
    """One iteration of the kernel, x <- W (x - lam (g + N))."""

    def test_fixed_point_at_optimum(self):
        q = QuadraticProblem(diag=[1.0, 1.0], m=2)
        w = validate_weight_matrix([[0.5, 0.5], [0.5, 0.5]])
        cfg = RunConfig(problem=q, weights=w, schedule=StepsizeSchedule("constant", lambda0=0.05),
                        noise_variance=0.0, iterations=1, seed=1, init_mode="explicit",
                        init_coords=np.zeros((2, 2)))
        trace = run(cfg)
        assert np.array_equal(trace.final_state, np.zeros((2, 2)))
        assert trace.k.tolist() == [0, 1]

    def test_single_agent_is_gradient_descent(self):
        q = QuadraticProblem(diag=[1.0, 2.0], m=1, offsets=[[1.0, -1.0]])
        w = validate_weight_matrix([[1.0]])
        cfg = RunConfig(problem=q, weights=w, schedule=StepsizeSchedule("constant", lambda0=0.1),
                        noise_variance=0.0, iterations=50, seed=3,
                        init_mode="explicit", init_coords=np.array([[2.0, 2.0]]))
        trace = run(cfg)
        x = np.array([2.0, 2.0])
        for k in range(50):
            x = np.array([[1.0]]) @ (x[None, :] - 0.1 * 2.0 * q.c * (x - q.offsets[0]))
            x = x[0]
        assert np.array_equal(trace.final_state[0], x)

    def test_one_step_matches_kronecker_oracle(self, rng):
        m, d = 4, 3
        q = QuadraticProblem(diag=[0.5, 1.0, 1.5], m=m, offsets=rng.standard_normal((m, d)))
        w = build_metropolis_weights(builtin_topology("ring", m))
        x = rng.standard_normal((m, d))
        lam = 0.07
        out = _one_step(q, w, x, lam)
        g = q.agent_gradients(x)
        stacked = np.kron(w.w, np.eye(d)) @ (x - lam * g).ravel()
        assert np.abs(out.ravel() - stacked).max() <= 1e-12

    def test_noisy_step_uses_agent_streams(self):
        # iteration k draws the k-th value of agent j's stream (seed, 1, j)
        q = QuadraticProblem(diag=[1.0], m=3)
        w = build_metropolis_weights(builtin_topology("complete", 3))
        cfg = RunConfig(problem=q, weights=w, schedule=StepsizeSchedule("constant", lambda0=0.1),
                        noise_variance=0.25, iterations=2, seed=77, init_mode="explicit",
                        init_coords=np.ones((3, 1)))
        x = np.ones((3, 1))
        rngs = _agent_streams(77, 3)
        for _ in range(2):
            n = np.stack([r.standard_normal(1) for r in rngs]) * 0.5
            x = w.w @ (x - 0.1 * (q.agent_gradients(x) + n))
        assert np.array_equal(run(cfg).final_state, x)


class TestRun:
    def test_record_row_pattern(self, paper_problem, rpc5):
        cfg = RunConfig(problem=paper_problem, weights=rpc5, schedule=PAPER_SCHEDULE,
                        noise_variance=0.5, iterations=100, seed=5, record_every=7)
        trace = run(cfg)
        assert trace.k.tolist() == [0] + [k for k in range(1, 101) if k % 7 == 0] + [100]

    def test_determinism_bitwise(self, paper_problem, rpc5):
        cfg = dict(problem=paper_problem, weights=rpc5, schedule=PAPER_SCHEDULE,
                   noise_variance=0.5, iterations=200, seed=123, record_every=10)
        assert _records_equal(run(RunConfig(**cfg)), run(RunConfig(**cfg)))

    def test_seed_changes_trajectory(self, paper_problem, rpc5):
        base = dict(problem=paper_problem, weights=rpc5, schedule=PAPER_SCHEDULE,
                    noise_variance=0.5, iterations=50, record_every=50)
        a = run(RunConfig(seed=1, **base))
        b = run(RunConfig(seed=2, **base))
        assert not np.array_equal(a.final_state, b.final_state)

    def test_mean_dynamics_identity(self, paper_problem, rpc5):
        # the agent mean follows x_mean <- x_mean - lambda * mean(g + n)
        cfg = RunConfig(problem=paper_problem, weights=rpc5, schedule=PAPER_SCHEDULE,
                        noise_variance=0.5, iterations=120, seed=9,
                        record_every=1)
        trace = run(cfg)
        means = trace.x.mean(axis=1)
        predicted = means[:-1] - trace.lam[1:, None] * trace.mean_gn[1:]
        assert np.abs(means[1:] - predicted).max() <= 1e-10

    def test_explicit_init_broadcast(self, paper_problem, rpc5):
        cfg = RunConfig(problem=paper_problem, weights=rpc5, schedule=PAPER_SCHEDULE,
                        noise_variance=0.0, iterations=1, seed=0,
                        init_mode="explicit", init_coords=np.array([1.0, 1.0]))
        trace = run(cfg)
        assert trace.consensus_error[0] == 0.0

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
        cfg = RunConfig(problem=q, weights=w, schedule=StepsizeSchedule("constant", lambda0=0.9),
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
        cfg = RunConfig(problem=q, weights=w, schedule=StepsizeSchedule("harmonic", scale=0.45),
                        noise_variance=0.0, iterations=10_000, seed=0,
                        init_mode="explicit", init_coords=np.array([1.0, 1.0]),
                        record_every=10_000)
        trace = run(cfg)
        assert trace.opt_error_mean[-1] <= 1e-3


class TestNoiseStatistics:
    def test_moments(self):
        variance = 0.7
        rngs = [philox(key) for key in stream_keys([2024], [(1, 0), (1, 1)])[0]]
        draws = np.concatenate([rngs[0].standard_normal(50_000),
                                rngs[1].standard_normal(50_000)]) * np.sqrt(variance)
        n = draws.size
        assert abs(draws.mean()) <= 4.0 * np.sqrt(variance) / np.sqrt(n)
        assert abs(draws.var() - variance) <= 0.05 * variance

    def test_streams_depend_only_on_seed_and_agent(self):
        a = philox(stream_keys([5], [(1, j) for j in range(3)])[0, 1]).standard_normal(4)
        b = philox(stream_keys([5], [(1, j) for j in range(7)])[0, 1]).standard_normal(4)
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
        assert np.array_equal(a.final_state, b.final_state)


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
                assert np.array_equal(stream_keys([seed], keys)[0], want), (seed, width)
                checked += len(keys)
        assert checked >= 10_000

    @pytest.mark.parametrize("length", range(1, 10))
    @pytest.mark.parametrize("n", [1, 256])
    def test_key_pass_matches_seed_sequence_at_every_entropy_length(self, length, n):
        # lengths below the 4-word pool are zero-padded; words past it are
        # mixed into every pool slot
        rng = np.random.default_rng(length * 1000 + n)
        words = rng.integers(0, 2**32, (n, length), dtype=np.uint32)
        words[0] = 2**32 - 1 if n == 1 else 0
        want = [np.random.SeedSequence(row.tolist()).generate_state(2, np.uint64) for row in words]
        got = optimizer._seed_sequence_keys(words)
        assert got.dtype == np.uint64 and np.array_equal(got, want)

    @pytest.mark.parametrize("seed", [2024, 2**64 - 1])
    def test_streams_draw_what_seed_sequence_streams_draw(self, seed):
        coupling_keys = [(3, r, j) for r in range(40) for j in range(5)]  # (stream, pair, agent)
        run_keys = [(1, j) for j in range(5)] + [(2, 0)]  # the agents' noise, then the init
        keys = [*stream_keys([seed], coupling_keys)[0], *stream_keys([seed], run_keys)[0]]
        entropies = ([(seed, *key) for key in coupling_keys]
                     + [(seed, 1, j) for j in range(5)] + [(seed, 2)])
        for key, entropy in zip(keys, entropies):
            assert np.array_equal(philox(key).standard_normal(1000),
                                  _seed_sequence_stream(*entropy).standard_normal(1000))

    def test_seeds_of_mixed_widths_in_one_call(self):
        seeds = self.SEEDS + [2**70, 3, 2**96 + 7]
        keys = [(1, j) for j in range(5)] + [(2, 0), (2**32 - 1, 9)]
        for seed, got in zip(seeds, stream_keys(seeds, keys)):
            want = [np.random.SeedSequence((seed, *key)).generate_state(2, np.uint64)
                    for key in keys]
            assert np.array_equal(got, want), seed

    @pytest.mark.parametrize("seed, keys", [
        (1, [(2**32,)]), (1, [(0, 2**32 + 5)]), (1, [(2**70,)]), (1, [(-1,)]), (1, [(0.5,)]),
        (-1, [(0,)]),
    ])
    def test_out_of_range_entries_raise(self, seed, keys):
        # SeedSequence splits an entry >= 2**32 into more words; keys take one word each
        with pytest.raises(ValueError):
            stream_keys([seed], keys)

    def test_no_keys_give_an_empty_array(self):
        got = stream_keys([1, 2**40, 2**64 - 1], [])
        assert got.shape == (3, 0, 2) and got.dtype == np.uint64
        with pytest.raises(ValueError):
            stream_keys([1, -1], [])


def _polish_oracle(problem, w, lam, theta):
    """polish_fixed_point's search over the whole grid, restated: every
    offset in [-64, 64]^d ULP, nearest first and ties in lexicographic order;
    the first fixed point of the noise-free update wins."""
    theta = np.asarray(theta, dtype=float)
    m, d = problem.m, problem.d

    def drift(th):
        x = np.tile(th, (m, 1))
        g = problem.agent_gradients(x)
        return optimizer.mixing_update(w.w, x, g + np.zeros((m, d)), lam) - x

    center = drift(theta)
    if not center.any() or not np.abs(center).max() <= 1e-8:
        return theta
    ulp = np.spacing(np.abs(theta))
    grids = np.meshgrid(*([np.arange(-64, 65)] * d), indexing="ij")
    cand = np.stack([g.ravel() for g in grids], axis=1)
    for idx in np.argsort((cand.astype(float) ** 2).sum(axis=1), kind="stable"):
        th = theta + cand[idx] * ulp
        if not drift(th).any():
            return th
    return theta


def _fixed_only_at(monkeypatch, theta, offsets):
    """Make the noise-free update move every state by 1e-12 except those at
    theta + offset ULP, for each offset given; it returns those unchanged."""
    ulp = np.spacing(np.abs(theta))
    fixed = [theta + np.asarray(offset) * ulp for offset in offsets]

    def update(w_arr, x, gn, lam):
        if any(np.array_equal(x[0], th) for th in fixed):
            return x.copy()
        return x + 1e-12

    monkeypatch.setattr(optimizer, "mixing_update", update)
    return fixed


class TestPolishSearch:
    """The search tries the offsets within a distance of 4 ULP first and
    builds the (129**d)-point grid only when none is a fixed point; it must
    return what the search over the whole grid returns."""

    def test_coupling_saddle(self, paper_problem, complete5):
        saddle = paper_problem.known_saddle()
        got = polish_fixed_point(paper_problem, complete5, 0.02, saddle)
        assert got.tobytes() == _polish_oracle(paper_problem, complete5, 0.02, saddle).tobytes()
        assert not np.array_equal(got, saddle)  # the search ran and moved it

    @pytest.mark.parametrize("offsets, want", [
        ([(7, -3)], 0),  # beyond the first 4 ULP
        ([(3, 3), (4, 0), (-4, 0)], 2),  # at distance 4 ties go lexicographically
        ([(5, 0), (3, 4)], 1),  # a tie beyond the first 4 ULP
        ([(-4, -1)], 0),  # the first offset beyond the first 4 ULP
        ([(-5, 0)], 0),  # the first at its distance, in the cube [-5, 5]^2 but not [-4, 4]^2
        ([(64, -64)], 0),  # the grid's corner
    ])
    def test_patched_fixed_points(self, paper_problem, complete5, monkeypatch, offsets, want):
        saddle = paper_problem.known_saddle()
        fixed = _fixed_only_at(monkeypatch, saddle, offsets)
        got = polish_fixed_point(paper_problem, complete5, 0.02, saddle)
        assert got.tobytes() == fixed[want].tobytes()
        assert got.tobytes() == _polish_oracle(paper_problem, complete5, 0.02, saddle).tobytes()

    def test_no_fixed_point(self, paper_problem, complete5, monkeypatch):
        saddle = paper_problem.known_saddle()
        _fixed_only_at(monkeypatch, saddle, [])
        got = polish_fixed_point(paper_problem, complete5, 0.02, saddle)
        assert got.tobytes() == saddle.tobytes()
        assert got.tobytes() == _polish_oracle(paper_problem, complete5, 0.02, saddle).tobytes()

    def test_three_dimensions_without_the_whole_grid(self, monkeypatch):
        q = QuadraticProblem(diag=[1.0, -0.5, 2.0], m=3)
        w = build_metropolis_weights(builtin_topology("complete", 3))
        theta = np.array([0.3, -1.2, 2.5])
        halves = []
        cube = optimizer._cube_by_distance
        monkeypatch.setattr(optimizer, "_cube_by_distance",
                            lambda half, d: halves.append(half) or cube(half, d))
        fixed = _fixed_only_at(monkeypatch, theta, [(0, -4, 0), (1, 4, 1)])
        got = polish_fixed_point(q, w, 0.02, theta)
        assert got.tobytes() == fixed[0].tobytes()
        assert halves == [4]


class TestSaddleInit:
    def test_polished_saddle_is_frozen_on_complete_graph(self, paper_problem, complete5):
        theta = _saddle_init(paper_problem, complete5)
        # one noise-free step reproduces the state bitwise
        x = np.tile(theta, (5, 1))
        lam = stepsize(PAPER_SCHEDULE, 1)
        assert np.array_equal(_one_step(paper_problem, complete5, x, lam), x)
        # still a refined stationary point
        assert np.linalg.norm(paper_problem.aggregated_gradient(theta)) <= 1e-10

    def test_heterogeneous_topology_returns_newton_point(self, paper_problem, rpc5):
        theta = _saddle_init(paper_problem, rpc5)
        assert np.array_equal(theta, paper_problem.known_saddle())

    def test_polish_noop_when_already_fixed(self, complete5, paper_problem):
        theta = paper_problem.known_saddle()
        polished = polish_fixed_point(paper_problem, complete5, 0.02, theta)
        assert np.linalg.norm(polished - theta) <= 1e-12

    def test_zero_variance_control_stays_short_horizon(self, paper_problem, complete5):
        cfg = RunConfig(problem=paper_problem, weights=complete5, schedule=PAPER_SCHEDULE,
                        noise_variance=0.0, iterations=600, seed=4,
                        init_mode="at_saddle", record_every=1)
        trace = run(cfg)
        dev = np.linalg.norm(trace.x - trace.x[0, 0], axis=-1).max()
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

    @pytest.mark.parametrize("shape", [(1, 5, 3), (2, 4, 2), (3, 2)])
    def test_state_of_another_shape_raises_before_any_draw(self, paper_problem, rpc5, shape):
        # the kernel checks the state's trailing (m, d) once, at its entry;
        # the problem's agent_gradients does not check it again
        class Undrawn:
            def standard_normal(self, out):
                raise AssertionError("noise drawn")

        with pytest.raises(ProblemError, match=r"state has shape .*, expected \(\.\.\., 5, 2\)"):
            lockstep(paper_problem, rpc5.w, np.zeros(shape), PAPER_SCHEDULE, 5,
                     [[Undrawn()] * 5] * shape[0], [1.0] * shape[0])

    def test_estimation_batch_slices_match_single_runs(self, paper_problem, rpc5):
        self._assert_slices_match_single_runs(
            self._configs(paper_problem, rpc5, PAPER_SCHEDULE, [3, 4, 5, 6], [0.1, 0.5, 0.0, 2.0])
        )

    def test_ica_batch_slices_match_single_runs(self, ica4, rpc5):
        self._assert_slices_match_single_runs(
            self._configs(ica4, rpc5,
                          StepsizeSchedule("piecewise_paper", lambda0=0.003, switch_k=100, scale=0.3),
                          [11, 12, 13], [1.0, 0.5, 1.0], record_every=30)
        )

    def test_quadratic_batch_slices_match_single_runs(self, rng):
        q = QuadraticProblem(diag=[0.5, 1.0, 1.5], m=4, offsets=rng.standard_normal((4, 3)))
        w = build_metropolis_weights(builtin_topology("ring", 4))
        configs = self._configs(q, w, StepsizeSchedule("constant", lambda0=0.05), [1, 2, 3, 4, 5],
                                [0.3, 0.3, 0.0, 1.0, 0.7], record_every=7)
        self._assert_slices_match_single_runs(configs)

    @pytest.mark.parametrize("m", [16, 50])
    def test_many_runs_of_many_agents_match_single_runs(self, m):
        # 200 runs at the agent counts where one (m, m) @ (m, R d) mixing
        # product would not be batch-invariant; the kernel mixes each run alone
        q = QuadraticProblem(diag=[0.5, 1.5], m=m,
                             offsets=np.random.default_rng(m).standard_normal((m, 2)))
        w = build_metropolis_weights(builtin_topology("ring", m))
        seeds = range(1000, 1200)
        configs = self._configs(q, w, StepsizeSchedule("constant", lambda0=0.05), seeds,
                                [0.5 if s % 3 else 0.0 for s in seeds],
                                iterations=30, record_every=10)
        self._assert_slices_match_single_runs(configs)

    def test_saddle_quadratic_batch_slices_match_single_runs(self):
        # a mixed-sign quadratic has no reference minimum, so its opt_error
        # columns are NaN on every row and must still compare equal
        q = QuadraticProblem(diag=[0.5, -0.25], m=16,
                             offsets=np.random.default_rng(16).standard_normal((16, 2)))
        w = build_metropolis_weights(builtin_topology("ring", 16))
        seeds = range(2000, 2040)
        configs = self._configs(q, w, StepsizeSchedule("constant", lambda0=0.05), seeds,
                                [0.5 if s % 3 else 0.0 for s in seeds],
                                iterations=30, record_every=10)
        batch = run_batch(configs)
        assert np.isnan(batch[0].opt_error_mean[0])
        for config, trace in zip(configs, batch):
            assert _records_equal(trace, run(config))

    def test_block_size_does_not_change_trajectories(self, paper_problem, rpc5, monkeypatch):
        x0 = np.stack([paper_problem.sample_init(_seed_sequence_stream(s, 2)) for s in (1, 2, 3)])

        def final(block):
            monkeypatch.setattr(optimizer, "NOISE_BLOCK", block)
            traces = lockstep(paper_problem, rpc5.w, x0, PAPER_SCHEDULE, 200,
                              [_agent_streams(s, 5) for s in (1, 2, 3)], [0.5, 1.0, 0.25],
                              record_every=9)
            return [t.final_state for t in traces], [
                (t.k.tolist(), t.noise_norm.tolist(), t.opt_error_mean.tolist()) for t in traces]

        x_default, rows_default = final(optimizer.NOISE_BLOCK)
        for block in (1, 7):
            x_block, rows_block = final(block)
            assert np.array_equal(x_default, x_block)
            assert rows_default == rows_block

    def test_stopped_runs_leave_the_others_unchanged(self, paper_problem, rpc5, monkeypatch):
        seeds = (1, 2, 3, 4)
        x0 = np.stack([paper_problem.sample_init(_seed_sequence_stream(s, 2)) for s in seeds])
        # coupling's pairs: each run's noise and its mirror along e1, on an
        # (R, 2, m, d) state
        e1 = min_eigvec(paper_problem.tangent_hessian(paper_problem.known_saddle())[1])
        mirrored = (np.stack([x0, x0], axis=1),
                    lambda n: np.stack([n, mirror_noise(n, e1)], axis=-3))

        # lambda_k changes at every step past k = 20, so a step misaligned
        # with its noise block's stepsizes shows
        schedule = StepsizeSchedule("piecewise_paper", lambda0=0.02, switch_k=20, scale=0.4)

        # runs 1, 3 and 0 stop at k = 50, 55 and 80, inside a block at sizes 64
        # and 7, the first two inside the same one; the survivors then cross
        # later block boundaries (300 > the default block)
        when = {50: [False, True, False, False], 55: [False, False, True], 80: [True, False]}
        for start, noise_map in ((x0, None), mirrored):
            def advance(iterations, **kwargs):
                return lockstep(paper_problem, rpc5.w, start, schedule, iterations,
                                [_agent_streams(s, 5) for s in seeds], [0.5] * 4,
                                noise_map=noise_map, **kwargs)

            for block in (optimizer.NOISE_BLOCK, 1, 7):
                monkeypatch.setattr(optimizer, "NOISE_BLOCK", block)
                stopped = advance(300, stop=lambda x, k: when.get(k, [False] * len(x)))
                assert [t.stopped_at for t in stopped] == [80, 50, None, 55]
                assert np.array_equal(stopped[2].final_state, advance(300)[2].final_state), block
                for r, k in ((0, 80), (1, 50), (3, 55)):
                    assert np.array_equal(stopped[r].final_state,
                                          advance(k)[r].final_state), (block, r)

    @pytest.mark.parametrize("d", [2, 10])
    def test_each_step_draws_its_own_scaled_stream_rows(self, d, monkeypatch):
        # a problem whose gradient is a fresh zero array, kept by the test: the
        # kernel adds the step's noise into it, so it ends holding that noise.
        # Run r's agent j at step k must carry bitwise scales[r] times row
        # k - 1 of standard_normal((K, d)) from a fresh copy of its stream
        # (zero for the run without streams), whatever the block size, and
        # also after runs stop inside a block and survivors cross blocks
        m, seeds, scales = 3, (5, 6, 7, 8), [0.5, 1.0, 0.0, 2.0]
        q = QuadraticProblem(diag=[1.0] * d, m=m)
        w = build_metropolis_weights(builtin_topology("complete", m))
        seen = []

        def spy(x):
            seen.append(np.zeros(x.shape))
            return seen[-1]

        monkeypatch.setattr(q, "agent_gradients", spy)
        iterations, when = 150, {20: [False, True, False, False], 23: [True, False, False]}
        draws = [np.stack([rng.standard_normal((iterations, d)) for rng in _agent_streams(s, m)])
                 for s in seeds]
        for block in (optimizer.NOISE_BLOCK, 1, 7):
            monkeypatch.setattr(optimizer, "NOISE_BLOCK", block)
            seen.clear()
            traces = lockstep(q, w.w, np.zeros((4, m, d)), StepsizeSchedule("constant", lambda0=0.01),
                              iterations, [_agent_streams(s, m) if v else None
                                           for s, v in zip(seeds, scales)], scales,
                              stop=lambda x, k: when.get(k, [False] * len(x)))
            assert [t.stopped_at for t in traces] == [23, 20, None, None]
            alive = [0, 1, 2, 3]
            for k, n in enumerate(seen, start=1):
                assert n.shape == (len(alive), m, d), (block, k)
                for row, r in zip(n, alive):
                    want = scales[r] * draws[r][:, k - 1] if scales[r] else np.zeros((m, d))
                    assert row.tobytes() == want.tobytes(), (block, k, r)
                alive = [r for r in alive if traces[r].stopped_at != k]
            assert len(seen) == iterations

    def test_without_rows_the_traces_share_empty_columns(self, paper_problem, rpc5, monkeypatch):
        # a coupling's batch records nothing: no metrics pass, and one set of
        # read-only empty columns of the state's shapes serves every pair
        monkeypatch.setattr(optimizer, "row_metrics", None)
        x0 = np.zeros((3, 2, 5, 2))
        traces = lockstep(paper_problem, rpc5.w, x0, PAPER_SCHEDULE, 40,
                          [_agent_streams(s, 5) for s in (1, 2, 3)], [0.5] * 3,
                          noise_map=lambda n: np.stack([n, n], axis=-3),
                          stop=lambda x, k: [k == 30] + [False] * (len(x) - 1))
        assert [t.stopped_at for t in traces] == [30, None, None]
        shapes = {"x": (0, 2, 5, 2), "mean_gn": (0, 2, 2)}
        for c in COLUMNS:
            col = getattr(traces[0], c)
            assert col.shape == shapes.get(c, (0,)) and not col.flags.writeable, c
            assert all(getattr(t, c) is col for t in traces), c
        assert all(t.final_state.shape == (2, 5, 2) for t in traces)

    def test_run_batch_draws_init_rng_and_noise_streams(self, paper_problem, rpc5):
        # seeds of one and two 32-bit words share a batch; one run draws no noise
        seeds, variances = [5, 2**40, 0, 2**64 - 1], [0.5, 0.0, 1.0, 0.25]
        configs = [RunConfig(problem=paper_problem, weights=rpc5, schedule=PAPER_SCHEDULE,
                             noise_variance=v, iterations=30, seed=s)
                   for s, v in zip(seeds, variances)]
        for config, trace in zip(configs, run_batch(configs)):
            x0 = paper_problem.sample_init(_seed_sequence_stream(config.seed, 2))
            streams = _agent_streams(config.seed, 5) if config.noise_variance else None
            want = lockstep(paper_problem, rpc5.w, x0[None], PAPER_SCHEDULE, 30, [streams],
                            [np.sqrt(config.noise_variance)])
            assert np.array_equal(trace.final_state, want[0].final_state), config.seed
            assert trace.stopped_at is None and want[0].stopped_at is None

    def test_jobs_split_matches_one_batch(self, paper_problem, rpc5):
        # two cells of three runs, the second noise-free: two chunks split at
        # the cell boundary, three split inside both cells
        configs = self._configs(paper_problem, rpc5, PAPER_SCHEDULE, [7, 8, 9, 10, 11, 12],
                                [0.5, 0.5, 0.5, 0.0, 0.0, 0.0], iterations=80, record_every=30)
        whole = run_batch(configs)
        for jobs in (2, 3):
            split = run_batch(configs, jobs)
            assert len(split) == len(whole)
            for a, b in zip(whole, split):
                assert _records_equal(a, b) and a.stopped_at is b.stopped_at is None, jobs

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_divergence_in_a_worker_carries_its_iteration(self, jobs):
        # |1 - 0.9 * 2 * 8| = 13.4: each run overflows at iteration 274, the
        # noisy one too; with jobs = 2 each run diverges in its own worker
        q = QuadraticProblem(diag=[8.0], m=2)
        w = build_metropolis_weights(builtin_topology("complete", 2))
        configs = self._configs(q, w, StepsizeSchedule("constant", lambda0=0.9), [1, 2],
                                [0.0, 0.5], iterations=5000, init_mode="explicit",
                                init_coords=np.array([1.0]))
        with pytest.raises(NonFiniteState) as exc:
            run_batch(configs, jobs)
        assert exc.value.iteration == 274 and str(exc.value) == "non-finite state at iteration 274"

    def test_run_batch_rejects_mixed_configs(self, paper_problem, rpc5):
        a = RunConfig(problem=paper_problem, weights=rpc5, schedule=PAPER_SCHEDULE,
                      noise_variance=0.5, iterations=10, seed=1)
        with pytest.raises(InvalidConfig):
            run_batch([a, dataclasses.replace(a, iterations=11)])

    def test_negative_variance_rejected(self, paper_problem, rpc5):
        with pytest.raises(InvalidConfig):
            RunConfig(problem=paper_problem, weights=rpc5, schedule=PAPER_SCHEDULE,
                      noise_variance=-0.5, iterations=10, seed=1)


def _restated_row(problem, x, k, lam, n, gn):
    """One trace row computed from its own state alone, the noise n and g + N
    of the step that produced it (zeros at k = 0)."""
    errs = problem.optimization_errors(x)
    return dict(k=k, lam=lam, consensus_error=np.linalg.norm(x - x.mean(axis=0)),
                opt_error_mean=errs.mean(), opt_error_max=errs.max(),
                noise_norm=np.linalg.norm(n), gn_norm=np.linalg.norm(gn), x=x,
                mean_gn=gn.mean(axis=0))


def _restated_run(problem, w, x, schedule, iterations, seed, variance, stop_k=None):
    """One run's columns (record_every 1), one iteration and one row at a time."""
    rngs = _agent_streams(seed, problem.m)
    zero = np.zeros_like(x)
    rows = [_restated_row(problem, x, 0, stepsize(schedule, 1), zero, zero)]
    for k in range(1, iterations + 1):
        lam = stepsize(schedule, k)
        n = np.array([rng.standard_normal(problem.d) for rng in rngs]) * np.sqrt(variance)
        gn = problem.agent_gradients(x) + n
        x = problem.retract(w @ (x - lam * gn))
        rows.append(_restated_row(problem, x, k, lam, n, gn))
        if k == stop_k:
            break
    return {c: np.array([row[c] for row in rows]) for c in COLUMNS}


def _same_rows(got, want):
    """Every column of the trace `got` equal to the column of `want` in dtype,
    shape and bytes (NaN included)."""
    for c in COLUMNS:
        a, b = getattr(got, c), want[c]
        assert a.dtype == b.dtype and a.shape == b.shape, c
        assert a.tobytes() == b.tobytes(), c


def _row_problems():
    from dpdgd.problems import make_ica_problem, make_paper_estimation_problem

    ica = make_ica_problem(d=4, m=5, samples_per_agent=40, seed=5)
    offsets = np.arange(10.0).reshape(5, 2) / 7
    return {
        "estimation": (make_paper_estimation_problem(), StepsizeSchedule("constant", lambda0=0.02)),
        "quadratic": (QuadraticProblem([0.5, 1.5], m=5, offsets=offsets),
                      StepsizeSchedule("constant", lambda0=0.05)),
        "saddle_quadratic": (QuadraticProblem([0.5, -1.5], m=5),  # no minimum: NaN errors
                             StepsizeSchedule("constant", lambda0=0.05)),
        "ica": (ica, StepsizeSchedule("constant", lambda0=0.01)),
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
        xs = np.array([problem.retract(rng.standard_normal((problem.m, problem.d)))
                       for _ in range(n_states)])
        zero = np.zeros_like(xs[0])
        want = [_restated_row(problem, x, 0, 0.0, zero, zero) for x in xs]
        got = row_metrics(problem, xs)
        assert got.shape == (3, n_states)
        for triple, row in zip(got.T, want):
            assert (triple.tobytes()
                    == np.array([row["consensus_error"], row["opt_error_mean"],
                                 row["opt_error_max"]]).tobytes())

    @pytest.mark.parametrize("name", ["estimation", "quadratic", "saddle_quadratic", "ica"])
    @pytest.mark.parametrize("iterations", [1, RECORD_CHUNK - 2, RECORD_CHUNK - 1, RECORD_CHUNK])
    def test_single_run_rows_equal_restatement(self, problems, rpc5, name, iterations):
        # record_every 1 gives iterations + 1 rows: 2, chunk - 1, chunk and chunk + 1
        problem, schedule = problems[name]
        x0 = problem.sample_init(_seed_sequence_stream(3, 2))
        out = lockstep(problem, rpc5.w, x0[None], schedule, iterations, [_agent_streams(8, 5)],
                       [np.sqrt(0.3)], record_every=1)
        _same_rows(out[0], _restated_run(problem, rpc5.w, x0, schedule, iterations, 8, 0.3))

    @pytest.mark.parametrize("name", ["estimation", "quadratic", "ica"])
    def test_batch_with_early_stops_equals_restatement(self, problems, rpc5, name):
        # 3 runs, 2 of them stopping early: 21 + 6 + 41 rows cross two chunk boundaries
        problem, schedule = problems[name]
        seeds = (21, 22, 23)
        x0 = np.stack([problem.sample_init(_seed_sequence_stream(s, 2)) for s in seeds])
        when = {5: [False, True, False], 20: [True, False]}
        out = lockstep(problem, rpc5.w, x0, schedule, 40, [_agent_streams(s, 5) for s in seeds],
                       [np.sqrt(0.5)] * 3, record_every=1,
                       stop=lambda x, k: when.get(k, [False] * len(x)))
        assert [t.stopped_at for t in out] == [20, 5, None]
        for r, (seed, trace) in enumerate(zip(seeds, out)):
            _same_rows(trace, _restated_run(problem, rpc5.w, x0[r], schedule, 40, seed, 0.5,
                                            trace.stopped_at))

    @pytest.mark.parametrize("name", ["estimation", "quadratic", "saddle_quadratic", "ica"])
    def test_columns_and_their_shapes(self, problems, rpc5, name):
        # record_every 4 over 10 iterations keeps k = 0, 4, 8 and 10
        problem, schedule = problems[name]
        x0 = problem.sample_init(_seed_sequence_stream(5, 2))
        trace = lockstep(problem, rpc5.w, x0[None], schedule, 10, [_agent_streams(5, 5)], [0.5],
                         record_every=4)[0]
        assert trace.k.dtype == np.int64 and trace.k.tolist() == [0, 4, 8, 10]
        for c in COLUMNS[1:7]:
            assert getattr(trace, c).dtype == np.float64 and getattr(trace, c).shape == (4,), c
        assert trace.x.shape == (4, problem.m, problem.d) and trace.mean_gn.shape == (4, problem.d)
        assert trace.lam.tolist() == [stepsize(schedule, k) for k in (1, 4, 8, 10)]
        # k and lam are shared by the batch's traces, so they are read-only
        assert not trace.k.flags.writeable and not trace.lam.flags.writeable
        # the k = 0 row is the initial state, with no step behind it
        assert np.array_equal(trace.x[0], x0) and np.array_equal(trace.x[-1], trace.final_state)
        assert trace.noise_norm[0] == trace.gn_norm[0] == 0.0 and not trace.mean_gn[0].any()

    def test_sparse_rows_are_the_dense_rows(self, problems, rpc5):
        # record_every 7 over 40 iterations keeps k = 0, 7, ..., 35 and the last step
        problem, schedule = problems["estimation"]
        x0 = problem.sample_init(_seed_sequence_stream(4, 2))[None]
        dense, sparse = (
            lockstep(problem, rpc5.w, x0, schedule, 40, [_agent_streams(4, 5)], [0.7],
                     record_every=every)[0]
            for every in (1, 7)
        )
        kept = (dense.k % 7 == 0) | (dense.k == 40)
        _same_rows(sparse, {c: getattr(dense, c)[kept] for c in COLUMNS})
