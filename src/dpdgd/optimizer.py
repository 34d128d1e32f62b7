"""Single-variable-sharing decentralized gradient descent with gradient noise.

Each iteration, agent j forms v_ij = w_ij (x_j - lambda_k (g_j + n_j)) and
sends it to its neighbors; agent i sums what it receives. Stacked over agents
this is

    x^{k+1} = (W kron I_d) (x^k - lambda_k (g^k + N^k)),

where N^k stacks the per-agent Gaussian noise used both for differential
privacy and for escaping non-minimum stationary points. Because W is doubly
stochastic the agent mean follows plain noisy gradient descent on the
aggregated objective, while disagreement contracts at the spectral gap eta.

Noise discipline: the master seed spawns one counter-based Philox substream
per agent, so the draw for agent j at iteration k depends only on
(seed, j, k) and runs are reproducible regardless of scheduling. The keys of
a batch of streams come from one vectorized pass of numpy's SeedSequence
algorithm, equal to SeedSequence's own keys bit for bit.

One kernel, `lockstep`, advances R runs stacked into an (R, ..., m, d) state;
a run's numbers do not depend on the batch it shares.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy loads it lazily; every run draws noise from it, so load it up front

from .problems.base import Problem
from .topology import WeightMatrix

SCHEDULE_KINDS = ("constant", "harmonic", "piecewise_paper")

# The stream ids: the word after the seed in the entropy (seed, id, ...) of
# every Philox stream, one id to each use, so that no two uses share a stream
_NOISE_STREAM = 1  # (seed, 1, agent): a run's noise, in run_batch
_INIT_STREAM = 2  # (seed, 2): a run's random_box initial state, in run_batch
_COUPLING_STREAM = 3  # (seed, 3, pair, agent): analysis.run_coupling_experiment's noise
_TABLE1_STREAM = 10  # (seed, 10, cell, run): the run seeds of the `table1` command

NOISE_BLOCK = 64  # iterations of noise drawn from a stream at a time
_NOISE_BUFFER = 2**16  # cap on the doubles buffered across all streams (512 KB)
RECORD_CHUNK = 32  # recorded states whose metrics are computed in one stacked call
_STREAM_BYTES = 512  # less than one Philox generator holds (about 730 bytes measured)
_ROW_BYTES = 160  # a trace row's seven scalars and output share, beyond x and mean_gn (90 measured)
_REPORT_ROW_BYTES = 96  # a privacy-report row's five columns and output share (57 measured)


class InvalidConfig(ValueError):
    pass


class NonFiniteState(RuntimeError):
    """Iterates left the representable range; carries the failing iteration.
    The message is built from args, so a pickled copy reads the same."""

    def __init__(self, iteration, what="state"):
        super().__init__(iteration, what)
        self.iteration = iteration

    def __str__(self):
        return "non-finite {1} at iteration {0}".format(*self.args)


@dataclass(frozen=True)
class StepsizeSchedule:
    """lambda_k sequences: constant, harmonic scale/k, or a constant phase
    followed by a scale/k tail (switching at switch_k)."""

    kind: str
    lambda0: float = 0.0
    switch_k: int = 0
    scale: float = 0.0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise InvalidConfig(f"unknown schedule kind {self.kind!r}")
        if self.kind == "constant" and not 0 < self.lambda0 < np.inf:
            raise InvalidConfig("constant schedule needs a finite lambda0 > 0")
        if self.kind == "harmonic" and not 0 < self.scale < np.inf:
            raise InvalidConfig("harmonic schedule needs a finite scale > 0")
        if self.kind == "piecewise_paper":
            if not (0 < self.lambda0 < np.inf and 0 < self.scale < np.inf) or self.switch_k < 1:
                raise InvalidConfig(
                    "piecewise schedule needs finite lambda0, scale > 0 and switch_k >= 1"
                )
            if self.scale / (self.switch_k + 1) > self.lambda0:
                raise InvalidConfig(
                    "piecewise schedule would increase at the switch "
                    f"(scale/(switch_k+1) = {self.scale / (self.switch_k + 1):.3g} "
                    f"> lambda0 = {self.lambda0:.3g})"
                )


def stepsize(schedule: StepsizeSchedule, k: int) -> float:
    """lambda_k for the step producing state k (iterations are 1-indexed;
    k = 0 is clamped to the first stepsize)."""
    if k < 0:
        raise InvalidConfig(f"iteration index must be >= 0, got {k}")
    return float(stepsizes(schedule, k))


def stepsizes(schedule: StepsizeSchedule, ks) -> np.ndarray:
    """lambda_k over an array of iteration indices."""
    k_eff = np.maximum(ks, 1)
    # lambda0 up to the switch, scale/k after: constant never switches, harmonic at once
    switch = {"constant": np.inf, "harmonic": 0}.get(schedule.kind, schedule.switch_k)
    return np.where(k_eff <= switch, schedule.lambda0, schedule.scale / k_eff)


@dataclass
class RunTrace:
    """A run's recorded rows as columns, row i at iteration k[i]. The k = 0 row
    has no step behind it: its lam is lambda_1, and its norms and mean_gn are 0."""

    k: np.ndarray  # (rows,) the iteration of each row
    lam: np.ndarray  # (rows,) the stepsize of the step that produced the row
    consensus_error: np.ndarray  # (rows,) ||x - mean||
    opt_error_mean: np.ndarray  # (rows,) the mean of the agents' optimization errors
    opt_error_max: np.ndarray  # (rows,) their max
    noise_norm: np.ndarray  # (rows,) ||N|| of the step
    gn_norm: np.ndarray  # (rows,) ||g + N|| of the step
    x: np.ndarray  # (rows, m, d) the state
    mean_gn: np.ndarray  # (rows, d) the agents' mean of g + N
    final_state: np.ndarray  # (m, d), or (2, m, d) for a coupling pair; a stopped run's at its stop
    stopped_at: int | None = None  # the iteration at which `stop` ended the run


@dataclass
class RunConfig:
    problem: object
    weights: WeightMatrix
    schedule: StepsizeSchedule
    noise_variance: float
    iterations: int
    seed: int
    init_mode: str = "random_box"  # random_box | explicit | at_saddle
    init_coords: np.ndarray | None = None
    record_every: int = 1

    def __post_init__(self):
        if self.iterations < 1:
            raise InvalidConfig(f"iterations must be >= 1, got {self.iterations}")
        if self.record_every < 1:
            raise InvalidConfig(f"record_every must be >= 1, got {self.record_every}")
        if self.init_mode not in ("random_box", "explicit", "at_saddle"):
            raise InvalidConfig(f"unknown init mode {self.init_mode!r}")
        if self.weights.m != self.problem.m:
            raise InvalidConfig(
                f"topology has {self.weights.m} agents but problem has {self.problem.m}"
            )
        if not (0 <= self.seed < 2**64):
            raise InvalidConfig("seed must be an unsigned 64-bit integer")
        if not self.noise_variance >= 0:
            raise InvalidConfig(f"noise variance must be >= 0, got {self.noise_variance}")
        if self.init_mode == "explicit":
            m, d = self.problem.m, self.problem.d
            coords = np.asarray(() if self.init_coords is None else self.init_coords, dtype=float)
            if coords.shape not in ((d,), (m, d)) or not np.isfinite(coords).all():
                raise InvalidConfig(f"init coords must be finite, of shape ({m}, {d}) or ({d},)")
            self.init_coords = np.broadcast_to(coords, (m, d))
            # the problem's own check of a state (ICA's unit norm), here rather
            # than first on the k = 0 row's metrics after the whole run
            self.problem.optimization_errors(self.init_coords)

    @property
    def rows(self) -> int:
        """The rows a run records: k = 0, each multiple of record_every, and the last k."""
        return -(-self.iterations // self.record_every) + 1  # ceil(iterations / record_every) + 1

    @property
    def row_bytes(self) -> int:
        """What a recorded row costs: 8 per entry of its x and its mean_gn, and _ROW_BYTES."""
        return 8 * (self.problem.m + 1) * self.problem.d + _ROW_BYTES


# numpy's SeedSequence (numpy/random/bit_generator.pyx): a 4-word uint32 pool
# mixed from the entropy words by hashes whose multiplier advances every hash
_POOL = 4


def _hashmix(const, mult):
    """numpy's hashmix from the constant `const` on: xor the value with the
    constant, advance the constant by `mult`, multiply by it, xorshift."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & 0xFFFFFFFF
        value = value * const
        return value ^ value >> 16
    return hashmix


def _mix(a, b):
    r = a * 0xCA01F9DD - b * 0x4973F715  # MIX_MULT_L, MIX_MULT_R
    return r ^ r >> 16


def _seed_sequence_keys(words) -> np.ndarray:
    """`SeedSequence(entropy).generate_state(2, np.uint64)` for every row of
    `words`, an (n, L) array of the entropies' uint32 words: SeedSequence's
    mix_entropy and generate_state step for step, each step on all n rows."""
    words = list(np.ascontiguousarray(words.T))
    hashmix = _hashmix(0x43B0D7E5, 0x931E8875)  # INIT_A, MULT_A
    # the entropy up to the pool size, zero words where it is shorter
    pool = [hashmix(word) for word in (words + [np.zeros_like(words[0])] * _POOL)[:_POOL]]
    # every slot into every other, so that late words reach early ones
    for src in range(_POOL):
        for dst in range(_POOL):
            if dst != src:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    # each word past the pool into every slot
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hashmix(0x8B51F9DD, 0x58F38DED)  # generate_state's INIT_B, MULT_B
    lo0, hi0, lo1, hi1 = (hashmix(word).astype(np.uint64) for word in pool)
    # the four state words read as two little-endian uint64s
    return np.stack([lo0 | hi0 << np.uint64(32), lo1 | hi1 << np.uint64(32)], axis=1)


def stream_keys(seeds, keys) -> np.ndarray:
    """(S, n, 2) uint64 Philox keys of the streams (seed, *key) for each seed
    in `seeds` and each key in `keys`, equal-length tuples of integers in
    [0, 2**32); entry [s, i] is
    `SeedSequence((seeds[s], *keys[i])).generate_state(2, np.uint64)` bit for
    bit. Seeds that split into the same number of 32-bit words share one pass."""
    seed_words = []
    for seed in map(int, seeds):
        if seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {seed}")
        words = [seed & 0xFFFFFFFF]  # SeedSequence's little-endian 32-bit split
        while seed >> 32 * len(words):
            words.append(seed >> 32 * len(words) & 0xFFFFFFFF)
        seed_words.append(words)
    keys = np.asarray(keys)
    if keys.size and not (keys.dtype.kind in "iu" and keys.min() >= 0 and keys.max() < 2**32):
        raise InvalidConfig("stream key entries must be integers in [0, 2**32)")
    out = np.empty((len(seed_words), len(keys), 2), dtype=np.uint64)
    if not len(keys):
        return out  # no key to read a width from
    for width in set(map(len, seed_words)):
        group = [s for s, words in enumerate(seed_words) if len(words) == width]
        words = np.empty((len(group), len(keys), width + keys.shape[1]), dtype=np.uint32)
        words[..., :width] = np.array([seed_words[s] for s in group], dtype=np.uint32)[:, None]
        words[..., width:] = keys
        out[group] = _seed_sequence_keys(words.reshape(-1, words.shape[-1])).reshape(-1, len(keys), 2)
    return out


def check_batch_memory(runs=1, entries=0, rows=0, streams=0, row_bytes=0):
    """InvalidConfig when `runs` runs of `entries` state entries and `rows` rows
    each, and `streams` noise streams, need more bytes than physical memory holds: 16 per
    state entry (the running and the final state), `row_bytes` per row, _STREAM_BYTES per stream."""
    need = runs * (16 * entries + rows * row_bytes) + _STREAM_BYTES * streams
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise InvalidConfig(f"the inputs need at least {need / 2**30:.4g} GiB, more than the "
                            f"{have / 2**30:.4g} GiB of physical memory")


class _PhiloxKey(numpy.random.bit_generator.ISeedSequence):
    """Hands Philox a precomputed key, which is all it asks a seed sequence for."""

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)  # Philox copies it into its state


def philox(key):
    """The stream with Philox key `key` (a row of `stream_keys`), drawing what
    `Generator(Philox(SeedSequence((seed, *key))))` draws. The counter is
    given as an array, Philox's default 0 in the form it converts it to."""
    return np.random.Generator(np.random.Philox(_PhiloxKey(key), counter=_ZERO_COUNTER))


def mixing_update(w_arr, x, gn, lam):
    """One stacked update W (x - lam * gn); gn is the (..., m, d) array g + N,
    which is left as it is (the trace records its norm after the update)."""
    y = lam * gn
    np.subtract(x, y, out=y)
    return w_arr @ y


@np.errstate(over="ignore", invalid="ignore")  # blow-ups raise NonFiniteState instead
def lockstep(problem, w_arr, x, schedule, iterations, streams, scales, *, record_every=0,
             noise_map=None, stop=None) -> list:
    """Advance the R runs stacked in x (R, ..., m, d) by iterations steps
    from k = 0, every run by the same update.

    Run r's noise for agent j is drawn from streams[r][j], in blocks of up to
    NOISE_BLOCK iterations, and scaled by scales[r]; a run with streams[r] None
    draws nothing and gets zero noise. `noise_map` maps a (K, R, m, d) block,
    once per block, onto (K, *x.shape). The update is x <- W (x - lam (g + N)).
    Any non-finite state raises NonFiniteState. With record_every > 0 each run
    records rows at k = 0, at every multiple of record_every and at the last
    iteration, into columns allocated up front for the whole batch; noise_norm
    is that of the mapped noise. `stop(x, k)` returns a mask over the runs
    still advancing; a run whose mask is set stops there and draws no further
    noise. A state whose trailing shape is not the problem's (m, d) raises
    ProblemError before any noise is drawn. Returns one RunTrace per run.
    """
    x = problem._check_state(np.array(x, dtype=float))
    runs = x.shape[0]
    m, d = x.shape[-2:]
    final = x.copy()
    stopped_at = np.zeros(runs, dtype=int)  # 0 while a run advances; k >= 1 once it stops
    active = np.arange(runs)
    fills = [None if rngs is None else [rng.standard_normal for rng in rngs] for rngs in streams]
    scales = np.asarray(scales, dtype=float).reshape(runs, 1, 1, 1)
    vector = np.dtype((np.void, 8 * d))  # one agent's d-vector, copied as a whole
    agent_gradients, retract = problem.agent_gradients, problem.retract
    isfinite, count_nonzero = np.isfinite, np.count_nonzero
    block = max(1, min(NOISE_BLOCK, _NOISE_BUFFER // max(1, runs * m * d)))
    # every run's rows, written at each recorded step for the runs still advancing (`sel`, a
    # slice until a run stops); k and lam are shared, and the metrics come from xs after the loop
    ks = np.r_[0:iterations:record_every, iterations] if record_every else np.arange(0)
    counts, sel, row = np.full(runs, len(ks)), slice(None), 1
    xs = np.empty((runs, len(ks), *x.shape[1:]))
    squares = np.zeros((2, runs, len(ks)))  # ||N||^2 and ||g + N||^2, 0 at k = 0
    sum_gn = np.zeros((runs, len(ks), *x.shape[1:-2], d))  # divided by m into mean_gn
    if record_every:
        xs[:, 0] = x
    buf, blk, pos = None, None, 0
    for k in range(1, iterations + 1):
        if blk is None or pos == len(blk):
            # (run, agent, iteration, coordinate): each stream fills a
            # contiguous (K, d) slab, the same numbers as K draws of d;
            # rows of runs without streams stay zero
            size = min(block, iterations - k + 1)
            if buf is None or buf.shape[2] != size:
                buf = blk = noise = None  # release the old block before allocating
                buf = np.zeros((len(active), m, size, d))
                blk = np.empty((size, len(active), m, d))
            for i, r in enumerate(active.tolist()):
                if fills[r] is not None:
                    for j, fill in enumerate(fills[r]):
                        fill(out=buf[i, j])
            # scaled in place (entrywise, the products a per-step scaling
            # gives), then copied into the iteration-major block, so that each
            # step's (R, m, d) slice is contiguous; the copy moves whole
            # d-vectors, so no inner loop runs over d entries alone
            np.multiply(buf, scales, out=buf)
            blk.view(vector)[..., 0] = buf.view(vector)[..., 0].transpose(2, 0, 1)
            noise = blk if noise_map is None else noise_map(blk)
            lams = stepsizes(schedule, np.arange(k, k + size)).tolist()
            pos, survivors = 0, None
        n = noise[pos] if survivors is None else noise[pos, survivors]
        lam = lams[pos]
        pos += 1
        gn = agent_gradients(x)
        gn += n
        x = retract(mixing_update(w_arr, x, gn, lam))
        if count_nonzero(isfinite(x)) != x.size:
            raise NonFiniteState(k)
        if record_every and (k % record_every == 0 or k == iterations):
            # each run's squared norm is the dot of its flattened array, as in np.linalg.norm
            xs[sel, row] = x
            nf, gf = n.reshape(len(x), -1), gn.reshape(len(x), -1)
            squares[0, sel, row] = np.vecdot(nf, nf)
            squares[1, sel, row] = np.vecdot(gf, gf)
            sum_gn[sel, row] = np.add.reduce(gn, axis=-2)
            row += 1
        if stop is not None:
            done = np.asarray(stop(x, k), dtype=bool)
            if done.any():
                gone = active[done]
                final[gone], counts[gone], stopped_at[gone] = x[done], row, k
                keep = ~done
                sel = active = active[keep]
                x, scales = x[keep], scales[keep]
                # the block stays whole: later steps gather the survivors'
                # rows, and the next block is drawn for the survivors only
                survivors = np.flatnonzero(keep) if survivors is None else survivors[keep]
                buf = None
                if not active.size:
                    break
    final[active] = x
    stopped_at = [s or None for s in stopped_at.tolist()]
    lam = stepsizes(schedule, ks)
    ks.flags.writeable = lam.flags.writeable = False  # columns that every run's trace shares
    if not record_every:  # no rows, as in a coupling: every trace shares one set of empty columns
        cols = (ks, lam, *np.empty((5, 0)), np.empty(xs.shape[1:]), np.empty(sum_gn.shape[1:]))
        for col in cols:
            col.flags.writeable = False
        return [RunTrace(*cols, final[r], stopped_at[r]) for r in range(runs)]
    noise_norm, gn_norm = np.sqrt(squares, out=squares)
    mean_gn = np.divide(sum_gn, m, out=sum_gn)  # what gn.mean(axis=-2) divides
    return [RunTrace(ks[:c], lam[:c], *row_metrics(problem, xs[r, :c]), noise_norm[r, :c],
                     gn_norm[r, :c], xs[r, :c], mean_gn[r, :c], final[r], stopped_at[r])
            for r, c in enumerate(counts.tolist())]


def row_metrics(problem, xs) -> np.ndarray:
    """The (consensus_error, opt_error_mean, opt_error_max) columns, a (3, n)
    array, of the n (m, d) states in the array xs, RECORD_CHUNK states to a
    stacked call; each state's triple is bitwise what the state alone gives."""
    out = np.empty((3, len(xs)))
    for a in range(0, len(xs), RECORD_CHUNK):
        x = xs[a:a + RECORD_CHUNK]
        dev = (x - x.mean(axis=1, keepdims=True)).reshape(len(x), -1)
        out[0, a:a + len(x)] = np.sqrt(np.vecdot(dev, dev))  # a flat state's dot, as in its norm
        errs = problem.optimization_errors(x).reshape(len(x), -1)
        out[1:, a:a + len(x)] = errs.mean(axis=1), errs.max(axis=1)
    return out


@np.errstate(over="ignore", invalid="ignore")  # a blow-up leaves theta unchanged
def polish_fixed_point(problem, w: WeightMatrix, lam: float, theta) -> np.ndarray:
    """Nudge theta (a refined stationary point) to a bitwise fixed point of the
    noise-free update, when one exists within +/-64 ULP per coordinate.

    Rationale: near a strict saddle the noise-free dynamics amplify any
    residual, including float rounding, at rate (1 + lambda |lambda_min|)^k, so
    "stays at the saddle" only holds numerically if the update map literally
    reproduces its input. With identical agents and an exactly-averaging W the
    fixed point exists within a few ULP of the Newton root; on heterogeneous
    topologies the agents move structurally (per-agent gradients differ at a
    stationary point of the mean) and theta is returned unchanged, as it is
    when the update overflows.
    """
    theta = np.asarray(theta, dtype=float)
    if type(problem).retract is not Problem.retract or problem.d > 3:
        return theta
    m, d = problem.m, problem.d

    def drift(th):
        x = np.tile(th, (m, 1))
        g = problem.agent_gradients(x)
        return mixing_update(w.w, x, g + np.zeros((m, d)), lam) - x

    center_drift = drift(theta)
    if not center_drift.any():
        return theta
    if not np.abs(center_drift).max() <= 1e-8:
        return theta  # structural motion or a blow-up; no bitwise fixed point exists
    ulp = np.spacing(np.abs(theta))
    for offset in _ulp_offsets(d):
        th = theta + offset * ulp
        if not drift(th).any():
            return th
    return theta


def _ulp_offsets(d):
    """The integer offsets in [-64, 64]^d, nearest first and, at equal
    distance, in lexicographic order. Those within a distance of 4 lead that
    order, so the 129**d-point grid is built only when a caller reads past them."""
    near = _cube_by_distance(4, d)
    near = near[(near * near).sum(axis=1) <= 16]
    yield from near
    yield from _cube_by_distance(64, d)[len(near):]


def _cube_by_distance(half, d):
    """The integer offsets in [-half, half]^d, nearest first, ties in lexicographic order."""
    grids = np.meshgrid(*([np.arange(-half, half + 1)] * d), indexing="ij")
    cand = np.stack([g.ravel() for g in grids], axis=1)
    return cand[np.argsort((cand.astype(float) ** 2).sum(axis=1), kind="stable")]


def _initial_state(config: RunConfig, init_key) -> np.ndarray:
    p = config.problem
    if config.init_mode == "explicit":
        return np.array(config.init_coords)
    if config.init_mode == "at_saddle":
        # the problem's refined saddle, polished to a numerical fixed point of
        # this run's first-step update when possible
        theta = polish_fixed_point(p, config.weights, stepsize(config.schedule, 1),
                                   p.known_saddle())
        return np.tile(theta, (p.m, 1))
    return p.sample_init(philox(init_key))


def run_batch(configs, jobs=1) -> list:
    """Execute runs that share problem, topology, schedule and recording, and
    differ in seed, noise variance or initial state, in lockstep, or with
    jobs > 1 in that many contiguous chunks, one batch per worker process.
    A batch that needs more than physical memory is refused first. Returns
    one RunTrace per config, equal to what that config alone would give, so
    `jobs` never changes the result."""
    def shared(c):
        return c.problem, c.weights.w.tobytes(), c.schedule, c.iterations, c.record_every

    c0 = configs[0]
    if any(shared(c) != shared(c0) for c in configs):
        raise InvalidConfig("batched runs must share problem, topology, schedule and recording")
    p = c0.problem
    check_batch_memory(len(configs), p.m * p.d, c0.rows,
                       p.m * sum(c.noise_variance > 0 for c in configs), c0.row_bytes)
    jobs = min(jobs, len(configs))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        bounds = [len(configs) * c // jobs for c in range(jobs + 1)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = pool.map(run_batch, [configs[a:b] for a, b in zip(bounds, bounds[1:])])
            return [trace for part in parts for trace in part]
    # every run's noise keys and init key in one pass; (_INIT_STREAM, 0) draws
    # what SeedSequence((seed, _INIT_STREAM)) draws, since SeedSequence
    # zero-pads entropy that fits its 4-word pool, as a seed below 2**64 and
    # two key words do
    keys = stream_keys([c.seed for c in configs],
                       [(_NOISE_STREAM, j) for j in range(p.m)] + [(_INIT_STREAM, 0)])
    return lockstep(
        p, c0.weights.w, np.stack([_initial_state(c, k[-1]) for c, k in zip(configs, keys)]),
        c0.schedule, c0.iterations,
        [[philox(key) for key in k[:-1]] if c.noise_variance > 0 else None
         for c, k in zip(configs, keys)],
        [np.sqrt(c.noise_variance) for c in configs],
        record_every=c0.record_every,
    )


def run(config: RunConfig) -> RunTrace:
    """Execute the private algorithm, recording rows at k = 0, every
    record_every iterations, and the final step."""
    return run_batch([config])[0]
