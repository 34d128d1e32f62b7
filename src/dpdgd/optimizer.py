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

import functools
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy loads it lazily; every run draws noise from it, so load it up front

from .topology import WeightMatrix

SCHEDULE_KINDS = ("constant", "harmonic", "piecewise_paper")

_NOISE_STREAM = 1
_INIT_STREAM = 2

NOISE_BLOCK = 64  # iterations of noise drawn from a stream at a time
_NOISE_BUFFER = 2**16  # cap on the doubles buffered across all streams (512 KB)
RECORD_CHUNK = 32  # recorded states whose metrics are computed in one stacked call


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

    @classmethod
    def constant(cls, lambda0):
        return cls(kind="constant", lambda0=lambda0)

    @classmethod
    def harmonic(cls, scale):
        return cls(kind="harmonic", scale=scale)

    @classmethod
    def piecewise_paper(cls, lambda0, switch_k, scale):
        return cls(kind="piecewise_paper", lambda0=lambda0, switch_k=switch_k, scale=scale)


def stepsize(schedule: StepsizeSchedule, k: int) -> float:
    """lambda_k for the step producing state k (iterations are 1-indexed;
    k = 0 is clamped to the first stepsize)."""
    if k < 0:
        raise InvalidConfig(f"iteration index must be >= 0, got {k}")
    k_eff = max(k, 1)
    if schedule.kind == "constant":
        return schedule.lambda0
    if schedule.kind == "harmonic":
        return schedule.scale / k_eff
    if k_eff <= schedule.switch_k:
        return schedule.lambda0
    return schedule.scale / k_eff


def stepsizes(schedule: StepsizeSchedule, ks) -> np.ndarray:
    """`stepsize` over an array of iteration indices, equal element by element."""
    k_eff = np.maximum(ks, 1)
    # lambda0 up to the switch, scale/k after: constant never switches, harmonic at once
    switch = {"constant": np.inf, "harmonic": 0}.get(schedule.kind, schedule.switch_k)
    return np.where(k_eff <= switch, schedule.lambda0, schedule.scale / k_eff)


@dataclass(frozen=True)
class NoiseSpec:
    """Per-coordinate Gaussian variance of the gradient noise; 0 disables
    noise entirely (no RNG draws are consumed)."""

    variance: float
    seed: int = 0

    def __post_init__(self):
        if self.variance < 0:
            raise InvalidConfig(f"noise variance must be >= 0, got {self.variance}")


@dataclass
class AgentState:
    x: np.ndarray  # (m, d)
    k: int = 0


@dataclass
class TraceRecord:
    k: int
    lam: float
    consensus_error: float
    opt_error_mean: float
    opt_error_max: float
    noise_norm: float
    gn_norm: float
    x: np.ndarray | None = None
    mean_gn: np.ndarray | None = None


@dataclass
class RunTrace:
    records: list
    final_state: AgentState
    seed: int
    eta: float
    config_fingerprint: str = ""


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
    record_state: bool = False
    fingerprint: str = ""

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


# numpy's SeedSequence: a 4-word uint32 pool mixed from the entropy words by
# multiply-xorshift hashes whose constants follow a fixed chain
_POOL = 4
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_chain(init, mult, n):
    """(xor, multiplier) constants of n successive SeedSequence hashes."""
    h = [init]
    for _ in range(n):
        h.append(h[-1] * mult & 0xFFFFFFFF)
    return h[:-1], h[1:]


def _column(values):
    return np.array(values, dtype=np.uint32)[:, None]


@functools.lru_cache
def _mixing_constants(length):
    """Hash constants of each pool update for `length` entropy words: the
    initial fill, one update per source slot, one per word past the pool."""
    xor, mul = _hash_chain(0x43B0D7E5, 0x931E8875, _POOL * _POOL + _POOL * max(0, length - _POOL))
    steps = [(_column(xor[:_POOL]), _column(mul[:_POOL]))]
    t = _POOL
    for src in range(_POOL):
        # pool[src] hashes into every other slot in turn; slot src keeps its
        # value, so its constant (a placeholder) goes unused
        idx = [t + dst - (dst > src) if dst != src else t for dst in range(_POOL)]
        steps.append((_column([xor[i] for i in idx]), _column([mul[i] for i in idx])))
        t += _POOL - 1
    return steps + [(_column(xor[i:i + _POOL]), _column(mul[i:i + _POOL]))
                    for i in range(t, len(xor), _POOL)]


_STATE_CONSTANTS = tuple(_column(c) for c in _hash_chain(0x8B51F9DD, 0x58F38DED, _POOL))


def _hash(v, xor, mul):
    v = (v ^ xor) * mul
    return v ^ (v >> 16)


def _mix(a, b):
    r = a * _MIX_L - b * _MIX_R
    return r ^ (r >> 16)


def _seed_sequence_keys(words) -> np.ndarray:
    """`SeedSequence(entropy).generate_state(2, np.uint64)` for every row of
    `words`, an (n, L) array of the entropies' uint32 words, in one pass."""
    words = words.T
    length, n = words.shape
    first, *steps = _mixing_constants(length)
    pool = np.zeros((_POOL, n), np.uint32)
    pool[:length] = words[:_POOL]
    pool = _hash(pool, *first)
    for src, consts in enumerate(steps[:_POOL]):
        mixed = _mix(pool, _hash(pool[src], *consts))
        mixed[src] = pool[src]
        pool = mixed
    for word, consts in zip(words[_POOL:], steps[_POOL:]):
        pool = _mix(pool, _hash(word, *consts))
    state = _hash(pool, *_STATE_CONSTANTS).astype(np.uint64)
    # the four words read as two little-endian uint64s
    return (state[0::2] | state[1::2] << np.uint64(32)).T


def stream_keys(seed, keys) -> np.ndarray:
    """(n, 2) uint64 Philox keys of the streams (seed, *key), one per key in
    `keys`, equal-length tuples of integers in [0, 2**32); row i is
    `SeedSequence((seed, *keys[i])).generate_state(2, np.uint64)` bit for bit."""
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    seed_words = [seed & 0xFFFFFFFF]  # SeedSequence's little-endian 32-bit split
    while seed >> 32 * len(seed_words):
        seed_words.append(seed >> 32 * len(seed_words) & 0xFFFFFFFF)
    keys = np.asarray(keys)
    if keys.size and not (keys.dtype.kind in "iu" and keys.min() >= 0 and keys.max() < 2**32):
        raise ValueError("stream key entries must be integers in [0, 2**32)")
    words = np.empty((len(keys), len(seed_words) + keys.shape[1]), dtype=np.uint32)
    words[:, :len(seed_words)] = seed_words
    words[:, len(seed_words):] = keys
    return _seed_sequence_keys(words)


class _PhiloxKey(numpy.random.bit_generator.ISeedSequence):
    """Hands Philox a precomputed key, which is all it asks a seed sequence for."""

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def philox_streams(seed, keys) -> list:
    """The counter-based Philox streams keyed (seed, *key) for each key in
    `keys` (see `stream_keys`), drawing what
    `Generator(Philox(SeedSequence((seed, *key))))` draws."""
    Generator, Philox = np.random.Generator, np.random.Philox
    return [Generator(Philox(_PhiloxKey(key))) for key in stream_keys(seed, keys)]


def noise_streams(seed, m):
    """One Philox substream per agent; draw j at iteration k is a pure
    function of (seed, j, k)."""
    return philox_streams(seed, [(_NOISE_STREAM, j) for j in range(m)])


def init_rng(seed):
    return philox_streams(seed, [(_INIT_STREAM,)])[0]


def mixing_update(w_arr, x, gn, lam):
    """One stacked update W (x - lam * gn); gn is the (..., m, d) array g + N."""
    return w_arr @ (x - lam * gn)


@dataclass
class Lockstep:
    """What `lockstep` leaves behind, indexed by run."""

    x: np.ndarray  # final states; a stopped run keeps its state at the stop
    records: list  # TraceRecord rows per run (empty lists when not recording)
    stopped_at: list  # iteration at which `stop` fired per run, else None


@np.errstate(over="ignore", invalid="ignore")  # blow-ups raise NonFiniteState instead
def lockstep(problem, w_arr, x, schedule, iterations, streams, scales, *, k0=0,
             record_every=0, keep_state=False, noise_map=None, stop=None) -> Lockstep:
    """Advance the R runs stacked in x (R, ..., m, d) from iteration k0 to
    k0 + iterations, every run by the same update.

    Run r's noise for agent j is drawn from streams[r][j], in blocks of up to
    NOISE_BLOCK iterations, and scaled by scales[r]; a run with streams[r] None
    draws nothing and gets zero noise. `noise_map` maps the (R, m, d) noise
    onto x's shape. The update is x <- W (x - lam (g + N)). Any non-finite
    state raises NonFiniteState. With record_every > 0 each run records rows
    at k0, at every multiple of record_every and at the last iteration.
    `stop(x, k)` returns a mask over the runs still advancing; a run whose
    mask is set stops there and draws no further noise.
    """
    x = np.array(x, dtype=float)
    runs = x.shape[0]
    m, d = x.shape[-2:]
    final = x.copy()
    active = np.arange(runs)
    fills = [None if rngs is None else [rng.standard_normal for rng in rngs] for rngs in streams]
    scales = np.asarray(scales, dtype=float).reshape(runs, 1, 1, 1)
    agent_gradients, retract, isfinite = problem.agent_gradients, problem.retract, np.isfinite
    block = max(1, min(NOISE_BLOCK, _NOISE_BUFFER // max(1, runs * m * d)))
    stopped_at = [None] * runs
    rows = []  # (run, k, lam, x, noise_norm, gn_norm, mean_gn); metrics come after the loop
    if record_every:
        lam = stepsize(schedule, k0 + 1)
        rows += [(r, k0, lam, x[r].copy(), 0.0, 0.0, None) for r in range(runs)]
    k_end = k0 + iterations
    buf, pos = None, 0
    for k in range(k0 + 1, k_end + 1):
        if buf is None or pos == buf.shape[2]:
            # (run, agent, iteration, coordinate): each stream fills a
            # contiguous (K, d) slab, the same numbers as K draws of d;
            # rows of runs without streams stay zero
            size = min(block, k_end - k + 1)
            if buf is None or buf.shape[2] != size:
                buf = None  # release the old block before allocating
                buf = np.zeros((len(active), m, size, d))
            for i, fill in enumerate(fills):
                if fill is not None:
                    for j in range(m):
                        fill[j](out=buf[i, j])
            buf *= scales  # the same product as scaling each step's slice
            lams = stepsizes(schedule, np.arange(k, k + size)).tolist()
            pos = 0
        n = buf[:, :, pos]
        lam = lams[pos]
        pos += 1
        gn = agent_gradients(x) + (n if noise_map is None else noise_map(n))
        x = retract(mixing_update(w_arr, x, gn, lam))
        if not isfinite(x).all():
            raise NonFiniteState(k)
        if record_every and (k % record_every == 0 or k == k_end):
            rows += [
                (r, k, lam, x[i].copy(), float(np.linalg.norm(n[i])),
                 float(np.linalg.norm(gn[i])), gn[i].mean(axis=0) if keep_state else None)
                for i, r in enumerate(active)
            ]
        if stop is not None:
            done = np.asarray(stop(x, k), dtype=bool)
            if done.any():
                final[active[done]] = x[done]
                for r in active[done]:
                    stopped_at[r] = k
                keep = ~done
                active, x, buf, scales = active[keep], x[keep], buf[keep], scales[keep]
                fills = [fill for fill, kept in zip(fills, keep) if kept]
                if not active.size:
                    break
    final[active] = x
    records = [[] for _ in range(runs)]
    metrics = row_metrics(problem, [row[3] for row in rows])
    for (r, k, lam, xr, noise_norm, gn_norm, mean_gn), errors in zip(rows, metrics):
        records[r].append(TraceRecord(k, lam, *errors, noise_norm, gn_norm,
                                      xr if keep_state else None, mean_gn))
    return Lockstep(x=final, records=records, stopped_at=stopped_at)


def row_metrics(problem, xs) -> list:
    """(consensus_error, opt_error_mean, opt_error_max) of each state in xs, a
    sequence of (m, d) states, RECORD_CHUNK states to a stacked call; each
    triple is bitwise what the state alone gives."""
    out = []
    for a in range(0, len(xs), RECORD_CHUNK):
        x = np.array(xs[a:a + RECORD_CHUNK], dtype=float)
        dev = (x - x.mean(axis=1, keepdims=True)).reshape(len(x), 1, -1)
        # a (1, md) @ (md, 1) matmul is a dot, like the norm of one flattened state
        consensus = np.sqrt(dev @ dev.swapaxes(1, 2)).reshape(-1)
        errs = problem.optimization_errors(x).reshape(len(x), -1)
        out += zip(consensus.tolist(), errs.mean(axis=1).tolist(), errs.max(axis=1).tolist())
    return out


def step(state: AgentState, w: WeightMatrix, problem, schedule: StepsizeSchedule,
         noise: NoiseSpec, rngs=None) -> AgentState:
    """Advance one iteration. Pass the rngs returned by noise_streams to get
    the run-loop noise sequence; omitting them re-creates fresh streams, which
    reproduces iteration 1 only."""
    if rngs is None:
        rngs = noise_streams(noise.seed, w.m)
    out = lockstep(
        problem, w.w, np.asarray(state.x, dtype=float)[None], schedule, 1,
        [rngs if noise.variance > 0 else None], [np.sqrt(noise.variance)], k0=state.k,
    )
    return AgentState(x=out.x[0], k=state.k + 1)


def _uses_retraction(problem):
    from .problems.base import Problem

    return type(problem).retract is not Problem.retract


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
    if _uses_retraction(problem) or problem.d > 3:
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
    offsets = np.arange(-64, 65)
    grids = np.meshgrid(*([offsets] * d), indexing="ij")
    cand = np.stack([g_.ravel() for g_ in grids], axis=1)
    order = np.argsort((cand.astype(float) ** 2).sum(axis=1), kind="stable")
    for idx in order:
        th = theta + cand[idx] * ulp
        if not drift(th).any():
            return th
    return theta


def resolve_at_saddle_init(problem, w: WeightMatrix, schedule: StepsizeSchedule) -> np.ndarray:
    """Initial point for at_saddle runs: the problem's refined saddle, polished
    to a numerical fixed point of this run's first-step update when possible."""
    return polish_fixed_point(problem, w, stepsize(schedule, 1), problem.known_saddle())


def _initial_state(config: RunConfig) -> np.ndarray:
    p = config.problem
    if config.init_mode == "explicit":
        return np.array(config.init_coords)
    if config.init_mode == "at_saddle":
        theta = resolve_at_saddle_init(p, config.weights, config.schedule)
        return np.tile(theta, (p.m, 1))
    return p.sample_init(init_rng(config.seed))


def run_batch(configs) -> list:
    """Execute runs that share problem, topology, schedule and recording, and
    differ in seed, noise variance or initial state, in lockstep. Returns one
    RunTrace per config, equal to what that config alone would give."""
    def shared(c):
        return (c.problem, c.weights.w.tobytes(), c.schedule, c.iterations, c.record_every,
                c.record_state)

    c0 = configs[0]
    if any(shared(c) != shared(c0) for c in configs):
        raise InvalidConfig("batched runs must share problem, topology, schedule and recording")
    p = c0.problem
    out = lockstep(
        p, c0.weights.w, np.stack([_initial_state(c) for c in configs]), c0.schedule,
        c0.iterations,
        [noise_streams(c.seed, p.m) if c.noise_variance > 0 else None for c in configs],
        [np.sqrt(c.noise_variance) for c in configs],
        record_every=c0.record_every, keep_state=c0.record_state,
    )
    return [
        RunTrace(records, AgentState(x=x, k=c.iterations), c.seed, c.weights.eta, c.fingerprint)
        for c, records, x in zip(configs, out.records, out.x)
    ]


def run(config: RunConfig) -> RunTrace:
    """Execute the private algorithm, recording rows at k = 0, every
    record_every iterations, and the final step."""
    return run_batch([config])[0]
