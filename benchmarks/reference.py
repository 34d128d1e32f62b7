"""Independent restatement of the dpdgd arithmetic, used to check outputs.

Nothing here imports dpdgd. Each function recomputes, from a generated
config, the numbers that one CLI subcommand writes, using the same formulas,
the same Philox stream keys and the same seeding as the package at the commit
that introduced this benchmark. Runs that the program executes one after
another are advanced here in lockstep over a leading batch axis, with each
stream's noise drawn as one block: `standard_normal((K, d))` yields the same
sequence as K calls of `standard_normal(d)`. Batched sums may round
differently in the last bits, so callers compare with a rounding-level
tolerance, not bytes.
"""

from __future__ import annotations

import math

import numpy as np

NOISE_STREAM, INIT_STREAM, COUPLING_STREAM, TABLE1_STREAM = 1, 2, 3, 10

# the reference estimation instance (make_paper_estimation_problem)
EST_M = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
EST_Y = np.array([i * np.array([1.0 / 3.0, 2.0 / 3.0, 0.0]) for i in range(1, 6)])
EST_KAPPA = -0.1
EST_LO = np.array([-8.0, -3.0])
EST_HI = np.array([4.0, 3.0])
EST_RAMP = 0.5
EST_WALL_FACTOR = 1.25
EST_SEED_MIN = np.array([1.3478, 1.0690])
EST_SEED_SADDLE = np.array([-7.4336, 1.3959])


def philox(*key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(tuple(int(k) for k in key))))


# -- topology and schedule ----------------------------------------------------


def metropolis(name, m):
    edges = set()
    if name == "complete":
        edges = {(i, j) for i in range(m) for j in range(i + 1, m)}
    elif name == "ring_plus_chord":
        edges = {(min(i, (i + 1) % m), max(i, (i + 1) % m)) for i in range(m)}
        edges.add((0, m // 2))
    else:
        raise ValueError(f"reference has no topology {name!r}")
    deg = np.zeros(m, dtype=int)
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    w = np.zeros((m, m))
    for i, j in edges:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    for i in range(m):
        w[i, i] = 1.0 - w[i].sum()
    return w


def stepsize(spec, k):
    k = max(k, 1)
    if spec["kind"] == "constant":
        return float(spec["lambda0"])
    if spec["kind"] == "harmonic":
        return float(spec["scale"]) / k
    if k <= int(spec["switch_k"]):
        return float(spec["lambda0"])
    return float(spec["scale"]) / k


# -- estimation problem --------------------------------------------------------

_MTM = EST_M.T @ EST_M
_MTY = EST_Y @ EST_M


def _inside_gradients(x):
    """Per-agent gradients inside the box; x has shape (..., m, d)."""
    nt = np.linalg.norm(x, axis=-1, keepdims=True)
    return -2.0 * _MTY + 2.0 * (x @ _MTM) + 3.0 * EST_KAPPA * nt * x


def _inside_hessian(theta):
    nt = np.linalg.norm(theta)
    return 2.0 * _MTM + 3.0 * EST_KAPPA * (nt * np.eye(2) + np.outer(theta, theta) / nt)


def _wall_slope():
    ts = np.linspace(0.0, 1.0, 512)
    lo, hi = EST_LO, EST_HI
    corners = [(lo, np.array([hi[0], lo[1]])), (np.array([hi[0], lo[1]]), hi),
               (hi, np.array([lo[0], hi[1]])), (np.array([lo[0], hi[1]]), lo)]
    pts = np.vstack([a + (b - a) * ts[:, None] for a, b in corners])
    g = _inside_gradients(pts[:, None, :])  # (P, m, d)
    return EST_WALL_FACTOR * float(np.linalg.norm(g, axis=-1).max())


WALL_SLOPE = _wall_slope()


def _wall_gradient(agent, theta):
    """Gradient of the linear-growth extension outside the box."""
    tc = np.clip(theta, EST_LO, EST_HI)
    dvec = theta - tc
    r = float(np.linalg.norm(dvec))
    nhat = dvec / r
    g = _inside_gradients(tc[None, :])[agent]
    t = r / EST_RAMP
    s, sp = (1.0 - t * t * (3.0 - 2.0 * t), -6.0 * t * (1.0 - t) / EST_RAMP) if t < 1.0 else (0.0, 0.0)
    unclamped = (dvec == 0.0).astype(float)
    grad = unclamped * g + WALL_SLOPE * nhat
    if s != 0.0 or sp != 0.0:
        hd = _inside_hessian(tc) @ dvec if np.linalg.norm(tc) > 0 else 2.0 * (_MTM @ dvec)
        grad = grad + sp * float(g @ dvec) * nhat + s * (unclamped * hd + (1.0 - unclamped) * g)
    return grad


def estimation_gradients(x):
    """Extended per-agent gradients for a batch of states x of shape (R, m, d)."""
    g = _inside_gradients(x)
    outside = (np.clip(x, EST_LO, EST_HI) != x).any(axis=-1)
    for r, j in zip(*np.nonzero(outside)):
        g[r, j] = _wall_gradient(j, x[r, j])
    return g


def _newton(seed_point):
    x = seed_point.copy()
    for _ in range(100):
        nxt = x - np.linalg.solve(_inside_hessian(x), _inside_gradients(x[None, :]).mean(axis=0))
        if np.array_equal(nxt, x):
            break
        x = nxt
    return x


EST_MINIMUM = _newton(EST_SEED_MIN)
EST_SADDLE = _newton(EST_SEED_SADDLE)


class _NoiseBlocks:
    """Philox streams keyed (*prefix, agent) for each run's key prefix, read in
    blocks of `block` iterations; `at(k)` must be called for k = 1, 2, ..."""

    def __init__(self, keys, m, d, block):
        self.rngs = [[philox(*key, j) for j in range(m)] for key in keys]
        self.d, self.block = d, block
        self.start, self.buf = 1, None

    def at(self, k):
        if self.buf is None or k >= self.start + self.block:
            self.start = k
            self.buf = np.stack([np.stack([rng.standard_normal((self.block, self.d)) for rng in row], axis=1)
                                 for row in self.rngs])  # (R, block, m, d)
        return self.buf[:, k - self.start]


def table1(cfg):
    """Rows (variance, mean_final_error, std_final_error, runs) of `dpdgd table1`."""
    base = cfg["base"]
    w = metropolis(base["topology"]["builtin"], base["topology"]["m"])
    variances = [float(v) for v in cfg["variances"]]
    n = int(cfg["runs_per_cell"])
    seeds = [
        int(np.random.SeedSequence((int(base["seed"]), TABLE1_STREAM, i, r)).generate_state(1, dtype=np.uint64)[0])
        for i in range(len(variances)) for r in range(n)
    ]
    sig = np.repeat(np.sqrt(variances), n)[:, None, None]
    x = np.stack([philox(s, INIT_STREAM).uniform(EST_LO, EST_HI, size=(5, 2)) for s in seeds])
    noise = _NoiseBlocks([(s, NOISE_STREAM) for s in seeds], 5, 2, 500)
    for k in range(1, int(base["iterations"]) + 1):
        lam = stepsize(base["schedule"], k)
        x = w @ (x - lam * (estimation_gradients(x) + noise.at(k) * sig))
        if not np.isfinite(x).all():
            raise FloatingPointError(f"reference diverged at iteration {k}")
    finals = np.linalg.norm(x - EST_MINIMUM, axis=-1).mean(axis=-1).reshape(len(variances), n)
    return [(v, float(f.mean()), float(f.std()), n) for v, f in zip(variances, finals)]


def _min_eigvec(h):
    vals, vecs = np.linalg.eigh(0.5 * (h + h.T))
    v = vecs[:, int(np.argmin(vals))]
    nz = v[v != 0.0]
    if nz.size and nz[0] < 0:
        v = -v
    return v / np.linalg.norm(v)


def coupling(cfg):
    """The numeric fields of `dpdgd coupling` output: e1 and escape iterations."""
    m = int(cfg["topology"]["m"])
    w = metropolis(cfg["topology"]["builtin"], m)
    saddle = EST_SADDLE
    e1 = _min_eigvec(_inside_hessian(saddle))
    runs, horizon, radius = int(cfg["runs"]), int(cfg["horizon"]), float(cfg["escape_radius"])
    sig = math.sqrt(float(cfg["variance"]))
    x = np.tile(saddle, (2, runs, m, 1))  # pair member, run, agent, coordinate
    noise = _NoiseBlocks([(int(cfg["seed"]), COUPLING_STREAM, r) for r in range(runs)], m, 2, 256)
    hits = [None] * runs
    for k in range(1, horizon + 1):
        lam = stepsize(cfg["schedule"], k)
        n = noise.at(k) * sig
        nb = n - 2.0 * (n @ e1)[..., None] * e1
        g = estimation_gradients(x.reshape(2 * runs, m, 2)).reshape(x.shape)
        x = w @ (x - lam * (g + np.stack([n, nb])))
        out = (np.linalg.norm(x.mean(axis=2) - saddle, axis=-1) > radius).any(axis=0)
        for r in np.nonzero(out)[0]:
            if hits[r] is None:
                hits[r] = k
        if all(h is not None for h in hits):
            break
    return {"e1": e1, "iterations_to_escape": hits, "escape_count": sum(h is not None for h in hits),
            "total_runs": runs, "escape_radius": radius, "seed": int(cfg["seed"])}


# -- ICA problem ---------------------------------------------------------------


def ica_instance(d, m, samples_per_agent, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    a = q * signs[None, :]
    z = rng.choice(np.array([-1.0, 1.0]), size=(m, samples_per_agent, d))
    return a, z @ a.T


def ica_run(cfg, seed):
    """Trace rows and summary of `dpdgd run` on an ICA config with random init."""
    p = cfg["problem"]
    d, m, n_per = int(p["d"]), int(p["m"]), int(p["samples_per_agent"])
    a, ys = ica_instance(d, m, n_per, int(p["seed"]))
    w = metropolis(cfg["topology"]["builtin"], m)
    sig = math.sqrt(float(cfg["noise"]["variance"]))
    iters, every = int(cfg["iterations"]), int(cfg.get("record_every", 1))
    x = philox(seed, INIT_STREAM).standard_normal((m, d))
    x = x / np.linalg.norm(x, axis=1, keepdims=True)
    noise = _NoiseBlocks([(seed, NOISE_STREAM)], m, d, 1000)

    def row(k, lam, nn):
        errs = np.minimum(np.linalg.norm(x[:, :, None] - a[None], axis=1).min(axis=1),
                          np.linalg.norm(x[:, :, None] + a[None], axis=1).min(axis=1))
        return {"k": k, "lambda": lam, "consensus_error": float(np.linalg.norm(x - x.mean(axis=0))),
                "opt_error_mean": float(errs.mean()), "opt_error_max": float(errs.max()), "noise_norm": nn}

    rows = [row(0, stepsize(cfg["schedule"], 1), 0.0)]
    for k in range(1, iters + 1):
        lam = stepsize(cfg["schedule"], k)
        proj = np.einsum("mnd,md->mn", ys, x)
        g = 4.0 * np.einsum("mn,mnd->md", proj * proj * proj, ys) / n_per
        g = g - np.einsum("md,md->m", x, g)[:, None] * x
        n = noise.at(k)[0] * sig
        x = w @ (x - lam * (g + n))
        x = x / np.linalg.norm(x, axis=1, keepdims=True)
        if k % every == 0 or k == iters:
            rows.append(row(k, lam, float(np.linalg.norm(n))))
    return rows, {"seed": seed, "final_state": x}


# -- privacy report ------------------------------------------------------------


def privacy_report(cfg):
    """Columns of `dpdgd privacy-report`: classical Gaussian-mechanism epsilons."""
    ks = np.arange(1, int(cfg["horizon"]) + 1)
    lam = np.array([stepsize(cfg["schedule"], int(k)) for k in ks])
    v, nu, n_i = float(cfg["variance"]), float(cfg["nu"]), int(cfg["n_i"])
    c = 2.0 * math.log(1.25 / float(cfg["delta"]))
    return {
        "k": ks, "lambda": lam,
        "eps_sample": nu * lam / n_i * np.sqrt(c / v),
        "eps_gradient": lam * np.sqrt(c / v),
        "eps_variable": np.sqrt(c / (v * (lam * lam))),
    }
