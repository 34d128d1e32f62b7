"""Communication graphs and doubly-stochastic mixing matrices.

Agents average their neighbors' messages through a symmetric doubly-stochastic
weight matrix W. The quantity that controls how fast disagreement contracts is
the spectral gap eta = ||W - (1 1^T)/m||; every validated matrix here satisfies
eta < 1, which requires the underlying graph to be connected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

STOCHASTIC_TOL = 1e-12
SYMMETRY_TOL = 1e-12

BUILTIN_TOPOLOGIES = ("complete", "ring", "path", "ring_plus_chord")


class TopologyError(ValueError):
    """Base class for graph / weight-matrix construction failures."""


@dataclass(frozen=True)
class Graph:
    """Undirected graph on agents 0..m-1 with no self loops.

    Self-influence is implicit: weight construction always assigns w_ii > 0.
    """

    m: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.m < 1:
            raise TopologyError(f"agent count must be positive, got {self.m}")
        norm = set()
        for i, j in self.edges:
            if i == j:
                raise TopologyError(f"self loop ({i},{j}) not allowed")
            if not (0 <= i < self.m and 0 <= j < self.m):
                raise TopologyError(f"edge ({i},{j}) out of range for m={self.m}")
            norm.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", frozenset(norm))

    def degrees(self):
        deg = np.zeros(self.m, dtype=int)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def is_connected(self):
        """Depth-first reachability from agent 0."""
        if self.m == 1:
            return True
        adj = [[] for _ in range(self.m)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        seen, stack = {0}, [0]
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.m


@dataclass(frozen=True)
class WeightMatrix:
    """Validated symmetric doubly-stochastic mixing matrix with cached gap.

    Construct via validate_weight_matrix or build_metropolis_weights; the
    constructor itself performs no checks.
    """

    m: int
    w: np.ndarray
    eta: float

    def __post_init__(self):
        w = np.array(self.w, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "w", w)


def spectral_gap(w) -> float:
    """Largest absolute eigenvalue of W - (1 1^T)/m.

    For symmetric W this equals the spectral norm, i.e. the contraction factor
    of the disagreement component under one mixing step. Subtracting the
    averaging matrix removes the consensus eigendirection (eigenvalue 1).
    """
    arr = w.w if isinstance(w, WeightMatrix) else np.asarray(w, dtype=float)
    m = arr.shape[0]
    dev = arr - np.ones((m, m)) / m
    return float(np.abs(np.linalg.eigvalsh(0.5 * (dev + dev.T))).max())


def validate_weight_matrix(w) -> WeightMatrix:
    """Check symmetry, double stochasticity, positivity and eta < 1.

    Raises TopologyError naming the first violation found, in this order:
    asymmetry, row/col sums, a negative entry, a zero self weight, eta >= 1.
    """
    arr = np.asarray(w, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise TopologyError(f"weight matrix must be square, got shape {arr.shape}")
    m = arr.shape[0]
    if not np.isfinite(arr).all():
        raise TopologyError("weight matrix contains non-finite entries")
    asym = np.abs(arr - arr.T).max()
    if asym > SYMMETRY_TOL:
        raise TopologyError(f"weight matrix is not symmetric: max |w_ij - w_ji| = {asym:.3e} "
                            f"exceeds {SYMMETRY_TOL:.0e}")
    row_err = np.abs(arr.sum(axis=1) - 1.0).max()
    col_err = np.abs(arr.sum(axis=0) - 1.0).max()
    if max(row_err, col_err) > STOCHASTIC_TOL:
        raise TopologyError(f"row/col sums deviate from 1 by up to {max(row_err, col_err):.3e}")
    if (arr < 0).any():
        i, j = np.unravel_index(np.argmin(arr), arr.shape)
        raise TopologyError(f"w[{i},{j}] = {arr[i, j]:.3e} is negative")
    diag = np.diag(arr)
    if (diag <= 0).any():
        i = int(np.argmin(diag))
        raise TopologyError(f"w[{i},{i}] = {diag[i]:.3e} must be positive")
    eta = spectral_gap(arr)
    if eta >= 1.0:
        raise TopologyError(f"eta = {eta:.6f} >= 1 (disagreement does not contract)")
    return WeightMatrix(m=m, w=arr, eta=eta)


def build_metropolis_weights(g: Graph) -> WeightMatrix:
    """Metropolis weights: w_ij = 1/(1 + max(deg_i, deg_j)) on edges.

    The diagonal absorbs the remainder, which keeps every row sum at 1 and
    guarantees w_ii > 0 on any graph; symmetry and double stochasticity follow
    from the symmetric edge weights. Requires a connected graph so the
    resulting gap satisfies eta < 1.
    """
    if not g.is_connected():
        raise TopologyError(f"graph on {g.m} agents with {len(g.edges)} edges is not connected")
    deg = g.degrees()
    w = np.zeros((g.m, g.m))
    for i, j in g.edges:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    for i in range(g.m):
        w[i, i] = 1.0 - w[i].sum()
    return validate_weight_matrix(w)


def builtin_topology(name: str, m: int) -> Graph:
    """Named graph families: complete, ring, path, ring_plus_chord.

    ring_plus_chord is the ring plus the extra edge (0, m//2); it is the
    default 5-agent experiment topology.
    """
    if m < 1:
        raise TopologyError(f"agent count must be positive, got {m}")
    edges = set()
    if name == "complete":
        edges = {(i, j) for i in range(m) for j in range(i + 1, m)}
    elif name == "path":
        edges = {(i, i + 1) for i in range(m - 1)}
    elif name in ("ring", "ring_plus_chord"):
        edges = {(i, (i + 1) % m) for i in range(m) if m > 1}
        if name == "ring_plus_chord" and m // 2 != 0:
            edges.add((0, m // 2))
    else:
        raise TopologyError(f"unknown topology {name!r}; expected one of {BUILTIN_TOPOLOGIES}")
    return Graph(m=m, edges=frozenset(edges))

