"""Central finite differences: the oracles that gradient and Hessian tests
compare against."""

from __future__ import annotations

import numpy as np


def gradient(f, x, step=1e-5):
    """Central-difference gradient of a scalar function f at x."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (f(x + e) - f(x - e)) / (2 * step)
    return g


def jacobian(f, x, step=1e-6):
    """Central-difference Jacobian of a vector function f at x (rows = outputs)."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * step))
    return np.stack(cols, axis=1)


def hessian(f, x, step=1e-4):
    """Central-difference Hessian of a scalar function f at x, symmetrized."""
    x = np.asarray(x, dtype=float)
    n = x.size
    h = np.zeros((n, n))
    f0 = f(x)
    eye = np.eye(n) * step
    for i in range(n):
        h[i, i] = (f(x + 2 * eye[i]) - 2 * f0 + f(x - 2 * eye[i])) / (4 * step * step)
        for j in range(i + 1, n):
            pij = f(x + eye[i] + eye[j]) - f(x + eye[i] - eye[j])
            pij -= f(x - eye[i] + eye[j]) - f(x - eye[i] - eye[j])
            h[i, j] = h[j, i] = pij / (4 * step * step)
    return h
