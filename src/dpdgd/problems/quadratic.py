"""Diagonal quadratic test problem with known closed-form structure.

Used as an oracle: with positive curvatures the minimum is the mean of the
per-agent offsets; with nonzero mixed signs the origin is a strict saddle. Keeps
the optimizer and analysis test surfaces independent of the benchmark problems.
"""

from __future__ import annotations

import numpy as np

from .base import KnownPoint, Problem, ProblemError


class QuadraticProblem(Problem):
    name = "custom_quadratic"

    def __init__(self, diag, m=1, offsets=None):
        self.c = np.array(diag, dtype=float)
        self.d = self.c.size
        self.m = int(m)
        if self.c.ndim != 1 or not self.d or self.m < 1:
            raise ProblemError("need a non-empty diag and m >= 1")
        if offsets is None:
            offsets = np.zeros((self.m, self.d))
        self.offsets = np.array(offsets, dtype=float)
        if self.offsets.shape != (self.m, self.d):
            raise ProblemError(f"offsets must have shape ({self.m}, {self.d})")
        if (self.c > 0).any() and (self.c < 0).any() and self.c.all() and not self.offsets.any():
            self.known_points = (KnownPoint(coords=tuple(np.zeros(self.d)), kind="strict_saddle"),)

    def agent_objective(self, agent, theta):
        self._check_agent(agent)
        theta = self._check_theta(theta)
        return float(self.c @ (theta - self.offsets[agent]) ** 2)

    def agent_gradients(self, x):
        return 2.0 * self.c[None, :] * (x - self.offsets)

    def tangent_hessian(self, theta):
        self._check_theta(theta)
        return np.eye(self.d), 2.0 * np.diag(self.c)

    def sample_init(self, rng):
        return rng.uniform(-3.0, 3.0, size=(self.m, self.d))

    def reference_minimum(self):
        return self.offsets.mean(axis=0) if (self.c > 0).all() else None
