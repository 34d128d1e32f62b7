"""Differentially private decentralized nonconvex optimization.

A simulator for single-variable-sharing gradient mixing over doubly-stochastic
networks: agents share w_ij (x_j - lambda_k (g_j + n_j)) instead of raw states,
the Gaussian noise n_j is calibrated against (epsilon, delta) targets, and the
same noise provides escape from non-minimum stationary points.
"""

from . import analysis, optimizer, privacy, problems, topology

__version__ = "0.1.0"
