"""Differentially private decentralized nonconvex optimization.

A simulator for single-variable-sharing gradient mixing over doubly-stochastic
networks: agents share w_ij (x_j - lambda_k (g_j + n_j)) instead of raw states,
the Gaussian noise n_j is calibrated against (epsilon, delta) targets, and the
same noise provides escape from non-minimum stationary points.
"""

from . import analysis, optimizer, privacy, problems, topology
from .analysis import (
    CouplingResult,
    assert_contraction,
    run_coupling_experiment,
)
from .optimizer import (
    RunConfig,
    RunTrace,
    StepsizeSchedule,
    run,
    stepsize,
)
from .privacy import (
    PrivacyBudget,
    SensitivityInputs,
    budget_for_variance,
    per_iteration_report,
    sensitivity,
    variance_for_budget,
)
from .problems import (
    EstimationProblem,
    IcaProblem,
    QuadraticProblem,
    classify_stationary_point,
    make_ica_problem,
    make_paper_estimation_problem,
)
from .topology import (
    Graph,
    WeightMatrix,
    build_metropolis_weights,
    builtin_topology,
    spectral_gap,
    validate_weight_matrix,
)

__version__ = "0.1.0"
