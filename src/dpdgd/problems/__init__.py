"""Benchmark objectives: per-agent gradients, Hessians, stationary points."""

from .base import (
    CLASSIFICATIONS,
    KnownPoint,
    Problem,
    ProblemConstants,
    ProblemError,
    classify_stationary_point,
)
from .estimation import EstimationProblem, make_paper_estimation_problem
from .ica import IcaProblem, make_ica_problem
from .quadratic import QuadraticProblem
