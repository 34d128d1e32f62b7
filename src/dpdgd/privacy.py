"""Sensitivity functions and Gaussian-mechanism calibration.

The shared message of agent i at iteration k is M_i = x_i - lambda_k g_i plus
the scaled noise -lambda_k n_i. Three protection targets are supported, each
with its worst-case l1 sensitivity under a unit l1 change of the protected
quantity:

    sample    S = nu * lambda_k / n_i   (one data sample changes one summand
                                         of the per-agent empirical gradient)
    gradient  S = lambda_k              (the gradient enters M scaled by it)
    variable  S = 1                     (x_i enters M directly)

Calibration uses the standard Gaussian-mechanism bound
sigma^2 >= 2 ln(1.25/delta) S^2 / eps^2 for eps, delta in (0, 1), stated for
the variance of the raw per-coordinate noise n_i; for the `variable` target
the noise reaches x_i scaled by lambda_k, hence the extra lambda_k^2 in the
denominator. The mechanism is stated for l2 sensitivity; the l1 figures above
bound it from above (l2 <= l1), so the calibration is conservative. Budgets
are per-iteration only; no composition across iterations is computed or
implied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optimizer import StepsizeSchedule, stepsizes

TARGETS = ("sample", "gradient", "variable")


class PrivacyError(ValueError):
    pass


@dataclass(frozen=True)
class PrivacyBudget:
    """(epsilon, delta) pair with the protection target; both parameters must
    lie in (0, 1), the range for which the Gaussian-mechanism bound holds."""

    epsilon: float
    delta: float
    target: str

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise PrivacyError(f"epsilon must be in (0,1), got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise PrivacyError(f"delta must be in (0,1), got {self.delta}")
        if self.target not in TARGETS:
            raise PrivacyError(f"target must be one of {TARGETS}, got {self.target!r}")


@dataclass(frozen=True)
class SensitivityInputs:
    """nu: gradient Lipschitz constant; lambda_k: stepsize at the iteration in
    question; n_i: sample count of the protected agent."""

    nu: float
    lambda_k: float
    n_i: int = 1

    def __post_init__(self):
        if self.nu <= 0 or self.lambda_k <= 0 or self.n_i < 1:
            raise PrivacyError("sensitivity inputs require nu, lambda_k > 0 and n_i >= 1")


def sensitivity(target: str, inputs: SensitivityInputs) -> float:
    """Worst-case l1 change of the shared message per unit change of target."""
    if target == "sample":
        return inputs.nu * inputs.lambda_k / inputs.n_i
    if target == "gradient":
        return inputs.lambda_k
    if target == "variable":
        return 1.0
    raise PrivacyError(f"target must be one of {TARGETS}, got {target!r}")


def _effective_lambda_power(target: str, inputs: SensitivityInputs) -> float:
    # the noise reaching the protected quantity is n_i scaled by lambda for
    # the variable target, unscaled otherwise; float_power is libm pow, like
    # Python's float **, but overflows to inf instead of raising
    return np.float_power(inputs.lambda_k, 2) if target == "variable" else 1.0


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # an overflow raises instead
def variance_for_budget(budget: PrivacyBudget, inputs: SensitivityInputs) -> float:
    """Minimal per-coordinate variance of the raw noise n_i meeting the budget.

    sample:   2 nu^2 lambda^2 ln(1.25/delta) / (n_i^2 eps^2)
    gradient: 2 lambda^2 ln(1.25/delta) / eps^2
    variable: 2 ln(1.25/delta) / (lambda^2 eps^2)

    A variance that overflows to inf or underflows to 0 calibrates nothing:
    it raises PrivacyError.
    """
    s = sensitivity(budget.target, inputs)
    var_effective = np.divide(2.0 * math.log(1.25 / budget.delta) * s * s, budget.epsilon**2)
    variance = float(var_effective / _effective_lambda_power(budget.target, inputs))
    if not 0 < variance < math.inf:
        raise PrivacyError("the variance leaves the float range: these inputs give no guarantee")
    return variance


def _check_noise(variance, delta):
    if not 0 < variance < math.inf:
        raise PrivacyError(f"variance must be positive and finite, got {variance}")
    if not 0.0 < delta < 1.0:
        raise PrivacyError(f"delta must be in (0,1), got {delta}")


def _gaussian_epsilon(s, var_effective, delta):
    """Epsilon of the Gaussian mechanism with sensitivity s at the effective
    noise variance; s and var_effective may be arrays. An epsilon that
    overflows to inf or underflows to 0 bounds nothing: it raises PrivacyError."""
    eps = s * np.sqrt(np.divide(2.0 * math.log(1.25 / delta), var_effective))
    if not ((eps > 0) & (eps < math.inf)).all():
        raise PrivacyError("an epsilon leaves the float range: these inputs give no guarantee")
    return eps


@dataclass(frozen=True)
class BudgetResult:
    epsilon: float
    warning: str | None = None


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # an overflow raises instead
def budget_for_variance(variance: float, target: str, inputs: SensitivityInputs,
                        delta: float) -> BudgetResult:
    """Invert variance_for_budget: the epsilon achieved at a fixed variance.

    Values epsilon >= 1 fall outside the range of the calibration bound; they
    are returned with a warning rather than rejected.
    """
    _check_noise(variance, delta)
    eps = float(_gaussian_epsilon(
        sensitivity(target, inputs), variance * _effective_lambda_power(target, inputs), delta
    ))
    warning = None
    if eps >= 1.0:
        warning = (
            f"epsilon = {eps:.4g} >= 1 lies outside the (0,1) range of the "
            "Gaussian-mechanism guarantee"
        )
    return BudgetResult(epsilon=eps, warning=warning)


@dataclass(frozen=True)
class PrivacyReport:
    """Per-iteration epsilons as columns; see `per_iteration_report`."""

    k: np.ndarray
    lam: np.ndarray
    eps_sample: np.ndarray
    eps_gradient: np.ndarray
    eps_variable: np.ndarray


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # an overflow raises instead
def per_iteration_report(schedule: StepsizeSchedule, variance: float, nu: float,
                         n_i: int, delta: float, horizon: int) -> PrivacyReport:
    """Per-iteration epsilons achieved by a fixed noise variance, k = 1..horizon.

    Returns a PrivacyReport of numpy columns: k, the stepsizes lam (lambda_k),
    and eps_sample, eps_gradient and eps_variable, whose entries equal the
    scalar `budget_for_variance` results at each k bit for bit.

    Budgets are not composed across iterations. With a non-increasing stepsize
    the sample/gradient epsilons are non-increasing while the variable epsilon
    is non-decreasing (the noise reaching x_i shrinks with lambda_k).
    """
    if horizon < 1:
        raise PrivacyError(f"horizon must be >= 1, got {horizon}")
    _check_noise(variance, delta)
    k = np.arange(1, horizon + 1)
    lam = stepsizes(schedule, k)
    if not 0 < nu < math.inf or n_i < 1 or not (lam > 0).all():
        raise PrivacyError("sensitivity inputs require finite nu > 0, lambda_k > 0 and n_i >= 1")
    # libm pow, as _effective_lambda_power squares; numpy's lam**2 is lam*lam,
    # which differs in the last bit on some rows
    lam_sq = np.float_power(lam, 2)
    return PrivacyReport(
        k=k,
        lam=lam,
        eps_sample=_gaussian_epsilon(nu * lam / n_i, variance, delta),
        eps_gradient=_gaussian_epsilon(lam, variance, delta),
        eps_variable=_gaussian_epsilon(1.0, variance * lam_sq, delta),
    )
