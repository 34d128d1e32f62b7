"""Sensitivity functions and Gaussian-mechanism calibration.

The shared message of agent i at iteration k is M_i = x_i - lambda_k g_i plus
the scaled noise -lambda_k n_i. Three protection targets are supported, each
with its worst-case l1 sensitivity under a unit l1 change of the protected
quantity:

    sample    S = nu * lambda_k / n_i   (one data sample changes one summand
                                         of the per-agent empirical gradient)
    gradient  S = lambda_k              (the gradient enters M scaled by it)
    variable  S = 1                     (x_i enters M directly)

nu and n_i are the caller's (`privacy-report` takes them from its config); no
problem computes them. The `sample` row holds when nu bounds how fast one
summand of the gradient moves with its data sample. For the estimation
problem that needs nu >= 2 ||M^T||_1 (4 on the paper instance), the exact
data-direction bound. custom_quadratic has no data, so the row means nothing
there. No nu is known for ICA: the per-sample Jacobian
4 (u^T y)^3 I + 12 (u^T y)^2 y u^T reaches above 100 on
make_ica_problem(4, 5, 160, 99).

Calibration uses the standard Gaussian-mechanism bound
sigma^2 >= 2 ln(1.25/delta) S^2 / eps^2, stated for the variance of the raw
per-coordinate noise n_i; for the `variable` target the noise reaches x_i
scaled by lambda_k, hence the extra lambda_k^2 in the denominator. The bound
is a guarantee only for eps, delta in (0, 1): an eps >= 1 computed from it is
returned, but no guarantee backs it. The mechanism is stated for l2
sensitivity; the l1 figures above bound it from above (l2 <= l1), so the
calibration is conservative. Budgets are per-iteration only; no composition
across iterations is computed or implied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optimizer import StepsizeSchedule, stepsizes

TARGETS = ("sample", "gradient", "variable")


class PrivacyError(ValueError):
    pass


def sensitivity(target: str, nu, lam, n_i):
    """(S, lambda power) of a target at stepsize lam, a scalar or a column, for
    gradient Lipschitz constant nu and n_i samples: S bounds the change of the
    shared message per unit change of the target, and the raw noise variance
    reaches the target scaled by lambda power."""
    if not (0 < nu < math.inf and n_i >= 1 and np.all((lam > 0) & (lam < math.inf))):
        raise PrivacyError("sensitivity inputs require finite nu, lambda_k > 0 and n_i >= 1")
    if target == "sample":
        return nu * lam / n_i, 1.0
    if target == "gradient":
        return lam, 1.0
    if target == "variable":
        # the noise reaches x_i scaled by lambda; float_power is libm pow, like
        # Python's float **, but overflows to inf instead of raising, and
        # numpy's lam**2 (lam*lam) differs from it in the last bit on some rows
        return 1.0, np.float_power(lam, 2)
    raise PrivacyError(f"target must be one of {TARGETS}, got {target!r}")


def _in_range(values, lam, what):
    """values as a float for a scalar lam, a column for a column; a value that
    overflows to inf or underflows to 0 bounds nothing: it raises PrivacyError."""
    if not ((values > 0) & (values < math.inf)).all():
        raise PrivacyError(f"{what} leaves the float range: these inputs give no guarantee")
    return values if np.ndim(lam) else float(values)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # an overflow raises instead
def variance_for_budget(epsilon, delta, target, nu, lam, n_i=1):
    """Minimal per-coordinate variance of the raw noise n_i meeting the budget
    (epsilon, delta), both in (0, 1), the range for which the bound holds.

    sample:   2 nu^2 lambda^2 ln(1.25/delta) / (n_i^2 eps^2)
    gradient: 2 lambda^2 ln(1.25/delta) / eps^2
    variable: 2 ln(1.25/delta) / (lambda^2 eps^2)
    """
    if not 0.0 < epsilon < 1.0:
        raise PrivacyError(f"epsilon must be in (0,1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise PrivacyError(f"delta must be in (0,1), got {delta}")
    s, power = sensitivity(target, nu, lam, n_i)
    var_effective = np.divide(2.0 * math.log(1.25 / delta) * s * s, epsilon**2)
    return _in_range(var_effective / power, lam, "the variance")


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # an overflow raises instead
def budget_for_variance(variance, delta, target, nu, lam, n_i=1):
    """Invert variance_for_budget: the epsilon achieved at a fixed variance.

    An epsilon >= 1 lies outside the range of the calibration bound: it is
    returned, not rejected, but no guarantee backs it.
    """
    if not 0 < variance < math.inf:
        raise PrivacyError(f"variance must be positive and finite, got {variance}")
    if not 0.0 < delta < 1.0:
        raise PrivacyError(f"delta must be in (0,1), got {delta}")
    s, power = sensitivity(target, nu, lam, n_i)
    eps = s * np.sqrt(np.divide(2.0 * math.log(1.25 / delta), variance * power))
    return _in_range(eps, lam, "an epsilon")


@dataclass(frozen=True)
class PrivacyReport:
    """Per-iteration epsilons as columns; see `per_iteration_report`."""

    k: np.ndarray
    lam: np.ndarray
    eps_sample: np.ndarray
    eps_gradient: np.ndarray
    eps_variable: np.ndarray


def per_iteration_report(schedule: StepsizeSchedule, variance: float, nu: float,
                         n_i: int, delta: float, horizon: int) -> PrivacyReport:
    """Per-iteration epsilons achieved by a fixed noise variance, k = 1..horizon.

    Returns a PrivacyReport of numpy columns: k, the stepsizes lam (lambda_k),
    and eps_sample, eps_gradient and eps_variable, the `budget_for_variance`
    columns at lam, whose entries equal its scalar results at each k bit for bit.

    Budgets are not composed across iterations. With a non-increasing stepsize
    the sample/gradient epsilons are non-increasing while the variable epsilon
    is non-decreasing (the noise reaching x_i shrinks with lambda_k).
    """
    if horizon < 1:
        raise PrivacyError(f"horizon must be >= 1, got {horizon}")
    try:
        k = np.arange(1, horizon + 1)
    except ValueError:  # numpy refuses, before allocating, a size past its address range
        raise PrivacyError(f"horizon {horizon} is too large to hold in memory") from None
    lam = stepsizes(schedule, k)
    return PrivacyReport(k, lam, *(budget_for_variance(variance, delta, target, nu, lam, n_i)
                                   for target in TARGETS))
