from __future__ import annotations

import math

import numpy as np
import pytest

from dpdgd.optimizer import StepsizeSchedule, stepsize
from dpdgd.privacy import (
    TARGETS,
    PrivacyError,
    budget_for_variance,
    per_iteration_report,
    sensitivity,
    variance_for_budget,
)

PAPER_SCHEDULE = StepsizeSchedule("piecewise_paper", lambda0=0.02, switch_k=500, scale=1.0)


class TestSensitivity:
    def test_sample_formula(self):
        s, power = sensitivity("sample", 1.0, 0.02, 160)
        assert s == pytest.approx(0.000125, rel=1e-12) and power == 1.0
        # (nu * lambda) / n_i, in that order: nu * (lambda / n_i) differs in the last bit here
        assert sensitivity("sample", 8.37, 0.001, 160)[0] == 8.37 * 0.001 / 160

    def test_gradient_is_stepsize(self):
        assert sensitivity("gradient", 3.0, 0.02, 7) == (0.02, 1.0)

    def test_variable_is_one(self):
        # the noise reaches the variable scaled by lambda^2
        assert sensitivity("variable", 9.0, 0.5, 2) == (1.0, 0.25)

    def test_input_validation(self):
        with pytest.raises(PrivacyError):
            sensitivity("sample", 0.0, 0.1, 1)
        with pytest.raises(PrivacyError):
            sensitivity("sample", 1.0, 0.1, 0)
        for nu, lam in [(math.nan, 0.02), (math.inf, 0.02), (1.0, math.nan), (1.0, math.inf)]:
            with pytest.raises(PrivacyError):
                sensitivity("sample", nu, lam, 1)
        with pytest.raises(PrivacyError):
            sensitivity("weights", 1.0, 0.1, 1)


class TestVarianceForBudget:
    def test_sample_example(self):
        var = variance_for_budget(0.5, 0.05, "sample", nu=1.0, lam=0.02, n_i=160)
        exact = 2.0 * 0.000125**2 * math.log(25.0) / 0.25
        assert var == pytest.approx(exact, rel=1e-15)
        assert var == pytest.approx(4.0236e-7, rel=1e-4)

    def test_gradient_example(self):
        var = variance_for_budget(0.5, 0.05, "gradient", nu=1.0, lam=0.02, n_i=160)
        assert var == pytest.approx(2.0 * 0.02**2 * math.log(25.0) / 0.25, rel=1e-15)
        assert var == pytest.approx(1.0300e-2, rel=1e-4)

    def test_variable_has_inverse_stepsize_scaling(self):
        var = variance_for_budget(0.5, 0.05, "variable", nu=1.0, lam=0.02, n_i=1)
        assert var == pytest.approx(2.0 * math.log(25.0) / (0.02**2 * 0.25), rel=1e-15)

    def test_vanishing_stepsize_needs_no_noise(self):
        var = variance_for_budget(0.5, 0.05, "sample", nu=1.0, lam=1e-12, n_i=160)
        assert var < 1e-26  # scales with lambda^2

    @pytest.mark.parametrize("epsilon, target, nu, lam", [
        (1e-200, "gradient", 1.0, 0.02),  # eps^2 is 0
        (0.5, "variable", 1.0, 1e-200),  # lambda^2 is 0
        (0.5, "sample", 1e300, 1e10),  # S overflows
    ])
    @pytest.mark.filterwarnings("error")
    def test_rejects_inputs_without_a_guarantee(self, epsilon, target, nu, lam):
        with pytest.raises(PrivacyError):
            variance_for_budget(epsilon, 0.05, target, nu, lam)

    def test_budget_validation(self):
        with pytest.raises(PrivacyError):
            variance_for_budget(1.0, 0.05, "sample", nu=1.0, lam=0.1)
        with pytest.raises(PrivacyError):
            variance_for_budget(0.5, 0.0, "sample", nu=1.0, lam=0.1)
        with pytest.raises(PrivacyError):
            variance_for_budget(0.5, 0.05, "everything", nu=1.0, lam=0.1)


class TestBudgetForVariance:
    def test_round_trip_grid(self):
        worst = 0.0
        for eps in np.linspace(0.05, 0.95, 10):
            for delta in np.linspace(0.01, 0.5, 10):
                for lam in np.geomspace(1e-4, 0.5, 10):
                    for target, nu, n in (("sample", 3.7, 12), ("gradient", 1.0, 1),
                                          ("variable", 1.0, 1)):
                        args = (float(delta), target, nu, float(lam), n)
                        var = variance_for_budget(float(eps), *args)
                        back = budget_for_variance(var, *args)
                        worst = max(worst, abs(back - eps) / eps)
        assert worst <= 1e-12

    def test_doubling_variance_scales_epsilon(self):
        e1 = budget_for_variance(1e-3, 0.05, "sample", nu=2.0, lam=0.05, n_i=4)
        e2 = budget_for_variance(2e-3, 0.05, "sample", nu=2.0, lam=0.05, n_i=4)
        assert e2 == pytest.approx(e1 / math.sqrt(2.0), rel=1e-12)

    def test_gradient_inverse_example(self):
        eps = budget_for_variance(1.0300e-2, 0.05, "gradient", nu=1.0, lam=0.02, n_i=1)
        assert eps == pytest.approx(0.5, rel=2e-4)

    def test_scalar_call_returns_python_float(self):
        for target in TARGETS:
            var = variance_for_budget(0.5, 0.05, target, nu=2.0, lam=0.02, n_i=3)
            eps = budget_for_variance(var, 0.05, target, nu=2.0, lam=0.02, n_i=3)
            assert type(var) is float and type(eps) is float

    def test_returns_epsilon_outside_guarantee_range(self):
        # the bound guarantees nothing at eps >= 1, but the value is returned, not rejected
        eps = budget_for_variance(1e-6, 0.05, "gradient", nu=1.0, lam=0.5, n_i=1)
        assert type(eps) is float and eps >= 1.0

    @pytest.mark.filterwarnings("error")
    def test_rejects_bad_arguments(self):
        with pytest.raises(PrivacyError):
            budget_for_variance(0.0, 0.05, "gradient", nu=1.0, lam=0.5)
        with pytest.raises(PrivacyError):
            budget_for_variance(1.0, 1.5, "gradient", nu=1.0, lam=0.5)
        with pytest.raises(PrivacyError):  # epsilon overflows
            budget_for_variance(5e-324, 0.05, "gradient", nu=1.0, lam=0.5)
        with pytest.raises(PrivacyError):  # lambda_k**2 overflows, so epsilon underflows to 0
            budget_for_variance(1.0, 0.05, "variable", nu=1.0, lam=1e200)

    @pytest.mark.filterwarnings("error")
    def test_column_with_one_overflowing_row_raises(self):
        lam = np.array([0.02, 0.5, 1e308, 0.02])
        assert budget_for_variance(1e-3, 0.05, "gradient", nu=1.0, lam=lam[[0, 1, 3]]).shape == (3,)
        with pytest.raises(PrivacyError, match="an epsilon leaves the float range"):
            budget_for_variance(1e-3, 0.05, "gradient", nu=1.0, lam=lam)


class TestMonotonicity:
    def test_decreasing_in_epsilon(self):
        grid = np.linspace(0.05, 0.95, 30)
        for target in ("sample", "gradient", "variable"):
            vals = [variance_for_budget(float(e), 0.05, target, nu=2.0, lam=0.05, n_i=4)
                    for e in grid]
            assert all(a > b for a, b in zip(vals[:-1], vals[1:]))

    def test_sample_decreasing_in_samples(self):
        vals = [variance_for_budget(0.3, 0.05, "sample", nu=2.0, lam=0.05, n_i=n)
                for n in (1, 2, 4, 8, 50, 1000)]
        assert all(a > b for a, b in zip(vals[:-1], vals[1:]))

    def test_stepsize_directions(self):
        lams = np.geomspace(1e-3, 0.5, 20)
        for target, increasing in (("sample", True), ("gradient", True), ("variable", False)):
            vals = [variance_for_budget(0.3, 0.05, target, nu=2.0, lam=float(l), n_i=3)
                    for l in lams]
            diffs = np.diff(vals)
            assert (diffs > 0).all() if increasing else (diffs < 0).all()

    def test_sample_needs_no_more_noise_than_gradient(self):
        for nu in (0.2, 1.0, 3.0):
            for n in (1, 2, 10):
                if nu / n > 1.0:
                    continue
                vs = variance_for_budget(0.3, 0.05, "sample", nu=nu, lam=0.05, n_i=n)
                vg = variance_for_budget(0.3, 0.05, "gradient", nu=nu, lam=0.05, n_i=n)
                assert vs <= vg


class TestPerIterationReport:
    def test_constant_schedule_constant_rows(self):
        report = per_iteration_report(StepsizeSchedule("constant", lambda0=0.01), variance=0.5,
                                      nu=2.0, n_i=3, delta=0.05, horizon=50)
        assert len(report.k) == 50
        triples = zip(report.eps_sample, report.eps_gradient, report.eps_variable)
        assert len(set(triples)) == 1

    def test_paper_schedule_monotonicity(self):
        report = per_iteration_report(PAPER_SCHEDULE, variance=0.5, nu=2.0, n_i=3,
                                      delta=0.05, horizon=600)
        eps_s, eps_g, eps_x = report.eps_sample, report.eps_gradient, report.eps_variable
        assert (eps_s[:-1] >= eps_s[1:]).all()
        assert (eps_g[:-1] >= eps_g[1:]).all()
        assert (eps_x[:-1] <= eps_x[1:]).all()
        # the switch weakens variable privacy in one jump
        assert eps_x[500] > eps_x[499]

    def test_columns_equal_scalar_budgets(self):
        report = per_iteration_report(PAPER_SCHEDULE, variance=3.7, nu=2.0, n_i=3,
                                      delta=0.05, horizon=3000)
        assert report.k.tolist() == list(range(1, 3001))
        for i in (0, 499, 500, 2946, 2999):
            lam = stepsize(PAPER_SCHEDULE, i + 1)
            assert report.lam[i] == lam
            for target in TARGETS:
                want = budget_for_variance(3.7, 0.05, target, nu=2.0, lam=lam, n_i=3)
                assert getattr(report, f"eps_{target}")[i] == want

    def test_rejects_empty_horizon(self):
        with pytest.raises(PrivacyError):
            per_iteration_report(PAPER_SCHEDULE, 0.5, 2.0, 3, 0.05, horizon=0)

    def test_rejects_unaddressable_horizon(self):
        # numpy refuses a 2**62-entry column before it allocates anything
        with pytest.raises(PrivacyError, match=f"horizon {2**62} is too large to hold in memory"):
            per_iteration_report(PAPER_SCHEDULE, 0.5, 2.0, 3, 0.05, horizon=2**62)

    @pytest.mark.parametrize("variance, nu, n_i, delta", [
        (math.nan, 2.0, 3, 0.05), (math.inf, 2.0, 3, 0.05), (0.0, 2.0, 3, 0.05),
        (0.5, math.nan, 3, 0.05), (0.5, math.inf, 3, 0.05), (0.5, 0.0, 3, 0.05),
        (0.5, 2.0, 0, 0.05), (0.5, 2.0, 3, math.nan), (0.5, 2.0, 3, 1.0),
        (5e-324, 2.0, 3, 0.05), (1e-308, 1e308, 3, 0.05),
    ])
    @pytest.mark.filterwarnings("error")
    def test_rejects_inputs_without_a_guarantee(self, variance, nu, n_i, delta):
        with pytest.raises(PrivacyError):
            per_iteration_report(PAPER_SCHEDULE, variance, nu, n_i, delta, horizon=10)


class TestEmpiricalSensitivity:
    def test_formula_dominates_adjacent_observations(self, paper_problem, config_nu, rng):
        # shared message M = theta - lambda * grad f_i; perturb the agent's
        # observation within unit l1 distance and compare l1 message change
        p = paper_problem
        lam = 0.02
        theta = np.array([0.7, -1.2])
        bound, _ = sensitivity("sample", config_nu, lam, 1)
        worst = 0.0
        for _ in range(1000):
            agent = int(rng.integers(p.m))
            delta = rng.standard_normal(3)
            delta = delta / np.abs(delta).sum() * rng.uniform(0.0, 1.0)
            g0 = p.agent_gradient(agent, theta)
            g1 = p.agent_gradient_for_observation(agent, theta, p.Y[agent] + delta)
            change = np.abs(lam * (g1 - g0)).sum()
            worst = max(worst, change)
            assert change <= bound + 1e-9
        # the bound is not vacuous: perturbations do move the message
        assert worst > 0.01 * bound
