from __future__ import annotations

import math

import numpy as np
import pytest

from dpdgd.optimizer import StepsizeSchedule, stepsize
from dpdgd.privacy import (
    TARGETS,
    PrivacyBudget,
    PrivacyError,
    SensitivityInputs,
    budget_for_variance,
    per_iteration_report,
    sensitivity,
    variance_for_budget,
)

PAPER_SCHEDULE = StepsizeSchedule.piecewise_paper(0.02, 500, 1.0)


class TestSensitivity:
    def test_sample_formula(self):
        s = sensitivity("sample", SensitivityInputs(nu=1.0, lambda_k=0.02, n_i=160))
        assert s == pytest.approx(0.000125, rel=1e-12)

    def test_gradient_is_stepsize(self):
        assert sensitivity("gradient", SensitivityInputs(nu=3.0, lambda_k=0.02, n_i=7)) == 0.02

    def test_variable_is_one(self):
        assert sensitivity("variable", SensitivityInputs(nu=9.0, lambda_k=0.5, n_i=2)) == 1.0

    def test_input_validation(self):
        with pytest.raises(PrivacyError):
            SensitivityInputs(nu=0.0, lambda_k=0.1)
        with pytest.raises(PrivacyError):
            SensitivityInputs(nu=1.0, lambda_k=0.1, n_i=0)
        with pytest.raises(PrivacyError):
            sensitivity("weights", SensitivityInputs(nu=1.0, lambda_k=0.1))


class TestVarianceForBudget:
    def test_sample_example(self):
        inputs = SensitivityInputs(nu=1.0, lambda_k=0.02, n_i=160)
        var = variance_for_budget(PrivacyBudget(0.5, 0.05, "sample"), inputs)
        exact = 2.0 * 0.000125**2 * math.log(25.0) / 0.25
        assert var == pytest.approx(exact, rel=1e-15)
        assert var == pytest.approx(4.0236e-7, rel=1e-4)

    def test_gradient_example(self):
        inputs = SensitivityInputs(nu=1.0, lambda_k=0.02, n_i=160)
        var = variance_for_budget(PrivacyBudget(0.5, 0.05, "gradient"), inputs)
        assert var == pytest.approx(2.0 * 0.02**2 * math.log(25.0) / 0.25, rel=1e-15)
        assert var == pytest.approx(1.0300e-2, rel=1e-4)

    def test_variable_has_inverse_stepsize_scaling(self):
        inputs = SensitivityInputs(nu=1.0, lambda_k=0.02, n_i=1)
        var = variance_for_budget(PrivacyBudget(0.5, 0.05, "variable"), inputs)
        assert var == pytest.approx(2.0 * math.log(25.0) / (0.02**2 * 0.25), rel=1e-15)

    def test_vanishing_stepsize_needs_no_noise(self):
        inputs = SensitivityInputs(nu=1.0, lambda_k=1e-12, n_i=160)
        var = variance_for_budget(PrivacyBudget(0.5, 0.05, "sample"), inputs)
        assert var < 1e-26  # scales with lambda^2

    @pytest.mark.parametrize("budget, inputs", [
        (PrivacyBudget(1e-200, 0.05, "gradient"), SensitivityInputs(1.0, 0.02)),  # eps^2 is 0
        (PrivacyBudget(0.5, 0.05, "variable"), SensitivityInputs(1.0, 1e-200)),  # lambda^2 is 0
        (PrivacyBudget(0.5, 0.05, "sample"), SensitivityInputs(1e300, 1e10)),  # S overflows
    ])
    @pytest.mark.filterwarnings("error")
    def test_rejects_inputs_without_a_guarantee(self, budget, inputs):
        with pytest.raises(PrivacyError):
            variance_for_budget(budget, inputs)

    def test_budget_validation(self):
        with pytest.raises(PrivacyError):
            PrivacyBudget(epsilon=1.0, delta=0.05, target="sample")
        with pytest.raises(PrivacyError):
            PrivacyBudget(epsilon=0.5, delta=0.0, target="sample")
        with pytest.raises(PrivacyError):
            PrivacyBudget(epsilon=0.5, delta=0.05, target="everything")


class TestBudgetForVariance:
    def test_round_trip_grid(self):
        worst = 0.0
        for eps in np.linspace(0.05, 0.95, 10):
            for delta in np.linspace(0.01, 0.5, 10):
                for lam in np.geomspace(1e-4, 0.5, 10):
                    for target, nu, n in (("sample", 3.7, 12), ("gradient", 1.0, 1),
                                          ("variable", 1.0, 1)):
                        inputs = SensitivityInputs(nu=nu, lambda_k=float(lam), n_i=n)
                        var = variance_for_budget(
                            PrivacyBudget(float(eps), float(delta), target), inputs
                        )
                        back = budget_for_variance(var, target, inputs, float(delta)).epsilon
                        worst = max(worst, abs(back - eps) / eps)
        assert worst <= 1e-12

    def test_doubling_variance_scales_epsilon(self):
        inputs = SensitivityInputs(nu=2.0, lambda_k=0.05, n_i=4)
        e1 = budget_for_variance(1e-3, "sample", inputs, 0.05).epsilon
        e2 = budget_for_variance(2e-3, "sample", inputs, 0.05).epsilon
        assert e2 == pytest.approx(e1 / math.sqrt(2.0), rel=1e-12)

    def test_gradient_inverse_example(self):
        inputs = SensitivityInputs(nu=1.0, lambda_k=0.02, n_i=1)
        res = budget_for_variance(1.0300e-2, "gradient", inputs, 0.05)
        assert res.epsilon == pytest.approx(0.5, rel=2e-4)
        assert res.warning is None

    def test_warns_outside_guarantee_range(self):
        inputs = SensitivityInputs(nu=1.0, lambda_k=0.5, n_i=1)
        res = budget_for_variance(1e-6, "gradient", inputs, 0.05)
        assert res.epsilon >= 1.0
        assert res.warning is not None and "1" in res.warning

    @pytest.mark.filterwarnings("error")
    def test_rejects_bad_arguments(self):
        inputs = SensitivityInputs(nu=1.0, lambda_k=0.5, n_i=1)
        with pytest.raises(PrivacyError):
            budget_for_variance(0.0, "gradient", inputs, 0.05)
        with pytest.raises(PrivacyError):
            budget_for_variance(1.0, "gradient", inputs, 1.5)
        with pytest.raises(PrivacyError):  # epsilon overflows
            budget_for_variance(5e-324, "gradient", inputs, 0.05)
        with pytest.raises(PrivacyError):  # lambda_k**2 overflows, so epsilon underflows to 0
            budget_for_variance(1.0, "variable", SensitivityInputs(nu=1.0, lambda_k=1e200), 0.05)


class TestMonotonicity:
    def test_decreasing_in_epsilon(self):
        inputs = SensitivityInputs(nu=2.0, lambda_k=0.05, n_i=4)
        grid = np.linspace(0.05, 0.95, 30)
        for target in ("sample", "gradient", "variable"):
            vals = [
                variance_for_budget(PrivacyBudget(float(e), 0.05, target), inputs) for e in grid
            ]
            assert all(a > b for a, b in zip(vals[:-1], vals[1:]))

    def test_sample_decreasing_in_samples(self):
        vals = [
            variance_for_budget(
                PrivacyBudget(0.3, 0.05, "sample"),
                SensitivityInputs(nu=2.0, lambda_k=0.05, n_i=n),
            )
            for n in (1, 2, 4, 8, 50, 1000)
        ]
        assert all(a > b for a, b in zip(vals[:-1], vals[1:]))

    def test_stepsize_directions(self):
        lams = np.geomspace(1e-3, 0.5, 20)
        for target, increasing in (("sample", True), ("gradient", True), ("variable", False)):
            vals = [
                variance_for_budget(
                    PrivacyBudget(0.3, 0.05, target),
                    SensitivityInputs(nu=2.0, lambda_k=float(l), n_i=3),
                )
                for l in lams
            ]
            diffs = np.diff(vals)
            assert (diffs > 0).all() if increasing else (diffs < 0).all()

    def test_sample_needs_no_more_noise_than_gradient(self):
        for nu in (0.2, 1.0, 3.0):
            for n in (1, 2, 10):
                if nu / n > 1.0:
                    continue
                inputs = SensitivityInputs(nu=nu, lambda_k=0.05, n_i=n)
                vs = variance_for_budget(PrivacyBudget(0.3, 0.05, "sample"), inputs)
                vg = variance_for_budget(PrivacyBudget(0.3, 0.05, "gradient"), inputs)
                assert vs <= vg


class TestPerIterationReport:
    def test_constant_schedule_constant_rows(self):
        report = per_iteration_report(StepsizeSchedule.constant(0.01), variance=0.5,
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
            inputs = SensitivityInputs(nu=2.0, lambda_k=stepsize(PAPER_SCHEDULE, i + 1), n_i=3)
            assert report.lam[i] == inputs.lambda_k
            for target in TARGETS:
                want = budget_for_variance(3.7, target, inputs, 0.05).epsilon
                assert getattr(report, f"eps_{target}")[i] == want

    def test_rejects_empty_horizon(self):
        with pytest.raises(PrivacyError):
            per_iteration_report(PAPER_SCHEDULE, 0.5, 2.0, 3, 0.05, horizon=0)

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
    def test_formula_dominates_adjacent_observations(self, paper_problem, rng):
        # shared message M = theta - lambda * grad f_i; perturb the agent's
        # observation within unit l1 distance and compare l1 message change
        p = paper_problem
        lam = 0.02
        theta = np.array([0.7, -1.2])
        bound = sensitivity(
            "sample", SensitivityInputs(nu=p.constants.nu, lambda_k=lam, n_i=1)
        )
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
