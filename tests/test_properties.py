import math

import pytest

from hybridiq import correlations, properties
from hybridiq.errors import UnknownSuite
from hybridiq.properties import SUITES, CheckResult, run_suite


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("nope", 10, 0)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_small_suites_pass(name):
    report = run_suite(name, 25, 123)
    assert report.ok, [c.to_dict() for c in report.checks if not c.ok]
    assert report.violations == 0
    assert all(c.trials > 0 for c in report.checks)


def test_suite_reports_are_deterministic():
    a = run_suite("axioms", 40, 9)
    b = run_suite("axioms", 40, 9)
    assert a.to_dict() == b.to_dict()


def test_suite_report_shape():
    report = run_suite("metric", 10, 1)
    d = report.to_dict()
    assert d["suite"] == "metric"
    assert {"name", "tolerance", "trials", "violations", "max_deviation", "ok"} <= set(
        d["checks"][0]
    )


def test_correlations_reports_are_deterministic():
    assert run_suite("correlations", 40, 9).to_dict() == run_suite("correlations", 40, 9).to_dict()


def test_correlations_suite_completes_an_ill_conditioned_kraus_draw():
    # this seed draws a random_kraus_set whose sum L^dag L has condition number 1.9e7;
    # normalized once, its non_interacting channel missed completeness by 1.3e-9
    assert run_suite("correlations", 25, 5266555250335175771).ok


@pytest.mark.parametrize("trials", [7, 305])
def test_correlations_trial_counts(trials):
    counts = {c.name: c.trials for c in run_suite("correlations", trials, 4).checks}
    slow = min(trials, 300)
    assert counts == {
        "product_state_zero_information": slow,
        "araki_lieb_bound": trials,
        "monotonic_under_non_interacting": trials,
        "equals_relative_entropy_identity": slow,
        "equals_three_term_formula": slow,
        "holevo_merge_invariance": slow,
        "holevo_concavity": slow,
    }


def test_correlations_suite_sees_a_shifted_holevo_core(monkeypatch):
    # every batched mutual information goes through the segmented core, so a
    # core that is off by 1e-6 must show as violations, not pass unnoticed
    core = correlations._holevo_segments
    monkeypatch.setattr(correlations, "_holevo_segments", lambda *args: core(*args) + 1e-6)
    checks = {c.name: c for c in run_suite("correlations", 25, 123).checks}
    assert checks["araki_lieb_bound"].violations > 0
    assert checks["product_state_zero_information"].violations == 25


@pytest.mark.parametrize("trials", [1, 7, 305])
def test_axioms_trial_counts(trials):
    # trials = 1 puts one trial in the only qdim group
    report = run_suite("axioms", trials, 4)
    assert [c.trials for c in report.checks] == [trials] * 4
    assert report.ok, [c.to_dict() for c in report.checks if not c.ok]


def test_axioms_suite_sees_a_shifted_probability_core(monkeypatch):
    # every axiom check is evaluated by the segmented probability core, so a
    # core that is off by 1e-9 must show as violations, not pass unnoticed
    core = properties._probability_segments
    monkeypatch.setattr(properties, "_probability_segments", lambda *args: core(*args) + 1e-9)
    checks = {c.name: c for c in run_suite("axioms", 25, 123).checks}
    assert checks["additivity_disjoint_events"].violations == 25
    assert checks["additivity_effect_decomposition"].violations == 25


def test_a_nan_deviation_is_a_violation():
    check = CheckResult("x", 1e-9)
    check.record(float("nan"))
    check.record(0.5)
    check.record(0.0)
    assert (check.trials, check.violations, check.ok) == (3, 2, False)
    assert math.isnan(check.max_deviation)
    assert check.to_dict()["max_deviation"] is None
