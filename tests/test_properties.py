import pytest

from hybridiq.errors import UnknownSuite
from hybridiq.properties import SUITES, run_suite


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
