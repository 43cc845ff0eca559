"""Fresh suite reports match the committed golden reports under ``tests/golden/``.

Structure, strings, booleans and integers compare exactly; floats compare
within ``1e-12 * max(1, |golden|)``.  The largest float deviation of each file
is printed (``pytest -s`` shows it).  ``python tests/regen_golden.py`` rewrites
the files.
"""

import json
import math

import pytest

from hybridiq.properties import run_suite
from regen_golden import GOLDEN, SPECS

FLOAT_REL = 1e-12


def _drift(golden, fresh, where: str = "$") -> float:
    """Largest scaled float deviation of ``fresh`` from ``golden``; asserts all else equal."""
    assert type(golden) is type(fresh), f"{where}: {type(fresh).__name__} against {type(golden).__name__}"
    if isinstance(golden, float):
        deviation = abs(fresh - golden) / max(1.0, abs(golden))
        assert deviation <= FLOAT_REL, f"{where}: {fresh!r} against golden {golden!r}"
        return deviation
    if isinstance(golden, dict):
        assert sorted(golden) == sorted(fresh), where
        return max((_drift(golden[k], fresh[k], f"{where}.{k}") for k in golden), default=0.0)
    if isinstance(golden, list):
        assert len(golden) == len(fresh), where
        return max((_drift(g, f, f"{where}[{i}]") for i, (g, f) in enumerate(zip(golden, fresh))), default=0.0)
    assert golden == fresh, f"{where}: {fresh!r} against golden {golden!r}"
    return 0.0


@pytest.mark.parametrize("suite", sorted(SPECS))
def test_suite_report_matches_golden(suite):
    golden = json.loads((GOLDEN / f"{suite}.json").read_text(encoding="utf-8"))
    trials, seed = SPECS[suite]
    fresh = json.loads(json.dumps(run_suite(suite, trials, seed).to_dict()))
    print(f"golden {suite}.json: largest float deviation {_drift(golden, fresh):.3g}")


def test_drift_compares_floats_within_the_bound_and_all_else_exactly():
    assert _drift({"a": [1.0, "x"]}, {"a": [1.0 + 1e-13, "x"]}) == pytest.approx(1e-13, rel=1e-2)
    assert math.isclose(_drift(1e6, 1e6 + 1e-7), 1e-13, rel_tol=1e-2)
    for golden, fresh in [(1.0, 1.0 + 1e-11), ("x", "y"), (True, 1.0), (1, 1.0), ({"a": 1}, {"b": 1}), ([1], [1, 2])]:
        with pytest.raises(AssertionError):
            _drift(golden, fresh)
