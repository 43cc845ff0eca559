"""README.md's python blocks run as written, and it names every error and tolerance."""

import re
import warnings
from pathlib import Path

from hybridiq import channel, classical, cli, correlations, linalg, locc, state
from hybridiq.errors import HybridError

README = Path(__file__).resolve().parents[1] / "README.md"

# every constant a check compares against, and the module that defines it
TOLERANCES = {
    linalg: ("HERMITICITY_TOL", "PSD_TOL", "TRACE_TOL", "SPECTRAL_CUTOFF", "SUPPORT_TOL"),
    state: ("ZERO_MASS",),
    channel: ("COMPLETENESS_TOL", "COEFF_EIGENVALUE_CUTOFF"),
    classical: ("STOCHASTIC_TOL",),
    correlations: ("MONOTONICITY_SLACK",),
    locc: ("PPT_TOL", "RECORD_SPACE_LIMIT"),
}


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            exec(compile(block, str(README), "exec"), {"__name__": "__readme__"})


def _subclasses(cls: type) -> set[type]:
    return {sub for child in cls.__subclasses__() for sub in {child, *_subclasses(child)}}


def test_readme_names_every_error_and_tolerance():
    assert cli.main  # cli imports every module, so every subclass is defined
    text = README.read_text(encoding="utf-8")
    names = {"HybridError", *(cls.__name__ for cls in _subclasses(HybridError))}
    for module, constants in TOLERANCES.items():
        assert all(hasattr(module, name) for name in constants)
        names.update(constants)
    assert sorted(name for name in names if f"`{name}`" not in text) == []
