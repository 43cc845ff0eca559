"""Regenerate the committed golden reports under ``tests/golden/``.

Each golden file is one ``hybridiq properties`` report, written exactly as the
CLI writes it.  ``tests/test_golden.py`` compares fresh reports with these
files.  A change that moves a golden figure regenerates the files and records
the drift report that test prints.  From the repository root:

    python tests/regen_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

# suite -> (trials, seed) of each committed report
SPECS = {
    "metric": (50, 2026),
    "correlations": (50, 2026),
    "vieq": (50, 2026),
    "locc": (50, 2026),
}


def report_text(suite: str) -> str:
    """The report file that ``hybridiq properties <suite>`` writes for this spec."""
    from hybridiq.properties import run_suite

    trials, seed = SPECS[suite]
    payload = run_suite(suite, trials, seed).to_dict()
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    GOLDEN.mkdir(exist_ok=True)
    for suite in SPECS:
        path = GOLDEN / f"{suite}.json"
        path.write_text(report_text(suite), encoding="utf-8")
        print(path.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
