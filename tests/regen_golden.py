"""Regenerate the committed golden reports under ``tests/golden/``.

Each suite file is one ``hybridiq properties`` report, and ``locc_report.json``
the report ``hybridiq locc`` writes for the committed ``locc_protocol.json``
and ``locc_state.json``, each written exactly as the CLI writes it.
``tests/test_golden.py`` compares fresh reports with these files.  A change
that moves a golden figure regenerates the files and records the drift report
that test prints.  The two locc inputs are drawn from a fixed seed and written
only when absent, so a regeneration never moves them.  From the repository root:

    python tests/regen_golden.py
"""

from __future__ import annotations

import itertools
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
# the ``hybridiq locc`` golden: protocol, input state and report
LOCC_PROTOCOL = GOLDEN / "locc_protocol.json"
LOCC_STATE = GOLDEN / "locc_state.json"
LOCC_REPORT = GOLDEN / "locc_report.json"
# dims and outcome counts of the committed 3-round protocol; sides alternate from side 1
LOCC_DIMS, LOCC_OUTCOMES, LOCC_SEED = (2, 3), (2, 3, 2), 2026


def report_text(suite: str) -> str:
    """The report file that ``hybridiq properties <suite>`` writes for this spec."""
    from hybridiq.properties import run_suite

    trials, seed = SPECS[suite]
    payload = run_suite(suite, trials, seed).to_dict()
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_locc_inputs() -> None:
    """A seeded 3-round protocol with an instrument for every history, and a random input state."""
    from hybridiq import io
    from hybridiq.locc import LoccProtocol, LoccRound
    from hybridiq.rand import random_density, random_kraus_set, seeded_rng

    rng = seeded_rng(LOCC_SEED, "golden.locc")
    rounds = []
    for r, k in enumerate(LOCC_OUTCOMES):
        d_side = LOCC_DIMS[r % 2]
        histories = itertools.product(*(range(1, c + 1) for c in LOCC_OUTCOMES[:r]))
        rounds.append(LoccRound(k, {h: random_kraus_set(d_side, k, rng) for h in histories}))
    protocol = LoccProtocol(LOCC_DIMS, tuple(rounds))
    io.dump_json(io.protocol_to_json(protocol), LOCC_PROTOCOL)
    io.dump_json(io.matrix_to_json(random_density(LOCC_DIMS[0] * LOCC_DIMS[1], rng)), LOCC_STATE)


def write_locc_report(out: Path) -> None:
    """Run ``hybridiq locc`` on the committed inputs, writing its report to ``out``."""
    from contextlib import redirect_stdout
    from io import StringIO

    from hybridiq.cli import main

    with redirect_stdout(StringIO()):  # the report is also printed
        code = main(["locc", str(LOCC_PROTOCOL), str(LOCC_STATE), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"hybridiq locc exited {code}")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    GOLDEN.mkdir(exist_ok=True)
    for suite in SPECS:
        path = GOLDEN / f"{suite}.json"
        path.write_text(report_text(suite), encoding="utf-8")
        print(path.relative_to(ROOT))
    if not (LOCC_PROTOCOL.exists() and LOCC_STATE.exists()):
        write_locc_inputs()
        print(LOCC_PROTOCOL.relative_to(ROOT))
        print(LOCC_STATE.relative_to(ROOT))
    write_locc_report(LOCC_REPORT)
    print(LOCC_REPORT.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
