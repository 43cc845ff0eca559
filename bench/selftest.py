"""Self-tests of the benchmark.

    python3 bench/run.py --self-test

* The runner's ``evolve`` and ``locc`` ops produce exactly the rows and
  records that ``hybridiq evolve`` and ``hybridiq locc`` print for the same
  input files, so the benchmark measures what users run.
* An op whose reference disagrees with the library is counted as failed.
"""

from __future__ import annotations

import contextlib
import io as text_io
import json
from pathlib import Path

from hybridiq import cli, io

import workloads
from reference import SuperoperatorReference
from tracing import Tracer

STEPS = 3


def _cli(argv: list[str]) -> dict:
    printed = text_io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main(argv)
    if code != 0:
        raise AssertionError(f"hybridiq {argv[0]} exited with {code}")
    return json.loads(printed.getvalue())


def evolve_matches_cli(tmp: Path) -> None:
    wl = workloads.Evolve(seed=7, cells=4, qdim=2)
    wl.setup(Tracer())
    wl.prepare()
    try:
        paths = []
        for name, text in [("state", wl.state_text)] + [
            (f"channel{i}", t) for i, t in enumerate(wl.channel_texts)
        ]:
            paths.append(tmp / f"{name}.json")
            paths[-1].write_text(text)
        printed = _cli(["evolve", *map(str, paths), "--steps", str(STEPS)])
        rows = []
        for _ in range(STEPS):
            out = wl.op(Tracer())
            assert wl.check(out), "evolve op failed its reference check"
            rows.append(out[2])
    finally:
        wl.close()
    assert printed["rows"][1:] == rows, (printed["rows"][1:], rows)


def locc_matches_cli(tmp: Path) -> None:
    wl = workloads.Locc(seed=7, rounds=3)
    wl.setup(Tracer())
    wl.prepare()
    protocol_path, rho_path = tmp / "protocol.json", tmp / "rho.json"
    protocol_path.write_text(wl.protocol_text)
    rho_path.write_text(json.dumps(io.matrix_to_json(wl.inputs[0])))
    printed = _cli(["locc", str(protocol_path), str(rho_path)])
    out = wl.op(Tracer())
    assert wl.check(out), "locc op failed its reference check"
    assert printed == json.loads(json.dumps(out[0])), (printed, out[0])


def perturbed_reference_counts_failure() -> None:
    wl = workloads.Evolve(seed=7, cells=4, qdim=2)
    wl.setup(Tracer())
    wl.prepare()
    try:
        _, ok = workloads.timed_op(wl, Tracer())
        assert ok, "unperturbed op failed"
        encoded = json.loads(wl.channel_texts[0])
        encoded["blocks"][0]["L"][0]["re"][0] += 1e-6
        wl.reference.close()
        wl.reference = SuperoperatorReference([json.dumps(encoded), wl.channel_texts[1]])
        _, ok = workloads.timed_op(wl, Tracer())
        assert not ok, "op passed against a perturbed reference"
    finally:
        wl.close()


def main(out_dir: Path) -> int:
    tmp = out_dir / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    failures = 0
    for name, test in (
        ("evolve_matches_cli", lambda: evolve_matches_cli(tmp)),
        ("locc_matches_cli", lambda: locc_matches_cli(tmp)),
        ("perturbed_reference_counts_failure", perturbed_reference_counts_failure),
    ):
        try:
            test()
            print(f"PASS {name}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
    return 1 if failures else 0
