"""Command-line front end.

Subcommands: validate | evolve | locc | metrics | properties | randgen.
All randomness flows from --seed (default 0); identical command lines produce
byte-identical report files.  Exit codes: 0 success, 1 parse/IO/usage error,
2 invariant violation or domain error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import io
from .channel import COMPLETENESS_TOL, apply, completeness_defect, random_channel
from .classical import STOCHASTIC_TOL, MarkovKernel, counting_space, validate_kernel
from .correlations import mutual_information
from .errors import (
    HybridError, IncompleteChannel, IncompleteInstrument, IncompleteKraus, IoError, ParseError,
    SpaceMismatch, UnknownSuite,
)
from .linalg import TRACE_TOL, block_margins, von_neumann_entropy
from .locc import is_ppt, run
from .properties import SUITES, run_suite
from .rand import random_stochastic_matrix, seeded_rng
from .state import distance, quantum_marginal, random_state, total_trace

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _emit_text(text: str, out_path: str | None) -> None:
    print(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")


def _emit(payload: dict, out_path: str | None) -> None:
    # strict JSON: a non-finite figure is an error here, not an Infinity or NaN token
    _emit_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False), out_path)


def _check(name: str, deviation: float | None, tolerance: float, error: str = "") -> dict:
    # a failure that measured nothing finite has no deviation: null, and the check fails
    measured = deviation is not None and bool(np.isfinite(deviation))
    check = {
        "name": name,
        "deviation": float(deviation) if measured else None,
        "tolerance": float(tolerance),
        "ok": measured and bool(deviation <= tolerance),
    }
    if error and not check["ok"]:
        check["error"] = error
    return check


def _detect_kind(obj) -> str:
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    if "masses" in obj:
        return "state"
    if "blocks" in obj or obj.get("type") in ("non_interacting", "coeff_kernel"):
        return "channel"
    if "rounds" in obj:
        return "protocol"
    if "P" in obj:
        return "kernel"
    if "weights" in obj:
        return "space"
    raise ParseError("cannot determine file kind (state/channel/protocol/kernel/space)")


def _state_checks(obj) -> list[dict]:
    # new_state's own verdict on the parsed masses, so a failing file still
    # shows every margin instead of only the first exception, and names the
    # cell the loader's NotPositive names
    _, masses = io.state_parts_from_json(obj)
    margins = block_margins(masses)
    checks = [
        _check(name, v.deviation, v.tolerance, f"NotPositive: {what} at cell {v.block}")
        for name, what, v in zip(
            ("masses_finite", "masses_hermitian", "masses_positive"),
            ("non-finite entries", "not Hermitian", "negative eigenvalue"),
            margins.worst(),
        )
    ]
    total = total_trace(margins.sym)
    error = f"NotNormalized: total trace {total!r}"
    return checks + [_check("normalization_w_X_I", abs(total - 1.0), TRACE_TOL, error)]


def _channel_checks(obj) -> list[dict]:
    channel = io.channel_from_json(obj)
    return [_check("channel_completeness", completeness_defect(channel), COMPLETENESS_TOL)]


def _protocol_checks(obj) -> list[dict]:
    protocol = io.protocol_from_json(obj)
    return [_check("instrument_completeness", protocol.completeness_defect, COMPLETENESS_TOL)]


def _kernel_checks(obj) -> list[dict]:
    report = validate_kernel(io.kernel_matrix_from_json(obj))
    return [
        _check("kernel_column_stochastic", report.deviation, STOCHASTIC_TOL, report.message)
    ]


def _space_checks(obj) -> list[dict]:
    # ClassicalSpace rejects non-positive weights, so loading is the whole check
    io.space_from_json(obj)
    return []


_CHECKS = {
    "state": _state_checks,
    "channel": _channel_checks,
    "protocol": _protocol_checks,
    "kernel": _kernel_checks,
    "space": _space_checks,
}


def _validate_one(path: str) -> dict:
    obj = io.load_json(path)
    kind = _detect_kind(obj)
    try:
        checks = _CHECKS[kind](obj)
    except (ParseError, IoError):
        raise
    except HybridError as exc:
        # a loader's invariant failure becomes a failed check, so one bad file
        # yields a violation report instead of aborting the run; an incomplete channel,
        # Kraus set or instrument fails its completeness row at the measured deviation
        error = f"{type(exc).__name__}: {exc}"
        incomplete = (IncompleteChannel, IncompleteInstrument, IncompleteKraus)
        if isinstance(exc, incomplete) and exc.deviation is not None:
            name = "channel_completeness" if kind == "channel" else "instrument_completeness"
            checks = [_check(name, exc.deviation, COMPLETENESS_TOL, error)]
        else:
            checks = [_check(f"{kind}_construction", None, 0.0, error)]
    return {"path": path, "kind": kind, "checks": checks, "ok": all(c["ok"] for c in checks)}


def cmd_validate(paths: list[str], out: str | None) -> int:
    reports = [_validate_one(path) for path in paths]
    payload = {"reports": reports, "ok": all(r["ok"] for r in reports)}
    _emit(payload, out)
    return EXIT_OK if payload["ok"] else EXIT_VIOLATION


def _trace_and_floor(state) -> dict:
    # the floor is the lowest of state.eigenvalues: new_state solved them at qdim <= 2
    # (or where its Cholesky certificate failed); above, this first read solves them
    return {
        "total_trace": total_trace(state.masses),
        "min_block_eigenvalue": float(state.eigenvalues.min()),
    }


def _metrics_row(step: int, state, previous) -> dict:
    try:
        moved = 0.0 if previous is None else distance(previous, state)
    except SpaceMismatch:
        moved = None  # a step that changed the space has no distance: null, or an empty CSV field
    return {
        "step": step,
        **_trace_and_floor(state),
        "mutual_information": mutual_information(state),
        "distance_from_previous": moved,
    }


CSV_COLUMNS = (
    "step",
    "total_trace",
    "min_block_eigenvalue",
    "mutual_information",
    "distance_from_previous",
)


def _write_metrics_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            cells = [str(row["step"])] + [
                "" if row[c] is None else _fmt_float(row[c]) for c in CSV_COLUMNS[1:]
            ]
            fh.write(",".join(cells) + "\n")


def cmd_evolve(
    state_path: str, channel_paths: list[str], steps: int, metrics_out: str | None, out: str | None
) -> int:
    state = io.state_from_json(io.load_json(state_path))
    channels = [io.channel_from_json(io.load_json(p)) for p in channel_paths]

    rows = [_metrics_row(0, state, None)]
    for step in range(1, steps + 1):
        previous = state
        try:
            for channel in channels:
                state = apply(channel, state)
        except HybridError as exc:
            print(f"evolve: step {step}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_VIOLATION
        rows.append(_metrics_row(step, state, previous))

    if metrics_out:
        _write_metrics_csv(rows, metrics_out)
    if out:
        io.dump_json(io.state_to_json(state), out)
    _emit({"steps": steps, "rows": rows}, None)
    return EXIT_OK


def cmd_locc(protocol_path: str, state_path: str, out: str | None) -> int:
    protocol = io.protocol_from_json(io.load_json(protocol_path))
    rho = io.matrix_from_json(io.load_json(state_path), "input state")
    state, lam = run(protocol, rho)
    d1, d2 = protocol.dims
    conclusive = d1 * d2 <= 6
    ppt = is_ppt(lam, d1, d2)
    payload = {
        "dims": [d1, d2],
        "records": {
            ".".join(str(x) for x in rec): float(np.trace(state.masses[i]).real)
            for i, rec in enumerate(state.space.labels)
        },
        "total_trace": total_trace(state.masses),
        "lambda_rho": io.matrix_to_json(lam),
        "ppt": ppt,
        "ppt_verdict": ("PPT" if ppt else "NPT") + ("" if conclusive else " (necessary only)"),
        "ppt_conclusive": conclusive,
    }
    _emit(payload, out)
    return EXIT_OK


def cmd_metrics(state_path: str, other_path: str | None, fmt: str, out: str | None) -> int:
    state = io.state_from_json(io.load_json(state_path))
    entropy = von_neumann_entropy(quantum_marginal(state))
    payload = {
        "cells": state.space.size,
        "qdim": state.qdim,
        **_trace_and_floor(state),
        "quantum_entropy": entropy,
        "mutual_information": mutual_information(state),
        "bound_2S": 2.0 * entropy,
    }
    if other_path is not None:
        other = io.state_from_json(io.load_json(other_path))
        payload["distance"] = distance(state, other)
    if fmt == "csv":
        keys = sorted(payload)
        values = (_fmt_float(v) if isinstance(v, float) else str(v) for v in map(payload.get, keys))
        _emit_text(",".join(keys) + "\n" + ",".join(values), out)
    else:
        _emit(payload, out)
    return EXIT_OK


def cmd_properties(suite: str, trials: int, seed: int, out: str | None) -> int:
    report = run_suite(suite, trials, seed)
    _emit(report.to_dict(), out)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_randgen(args: argparse.Namespace) -> int:
    kind = args.kind
    rng = seeded_rng(args.seed, f"randgen.{kind}")
    if kind == "state":
        payload = io.state_to_json(random_state(counting_space(args.cells), args.qdim, rng))
    elif kind == "channel":
        src, dst = counting_space(args.src_cells), counting_space(args.dst_cells)
        channel = random_channel(src, dst, args.qdim_src, args.qdim_dst, args.branching, rng)
        payload = io.channel_to_json(channel)
    else:
        spaces = counting_space(args.cols), counting_space(args.rows)
        kernel = MarkovKernel(*spaces, random_stochastic_matrix(args.rows, args.cols, rng))
        payload = io.kernel_to_json(kernel)
    io.dump_json(payload, args.out)
    print(json.dumps({"kind": kind, "out": args.out, "seed": args.seed}, sort_keys=True))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors end in exit code 1, not argparse's 2."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def _at_least(low: int):
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return count


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hybridiq",
        description="Hybrid classical-quantum states, channels, correlations, and LOCC.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def out(p, required=False):
        p.add_argument("--out", required=required, help="write the report/result here")

    def seed(p):
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")

    p = sub.add_parser("validate", help="check spec files against their invariants")
    p.add_argument("paths", nargs="+")
    out(p)
    p.set_defaults(run=lambda a: cmd_validate(a.paths, a.out))

    p = sub.add_parser("evolve", help="drive a state through a channel pipeline")
    p.add_argument("state")
    p.add_argument("channels", nargs="+")
    p.add_argument("--steps", type=_at_least(0), default=1)
    p.add_argument("--metrics-out", default=None, help="per-step metrics CSV")
    out(p)
    p.set_defaults(run=lambda a: cmd_evolve(a.state, a.channels, a.steps, a.metrics_out, a.out))

    p = sub.add_parser("locc", help="run a LOCC protocol on a density matrix")
    p.add_argument("protocol")
    p.add_argument("state")
    out(p)
    p.set_defaults(run=lambda a: cmd_locc(a.protocol, a.state, a.out))

    p = sub.add_parser("metrics", help="report metrics of one state (or distance of two)")
    p.add_argument("state")
    p.add_argument("other", nargs="?", default=None)
    p.add_argument(
        "--format", dest="fmt", choices=("json", "csv"), default="json", help="stdout format"
    )
    out(p)
    p.set_defaults(run=lambda a: cmd_metrics(a.state, a.other, a.fmt, a.out))

    p = sub.add_parser("properties", help="run a randomized property suite")
    p.add_argument("suite", help=f"one of {sorted(SUITES)}")
    p.add_argument("--trials", type=_at_least(1), default=1000)
    seed(p)
    out(p)
    p.set_defaults(run=lambda a: cmd_properties(a.suite, a.trials, a.seed, a.out))

    p = sub.add_parser("randgen", help="generate a seeded random instance")
    p.set_defaults(run=cmd_randgen)
    gen = p.add_subparsers(dest="kind", required=True)
    g = gen.add_parser("state")
    g.add_argument("--cells", type=_at_least(1), default=4)
    g.add_argument("--qdim", type=_at_least(1), default=2)
    g = gen.add_parser("channel")
    g.add_argument("--src-cells", type=_at_least(1), default=3)
    g.add_argument("--dst-cells", type=_at_least(1), default=3)
    g.add_argument("--qdim-src", type=_at_least(1), default=2)
    g.add_argument("--qdim-dst", type=_at_least(1), default=2)
    g.add_argument("--branching", type=_at_least(1), default=2)
    g = gen.add_parser("kernel")
    g.add_argument("--rows", type=_at_least(1), default=3)
    g.add_argument("--cols", type=_at_least(1), default=3)
    for g in gen.choices.values():
        seed(g)
        out(g, required=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)  # a subcommand is required, and each one sets run
    except (ParseError, IoError, UnknownSuite) as exc:
        print(f"hybridiq: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"hybridiq: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except HybridError as exc:
        print(f"hybridiq: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    raise SystemExit(main())
