"""Command-line front end.

Subcommands: validate | evolve | locc | metrics | properties | randgen.
All randomness flows from --seed (default 0); identical command lines produce
byte-identical report files.  Exit codes: 0 success, 1 parse/IO/usage error,
2 invariant violation or domain error.  The HYBRIDIQ_THREADS environment
variable (0 = auto) caps parallelism; the current implementation evaluates
sequentially, which is trivially within any cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import io
from .channel import COMPLETENESS_TOL, apply, completeness_defect, random_channel
from .classical import STOCHASTIC_TOL, ClassicalSpace, counting_space, validate_kernel
from .correlations import mutual_information
from .errors import (
    HybridError,
    IncompleteInstrument,
    IoError,
    ParseError,
    ShapeMismatch,
    UnknownSuite,
)
from .linalg import HERMITICITY_TOL, TRACE_TOL, kraus_defect, von_neumann_entropy
from .locc import INSTRUMENT_TOL, is_ppt, run
from .properties import SUITES, run_suite
from .rand import random_stochastic_matrix, seeded_rng
from .state import distance, quantum_marginal, random_state

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2


@dataclass
class RunConfig:
    command: str
    inputs: list[str] = field(default_factory=list)
    seed: int = 0
    tol: float | None = None
    out: str | None = None
    fmt: str = "json"


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")


def _check(name: str, deviation: float, tolerance: float) -> dict:
    return {
        "name": name,
        "deviation": float(deviation),
        "tolerance": float(tolerance),
        "ok": bool(deviation <= tolerance),
    }


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


def _space_checks(space: ClassicalSpace) -> list[dict]:
    # ClassicalSpace construction already enforces positivity; report the margin
    w_min = float(space.weights.min())
    return [
        {
            "name": "space_weights_positive",
            "deviation": -w_min,
            "tolerance": 0.0,
            "ok": bool(w_min > 0.0),
        }
    ]


def _validate_state(obj, tol: float) -> list[dict]:
    space = io.space_from_json(obj["space"])
    qdim = int(obj["qdim"])
    if not isinstance(obj["masses"], list) or len(obj["masses"]) != space.size:
        raise ParseError(f"state: need one mass matrix per cell ({space.size})")
    masses = np.stack(
        [io.matrix_from_json(m, f"mass[{i}]") for i, m in enumerate(obj["masses"])]
    )
    if masses.shape[1] != qdim:
        raise ParseError(f"state: mass matrices must be {qdim}x{qdim}")
    checks = _space_checks(space)
    herm = float(np.abs(masses - masses.conj().transpose(0, 2, 1)).max())
    checks.append(_check("masses_hermitian", herm, HERMITICITY_TOL))
    sym = (masses + masses.conj().transpose(0, 2, 1)) / 2
    checks.append(_check("masses_positive", float(-np.linalg.eigvalsh(sym).min()), tol))
    total = float(np.einsum("nii->", sym).real)
    name = "normalization_w_X_I"
    if abs(total - 1.0) > tol:
        checks.append(
            {
                "name": name,
                "deviation": abs(total - 1.0),
                "tolerance": tol,
                "ok": False,
                "error": f"NotNormalized: total trace {total!r}",
            }
        )
    else:
        checks.append(_check(name, abs(total - 1.0), tol))
    return checks


def _validate_channel(obj, tol: float) -> list[dict]:
    channel = None
    try:
        channel = io.channel_from_json(obj)
        checks = _space_checks(channel.src_space)
        checks.append(
            _check("channel_completeness", completeness_defect(channel), tol)
        )
        return checks
    except ParseError:
        raise
    except HybridError as exc:
        return [
            {
                "name": "channel_construction",
                "deviation": float("inf"),
                "tolerance": tol,
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
            }
        ]


def _validate_protocol(obj, tol: float) -> list[dict]:
    try:
        protocol = io.protocol_from_json(obj)
    except IncompleteInstrument as exc:
        return [
            {
                "name": "instrument_completeness",
                "deviation": float("inf"),
                "tolerance": tol,
                "ok": False,
                "error": f"IncompleteInstrument: {exc}",
            }
        ]
    except ShapeMismatch as exc:
        raise ParseError(f"protocol: {exc}") from exc
    worst = max(
        (kraus_defect(stack) for rnd in protocol.rounds for stack in rnd.instrument.values()),
        default=0.0,
    )
    return [_check("instrument_completeness", worst, tol)]


def _validate_one(path: str, tol_override: float | None) -> dict:
    obj = io.load_json(path)
    kind = _detect_kind(obj)
    try:
        if kind == "state":
            checks = _validate_state(obj, tol_override or TRACE_TOL)
        elif kind == "channel":
            checks = _validate_channel(obj, tol_override or COMPLETENESS_TOL)
        elif kind == "protocol":
            checks = _validate_protocol(obj, tol_override or INSTRUMENT_TOL)
        elif kind == "kernel":
            matrix = io.kernel_matrix_from_json(obj)
            report = validate_kernel(matrix, tol_override or STOCHASTIC_TOL)
            checks = [
                {
                    "name": "kernel_column_stochastic",
                    "deviation": float(report.deviation),
                    "tolerance": tol_override or STOCHASTIC_TOL,
                    "ok": report.ok,
                    **({} if report.ok else {"error": report.message}),
                }
            ]
        else:
            checks = _space_checks(io.space_from_json(obj))
    except (ParseError, IoError):
        raise
    except HybridError as exc:
        # invariant failures surfaced as exceptions become a failed check, so
        # one bad file yields a violation report instead of aborting the run
        checks = [
            {
                "name": f"{kind}_construction",
                "deviation": float("inf"),
                "tolerance": 0.0,
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
            }
        ]
    return {"path": path, "kind": kind, "checks": checks, "ok": all(c["ok"] for c in checks)}


def cmd_validate(config: RunConfig) -> int:
    reports = [_validate_one(path, config.tol) for path in config.inputs]
    payload = {"reports": reports, "ok": all(r["ok"] for r in reports)}
    _emit(payload, config.out)
    return EXIT_OK if payload["ok"] else EXIT_VIOLATION


def _metrics_row(step: int, state, previous) -> dict:
    return {
        "step": step,
        "total_trace": float(np.einsum("nii->", state.masses).real),
        "min_block_eigenvalue": float(np.linalg.eigvalsh(state.masses).min()),
        "mutual_information": mutual_information(state),
        "distance_from_previous": 0.0 if previous is None else distance(previous, state),
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
            cells = [str(row["step"])] + [_fmt_float(row[c]) for c in CSV_COLUMNS[1:]]
            fh.write(",".join(cells) + "\n")


def cmd_evolve(config: RunConfig, steps: int, metrics_out: str | None) -> int:
    state = io.state_from_json(io.load_json(config.inputs[0]))
    channels = [io.channel_from_json(io.load_json(p)) for p in config.inputs[1:]]
    if not channels:
        print("evolve: need at least one channel file", file=sys.stderr)
        return EXIT_ERROR

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
    if config.out:
        io.dump_json(io.state_to_json(state), config.out)
    _emit({"steps": steps, "rows": rows}, None)
    return EXIT_OK


def cmd_locc(config: RunConfig) -> int:
    protocol = io.protocol_from_json(io.load_json(config.inputs[0]))
    rho = io.matrix_from_json(io.load_json(config.inputs[1]), "input state")
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
        "total_trace": float(np.einsum("nii->", state.masses).real),
        "lambda_rho": io.matrix_to_json(lam),
        "ppt": ppt,
        "ppt_verdict": ("PPT" if ppt else "NPT") + ("" if conclusive else " (necessary only)"),
        "ppt_conclusive": conclusive,
    }
    _emit(payload, config.out)
    return EXIT_OK


def cmd_metrics(config: RunConfig) -> int:
    state = io.state_from_json(io.load_json(config.inputs[0]))
    payload = {
        "cells": state.space.size,
        "qdim": state.qdim,
        "total_trace": float(np.einsum("nii->", state.masses).real),
        "min_block_eigenvalue": float(np.linalg.eigvalsh(state.masses).min()),
        "quantum_entropy": von_neumann_entropy(quantum_marginal(state)),
        "mutual_information": mutual_information(state),
        "bound_2S": 2.0 * von_neumann_entropy(quantum_marginal(state)),
    }
    if len(config.inputs) > 1:
        other = io.state_from_json(io.load_json(config.inputs[1]))
        payload["distance"] = distance(state, other)
    if config.fmt == "csv":
        keys = sorted(payload)
        lines = [",".join(keys)]
        lines.append(
            ",".join(
                _fmt_float(payload[k]) if isinstance(payload[k], float) else str(payload[k])
                for k in keys
            )
        )
        text = "\n".join(lines)
        print(text)
        if config.out:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        return EXIT_OK
    _emit(payload, config.out)
    return EXIT_OK


def cmd_properties(config: RunConfig, suite: str, trials: int) -> int:
    report = run_suite(suite, trials, config.seed)
    _emit(report.to_dict(), config.out)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_randgen(config: RunConfig, kind: str, args) -> int:
    if kind == "state":
        space = counting_space(args.cells)
        state = random_state(space, args.qdim, seeded_rng(config.seed, "randgen.state"))
        payload = io.state_to_json(state)
    elif kind == "channel":
        channel = random_channel(
            counting_space(args.src_cells),
            counting_space(args.dst_cells),
            args.qdim_src,
            args.qdim_dst,
            args.branching,
            seeded_rng(config.seed, "randgen.channel"),
        )
        payload = io.channel_to_json(channel)
    else:
        matrix = random_stochastic_matrix(args.rows, args.cols, seeded_rng(config.seed, "randgen.kernel"))
        payload = {"P": matrix.ravel().tolist(), "rows": args.rows, "cols": args.cols}
    if not config.out:
        print("randgen: --out is required", file=sys.stderr)
        return EXIT_ERROR
    io.dump_json(payload, config.out)
    print(json.dumps({"kind": kind, "out": config.out, "seed": config.seed}, sort_keys=True))
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

    def out(p):
        p.add_argument("--out", default=None, help="write the report/result here")

    def seed(p):
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")

    p = sub.add_parser("validate", help="check spec files against their invariants")
    p.add_argument("paths", nargs="+")
    p.add_argument("--tol", type=float, default=None, help="tolerance override")
    out(p)

    p = sub.add_parser("evolve", help="drive a state through a channel pipeline")
    p.add_argument("state")
    p.add_argument("channels", nargs="+")
    p.add_argument("--steps", type=_at_least(0), default=1)
    p.add_argument("--metrics-out", default=None, help="per-step metrics CSV")
    out(p)

    p = sub.add_parser("locc", help="run a LOCC protocol on a density matrix")
    p.add_argument("protocol")
    p.add_argument("state")
    out(p)

    p = sub.add_parser("metrics", help="report metrics of one state (or distance of two)")
    p.add_argument("states", nargs="+")
    p.add_argument(
        "--format", dest="fmt", choices=("json", "csv"), default="json", help="stdout format"
    )
    out(p)

    p = sub.add_parser("properties", help="run a randomized property suite")
    p.add_argument("suite", help=f"one of {sorted(SUITES)}")
    p.add_argument("--trials", type=_at_least(1), default=1000)
    seed(p)
    out(p)

    p = sub.add_parser("randgen", help="generate a seeded random instance")
    gen = p.add_subparsers(dest="kind", required=True)
    g = gen.add_parser("state")
    g.add_argument("--cells", type=int, default=4)
    g.add_argument("--qdim", type=int, default=2)
    g = gen.add_parser("channel")
    g.add_argument("--src-cells", type=int, default=3)
    g.add_argument("--dst-cells", type=int, default=3)
    g.add_argument("--qdim-src", type=int, default=2)
    g.add_argument("--qdim-dst", type=int, default=2)
    g.add_argument("--branching", type=int, default=2)
    g = gen.add_parser("kernel")
    g.add_argument("--rows", type=int, default=3)
    g.add_argument("--cols", type=int, default=3)
    for g in gen.choices.values():
        seed(g)
        out(g)
    return parser


def _check_threads_env() -> None:
    raw = os.environ.get("HYBRIDIQ_THREADS", "0")
    try:
        threads = int(raw)
    except ValueError:
        threads = -1
    if threads < 0:
        raise ParseError(f"HYBRIDIQ_THREADS must be a non-negative integer, got {raw!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _check_threads_env()
        config = RunConfig(
            command=args.command,
            seed=getattr(args, "seed", 0),
            tol=getattr(args, "tol", None),
            out=args.out,
            fmt=getattr(args, "fmt", "json"),
        )
        if args.command == "validate":
            config.inputs = args.paths
            return cmd_validate(config)
        if args.command == "evolve":
            config.inputs = [args.state] + args.channels
            return cmd_evolve(config, args.steps, args.metrics_out)
        if args.command == "locc":
            config.inputs = [args.protocol, args.state]
            return cmd_locc(config)
        if args.command == "metrics":
            config.inputs = args.states
            return cmd_metrics(config)
        if args.command == "properties":
            config.inputs = [args.suite]
            return cmd_properties(config, args.suite, args.trials)
        if args.command == "randgen":
            return cmd_randgen(config, args.kind, args)
    except (ParseError, IoError, UnknownSuite) as exc:
        print(f"hybridiq: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"hybridiq: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except HybridError as exc:
        print(f"hybridiq: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
