"""hybridiq benchmark runner: one caller, one process, closed loop.

    python3 bench/run.py --workload evolve-cells --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --self-test
    python3 bench/run.py --sweep

Run from the root of the repository.  A measuring run sets up its workload
several times (``setup_s`` is the median), runs warm-up ops, then issues ops
one after another for ``--seconds`` (and at least ``MIN_SAMPLES`` ops),
checking each op's output against its reference between ops.  Gated times are
in reference seconds (see calibration.py).  The last line of standard output
is the result object; the line before it holds the machine facts, sample
counts and wall-clock figures, which also go to ``.bench_out/``.

With ``--trace 1`` alternate cycles of ops are traced and the per-layer
metrics are printed instead of the end-to-end ones.  See bench/README.md.
"""

import os

# One BLAS thread for this process and the reference process it starts;
# OpenBLAS reads these when numpy is first imported, below.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, figures  # noqa: E402

SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
# Shorter set-ups are timed in batches this long: one sub-millisecond set-up
# right after the calibration kernel runs with cold caches, and its time
# swings by 2x from run to run.
SETUP_BATCH_SECONDS = 0.005
WARMUP_OPS = 3
# p90 is reported only with at least ten samples beyond it
MIN_SAMPLES = 100

CALLS = (
    "channel.apply",
    "correlations.mutual_information",
    "state.distance",
    "locc.run",
    "locc.is_ppt",
    "io.matrix_to_json",
    "locc.as_hybrid_channels",
    "locc.initial_record_state",
    "state.random_state",
    "channel.random_channel",
    "channel.non_interacting",
    "io.state_to_json",
    "io.state_from_json",
    "io.channel_to_json",
    "io.channel_from_json",
    "io.protocol_to_json",
    "io.protocol_from_json",
)
SUITES = ("axioms", "metric", "channel", "vieq", "correlations", "locc")
COUNTS = (
    "channel.apply.kraus_products",
    "channel.apply.flop_computed",
    "channel.apply.bytes_computed",
    "locc.as_hybrid_channels.cells",
    "locc.as_hybrid_channels.blocks",
    "properties.trials",
)


def layer_metrics(tracer: Tracer, traced_ms: list, untraced_ms: list) -> dict:
    """Every per-layer metric; a layer this workload does not call reads 0."""
    fig = figures(tracer)
    names = [f"{c}.{k}" for c in CALLS + tuple(f"properties.{s}" for s in SUITES)
             for k in ("calls", "busy_s", "p50_us", "share")]
    out = {name: fig.get(name, 0.0) for name in names + list(COUNTS)}
    for s in SUITES:
        trials = fig.get(f"properties.{s}.trials", 0.0)
        out[f"properties.{s}.us_per_trial"] = (
            out[f"properties.{s}.busy_s"] / trials * 1e6 if trials else 0.0
        )
    busy = out["channel.apply.busy_s"]
    out["channel.apply.gflop_per_s"] = out["channel.apply.flop_computed"] / busy / 1e9 if busy else 0.0
    out["op.self_s"] = fig.get("op.busy_s", 0.0)
    out["op.self_share"] = fig.get("op.share", 0.0)
    out["trace.op_p50_ms"] = statistics.median(traced_ms)
    out["trace.overhead_ratio"] = statistics.median(traced_ms) / statistics.median(untraced_ms)
    return out


def time_metrics(setup_s: list, latencies_ms: list) -> dict:
    return {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": 1e3 * len(latencies_ms) / sum(latencies_ms),
        "op_p50_ms": statistics.median(latencies_ms),
        "op_p90_ms": statistics.quantiles(latencies_ms, n=10, method="inclusive")[8],
    }


def git_commit() -> str:
    """HEAD commit from .git/HEAD and its loose ref, or "unknown"."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def machine_facts() -> dict:
    def read(path: str) -> str:
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    cpu = [ln.split(":", 1)[1].strip() for ln in read("/proc/cpuinfo").splitlines()
           if ln.startswith("model name")]
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu[0] if cpu else "unknown",
        "l3_cache": read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip() or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
    }


def measure(args, spec: dict) -> int:
    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = Tracer()
    tracer.enabled = bool(args.trace)
    # one (wall seconds per set-up, kernel seconds, units) per batch of set-ups
    setups: list[tuple[float, float, list[int | None]]] = []
    begin = time.perf_counter()
    while len(setups) < SETUP_MIN_REPEATS or time.perf_counter() - begin < SETUP_MIN_SECONDS:
        units, start = [], time.perf_counter()
        while not units or time.perf_counter() - start < SETUP_BATCH_SECONDS:
            with tracer.unit("setup"):
                workload.setup(tracer)
            units.append(tracer.last_unit)
        seconds = (time.perf_counter() - start) / len(units)
        setups.append((seconds, calibration.kernel_seconds(), units))
    tracer.enabled = False

    # one (wall seconds or None if it failed, kernel seconds, traced, unit) per measured op
    ops: list[tuple[float | None, float, bool, int | None]] = []
    attempted = failed = 0
    try:
        workload.prepare()
        for _ in range(max(WARMUP_OPS, workload.cycle)):
            _, ok = workloads.timed_op(workload, tracer)
            calibration.kernel_seconds()
            attempted, failed = attempted + 1, failed + (not ok)
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or (
            not failed and len(ops) < MIN_SAMPLES
        ):
            traced = bool(args.trace) and (len(ops) // workload.cycle) % 2 == 0
            tracer.enabled = traced
            seconds, ok = workloads.timed_op(workload, tracer)
            tracer.enabled = False
            ops.append((seconds if ok else None, calibration.kernel_seconds(), traced,
                        tracer.last_unit if traced else None))
            attempted, failed = attempted + 1, failed + (not ok)
    finally:
        workload.close()

    setup_s = {"wall": [w for w, _, _ in setups], "ref": []}
    for (wall, _, units), factor in zip(setups, calibration.reference_factors([k for _, k, _ in setups])):
        setup_s["ref"].append(wall * factor)
        for unit in units:
            if unit is not None:
                tracer.scales[unit] = factor
    op_ms = {(kind, traced): [] for kind in ("wall", "ref") for traced in (False, True)}
    for (wall, _, traced, unit), factor in zip(ops, calibration.reference_factors([k for _, k, _, _ in ops])):
        if wall is not None:
            op_ms["wall", traced].append(wall * 1e3)
            op_ms["ref", traced].append(wall * 1e3 * factor)
        if unit is not None:
            tracer.scales[unit] = factor

    ref = {
        **time_metrics(setup_s["ref"], op_ms["ref", False]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall = time_metrics(setup_s["wall"], op_ms["wall", False])
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "facts": machine_facts(),
        "setup_repeats": sum(len(units) for _, _, units in setups),
        "samples": len(op_ms["wall", False]),
        "samples_beyond_p90": sum(x > ref["op_p90_ms"] for x in op_ms["ref", False]),
        "failed_ratio": failed / attempted,
        "wall_clock": wall,
        "end_to_end": ref,
        "setup_seconds": setup_s,
        "op_ms": {kind: op_ms[kind, False] for kind in ("wall", "ref")},
    }
    if args.trace:
        result["traced_samples"] = len(op_ms["ref", True])
        result["trace_overhead_ms"] = (
            statistics.median(op_ms["ref", True]) - statistics.median(op_ms["ref", False])
        )
        result["per_layer"] = layer_metrics(tracer, op_ms["ref", True], op_ms["ref", False])
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {
        m["name"]: {"value": result[kind][m["name"]], "unit": m["unit"]} for m in spec[kind]
    }

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**result, "spans": tracer.export()}, indent=1) + "\n")
    print(json.dumps({k: result[k] for k in (
        "facts", "setup_repeats", "samples", "samples_beyond_p90", "failed_ratio", "wall_clock",
    ) + (("traced_samples", "trace_overhead_ms") if args.trace else ())}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="CLI parity and failure-counting checks")
    parser.add_argument("--sweep", action="store_true", help="scaling sweep of single layers (not gated)")
    args = parser.parse_args(argv)
    if args.self_test:
        import selftest

        return selftest.main(OUT_DIR)
    if args.sweep:
        import sweep

        return sweep.main(machine_facts(), OUT_DIR)
    if args.workload is None:
        parser.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return measure(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
