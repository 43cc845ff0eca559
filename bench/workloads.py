"""The benchmark's workloads: inputs from a seed, one op, and its reference check.

Every workload has the same shape.  ``setup`` generates the inputs from the
seed and loads them the way a user's files are loaded (this is what
``setup_s`` times); ``prepare`` builds the reference, untimed; ``op`` runs one
operation and returns what ``check`` needs.  Every call into hybridiq goes
through ``tracer.call`` so that the traced run can time it.  The library sees
only the generated inputs, never the seed.

Work counts are computed from the JSON encoding of a channel (the schema in
``hybridiq.io``), not from its in-memory layout, so that a change of layout
leaves this file working.
"""

from __future__ import annotations

import itertools
import json
import traceback
from time import perf_counter

import numpy as np

from hybridiq import channel, correlations, io, locc, properties, state
from hybridiq.classical import MarkovKernel, counting_space
from hybridiq.linalg import PSD_TOL, TRACE_TOL
from hybridiq.rand import random_density, random_kraus_set, random_stochastic_matrix, seeded_rng

from reference import SuperoperatorReference

# Tolerance of the dense-superoperator check: the library's own
# compose_matches_sequential and round_channels_match_run checks use 1e-10.
SUPEROPERATOR_TOL = 1e-10
ROUND_CHANNELS_TOL = 1e-10


def round_trip(tracer, kind: str, obj):
    """Encode with ``io.<kind>_to_json`` and load back from JSON text: (loaded, text)."""
    encoded = tracer.call(f"io.{kind}_to_json", getattr(io, f"{kind}_to_json"), obj)
    text = json.dumps(encoded)
    return tracer.call(f"io.{kind}_from_json", getattr(io, f"{kind}_from_json"), json.loads(text)), text


def apply_work(encoded: dict) -> dict[str, int]:
    """Work of one ``channel.apply`` of a channel given as ``io.channel_to_json``.

    Computed from block shapes, not measured: each Kraus block costs L @ sigma
    and (L sigma) @ L^dag (8 flop per complex multiply-add); bytes are the
    Kraus blocks plus the input and output masses, read or written once.
    """
    q_src, q_dst = encoded["qdim_src"], encoded["qdim_dst"]
    n_src = len(encoded["src_space"]["weights"])
    n_dst = len(encoded["dst_space"]["weights"])
    kraus = sum(len(entry["L"]) for entry in encoded["blocks"])
    return {
        "kraus_products": kraus,
        "flop_computed": 8 * kraus * (q_dst * q_src * q_src + q_dst * q_src * q_dst),
        "bytes_computed": 16 * (kraus * q_dst * q_src + n_src * q_src**2 + n_dst * q_dst**2),
    }


def traced_apply(tracer, ch, st, work: dict[str, int]):
    out = tracer.call("channel.apply", channel.apply, ch, st)
    for key, value in work.items():
        tracer.count(f"channel.apply.{key}", value)
    return out


class Evolve:
    """One ``hybridiq evolve`` step, as ``cli.cmd_evolve`` runs it.

    A dense ``random_channel`` (branching 1) and a dense ``non_interacting``
    channel are applied in turn, then the CLI's metrics row is computed.  The
    state carries over from op to op, so op k is step k.
    """

    cycle = 1

    def __init__(self, seed: int, cells: int, qdim: int):
        self.seed, self.cells, self.qdim = seed, cells, qdim
        self.reference = None

    def setup(self, tracer) -> None:
        rng = seeded_rng(self.seed, "bench.evolve")
        space = counting_space(self.cells)
        q = self.qdim
        w = tracer.call("state.random_state", state.random_state, space, q, rng)
        mixing = tracer.call(
            "channel.random_channel", channel.random_channel, space, space, q, q, 1, rng
        )
        kernel = MarkovKernel(space, space, random_stochastic_matrix(self.cells, self.cells, rng))
        local = tracer.call(
            "channel.non_interacting", channel.non_interacting, kernel, random_kraus_set(q, 2, rng)
        )
        self.state, self.state_text = round_trip(tracer, "state", w)
        loaded = [round_trip(tracer, "channel", ch) for ch in (mixing, local)]
        self.channels = [ch for ch, _ in loaded]
        self.channel_texts = [text for _, text in loaded]
        self.step = 0

    def prepare(self) -> None:
        self.work = [apply_work(json.loads(text)) for text in self.channel_texts]
        self.reference = SuperoperatorReference(self.channel_texts)

    def op(self, tracer):
        previous = current = self.state
        for ch, work in zip(self.channels, self.work):
            current = traced_apply(tracer, ch, current, work)
        row = {
            "step": self.step + 1,
            "total_trace": float(np.einsum("nii->", current.masses).real),
            "min_block_eigenvalue": float(np.linalg.eigvalsh(current.masses).min()),
            "mutual_information": tracer.call(
                "correlations.mutual_information", correlations.mutual_information, current
            ),
            "distance_from_previous": tracer.call("state.distance", state.distance, previous, current),
        }
        self.state, self.step = current, self.step + 1
        return previous, current, row

    def check(self, out) -> bool:
        previous, current, row = out
        return (
            self.reference.deviation(previous.masses, current.masses) <= SUPEROPERATOR_TOL
            and abs(row["total_trace"] - 1.0) <= TRACE_TOL
            and row["min_block_eigenvalue"] >= -PSD_TOL
        )

    def close(self) -> None:
        if self.reference is not None:
            self.reference.close()
            self.reference = None


def random_protocol(rng, rounds: int) -> locc.LoccProtocol:
    """Two-outcome protocol on a 2x2 system with a separate random instrument
    for every history, sides alternating."""
    steps = []
    for r in range(rounds):
        instrument = {
            history: random_kraus_set(2, 2, rng)
            for history in itertools.product((1, 2), repeat=r)
        }
        steps.append(locc.LoccRound(2, instrument, 1 + r % 2))
    return locc.LoccProtocol((2, 2), tuple(steps))


def locc_report(protocol, record_state, lam_json: dict, ppt: bool) -> dict:
    """The report ``cli.cmd_locc`` prints, from the op's results."""
    d1, d2 = protocol.dims
    conclusive = d1 * d2 <= 6
    return {
        "dims": [d1, d2],
        "records": {
            ".".join(str(x) for x in rec): float(np.trace(record_state.masses[i]).real)
            for i, rec in enumerate(record_state.space.labels)
        },
        "total_trace": float(np.einsum("nii->", record_state.masses).real),
        "lambda_rho": lam_json,
        "ppt": ppt,
        "ppt_verdict": ("PPT" if ppt else "NPT") + ("" if conclusive else " (necessary only)"),
        "ppt_conclusive": conclusive,
    }


class Locc:
    """One ``hybridiq locc`` run of a fixed protocol, plus its lowering to round channels.

    The op runs the protocol as ``cli.cmd_locc`` does, lowers it with
    ``as_hybrid_channels`` and evolves ``initial_record_state`` through the
    round channels; the two paths must agree.
    """

    cycle = 1
    input_states = 8

    def __init__(self, seed: int, rounds: int):
        self.seed, self.rounds = seed, rounds

    def setup(self, tracer) -> None:
        rng = seeded_rng(self.seed, "bench.locc")
        self.protocol, self.protocol_text = round_trip(
            tracer, "protocol", random_protocol(rng, self.rounds)
        )
        d = self.protocol.dims[0] * self.protocol.dims[1]
        self.inputs = [random_density(d, rng) for _ in range(self.input_states)]
        self.calls = 0

    def prepare(self) -> None:
        lowered = [io.channel_to_json(ch) for ch in locc.as_hybrid_channels(self.protocol)]
        self.work = [apply_work(encoded) for encoded in lowered]
        self.cells = len(lowered[0]["src_space"]["weights"])
        self.blocks = sum(len(encoded["blocks"]) for encoded in lowered)

    def op(self, tracer):
        rho = self.inputs[self.calls % len(self.inputs)]
        self.calls += 1
        record_state, lam = tracer.call("locc.run", locc.run, self.protocol, rho)
        ppt = tracer.call("locc.is_ppt", locc.is_ppt, lam, *self.protocol.dims)
        report = locc_report(
            self.protocol, record_state, tracer.call("io.matrix_to_json", io.matrix_to_json, lam), ppt
        )
        rounds = tracer.call("locc.as_hybrid_channels", locc.as_hybrid_channels, self.protocol)
        tracer.count("locc.as_hybrid_channels.cells", self.cells)
        tracer.count("locc.as_hybrid_channels.blocks", self.blocks)
        evolved = tracer.call("locc.initial_record_state", locc.initial_record_state, self.protocol, rho)
        for ch, work in zip(rounds, self.work):
            evolved = traced_apply(tracer, ch, evolved, work)
        return report, record_state, evolved

    def check(self, out) -> bool:
        # same comparison as properties.run_locc's round_channels_match_run
        _, record_state, evolved = out
        by_record = dict(zip(evolved.space.labels, evolved.masses))
        worst = max(
            float(np.abs(by_record[rec] - mass).max())
            for rec, mass in zip(record_state.space.labels, record_state.masses)
        )
        for rec, mass in by_record.items():
            if 0 in rec:
                worst = max(worst, float(np.abs(mass).max()))
        return worst <= ROUND_CHANNELS_TOL

    def close(self) -> None:
        pass


class Properties:
    """``properties.run_suite`` calls cycling through the six suites.

    Per cycle the trial counts are the acceptance module's divided by 100
    (axioms 100, metric 10, channel 10, vieq 5, correlations 100, locc 10).
    axioms, channel and correlations are split into calls of 50, 5 and 25
    trials so that the call latencies do not fall into six separate clusters
    with the median between two of them.  Each call gets its own seed, drawn
    when the call is made from a generator seeded by the workload seed.
    ``run_suite`` makes its own inputs, so set-up only seeds that generator
    and no library code runs in it.
    """

    schedule = (
        ("axioms", 50), ("axioms", 50), ("metric", 10), ("channel", 5), ("channel", 5),
        ("vieq", 5), ("correlations", 25), ("correlations", 25), ("correlations", 25),
        ("correlations", 25), ("locc", 10),
    )
    cycle = len(schedule)

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, tracer) -> None:
        self.seeds = seeded_rng(self.seed, "bench.properties")
        self.calls = 0

    def prepare(self) -> None:
        pass

    def op(self, tracer):
        suite, trials = self.schedule[self.calls % self.cycle]
        seed = int(self.seeds.integers(0, 2**63))
        self.calls += 1
        report = tracer.call(f"properties.{suite}", properties.run_suite, suite, trials, seed)
        tracer.count(f"properties.{suite}.trials", trials)
        tracer.count("properties.trials", trials)
        return report

    def check(self, report) -> bool:
        return report.violations == 0

    def close(self) -> None:
        pass


WORKLOADS = {
    "evolve-cells": lambda seed: Evolve(seed, cells=64, qdim=2),
    "evolve-qubits": lambda seed: Evolve(seed, cells=8, qdim=16),
    "locc-rounds": lambda seed: Locc(seed, rounds=5),
    "properties-suites": Properties,
}


def timed_op(workload, tracer) -> tuple[float | None, bool]:
    """Run one op and its reference check: (op seconds, passed).

    An op fails when it raises or its check fails; the seconds are None when
    it raised.  Checks run after the clock stops.
    """
    try:
        with tracer.unit("op"):
            start = perf_counter()
            out = workload.op(tracer)
            seconds = perf_counter() - start
    except Exception:
        traceback.print_exc()
        return None, False
    return seconds, workload.check(out)
