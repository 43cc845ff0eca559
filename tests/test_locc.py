import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridiq import io
from hybridiq.channel import (
    COMPLETENESS_TOL, _basis_cost, _product_cost, apply, completeness_defect, from_rows
)
from hybridiq.classical import counting_space
from hybridiq.cli import main
from hybridiq.errors import (
    DimensionMismatch,
    IncompleteInstrument,
    NotAState,
    NumericalFailure,
    RecordSpaceTooLarge,
    ShapeMismatch,
)
from hybridiq.linalg import kraus_defect
from hybridiq.locc import (
    RECORD_SPACE_LIMIT,
    LoccProtocol,
    LoccRound,
    _histories,
    as_hybrid_channels,
    initial_record_state,
    is_ppt,
    run,
    run_steering,
    separable_from_ensemble,
    steer_to_separable,
)
from hybridiq.properties import _locc_oracle
from hybridiq.rand import random_density, random_kraus_set, random_probability_vector, seeded_rng
from hybridiq.state import quantum_marginal

BELL = np.zeros((4, 4), dtype=complex)
for _i in (0, 3):
    for _j in (0, 3):
        BELL[_i, _j] = 0.5

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def random_instrument(d, outcomes, rng):
    return random_kraus_set(d, outcomes, rng)


def random_protocol(rng, dims=(2, 2), max_rounds=3, max_outcomes=2, first_side=1):
    n_rounds = int(rng.integers(1, max_rounds + 1))
    outcome_counts = [int(rng.integers(1, max_outcomes + 1)) for _ in range(n_rounds)]
    rounds = []
    for r in range(n_rounds):
        side = first_side if r % 2 == 0 else 3 - first_side
        d_side = dims[side - 1]
        instrument = {
            history: random_instrument(d_side, outcome_counts[r], rng)
            for history in itertools.product(*(range(1, outcome_counts[s] + 1) for s in range(r)))
        }
        rounds.append(LoccRound(outcome_counts[r], instrument, side))
    return LoccProtocol(dims, tuple(rounds))


def test_single_round_identity():
    proto = LoccProtocol((2, 2), (LoccRound(1, {(): [np.eye(2)]}),))
    rho = random_density(4, np.random.default_rng(0))
    state, lam = run(proto, rho)
    assert state.space.size == 1
    assert np.allclose(state.masses[0], rho, atol=1e-12)
    assert np.allclose(lam, rho, atol=1e-12)


def test_bell_measurement_example():
    proto = LoccProtocol((2, 2), (LoccRound(2, {(): [P0, P1]}, side=1),))
    state, lam = run(proto, BELL)

    expected_0 = np.zeros((4, 4), dtype=complex)
    expected_0[0, 0] = 0.5
    expected_3 = np.zeros((4, 4), dtype=complex)
    expected_3[3, 3] = 0.5
    assert state.space.labels == ((1,), (2,))
    assert np.abs(state.masses[0] - expected_0).max() <= 1e-12
    assert np.abs(state.masses[1] - expected_3).max() <= 1e-12
    assert np.abs(lam - (expected_0 + expected_3)).max() <= 1e-12
    assert is_ppt(lam, 2, 2)
    assert not is_ppt(BELL, 2, 2)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)], ids=["2x2", "2x3", "3x2"])
def test_run_matches_record_enumeration_oracle(dims):
    # unequal sides catch a swapped (d1, d2) reshape in the product form
    d1, d2 = dims
    rng = np.random.default_rng(1)
    for _ in range(5):
        proto = random_protocol(rng, dims=dims, max_rounds=3)
        rho = random_density(d1 * d2, rng)
        state, lam = run(proto, rho)

        # enumerate every record by brute force
        oracle = {}
        counts = [rnd.outcomes for rnd in proto.rounds]
        for record in itertools.product(*(range(1, c + 1) for c in counts)):
            w = np.eye(d1 * d2, dtype=complex)
            for r, rnd in enumerate(proto.rounds):
                v = rnd.instrument[record[:r]][record[r] - 1]
                lifted = np.kron(v, np.eye(d2)) if rnd.side == 1 else np.kron(np.eye(d1), v)
                w = lifted @ w
            oracle[record] = w @ rho @ w.conj().T
        assert state.space.labels == tuple(oracle)
        for i, record in enumerate(state.space.labels):
            assert np.abs(state.masses[i] - oracle[record]).max() <= 1e-12
        assert np.abs(lam - sum(oracle.values())).max() <= 1e-12
        assert np.trace(lam).real == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.eigvalsh((lam + lam.conj().T) / 2)[0] >= -1e-9


def test_w_operators_factor_across_sides():
    # the w_operators_factor oracle of the locc suite, with either side acting first
    rng = np.random.default_rng(2)
    for first_side in (1, 2):
        for _ in range(5):
            proto = random_protocol(rng, dims=(2, 3), first_side=first_side)
            assert proto.rounds[0].side == first_side
            rho = random_density(6, rng)
            state, _ = run(proto, rho)
            oracle = _locc_oracle(proto, rho)
            for record, mass in zip(state.space.labels, state.masses):
                assert np.abs(mass - oracle[record]).max() <= 1e-12


def test_missing_instrument_raises_or_prunes():
    # round 2 has no entry for history (2,): reachable with Bell input -> error
    proto = LoccProtocol(
        (2, 2),
        (
            LoccRound(2, {(): [P0, P1]}, side=1),
            LoccRound(1, {(1,): [np.eye(2)]}, side=2),
        ),
    )
    with pytest.raises(IncompleteInstrument):
        run(proto, BELL)
    # but with input having no mass on the (2,) branch the protocol runs
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    state, lam = run(proto, rho)
    assert np.trace(lam).real == pytest.approx(1.0, abs=1e-12)


def test_missing_history_pruned_then_raised_in_later_round():
    # side 2 starts in |+>, side 1 in |0>: history (2,) has zero mass and is
    # pruned in round 2; history (1, 2) carries mass 1/2 and raises in round 3
    plus = np.full((2, 2), 0.5, dtype=complex)
    proto = LoccProtocol(
        (2, 2),
        (
            LoccRound(2, {(): [P0, P1]}, side=1),
            LoccRound(2, {(1,): [P0, P1]}, side=2),
            LoccRound(1, {(1, 1): [np.eye(2)]}, side=1),
        ),
    )
    with pytest.raises(IncompleteInstrument) as info:
        run(proto, np.kron(P0, plus))
    assert info.value.history == (1, 2)

    # on |00> the (1, 2) branch is empty too, so both missing histories prune
    state, lam = run(proto, np.kron(P0, P0))
    masses = dict(zip(state.space.labels, state.masses))
    assert np.abs(masses[(1, 1, 1)] - np.kron(P0, P0)).max() <= 1e-12
    assert all(np.abs(m).max() == 0.0 for rec, m in masses.items() if rec != (1, 1, 1))
    assert np.abs(lam - np.kron(P0, P0)).max() <= 1e-12


def test_incomplete_instrument_rejected_at_construction():
    with pytest.raises(IncompleteInstrument) as info:
        LoccProtocol((2, 2), (LoccRound(2, {(): [P0, 0.5 * P1]}, side=1),))
    assert info.value.history == () and info.value.deviation == 0.75
    assert str(info.value) == (
        "round 0 instrument at history () deviates from completeness by 7.500e-01"
    )


@pytest.mark.parametrize("factor", [0.9, 1.1])
def test_instrument_completeness_is_measured_once_at_completeness_tol(factor):
    # (1 + eps)^2 - 1 = 2 eps + eps^2, so the stack's defect is factor * COMPLETENESS_TOL
    eps = math.sqrt(1 + factor * COMPLETENESS_TOL) - 1
    later = random_instrument(2, 2, np.random.default_rng(5))
    rounds = (
        LoccRound(2, {(): [P0, P1]}, side=1),
        LoccRound(2, {(1,): later, (2,): [P0, (1 + eps) * P1]}, side=2),
    )
    expected = float(kraus_defect(np.stack([P0, (1 + eps) * P1])))
    assert expected == pytest.approx(factor * COMPLETENESS_TOL, rel=1e-6)
    if factor > 1:
        with pytest.raises(IncompleteInstrument) as info:
            LoccProtocol((2, 2), rounds)
        assert info.value.history == (2,)
        assert info.value.deviation == pytest.approx(expected, abs=1e-15)
    else:
        proto = LoccProtocol((2, 2), rounds)
        assert proto.completeness_defect == pytest.approx(expected, abs=1e-15)
        assert "completeness_defect" not in repr(proto)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_instrument_rejected_at_construction(bad):
    # a NaN defect compares False against the tolerance, so finiteness is its own check
    ops = np.stack([P0, P1])
    ops[1, 1, 1] = bad
    rounds = (
        LoccRound(2, {(): [P0, P1]}, side=1),
        LoccRound(2, {(1,): [P0, P1], (2,): ops}, side=2),
    )
    with pytest.raises(NumericalFailure, match=r"round 1 instrument at history \(2,\)"):
        LoccProtocol((2, 2), rounds)


def test_instrument_is_read_only_and_serializes_unchanged():
    rng = np.random.default_rng(17)
    given = [
        {(): random_instrument(2, 2, rng)},
        {(1,): random_instrument(2, 3, rng), (2,): random_instrument(2, 3, rng)},
    ]
    proto = LoccProtocol((2, 2), (LoccRound(2, given[0]), LoccRound(3, given[1])))
    rnd = proto.rounds[1]
    with pytest.raises(TypeError):
        rnd.instrument[(1,)] = random_instrument(2, 3, rng)
    with pytest.raises(TypeError):
        del rnd.instrument[(2,)]
    with pytest.raises(ValueError):
        rnd.instrument[(1,)][0][0, 0] = 2.0
    # the frozen mapping encodes exactly as the caller's dicts of arrays would
    expected = [
        {".".join(map(str, h)): io.matrices_to_json(np.stack(ops)) for h, ops in sorted(d.items())}
        for d in given
    ]
    encoded = io.protocol_to_json(proto)
    assert json.dumps([r["instrument"] for r in encoded["rounds"]]) == json.dumps(expected)


def test_protocol_shape_validation():
    with pytest.raises(ShapeMismatch):
        LoccProtocol((2, 0), (LoccRound(1, {(): [np.eye(2)]}),))
    with pytest.raises(ShapeMismatch):
        LoccProtocol((2, 2), (LoccRound(1, {(1,): [np.eye(2)]}),))


@pytest.mark.parametrize("rounds, match", [
    pytest.param((), "at least one round", id="no-rounds"),
    pytest.param((LoccRound(2, {(): [P0, P1]}, side=3),), "side 3, expected 1 or 2", id="side-3"),
    pytest.param((LoccRound(0, {}),), "at least one outcome", id="zero-outcomes"),
    pytest.param((LoccRound(2, {(): [P0, P1]}), LoccRound(1, {(3,): [np.eye(2)]})),
                 "out-of-range outcome labels", id="label-above-outcomes"),
])
def test_protocol_refuses_malformed_rounds(tmp_path, rounds, match, capsys):
    with pytest.raises(ShapeMismatch, match=match):
        LoccProtocol((2, 2), rounds)
    path, rho = tmp_path / "protocol.json", tmp_path / "bell.json"
    instruments = [{".".join(map(str, h)): io.matrices_to_json(np.asarray(ops))
                    for h, ops in rnd.instrument.items()} for rnd in rounds]
    io.dump_json({"dims": [2, 2], "rounds": [
        {"side": rnd.side, "outcomes": rnd.outcomes, "instrument": instrument}
        for rnd, instrument in zip(rounds, instruments)]}, path)
    io.dump_json(io.matrix_to_json(BELL), rho)
    assert main(["validate", str(path)]) == 2
    (check,) = json.loads(capsys.readouterr().out)["reports"][0]["checks"]
    assert check["name"] == "protocol_construction" and match in check["error"]
    assert main(["locc", str(path), str(rho)]) == 2


@pytest.mark.parametrize(
    "outcomes, side",
    [(2, 2.0), (2, True), (2, np.int64(1)), (2.0, 1), (True, 1)],
    ids=["float-side", "bool-side", "numpy-side", "float-outcomes", "bool-outcomes"],
)
def test_protocol_rejects_non_integer_side_and_outcomes(outcomes, side):
    # the rule io reads JSON integers with: a float, bool or numpy scalar is not an int
    with pytest.raises(ShapeMismatch, match="must be an integer"):
        LoccProtocol((2, 2), (LoccRound(outcomes, {(): [P0, P1]}, side=side),))


def test_default_side_alternation():
    proto = LoccProtocol(
        (2, 3),
        (
            LoccRound(1, {(): [np.eye(2)]}),
            LoccRound(1, {(1,): [np.eye(3)]}),
            LoccRound(1, {(1, 1): [np.eye(2)]}),
        ),
    )
    assert [rnd.side for rnd in proto.rounds] == [1, 2, 1]


def test_as_hybrid_channels_single_round_identity():
    proto = LoccProtocol((2, 2), (LoccRound(1, {(): [np.eye(2)]}, side=1),))
    (ch,) = as_hybrid_channels(proto)
    assert ch.src_space.labels == ((),) and ch.dst_space.labels == ((1,),)
    assert ch.dst.tolist() == [0] and ch.src.tolist() == [0]
    assert np.array_equal(ch.kraus[0], np.eye(4))
    assert completeness_defect(ch) <= 1e-12


def test_as_hybrid_channels_mixed_outcomes_and_missing_history():
    # 3, 1 and 2 outcomes on a 2x3 system; outcome 3 of round 0 has a zero
    # operator, so run prunes its history (3,), which has no instrument, while
    # the lowering, which never sees the state, refuses it
    rng = np.random.default_rng(5)
    zero = np.zeros((2, 2), dtype=complex)
    first = LoccRound(3, {(): [P0, P1, zero]}, side=1)
    later = {(1, 1): [P0, P1], (2, 1): random_instrument(2, 2, rng)}
    pruned = LoccProtocol((2, 3), (
        first,
        LoccRound(1, {(1,): [np.eye(3)], (2,): [np.eye(3)]}, side=2),
        LoccRound(2, later, side=1),
    ))
    with pytest.raises(IncompleteInstrument) as info:
        as_hybrid_channels(pruned)
    assert info.value.history == (3,) and info.value.deviation is None
    full = LoccProtocol((2, 3), (
        first,
        LoccRound(1, {(1,): [np.eye(3)], (2,): [np.eye(3)], (3,): [np.eye(3)]}, side=2),
        LoccRound(2, {**later, (3, 1): random_instrument(2, 2, rng)}, side=1),
    ))
    channels = as_hybrid_channels(full)
    assert [(ch.src_space.size, ch.dst_space.size, ch.dst.size) for ch in channels] == [
        (1, 3, 3), (3, 3, 3), (3, 6, 6)
    ]

    rho = random_density(6, rng)
    state = initial_record_state(full, rho)
    for ch in channels:
        assert completeness_defect(ch) <= 1e-9
        state = apply(ch, state)
    direct, lam = run(pruned, rho)
    assert state.space.labels == direct.space.labels
    assert np.abs(state.masses - direct.masses).max() <= 1e-10
    assert np.abs(quantum_marginal(state) - lam).max() <= 1e-10


def test_as_hybrid_channels_bell_measurement():
    proto = LoccProtocol((2, 2), (LoccRound(2, {(): [P0, P1]}, side=1),))
    state = initial_record_state(proto, BELL)
    (channel,) = as_hybrid_channels(proto)
    final = apply(channel, state)
    direct, lam = run(proto, BELL)
    assert state.space.labels == ((),)
    assert final.space.labels == direct.space.labels == ((1,), (2,))
    assert np.abs(final.masses - direct.masses).max() <= 1e-12
    assert np.abs(quantum_marginal(final) - lam).max() <= 1e-12


def test_as_hybrid_channels_reproduce_run():
    rng = np.random.default_rng(3)
    for _ in range(10):
        proto = random_protocol(rng)
        rho = random_density(4, rng)
        state = initial_record_state(proto, rho)
        for ch in as_hybrid_channels(proto):
            assert completeness_defect(ch) <= 1e-9
            state = apply(ch, state)
        direct, lam = run(proto, rho)
        by_record = {rec: state.masses[i] for i, rec in enumerate(state.space.labels)}
        complete = set(direct.space.labels)
        for rec, mass in by_record.items():
            if rec in complete:
                i = direct.space.labels.index(rec)
                assert np.abs(mass - direct.masses[i]).max() <= 1e-10
            else:
                assert np.abs(mass).max() <= 1e-12
        assert np.abs(quantum_marginal(state) - lam).max() <= 1e-10


def record_levels(proto):
    """Level r: the histories of r outcomes, every label >= 1, in itertools.product order."""
    counts = [rnd.outcomes for rnd in proto.rounds]
    return [list(itertools.product(*(range(1, c + 1) for c in counts[:r])))
            for r in range(len(counts) + 1)]


def first_missing_history(proto):
    """The first history without an instrument, round by round, or None."""
    levels = record_levels(proto)
    return next((h for rnd, level in zip(proto.rounds, levels) for h in level
                 if h not in rnd.instrument), None)


def literal_round_rows(proto, r):
    """Round r's rows (dst, src, kraus) with one np.kron per history, sorted by (dst, src)."""
    d1, d2 = proto.dims
    rnd = proto.rounds[r]
    sources, targets = record_levels(proto)[r:r + 2]
    index = {rec: i for i, rec in enumerate(targets)}
    rows = []
    for n, history in enumerate(sources):
        ops = rnd.instrument[history]
        lifted = np.kron(ops, np.eye(d2)) if rnd.side == 1 else np.kron(np.eye(d1), ops)
        for x in range(rnd.outcomes):
            rows.append((index[history + (x + 1,)], n, lifted[x]))
    rows.sort(key=lambda row: row[:2])
    dst, src, kraus = zip(*rows)
    return np.array(dst), np.array(src), np.stack(kraus)


def test_as_hybrid_channels_rows_equal_per_history_lift():
    rng = np.random.default_rng(41)
    protocols = []
    for first_side in (1, 2):
        for dims in ((2, 3), (3, 2)):
            for _ in range(4):
                proto = random_protocol(rng, dims=dims, first_side=first_side)
                if len({rnd.side for rnd in proto.rounds}) == 2:
                    protocols.append(proto)
    assert len(protocols) >= 6
    for proto in protocols:
        levels = record_levels(proto)
        for r, ch in enumerate(as_hybrid_channels(proto)):
            assert ch.src_space.labels == tuple(levels[r])
            assert ch.dst_space.labels == tuple(levels[r + 1])
            dst, src, kraus = literal_round_rows(proto, r)
            assert np.array_equal(ch.dst, dst) and np.array_equal(ch.src, src)
            assert np.array_equal(ch.kraus, kraus)
    # a history without an instrument: the lowering names the first one
    last = protocols[0].rounds[-1]
    (dropped, _), *kept = last.instrument.items()
    missing = LoccProtocol(protocols[0].dims, protocols[0].rounds[:-1] + (
        LoccRound(last.outcomes, dict(kept), last.side),
    ))
    with pytest.raises(IncompleteInstrument) as info:
        as_hybrid_channels(missing)
    assert info.value.history == dropped == first_missing_history(missing)


def bench_shaped_protocol(seed, rounds=5):
    """Two outcomes per round on 2x2, sides alternating, one random instrument per history."""
    rng = seeded_rng(seed, "bench.locc")
    return LoccProtocol((2, 2), tuple(
        LoccRound(2, {h: random_kraus_set(2, 2, rng) for h in itertools.product((1, 2), repeat=r)},
                  1 + r % 2)
        for r in range(rounds)
    ))


def mixed_protocols():
    """2x3 and 3x2 protocols with 1-3 outcomes per round and an instrument for every history."""
    rng = np.random.default_rng(23)
    out = []
    for dims, counts, first_side in (
        ((2, 3), (3, 1, 2), 1),
        ((3, 2), (2, 3, 1), 2),
        ((2, 3), (1, 3, 2), 2),
        ((3, 2), (3, 2, 2), 1),
    ):
        rounds = []
        for r, k in enumerate(counts):
            side = first_side if r % 2 == 0 else 3 - first_side
            histories = itertools.product(*(range(1, c + 1) for c in counts[:r]))
            instrument = {h: random_instrument(dims[side - 1], k, rng) for h in histories}
            rounds.append(LoccRound(k, instrument, side))
        out.append(LoccProtocol(dims, tuple(rounds)))
    return out


def near_tolerance_protocol():
    """A bench-shaped protocol with one instrument scaled to a defect of about 0.9 tolerance."""
    proto = bench_shaped_protocol(7, rounds=3)
    rounds = list(proto.rounds)
    instrument = dict(rounds[1].instrument)
    instrument[(2,)] = instrument[(2,)] * math.sqrt(1 + 0.9 * COMPLETENESS_TOL)
    rounds[1] = LoccRound(2, instrument, rounds[1].side)
    return LoccProtocol(proto.dims, tuple(rounds))


def test_lowering_is_accepted_unchanged_by_validating_constructor():
    # the lowering measures no completeness: from_rows re-checks every round channel,
    # including one whose instrument sits just inside the tolerance
    near = near_tolerance_protocol()
    assert 0.85 * COMPLETENESS_TOL < near.completeness_defect <= COMPLETENESS_TOL
    protocols = [bench_shaped_protocol(seed) for seed in (7, 701, 801)] + mixed_protocols()
    protocols.append(near)
    assert {p.dims for p in protocols} == {(2, 2), (2, 3), (3, 2)}
    for proto in protocols:
        d = proto.dims[0] * proto.dims[1]
        for rnd, ch in zip(proto.rounds, as_hybrid_channels(proto)):
            # every row acts: a level's histories times the round's outcomes
            assert ch.dst.size == ch.src_space.size * rnd.outcomes == ch.dst_space.size
            checked = from_rows(ch.src_space, ch.dst_space, d, d, ch.dst, ch.src, ch.kraus)
            for name in ("dst", "src", "kraus"):
                a, b = getattr(ch, name), getattr(checked, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                assert not a.flags.writeable
            assert completeness_defect(ch) <= COMPLETENESS_TOL


def test_lowering_measures_no_completeness(kraus_defect_calls):
    protocols = [bench_shaped_protocol(seed) for seed in (7, 701, 801)] + mixed_protocols()
    protocols.append(near_tolerance_protocol())
    kraus_defect_calls.clear()
    for proto in protocols:
        as_hybrid_channels(proto)
    assert kraus_defect_calls == []


def test_record_space_limit():
    # lazy instruments do not make construction legal: the 597871 reachable
    # records are refused from the outcome counts alone
    with pytest.raises(RecordSpaceTooLarge):
        LoccProtocol((2, 2), tuple(LoccRound(9, {}, side=1) for _ in range(6)))


def test_record_space_limit_is_checked_before_a_level_is_built():
    # building the refused level first would allocate its 10^5 tuples, several MiB
    tracemalloc.start()
    try:
        with pytest.raises(RecordSpaceTooLarge):
            LoccProtocol((2, 2), (LoccRound(RECORD_SPACE_LIMIT, {}),))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(RecordSpaceTooLarge):
        LoccProtocol((2, 2), (LoccRound(10**9, {}),))


def test_record_space_limit_bounds_records_times_rounds():
    # one-outcome rounds do not branch: R rounds reach R + 1 records of R entries
    # each, and records x rounds may not pass what rounds that each double the
    # level reach under the limit (limit x bit_length)
    budget = RECORD_SPACE_LIMIT * RECORD_SPACE_LIMIT.bit_length()
    longest = max(r for r in range(1, math.isqrt(budget) + 1) if (r + 1) * r <= budget)
    levels = _histories(LoccProtocol((2, 2), (LoccRound(1, {}),) * longest))
    assert sum(map(len, levels)) == longest + 1 and levels[-1] == [(1,) * longest]
    for rounds in (longest + 1, 10**4):
        with pytest.raises(RecordSpaceTooLarge):
            LoccProtocol((2, 2), (LoccRound(1, {}),) * rounds)


def test_record_budget_is_checked_before_any_instrument(kraus_defect_calls):
    # 10^5 one-outcome rounds are refused from their outcome counts, before the
    # instrument of any round is stacked and measured
    kraus_defect_calls.clear()
    with pytest.raises(RecordSpaceTooLarge):
        LoccProtocol((2, 2), (LoccRound(1, {}),) * 10**5)
    assert kraus_defect_calls == []


def test_record_space_limit_counts_every_reachable_record():
    # one round of k outcomes reaches k + 1 records, () included
    levels = _histories(LoccProtocol((2, 2), (LoccRound(RECORD_SPACE_LIMIT - 1, {}),)))
    assert sum(map(len, levels)) == RECORD_SPACE_LIMIT
    assert levels[0] == [()] and levels[1][0] == (1,) and levels[1][-1] == (RECORD_SPACE_LIMIT - 1,)
    with pytest.raises(RecordSpaceTooLarge):
        LoccProtocol((2, 2), (LoccRound(RECORD_SPACE_LIMIT, {}),))


def test_bench_shaped_eleven_rounds_lower_and_match_run():
    proto = bench_shaped_protocol(7, rounds=11)
    rho = random_density(4, np.random.default_rng(31))
    state = initial_record_state(proto, rho)
    channels = as_hybrid_channels(proto)
    assert state.space.size == 1
    assert [ch.dst_space.size for ch in channels] == [2 ** (r + 1) for r in range(11)]
    assert sum(ch.dst.size for ch in channels) == 2**12 - 2
    for ch in channels:
        state = apply(ch, state)
    direct, lam = run(proto, rho)
    assert state.space.labels == direct.space.labels
    assert np.abs(state.masses - direct.masses).max() <= 1e-10
    assert np.abs(quantum_marginal(state) - lam).max() <= 1e-10


def test_round_channels_never_factor_a_source_basis(svd_calls):
    protocols = [bench_shaped_protocol(seed) for seed in (7, 8, 9)] + mixed_protocols()
    rng = np.random.default_rng(33)
    states = [initial_record_state(p, random_density(p.dims[0] * p.dims[1], rng)) for p in protocols]
    svd_calls.clear()
    measured = 0
    for proto, state in zip(protocols, states):
        for ch in as_hybrid_channels(proto):
            # applied twice: a round with few histories passes the shape rule and
            # is factored once, but each history's rows have full rank, its
            # outcome count, so the rows stay
            once = apply(ch, state)
            state = apply(ch, state)
            assert ch.source_basis is None
            assert np.array_equal(once.masses, state.masses)
            measured += _basis_cost(ch, 1) < ch.dst.size * _product_cost(ch, 1)
    assert measured and len(svd_calls) == measured


@st.composite
def pruned_protocols(draw):
    """A protocol with every instrument, and a copy missing some histories behind a zero operator."""
    dims = draw(st.sampled_from([(1, 2), (2, 2), (2, 3), (3, 2)]))
    counts = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    first_side = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rounds, kept, dead = [], [], set()  # dead: histories reached through a zero operator
    for r, k in enumerate(counts):
        side = first_side if r % 2 == 0 else 3 - first_side
        d_side = dims[side - 1]
        instrument, pruned = {}, {}
        for h in itertools.product(*(range(1, c + 1) for c in counts[:r])):
            ops = random_instrument(d_side, k, rng)
            if k > 1 and draw(st.booleans()):
                # outcome k gets a zero operator; the others stay complete
                ops = np.concatenate([random_instrument(d_side, k - 1, rng),
                                      np.zeros((1, d_side, d_side))])
                dead.add(h + (k,))
            instrument[h] = ops
            if not (any(h[:i] in dead for i in range(1, r + 1)) and draw(st.booleans())):
                pruned[h] = ops
        rounds.append(LoccRound(k, instrument, side))
        kept.append(LoccRound(k, pruned, side))
    return LoccProtocol(dims, tuple(rounds)), LoccProtocol(dims, tuple(kept))


@given(pruned_protocols())
@settings(max_examples=40)
def test_lowering_matches_run_and_oracle_on_reachable_records(protocols):
    full, proto = protocols
    missing = first_missing_history(proto)
    if missing is None:
        as_hybrid_channels(proto)
    else:
        with pytest.raises(IncompleteInstrument) as info:
            as_hybrid_channels(proto)
        assert info.value.history == missing

    channels = as_hybrid_channels(full)
    levels = [tuple(level) for level in record_levels(full)]
    assert [ch.src_space.labels for ch in channels] + [channels[-1].dst_space.labels] == levels

    d = full.dims[0] * full.dims[1]
    rho = random_density(d, np.random.default_rng(sum(map(len, levels))))
    state = initial_record_state(full, rho)
    for ch in channels:
        state = apply(ch, state)
    direct, _ = run(proto, rho)
    oracle = _locc_oracle(full, rho)
    assert state.space.labels == direct.space.labels == tuple(oracle)
    for rec, lowered, mass in zip(direct.space.labels, state.masses, direct.masses):
        assert np.abs(lowered - mass).max() <= 1e-10
        assert np.abs(oracle[rec] - lowered).max() <= 1e-10


def test_separable_from_ensemble():
    space = counting_space(1)
    rng = np.random.default_rng(6)
    a, b = random_density(2, rng), random_density(3, rng)
    rho = separable_from_ensemble(space, [1.0], [a], [b])
    assert np.allclose(rho, np.kron(a, b), atol=1e-12)

    space2 = counting_space(2)
    classically_correlated = separable_from_ensemble(
        space2, [0.5, 0.5], [P0, P1], [P0, P1]
    )
    assert is_ppt(classically_correlated, 2, 2)
    with pytest.raises(NotAState):
        separable_from_ensemble(space2, [0.7, 0.5], [P0, P1], [P0, P1])


def test_separable_inputs_reject_mixed_dimensions_and_missing_cells():
    space = counting_space(2)
    rng = np.random.default_rng(11)
    a, b = random_density(2, rng), random_density(3, rng)
    with pytest.raises(DimensionMismatch):
        separable_from_ensemble(space, [0.5, 0.5], [a, b], [P0, P1])
    with pytest.raises(DimensionMismatch):
        steer_to_separable(space, [0.5, 0.5], [P0, P1], [a, b])
    with pytest.raises(NotAState):
        steer_to_separable(space, [0.5, 0.5], [], [])
    with pytest.raises(NotAState, match="cell masses have shape"):
        separable_from_ensemble(space, [1.0], [P0, P1], [P0, P1])


def test_separable_states_are_always_ppt():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 17))
        space = counting_space(n)
        f = random_probability_vector(n, rng)
        d1, d2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        eta1 = [random_density(d1, rng) for _ in range(n)]
        eta2 = [random_density(d2, rng) for _ in range(n)]
        rho = separable_from_ensemble(space, f, eta1, eta2)
        assert is_ppt(rho, d1, d2)


def test_run_refuses_an_input_state_of_the_wrong_dimension():
    protocol = LoccProtocol((2, 2), (LoccRound(1, {(): [np.eye(2)]}),))
    with pytest.raises(DimensionMismatch, match=r"^input state has dimension 3, expected 4$"):
        run(protocol, np.eye(3) / 3)


def test_is_ppt_validation():
    with pytest.raises(DimensionMismatch):
        is_ppt(np.eye(4) / 4, 3, 2)


def test_locc_preserves_ppt_on_separable_inputs():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        space = counting_space(n)
        rho = separable_from_ensemble(
            space,
            random_probability_vector(n, rng),
            [random_density(2, rng) for _ in range(n)],
            [random_density(2, rng) for _ in range(n)],
        )
        proto = random_protocol(rng)
        _, lam = run(proto, rho)
        assert is_ppt(lam, 2, 2)


def test_steering_bell_to_pure_product():
    space = counting_space(1)
    script = steer_to_separable(space, [1.0], [P0], [P0])
    final = run_steering(script, BELL)
    assert np.abs(quantum_marginal(final) - np.kron(P0, P0)).max() <= 1e-12


def test_steering_reaches_classically_correlated_target():
    rng = np.random.default_rng(9)
    space = counting_space(2)
    script = steer_to_separable(space, [0.5, 0.5], [P0, P1], [P0, P1])
    rho_in = random_density(4, rng)
    final = run_steering(script, rho_in)
    target = separable_from_ensemble(space, [0.5, 0.5], [P0, P1], [P0, P1])
    assert np.abs(quantum_marginal(final) - target).max() <= 1e-9


def test_steering_random_targets():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        space = counting_space(n)
        f = random_probability_vector(n, rng)
        d1, d2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        eta1 = [random_density(d1, rng) for _ in range(n)]
        eta2 = [random_density(d2, rng) for _ in range(n)]
        script = steer_to_separable(space, f, eta1, eta2)
        for ch in script.channels:
            assert completeness_defect(ch) <= 1e-9
        rho_in = random_density(d1 * d2, rng)
        final = run_steering(script, rho_in)
        target = separable_from_ensemble(space, f, eta1, eta2)
        assert np.abs(quantum_marginal(final) - target).max() <= 1e-9


def test_complete_record_space_labels():
    proto = LoccProtocol(
        (2, 2),
        (
            LoccRound(2, {(): [P0, P1]}, side=1),
            LoccRound(1, {(1,): [np.eye(2)], (2,): [np.eye(2)]}, side=2),
        ),
    )
    state, _ = run(proto, BELL)
    assert state.space.labels == ((1, 1), (2, 1))
