import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hybridiq import io
from hybridiq.channel import apply, non_interacting, random_channel
from hybridiq.classical import MarkovKernel, counting_space, discretize_interval
from hybridiq.cli import main
from hybridiq.correlations import monotonicity_report
from hybridiq.errors import IoError, NotNormalized, ParseError
from hybridiq.locc import LoccProtocol, LoccRound, run
from hybridiq.rand import random_complex, random_density, random_stochastic_matrix
from hybridiq.state import random_state


def test_matrix_round_trip_is_bit_exact():
    rng = np.random.default_rng(0)
    m = random_complex(rng, (4, 4))
    back = io.matrix_from_json(io.matrix_to_json(m))
    assert np.array_equal(back, m)


def _reference_matrices_to_json(stack):
    """Literal per-row encoder: one dict per matrix, floats taken entry by entry."""
    out = []
    for m in stack:
        out.append({
            "dim": m.shape[0],
            "re": [float(z.real) for z in m.ravel()],
            "im": [float(z.imag) for z in m.ravel()],
        })
    return out


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SHAPES = st.tuples(st.integers(1, 5), st.integers(1, 4), st.integers(1, 4))


@given(_SHAPES.flatmap(lambda s: st.tuples(
    hnp.arrays(np.float64, s, elements=_FINITE), hnp.arrays(np.float64, s, elements=_FINITE)
)))
@example((np.array([[[-0.0, 5e-324], [1.7976931348623157e308, -2.2250738585072014e-308]]]),
          np.array([[[0.0, -0.0], [-5e-324, -1e300]]])))
def test_matrices_round_trip_bit_exact_and_match_per_row_encoder(parts):
    re, im = parts
    stack = np.stack([re, im], axis=-1).view(complex)[..., 0]
    encoded = io.matrices_to_json(stack)
    assert json.dumps(encoded) == json.dumps(_reference_matrices_to_json(stack))
    back = io.matrices_from_json(encoded, "x", stack.shape[1:])
    assert back.shape == stack.shape
    assert np.array_equal(back.view(np.uint64), stack.view(np.uint64))
    assert np.array_equal(np.signbit(back.view(np.float64)), np.signbit(stack.view(np.float64)))


def test_matrix_from_json_rejects_malformed():
    with pytest.raises(ParseError):
        io.matrix_from_json({"dim": 2, "re": [1.0], "im": [0.0]})
    with pytest.raises(ParseError):
        io.matrix_from_json({"re": [1.0], "im": [0.0]})
    for re in ([[1.0]], "1", 5):  # not a flat list of numbers
        with pytest.raises(ParseError):
            io.matrix_from_json({"dim": 1, "re": re, "im": [0.0]})

    # errors in one-pass list decodes still name where the bad entry sits
    half = np.eye(2) / np.sqrt(3)
    kernel = MarkovKernel(counting_space(2), counting_space(2), np.array([[0.5, 0.0], [0.5, 1.0]]))
    channel = io.channel_to_json(non_interacting(kernel, [half, half, half]))
    block = next(b for b in channel["blocks"] if (b["m"], b["n"]) == (1, 0))
    block["L"][2]["re"] = [1.0, 0.0, 0.0]
    with pytest.raises(ParseError, match=r"\(1, 0\)"):
        io.channel_from_json(channel)

    protocol = io.protocol_to_json(_two_round_protocol())
    protocol["rounds"][1]["instrument"]["2"][0]["im"] = [0.0]
    with pytest.raises(ParseError, match=r"round 1 history '2'"):
        io.protocol_from_json(protocol)


_EYE = io.matrix_to_json(np.eye(2))
_PAULI_BASIS = io.matrices_to_json(np.stack([np.eye(2), np.diag([1.0, -1.0]),
                                             [[0.0, 1.0], [1.0, 0.0]], [[0.0, -1j], [1j, 0.0]]]))
_STATE = io.state_to_json(random_state(counting_space(2), 2, 3))


def _coeff_spec(k):
    return {"type": "coeff_kernel", "basis": _PAULI_BASIS, "k": k}


def _channel(blocks):
    space = {"weights": [1.0]}
    return {"src_space": space, "dst_space": space, "qdim_src": 2, "qdim_dst": 2, "blocks": blocks}


@pytest.mark.parametrize("loader, obj, match", [
    pytest.param(io.state_from_json, {**_STATE, "masses": [{"dim": 2, "re": ["a", 0, 0, 1],
                                                            "im": [0, 0, 0, 0]}] * 2},
                 "numbers only", id="non-numeric-re"),
    pytest.param(io.channel_from_json, {"type": "non_interacting", "kernel": {"rows": 1, "cols": 1},
                                        "kraus": [_EYE]}, "expected keys P", id="kernel-without-P"),
    pytest.param(io.kernel_from_json, {"P": [1.0, 0.0], "rows": 1, "cols": 1}, "needs 1 entries",
                 id="kernel-entry-count"),
    pytest.param(io.state_from_json, {**_STATE, "masses": _STATE["masses"][:1]},
                 "one mass matrix per cell", id="fewer-masses-than-cells"),
    pytest.param(io.state_from_json, {**_STATE, "space": {"labels": []}}, "expected weights",
                 id="space-without-weights"),
    pytest.param(io.channel_from_json, _coeff_spec({"re": [], "im": []}), "expected keys shape",
                 id="k-without-shape"),
    pytest.param(io.channel_from_json, _coeff_spec({"shape": [1, -1, 4, 4], "re": [], "im": []}),
                 "negative extent", id="k-negative-extent"),
    pytest.param(io.channel_from_json, _coeff_spec({"shape": [1], "re": [0], "im": [0]}),
                 "rank-4", id="k-not-rank-4"),
    pytest.param(io.channel_from_json, _coeff_spec({"shape": [2], "re": [0, 0], "im": [0]}),
                 "k: re and im must be flat lists of 2 numbers", id="k-ragged-re-im"),
    pytest.param(io.channel_from_json, [_channel([])], "expected an object",
                 id="channel-not-object"),
    pytest.param(io.channel_from_json, {"type": "non_interacting", "kraus": [_EYE]},
                 "needs 'kernel' and 'kraus'", id="non-interacting-without-kernel"),
    pytest.param(io.channel_from_json, {"type": "coeff_kernel", "basis": _PAULI_BASIS},
                 "needs 'basis' and 'k'", id="coeff-kernel-without-k"),
    pytest.param(io.channel_from_json, _channel([{"m": 0, "L": [_EYE]}]), "entry malformed",
                 id="block-without-n"),
])
def test_loaders_refuse_malformed_files_with_parse_error(tmp_path, loader, obj, match, capsys):
    with pytest.raises(ParseError, match=match):
        loader(obj)
    path = tmp_path / "file.json"
    io.dump_json(obj, path)
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out == ""


def test_space_round_trip_with_labels():
    space = discretize_interval(-1.0, 1.0, 4)
    back = io.space_from_json(io.space_to_json(space))
    assert back == space
    assert back.labels == space.labels


def test_kernel_round_trip_defaults_to_counting_spaces():
    rng = np.random.default_rng(1)
    kernel = MarkovKernel(counting_space(3), counting_space(2), random_stochastic_matrix(2, 3, rng))
    back = io.kernel_from_json(io.kernel_to_json(kernel))
    assert np.array_equal(back.matrix, kernel.matrix)
    assert back.src.size == 3 and back.dst.size == 2


def test_state_round_trip():
    w = random_state(discretize_interval(0.0, 1.0, 3), 2, 7)
    back = io.state_from_json(io.state_to_json(w))
    assert np.array_equal(back.masses, w.masses)
    assert back.space == w.space


def test_state_from_json_domain_error_passes_through():
    w = random_state(counting_space(2), 2, 3)
    obj = io.state_to_json(w)
    for part in ("re", "im"):
        obj["masses"][0][part] = (0.5 * np.asarray(obj["masses"][0][part])).tolist()
    with pytest.raises(NotNormalized):
        io.state_from_json(obj)


def test_channel_round_trip_and_apply_equivalence():
    src, dst = counting_space(2), counting_space(3)
    ch = random_channel(src, dst, 2, 2, branching=2, seed=11)
    back = io.channel_from_json(io.channel_to_json(ch))
    w = random_state(src, 2, 13)
    assert np.array_equal(apply(back, w).masses, apply(ch, w).masses)


def test_constructor_spec_non_interacting():
    rng = np.random.default_rng(2)
    p = random_stochastic_matrix(2, 2, rng)
    spec = {
        "type": "non_interacting",
        "kernel": {"P": p.ravel().tolist(), "rows": 2, "cols": 2},
        "kraus": [io.matrix_to_json(np.eye(2))],
    }
    ch = io.channel_from_json(spec)
    reference = non_interacting(
        MarkovKernel(counting_space(2), counting_space(2), p), [np.eye(2)]
    )
    w = random_state(counting_space(2), 2, 17)
    assert not monotonicity_report(w, ch).violation
    assert np.abs(apply(ch, w).masses - apply(reference, w).masses).max() <= 1e-14


def test_constructor_spec_coeff_kernel():
    pauli = [
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]]),
        np.diag([1.0, -1.0]).astype(complex),
    ]
    coeffs = np.zeros((1, 1, 4, 4), dtype=complex)
    coeffs[0, 0, 0, 0] = 1.0
    spec = {
        "type": "coeff_kernel",
        "basis": [io.matrix_to_json(b) for b in pauli],
        "k": io.complex_tensor_to_json(coeffs),
    }
    ch = io.channel_from_json(spec)
    w = random_state(counting_space(1), 2, 19)
    assert np.abs(apply(ch, w).masses - w.masses).max() <= 1e-12


def test_channel_spec_unknown_type():
    with pytest.raises(ParseError):
        io.channel_from_json({"type": "mystery"})


def _two_round_protocol():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    return LoccProtocol(
        (2, 2),
        (
            LoccRound(2, {(): [p0, p1]}, side=1),
            LoccRound(1, {(1,): [np.eye(2)], (2,): [np.eye(2)]}, side=2),
        ),
    )


def test_protocol_round_trip():
    proto = _two_round_protocol()
    back = io.protocol_from_json(io.protocol_to_json(proto))
    rho = random_density(4, np.random.default_rng(5))
    s1, lam1 = run(proto, rho)
    s2, lam2 = run(back, rho)
    assert np.array_equal(s1.masses, s2.masses)
    assert np.array_equal(lam1, lam2)


def test_load_json_errors(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(IoError):
        io.load_json(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        io.load_json(bad)


def test_dump_json_is_deterministic(tmp_path):
    w = random_state(counting_space(2), 2, 23)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    io.dump_json(io.state_to_json(w), a)
    io.dump_json(io.state_to_json(w), b)
    assert a.read_bytes() == b.read_bytes()
