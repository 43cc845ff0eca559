import itertools
import json

import numpy as np
import pytest

from hybridiq import io, properties
from hybridiq.channel import COMPLETENESS_TOL, from_rows, identity_channel, non_interacting
from hybridiq.classical import counting_space, identity_kernel, uniform_mixing_kernel
from hybridiq.cli import CSV_COLUMNS, main
from hybridiq.errors import (
    HybridError, IncompleteChannel, IncompleteInstrument, IncompleteKraus, NotPositive, ParseError
)
from hybridiq.linalg import HERMITICITY_TOL, PSD_TOL
from hybridiq.locc import LoccProtocol, LoccRound
from hybridiq.properties import SUITES
from hybridiq.rand import random_kraus_set
from hybridiq.state import new_state, random_state

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)

BELL = np.zeros((4, 4), dtype=complex)
for _i in (0, 3):
    for _j in (0, 3):
        BELL[_i, _j] = 0.5


@pytest.fixture
def state_file(tmp_path):
    w = random_state(counting_space(3), 2, 11)
    path = tmp_path / "state.json"
    io.dump_json(io.state_to_json(w), path)
    return path


def test_validate_good_state(state_file, capsys):
    assert main(["validate", str(state_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"]
    assert payload["reports"][0]["kind"] == "state"


def test_validate_unnormalized_state_exits_2(tmp_path, capsys):
    w = random_state(counting_space(2), 2, 1)
    obj = io.state_to_json(w)
    for entry in obj["masses"]:
        entry["re"] = (0.8 * np.asarray(entry["re"])).tolist()
        entry["im"] = (0.8 * np.asarray(entry["im"])).tolist()
    path = tmp_path / "bad.json"
    io.dump_json(obj, path)
    assert main(["validate", str(path)]) == 2
    payload = json.loads(capsys.readouterr().out)
    failing = [c for r in payload["reports"] for c in r["checks"] if not c["ok"]]
    assert any("NotNormalized" in c.get("error", "") for c in failing)


def test_validate_malformed_json_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["validate", str(path)]) == 1


def test_validate_kernel_and_channel(tmp_path):
    bad_kernel = tmp_path / "kernel.json"
    io.dump_json({"P": [0.5, 0.4, 0.0, 1.0], "rows": 2, "cols": 2}, bad_kernel)
    report = tmp_path / "report.json"
    assert main(["validate", str(bad_kernel), "--out", str(report)]) == 2
    (check,) = json.loads(report.read_text())["reports"][0]["checks"]
    assert check["error"] == "column 0 sums to 0.5, expected 1"

    ch = identity_channel(counting_space(2), 2)
    obj = io.channel_to_json(ch)
    obj["blocks"][0]["L"][0]["re"] = [0.5, 0.0, 0.0, 0.5]
    incomplete = tmp_path / "channel.json"
    io.dump_json(obj, incomplete)
    assert main(["validate", str(incomplete)]) == 2


def test_evolve_identity_pipeline(tmp_path, state_file, capsys):
    ch_path = tmp_path / "ident.json"
    io.dump_json(io.channel_to_json(identity_channel(counting_space(3), 2)), ch_path)
    csv_path = tmp_path / "metrics.csv"
    out_path = tmp_path / "final.json"
    code = main(
        [
            "evolve", str(state_file), str(ch_path),
            "--steps", "5", "--metrics-out", str(csv_path), "--out", str(out_path),
        ]
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "step,total_trace,min_block_eigenvalue,mutual_information,distance_from_previous"
    assert len(lines) == 7  # header + initial row + 5 steps
    for line in lines[2:]:
        assert float(line.split(",")[-1]) <= 1e-12
    final = io.state_from_json(io.load_json(out_path))
    original = io.state_from_json(io.load_json(state_file))
    assert np.abs(final.masses - original.masses).max() <= 1e-12


def test_evolve_mixing_kernel_monotone_information(tmp_path, state_file):
    space = counting_space(3)
    ch = non_interacting(uniform_mixing_kernel(space), [np.eye(2)])
    ch_path = tmp_path / "mix.json"
    io.dump_json(io.channel_to_json(ch), ch_path)
    csv_path = tmp_path / "metrics.csv"
    assert main(["evolve", str(state_file), str(ch_path), "--steps", "3",
                 "--metrics-out", str(csv_path)]) == 0
    rows = csv_path.read_text().strip().splitlines()[1:]
    info = [float(r.split(",")[3]) for r in rows]
    for before, after in zip(info, info[1:]):
        assert after <= before + 1e-8


def test_evolve_space_mismatch_exits_2(tmp_path, state_file, capsys):
    ch_path = tmp_path / "wrong.json"
    io.dump_json(io.channel_to_json(identity_channel(counting_space(4), 2)), ch_path)
    assert main(["evolve", str(state_file), str(ch_path)]) == 2
    assert "step 1" in capsys.readouterr().err


def test_locc_bell_scenario(tmp_path, capsys):
    proto = LoccProtocol((2, 2), (LoccRound(2, {(): [P0, P1]}, side=1),))
    proto_path = tmp_path / "proto.json"
    io.dump_json(io.protocol_to_json(proto), proto_path)
    rho_path = tmp_path / "bell.json"
    io.dump_json(io.matrix_to_json(BELL), rho_path)
    assert main(["locc", str(proto_path), str(rho_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ppt"] is True
    assert payload["ppt_conclusive"] is True
    assert payload["records"] == {"1": pytest.approx(0.5), "2": pytest.approx(0.5)}
    lam = io.matrix_from_json(payload["lambda_rho"])
    assert lam[0, 0] == pytest.approx(0.5) and lam[3, 3] == pytest.approx(0.5)


def test_evolve_bell_locc_scenario_ends_ppt(tmp_path, capsys):
    # lower a two-round Bell measurement protocol to level-to-level record
    # channels, drive the one-cell initial state through them, and check the
    # final quantum marginal is PPT and the records are run's
    from hybridiq.locc import as_hybrid_channels, initial_record_state, is_ppt, run
    from hybridiq.state import quantum_marginal

    proto = LoccProtocol((2, 2), (
        LoccRound(2, {(): [P0, P1]}, side=1),
        LoccRound(1, {(1,): [np.eye(2)], (2,): [np.eye(2)]}, side=2),
    ))
    state_path = tmp_path / "record_state.json"
    io.dump_json(io.state_to_json(initial_record_state(proto, BELL)), state_path)
    channel_paths = []
    for i, ch in enumerate(as_hybrid_channels(proto)):
        path = tmp_path / f"round{i}.json"
        io.dump_json(io.channel_to_json(ch), path)
        channel_paths.append(str(path))
    out_path, csv_path = tmp_path / "final.json", tmp_path / "m.csv"
    assert main(["evolve", str(state_path), *channel_paths, "--out", str(out_path),
                 "--metrics-out", str(csv_path)]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    # the step moves the state from the one-cell space to the complete records
    assert [row["distance_from_previous"] for row in rows] == [0.0, None]
    assert csv_path.read_text().splitlines()[2].endswith(",")
    final = io.state_from_json(io.load_json(out_path))
    direct, _ = run(proto, BELL)
    assert final.space.labels == direct.space.labels == ((1, 1), (2, 1))
    assert np.abs(final.masses - direct.masses).max() <= 1e-12
    assert is_ppt(quantum_marginal(final), 2, 2)


def test_evolve_space_changing_channel_has_no_distance(tmp_path, capsys):
    state, ch, csv_path = tmp_path / "s.json", tmp_path / "c.json", tmp_path / "m.csv"
    assert main(["randgen", "state", "--cells", "3", "--out", str(state)]) == 0
    assert main(["randgen", "channel", "--src-cells", "3", "--dst-cells", "2",
                 "--out", str(ch)]) == 0
    capsys.readouterr()
    assert main(["evolve", str(state), str(ch), "--metrics-out", str(csv_path)]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["distance_from_previous"] for row in rows] == [0.0, None]
    header, first, second = csv_path.read_text().splitlines()
    assert header == ",".join(CSV_COLUMNS)
    assert first.split(",")[-1] == "0" and second.split(",")[-1] == ""
    assert len(second.split(",")) == len(CSV_COLUMNS)
    # a second step feeds the 2-cell output back to the 3-cell channel
    assert main(["evolve", str(state), str(ch), "--steps", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("evolve: step 2: SpaceMismatch")


def test_metrics_single_and_pair(tmp_path, state_file, capsys):
    assert main(["metrics", str(state_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_trace"] == pytest.approx(1.0, abs=1e-9)
    assert payload["mutual_information"] <= payload["bound_2S"] + 1e-9

    other = tmp_path / "other.json"
    io.dump_json(io.state_to_json(random_state(counting_space(3), 2, 12)), other)
    assert main(["metrics", str(state_file), str(other)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 < payload["distance"] <= 2.0


def test_metrics_csv_is_the_sorted_json_payload(tmp_path, state_file, capsys):
    other = tmp_path / "other.json"
    io.dump_json(io.state_to_json(random_state(counting_space(3), 2, 12)), other)
    for files in ([state_file], [state_file, other]):
        paths = [str(f) for f in files]
        assert main(["metrics", *paths]) == 0
        payload = json.loads(capsys.readouterr().out)
        written = []
        for run in ("a", "b"):
            out = tmp_path / f"{len(files)}-{run}.csv"
            assert main(["metrics", *paths, "--format", "csv", "--out", str(out)]) == 0
            written.append(out.read_bytes())
            assert capsys.readouterr().out.encode() == written[-1]  # stdout carries the same text
        assert written[0] == written[1]
        header, values = written[0].decode().splitlines()
        assert header.split(",") == sorted(payload)
        assert ("distance" in header.split(",")) == (len(files) == 2)
        expected = [format(v, ".17g") if isinstance(v, float) else str(v)
                    for v in map(payload.get, sorted(payload))]
        assert values.split(",") == expected


def test_properties_exit_codes(capsys):
    assert main(["properties", "axioms", "--trials", "30", "--seed", "7"]) == 0
    capsys.readouterr()
    assert main(["properties", "not-a-suite"]) == 1


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_properties_report_determinism(tmp_path, suite):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        assert main(["properties", suite, "--trials", "20", "--seed", "5",
                     "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_properties_exits_2_on_a_nan_deviation(tmp_path, monkeypatch):
    # a check that measures NaN fails and is written as null, not a ValueError from the JSON writer
    monkeypatch.setattr(properties, "_probability_segments",
                        lambda masses, effects, events, starts: np.full(len(starts), np.nan))
    out = tmp_path / "r.json"
    assert main(["properties", "axioms", "--trials", "3", "--seed", "5", "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    assert not report["ok"] and report["violations"] == 12
    assert [c["max_deviation"] for c in report["checks"]] == [None] * 4


def test_randgen_determinism_and_validity(tmp_path):
    for name in ("a.json", "b.json"):
        assert main(["randgen", "state", "--cells", "3", "--qdim", "2",
                     "--seed", "21", "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert main(["validate", str(tmp_path / "a.json")]) == 0

    assert main(["randgen", "channel", "--src-cells", "2", "--dst-cells", "2",
                 "--seed", "3", "--out", str(tmp_path / "ch.json")]) == 0
    assert main(["validate", str(tmp_path / "ch.json")]) == 0
    assert main(["randgen", "channel", "--src-cells", "3", "--dst-cells", "2",
                 "--branching", "3", "--seed", "5", "--out", str(tmp_path / "ch2.json")]) == 0
    for name in ("ch.json", "ch2.json"):
        obj = io.load_json(tmp_path / name)
        assert io.channel_to_json(io.channel_from_json(obj)) == obj

    assert main(["randgen", "kernel", "--rows", "3", "--cols", "2",
                 "--seed", "4", "--out", str(tmp_path / "k.json")]) == 0
    assert main(["validate", str(tmp_path / "k.json")]) == 0


@pytest.mark.parametrize("q_src, q_dst", [(3, 2), (1, 4)])
def test_rectangular_channel_round_trips(tmp_path, q_src, q_dst, capsys):
    path = tmp_path / "c.json"
    assert main(["randgen", "channel", "--qdim-src", str(q_src), "--qdim-dst", str(q_dst),
                 "--out", str(path)]) == 0
    assert main(["validate", str(path)]) == 0
    obj = io.load_json(path)
    assert io.channel_to_json(io.channel_from_json(obj)) == obj

    obj["blocks"][0]["L"][0]["re"].append(0.0)
    io.dump_json(obj, path)
    with pytest.raises(ParseError, match="needs dim"):
        io.channel_from_json(io.load_json(path))


def test_qdim_1_metrics_print_no_negative_zero(tmp_path, capsys):
    state, ch = tmp_path / "s.json", tmp_path / "c.json"
    csv_path, metrics = tmp_path / "m.csv", tmp_path / "metrics.json"
    assert main(["randgen", "state", "--cells", "3", "--qdim", "1", "--out", str(state)]) == 0
    assert main(["randgen", "channel", "--qdim-src", "1", "--qdim-dst", "1",
                 "--out", str(ch)]) == 0
    assert main(["metrics", str(state), "--out", str(metrics)]) == 0
    payload = io.load_json(metrics)
    for key in ("quantum_entropy", "mutual_information", "bound_2S"):
        assert str(payload[key]) == "0.0"
    assert main(["evolve", str(state), str(ch), "--steps", "2",
                 "--metrics-out", str(csv_path)]) == 0
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    assert [row[3] for row in rows] == ["0", "0", "0"]


# amplitude-damping pairs: sum L^dag L = I
DAMPING_Q2 = np.array([np.diag([1.0, 0.8]), 0.6 * np.eye(2, k=1)])
DAMPING_Q3 = np.array([np.diag([1.0, 0.8, 0.8]), 0.6 * np.eye(3, k=1)])

# (randgen state sizes, channel, Kraus pair): without a Kraus pair the channel is a
# randgen channel; with one, a non_interacting spec whose kernel is drawn by randgen
# (an argument list) or given
EVOLVE_SPECS = {
    # 64 cells at q = 2: the closed-form 2x2 spectra and the dense transfer apply
    "q2 transfer": ("64 2", "channel --src-cells 64 --dst-cells 64 --qdim-src 2 --qdim-dst 2 "
                            "--branching 1".split(), None),
    # every cell pair holds two rows, so each pair's transfer map sums over more than one row
    "q2 two-Kraus": ("16 2", "kernel --rows 16 --cols 16".split(), DAMPING_Q2),
    # a banded kernel leaves half the cell pairs without rows: no transfer matrix, the rows run
    "q2 sparse": ("4 2", {"rows": 4, "cols": 4, "P": [0.5, 0, 0, 0.5, 0.5, 0.5, 0, 0,
                                                      0, 0.5, 0.5, 0, 0, 0, 0.5, 0.5]}, DAMPING_Q2),
    # a hub kernel: target cells hold 10, 2 or 0 rows, two row groups and a rowless target
    "q3 ragged": ("5 3", {"rows": 5, "cols": 5, "P": [1, 0.5, 0.5, 0.5, 1, 0, 0.5, 0, 0, 0,
                                                      0, 0, 0.5, 0, 0, 0, 0, 0, 0.5, 0,
                                                      0, 0, 0, 0, 0]}, DAMPING_Q3),
    # 8 cells at q = 4: the shifted-Cholesky certificate, spectra solved on first read
    "q4 Cholesky": ("8 4", "channel --src-cells 8 --dst-cells 8 --qdim-src 4 --qdim-dst 4 "
                           "--branching 1".split(), None),
}


@pytest.mark.parametrize("spec", EVOLVE_SPECS.values(), ids=EVOLVE_SPECS.keys())
def test_evolve_is_byte_deterministic(tmp_path, capsys, spec):
    # README: identical command lines give byte-identical reports, final states and CSVs
    sizes, channel, kraus = spec
    state, ch = tmp_path / "state.json", tmp_path / "channel.json"
    cells, qdim = sizes.split()
    assert main(["randgen", "state", "--cells", cells, "--qdim", qdim, "--seed", "2026",
                 "--out", str(state)]) == 0
    if isinstance(channel, list):
        assert main(["randgen", *channel, "--seed", "2026", "--out", str(ch)]) == 0
        channel = io.load_json(ch)
    if kraus is not None:
        kraus = io.matrices_to_json(kraus)
        io.dump_json({"type": "non_interacting", "kernel": channel, "kraus": kraus}, ch)
    capsys.readouterr()
    outputs = []
    for run in ("a", "b"):
        csv_path, out = tmp_path / f"{run}.csv", tmp_path / f"{run}.json"
        assert main(["evolve", str(state), str(ch), "--steps", "20",
                     "--metrics-out", str(csv_path), "--out", str(out)]) == 0
        outputs.append((capsys.readouterr().out, csv_path.read_bytes(), out.read_bytes()))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][1].splitlines()) == 22  # header + initial row + 20 steps


def test_evolve_csv_header_and_min_block_eigenvalue(tmp_path):
    state, ch, csv_path = tmp_path / "s.json", tmp_path / "c.json", tmp_path / "m.csv"
    w = random_state(counting_space(3), 2, 13)
    io.dump_json(io.state_to_json(w), state)
    io.dump_json(io.channel_to_json(identity_channel(counting_space(3), 2)), ch)
    assert main(["evolve", str(state), str(ch), "--steps", "1", "--metrics-out", str(csv_path)]) == 0
    header, first, _ = csv_path.read_text().splitlines()
    assert header == "step,total_trace,min_block_eigenvalue,mutual_information,distance_from_previous"
    # the CSV reads the spectrum new_state solved, bit for bit; at qdim 2 that is
    # linalg.spectra's closed form, within a few eps of LAPACK's eigvalsh
    floor = first.split(",")[2]
    assert floor == format(float(w.eigenvalues.min()), ".17g")
    lapack = np.linalg.eigvalsh(w.masses)
    assert abs(float(floor) - lapack.min()) <= 16 * np.finfo(float).eps * np.abs(lapack).max()


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve"],
        ["validate", "x.json", "--no-such-flag"],
        ["metrics", "x.json", "--seed", "3"],
        ["validate", "x.json", "--format", "csv"],
        ["evolve", "s.json", "c.json", "--tol", "1e-3"],
        ["validate", "x.json", "--tol", "1e-3"],
        ["randgen", "state", "--cells", "2"],
        ["evolve", "s.json"],
        ["metrics", "a.json", "b.json", "c.json", "missing.json"],
    ],
)
def test_usage_errors_exit_1(argv, tmp_path, monkeypatch, capsys):
    # a.json, b.json and c.json are loadable states, so only the usage is wrong
    monkeypatch.chdir(tmp_path)
    for name in ("a.json", "b.json", "c.json"):
        io.dump_json(io.state_to_json(random_state(counting_space(2), 2, 1)), name)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "error" in captured.err
    assert captured.out == ""


def test_unwritable_out_path_exits_1(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "report.json"  # a path under a regular file cannot be opened
    assert main(["properties", "axioms", "--trials", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("hybridiq: error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, flag",
    [
        ("state", "--cells"), ("state", "--qdim"),
        ("channel", "--src-cells"), ("channel", "--dst-cells"), ("channel", "--qdim-src"),
        ("channel", "--qdim-dst"), ("channel", "--branching"),
        ("kernel", "--rows"), ("kernel", "--cols"),
    ],
)
@pytest.mark.parametrize("value", ["0", "-2"])
def test_nonpositive_randgen_sizes_exit_1(tmp_path, kind, flag, value, capsys):
    out = tmp_path / "x.json"
    assert main(["randgen", kind, flag, value, "--out", str(out)]) == 1
    assert "must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_negative_counts_exit_1(tmp_path, state_file, capsys):
    ch_path = tmp_path / "ident.json"
    io.dump_json(io.channel_to_json(identity_channel(counting_space(3), 2)), ch_path)
    assert main(["evolve", str(state_file), str(ch_path), "--steps", "-3"]) == 1
    assert main(["properties", "axioms", "--trials", "-5"]) == 1
    assert main(["properties", "axioms", "--trials", "0"]) == 1
    assert capsys.readouterr().out == ""


def _state_obj(**changes):
    obj = io.state_to_json(random_state(counting_space(2), 2, 1))
    obj.update(changes)
    return obj


def _bell_protocol_obj():
    return io.protocol_to_json(LoccProtocol((2, 2), (LoccRound(2, {(): [P0, P1]}, side=1),)))


@pytest.mark.parametrize(
    "obj",
    [
        {k: v for k, v in _state_obj().items() if k != "space"},
        _state_obj(qdim="x"),
        _state_obj(space={"weights": [1.0, 1.0], "labels": 5}),
        # two characters or two keys are not two labels
        _state_obj(space={"weights": [1.0, 1.0], "labels": "ab"}),
        _state_obj(space={"weights": [1.0, 1.0], "labels": {"a": 1, "b": 2}}),
    ],
    ids=["missing-space", "bad-qdim", "bad-labels", "string-labels", "object-labels"],
)
def test_validate_malformed_state_exits_1(tmp_path, obj, capsys):
    path = tmp_path / "state.json"
    io.dump_json(obj, path)
    assert main(["validate", str(path)]) == 1
    assert main(["metrics", str(path)]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("labels, code", [
    ("ab", 1), ({"a": 1, "b": 2}, 1),  # parse errors: labels must be a JSON list
    (["a"], 2),  # a list of the wrong length: ClassicalSpace's BadRange, a failed construction
    (["a", "b"], 0),
], ids=["string", "object", "one-label", "two-labels"])
def test_validate_space_labels(tmp_path, labels, code, capsys):
    path = tmp_path / "space.json"
    io.dump_json({"weights": [1, 1], "labels": labels}, path)
    assert main(["validate", str(path)]) == code
    assert ("labels must be a list" in capsys.readouterr().err) == (code == 1)


def _one_cell_state(re):
    obj = io.state_to_json(new_state(counting_space(1), [[[1.0]]]))
    obj["masses"][0]["re"] = re
    return obj


def _one_row_channel(re):
    obj = io.channel_to_json(identity_channel(counting_space(1), 1))
    obj["blocks"][0]["L"][0]["re"] = re
    return obj


# number fields take JSON numbers only: np.asarray read true and "1" as 1.0 and null as nan
_NOT_NUMBERS = "must hold numbers only: no booleans, strings, nulls or lists"


@pytest.mark.parametrize("obj, message", [
    ({"weights": [1, True]}, f"space: weights {_NOT_NUMBERS}"),
    ({"P": [1, False, 0, True], "rows": 2, "cols": 2}, f"kernel: P {_NOT_NUMBERS}"),
    (_one_cell_state([True]), f"mass: re and im {_NOT_NUMBERS}"),
    (_one_cell_state(["1"]), f"mass: re and im {_NOT_NUMBERS}"),
    (_one_row_channel([True]), f"channel: re and im {_NOT_NUMBERS}"),
    ({"weights": "12"}, f"space: weights {_NOT_NUMBERS}"),
    ({"weights": [1, None]}, f"space: weights {_NOT_NUMBERS}"),
    ({"weights": [[1], [2]]}, f"space: weights {_NOT_NUMBERS}"),
    ({"weights": [1, 10**400]}, "space: weights: an integer is beyond the float range"),
], ids=["space-bool", "kernel-bool", "state-bool", "state-string", "channel-bool",
        "space-string", "space-null", "space-nested", "space-huge-int"])
def test_validate_refuses_non_numbers_in_number_fields(tmp_path, obj, message, capsys):
    path = tmp_path / "file.json"
    io.dump_json(obj, path)
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"hybridiq: error: {message}\n"


@pytest.mark.parametrize("obj, match", [
    ([{"weights": [1.0]}], "must be an object"),
    ({"dim": 1, "re": [1.0], "im": [0.0]}, "cannot determine file kind"),
], ids=["array", "unknown-kind"])
def test_validate_refuses_a_file_of_no_known_kind(tmp_path, obj, match, capsys):
    path = tmp_path / "file.json"
    io.dump_json(obj, path)
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and match in captured.err


def test_validate_nan_mass_reports_every_margin(tmp_path, capsys):
    obj = _state_obj()
    obj["masses"][1]["re"][0] = float("nan")
    path = tmp_path / "nan.json"
    io.dump_json(obj, path)
    assert main(["validate", str(path)]) == 2
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["reports"][0]["checks"]}
    assert not checks["masses_finite"]["ok"]
    assert "cell 1" in checks["masses_finite"]["error"]
    for name in ("masses_hermitian", "masses_positive", "normalization_w_X_I"):
        assert np.isfinite(checks[name]["deviation"])


def test_misshaped_protocol_exits_2_under_validate_and_locc(tmp_path, capsys):
    obj = _bell_protocol_obj()
    obj["rounds"][0]["outcomes"] = 3
    proto_path = tmp_path / "proto.json"
    io.dump_json(obj, proto_path)
    rho_path = tmp_path / "bell.json"
    io.dump_json(io.matrix_to_json(BELL), rho_path)
    assert main(["validate", str(proto_path)]) == 2
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert report["checks"][0]["name"] == "protocol_construction"
    assert "ShapeMismatch" in report["checks"][0]["error"]
    assert main(["locc", str(proto_path), str(rho_path)]) == 2


def test_nan_instrument_fails_construction_under_validate_and_locc(tmp_path, capsys):
    obj = _bell_protocol_obj()
    obj["rounds"][0]["instrument"][""][1]["im"][3] = float("nan")
    proto_path = tmp_path / "proto.json"
    io.dump_json(obj, proto_path)
    rho_path = tmp_path / "bell.json"
    io.dump_json(io.matrix_to_json(BELL), rho_path)
    assert main(["validate", str(proto_path)]) == 2
    out = capsys.readouterr().out
    assert "NaN" not in out
    (check,) = json.loads(out)["reports"][0]["checks"]
    assert check["name"] == "protocol_construction" and not check["ok"]
    assert "NumericalFailure: round 0 instrument at history ()" in check["error"]
    assert main(["locc", str(proto_path), str(rho_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "history ()" in captured.err and "mass block" not in captured.err


def _malformed_files():
    def edit(obj, path, value):
        obj = json.loads(json.dumps(obj))
        inner = obj
        for step in path[:-1]:
            inner = inner[step]
        inner[path[-1]] = value
        return obj

    channel = io.channel_to_json(identity_channel(counting_space(2), 2))
    non_int = {"type": "non_interacting", "kernel": {"P": [1.0], "rows": 1, "cols": 1}}
    coeff = {
        "type": "coeff_kernel",
        "basis": io.matrices_to_json(np.eye(4).reshape(4, 2, 2)),  # matrix units
        "k": io.complex_tensor_to_json(np.eye(4)[None, None] / 2),
    }
    mass = io.state_to_json(new_state(counting_space(1), [[[1.0]]]))

    def two_round_protocol(key):
        # the Bell round, then an identity round on side 2 whose one history key is ``key``
        obj = _bell_protocol_obj()
        obj["rounds"].append(
            {"side": 2, "outcomes": 1, "instrument": {key: io.matrices_to_json(np.eye(2)[None])}}
        )
        return obj

    files = [
        ("rounds-not-a-list", io.protocol_from_json, edit(_bell_protocol_obj(), ["rounds"], 5)),
        ("instrument-not-an-object", io.protocol_from_json,
         edit(_bell_protocol_obj(), ["rounds", 0, "instrument"], [])),
        ("ops-not-a-list", io.protocol_from_json,
         edit(_bell_protocol_obj(), ["rounds", 0, "instrument", ""], 5)),
        ("blocks-not-a-list", io.channel_from_json, edit(channel, ["blocks"], 5)),
        ("block-without-rows", io.channel_from_json, edit(channel, ["blocks", 0, "L"], [])),
        ("kraus-not-a-list", io.channel_from_json, dict(non_int, kraus=5)),
        ("basis-not-a-list", io.channel_from_json, dict(coeff, basis=5)),
        ("k-of-empty-shape", io.channel_from_json,
         dict(coeff, k={"shape": [], "re": [], "im": []})),
        ("nested-re-mass", io.state_from_json, edit(mass, ["masses", 0, "re"], [[1.0]])),
        ("block-index-beyond-intp", io.channel_from_json, edit(channel, ["blocks", 0, "m"], 2**70)),
        ("qdim-beyond-intp-no-blocks", io.channel_from_json,
         dict(edit(channel, ["qdim_src"], 2**70), blocks=[])),
        # integer fields take JSON integers only; int() used to truncate these silently
        ("float-qdim", io.state_from_json, edit(_state_obj(), ["qdim"], 2.7)),
        ("boolean-qdim", io.state_from_json, edit(mass, ["qdim"], True)),
        ("float-matrix-dim", io.protocol_from_json,
         edit(_bell_protocol_obj(), ["rounds", 0, "instrument", "", 0, "dim"], 2.9)),
        ("float-block-index", io.channel_from_json, edit(channel, ["blocks", 0, "m"], 1.5)),
        ("float-kernel-rows", io.kernel_from_json,
         {"P": [0.5, 0.0, 0.5, 1.0], "rows": 2.5, "cols": 2}),
        ("float-outcomes", io.protocol_from_json,
         edit(_bell_protocol_obj(), ["rounds", 0, "outcomes"], 2.5)),
        ("float-dims", io.protocol_from_json, edit(_bell_protocol_obj(), ["dims"], [2.5, 2])),
        ("float-side", io.protocol_from_json,
         edit(_bell_protocol_obj(), ["rounds", 0, "side"], 2.0)),
        # history keys are dot-separated ASCII digits; int() alone would read (1,) or (10,)
        *((f"history-key-{label}", io.protocol_from_json, two_round_protocol(key))
          for label, key in (("plus", "+1"), ("space", " 1"), ("underscore", "1_0"),
                             ("non-ascii-digit", "\u0661"), ("empty-part", "1."))),
    ]
    return [pytest.param(*f, id=f[0]) for f in files]


@pytest.mark.parametrize("name, loader, obj", _malformed_files())
def test_malformed_files_end_in_parse_error(tmp_path, name, loader, obj, capsys):
    with pytest.raises(ParseError):
        loader(obj)
    path = tmp_path / f"{name}.json"
    io.dump_json(obj, path)
    commands = [["validate", str(path)]]
    if loader is io.protocol_from_json:
        rho_path = tmp_path / "bell.json"
        io.dump_json(io.matrix_to_json(BELL), rho_path)
        commands.append(["locc", str(path), str(rho_path)])
    for argv in commands:
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hybridiq: error: ")


def _spec_files():
    unnormalized = _state_obj()
    for entry in unnormalized["masses"]:
        entry["re"] = (0.8 * np.asarray(entry["re"])).tolist()
        entry["im"] = (0.8 * np.asarray(entry["im"])).tolist()

    def masses_state(*blocks):
        return {
            "space": {"weights": [1.0] * len(blocks)},
            "qdim": 2,
            "masses": [io.matrix_to_json(np.asarray(b, dtype=complex)) for b in blocks],
        }

    def skewed(defect):
        # cell 1 deviates from Hermiticity by exactly ``defect``
        return masses_state(np.diag([0.25, 0.25]), [[0.25, defect], [0.0, 0.25]])

    def floored(eps):
        # one cell whose floor, lambda_min / trace norm, is -eps / (1 + 2 eps)
        return masses_state(np.diag([1.0 + eps, -eps]))

    def stretched_channel(defect):
        # cell 0's one Kraus row is sqrt(1 + defect) I, so it deviates by about ``defect``
        obj = io.channel_to_json(identity_channel(counting_space(2), 2))
        obj["blocks"][0]["L"][0]["re"] = [(1 + defect) ** 0.5, 0.0, 0.0, (1 + defect) ** 0.5]
        return obj

    def stretched_instrument(defect):
        # the second projector is scaled by sqrt(1 + defect)
        obj = _bell_protocol_obj()
        obj["rounds"][0]["instrument"][""][1]["re"] = [0.0, 0.0, 0.0, (1 + defect) ** 0.5]
        return obj

    incomplete_channel = io.channel_to_json(identity_channel(counting_space(2), 2))
    incomplete_channel["blocks"][0]["L"][0]["re"] = [0.5, 0.0, 0.0, 0.5]
    half_identity_kraus = {
        "type": "non_interacting",
        "kernel": {"P": [1.0], "rows": 1, "cols": 1},
        "kraus": io.matrices_to_json(0.5 * np.eye(2)[None]),
    }
    incomplete_instrument = _bell_protocol_obj()
    incomplete_instrument["rounds"][0]["instrument"][""][1]["re"] = [0.0, 0.0, 0.0, 0.5]
    nan_instrument = _bell_protocol_obj()
    nan_instrument["rounds"][0]["instrument"][""][0]["re"][0] = float("nan")
    # rowless channels whose dimension leaves no room for per-cell sums, or for any array
    rowless_q30 = dict(incomplete_channel, qdim_src=2**30, qdim_dst=1, blocks=[])
    rowless_q62 = dict(incomplete_channel, qdim_src=2**62, blocks=[])
    files = [
        ("good-state", io.state_from_json, _state_obj()),
        ("unnormalized-state", io.state_from_json, unnormalized),
        ("non-psd-state", io.state_from_json, masses_state(np.diag([1.01, -0.01]))),
        ("good-state-hermiticity-half-tol", io.state_from_json, skewed(0.5 * HERMITICITY_TOL)),
        ("hermiticity-twice-tol-state", io.state_from_json, skewed(2 * HERMITICITY_TOL)),
        ("good-state-floor-just-above", io.state_from_json, floored(0.99 * PSD_TOL)),
        ("floor-just-below-state", io.state_from_json, floored(1.01 * PSD_TOL)),
        # cells 0 and 1 are both negative, cell 1 more so; the loader names cell 0
        ("two-negative-cells-state", io.state_from_json,
         masses_state(np.diag([0.3, -0.01]), np.diag([0.5, -0.1]), np.diag([0.31, 0.0]))),
        ("two-skewed-cells-state", io.state_from_json,
         masses_state([[0.25, 1e-3], [0.0, 0.25]], [[0.25, 1e-2], [0.0, 0.25]])),
        ("good-channel", io.channel_from_json,
         io.channel_to_json(identity_channel(counting_space(2), 2))),
        ("incomplete-channel", io.channel_from_json, incomplete_channel),
        ("incomplete-non-interacting-channel", io.channel_from_json, half_identity_kraus),
        ("good-channel-completeness-half-tol", io.channel_from_json,
         stretched_channel(0.5 * COMPLETENESS_TOL)),
        ("channel-completeness-twice-tol", io.channel_from_json,
         stretched_channel(2 * COMPLETENESS_TOL)),
        ("good-protocol", io.protocol_from_json, _bell_protocol_obj()),
        ("incomplete-instrument", io.protocol_from_json, incomplete_instrument),
        ("good-protocol-completeness-half-tol", io.protocol_from_json,
         stretched_instrument(0.5 * COMPLETENESS_TOL)),
        ("instrument-completeness-twice-tol", io.protocol_from_json,
         stretched_instrument(2 * COMPLETENESS_TOL)),
        ("nan-instrument", io.protocol_from_json, nan_instrument),
        ("rowless-channel-qdim-2-30", io.channel_from_json, rowless_q30),
        ("rowless-channel-qdim-2-62", io.channel_from_json, rowless_q62),
        ("good-kernel", io.kernel_from_json, {"P": [0.5, 0.0, 0.5, 1.0], "rows": 2, "cols": 2}),
        ("bad-kernel", io.kernel_from_json, {"P": [0.5, 0.4, 0.0, 1.0], "rows": 2, "cols": 2}),
        ("good-space", io.space_from_json, {"weights": [0.5, 2.0]}),
        ("bad-space", io.space_from_json, {"weights": [0.5, -2.0]}),
    ]
    return [pytest.param(*f, id=f[0]) for f in files]


@pytest.mark.parametrize("name, loader, obj", _spec_files())
def test_validate_agrees_with_loaders(tmp_path, name, loader, obj, capsys):
    path = tmp_path / f"{name}.json"
    io.dump_json(obj, path)
    cell = incomplete = None
    try:
        loader(io.load_json(path))
        accepted = True
    except NotPositive as exc:
        accepted, cell = False, exc.cell
    except (IncompleteChannel, IncompleteInstrument, IncompleteKraus) as exc:
        accepted, incomplete = False, exc
    except HybridError:
        accepted = False
    assert accepted == name.startswith("good")
    assert main(["validate", str(path)]) == (0 if accepted else 2)
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert all(c["ok"] for c in report["checks"]) == accepted
    if cell is not None:
        first_failure = next(c for c in report["checks"] if not c["ok"])
        assert first_failure["error"].endswith(f" at cell {cell}")
    if incomplete is not None:
        # the constructor's own measurement, not an infinite construction row
        (check,) = report["checks"]
        assert check["name"] in ("channel_completeness", "instrument_completeness")
        assert check["deviation"] == incomplete.deviation
        assert check["tolerance"] == COMPLETENESS_TOL
        assert check["error"] == f"{type(incomplete).__name__}: {incomplete}"


def test_validate_reports_an_incomplete_kraus_set_as_strict_json(tmp_path, capsys):
    # sum L^dag L = 0.25 I for the one Kraus operator 0.5 I: deviation 0.75
    path = tmp_path / "half.json"
    io.dump_json(dict(_spec_files_by_id()["incomplete-non-interacting-channel"]), path)
    assert main(["validate", str(path)]) == 2

    def reject(constant):
        raise AssertionError(f"report holds {constant}, which is not JSON")

    report = json.loads(capsys.readouterr().out, parse_constant=reject)["reports"][0]
    assert report["checks"] == [{
        "name": "channel_completeness",
        "deviation": 0.75,
        "tolerance": COMPLETENESS_TOL,
        "ok": False,
        "error": "IncompleteKraus: sum L^dag L deviates from identity by 7.500e-01",
    }]


def test_validate_writes_null_for_a_construction_failure(tmp_path, capsys):
    # four copies of I cannot span the operator space: BadBasis measures no deviation
    path = tmp_path / "bad-basis.json"
    io.dump_json({
        "type": "coeff_kernel",
        "basis": io.matrices_to_json(np.stack([np.eye(2)] * 4)),
        "k": io.complex_tensor_to_json(np.eye(4)[None, None] / 2),
    }, path)
    assert main(["validate", str(path)]) == 2

    def reject(constant):
        raise AssertionError(f"report holds {constant}, which is not JSON")

    report = json.loads(capsys.readouterr().out, parse_constant=reject)["reports"][0]
    assert report["checks"] == [{
        "name": "channel_construction",
        "deviation": None,
        "tolerance": 0.0,
        "ok": False,
        "error": "BadBasis: basis elements are linearly dependent",
    }]


@pytest.mark.parametrize("edit, error", [
    pytest.param(lambda block: block.update(m=5),
                 "ShapeMismatch: block key (5, 1) outside the cell grid", id="grid"),
    pytest.param(lambda block: block["L"][0]["re"].__setitem__(0, float("nan")),
                 "NumericalFailure: blocks at (1, 1) have non-finite entries", id="nan"),
])
def test_channel_file_with_a_bad_row_exits_2(tmp_path, capsys, edit, error):
    # JSON reads the NaN literal, so the row reaches from_rows' own checks
    obj = io.channel_to_json(identity_channel(counting_space(2), 2))
    edit(obj["blocks"][1])
    path, state = tmp_path / "channel.json", tmp_path / "state.json"
    io.dump_json(obj, path)
    io.dump_json(io.state_to_json(random_state(counting_space(2), 2, 3)), state)
    assert main(["validate", str(path)]) == 2
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert report["checks"] == [{
        "name": "channel_construction", "deviation": None, "tolerance": 0.0, "ok": False,
        "error": error,
    }]
    assert main(["evolve", str(state), str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"hybridiq: {error}\n"


def test_duplicate_history_keys_end_in_parse_error(tmp_path, capsys):
    # "1" and "01" both read as history (1,); the later one used to replace the earlier
    obj = _bell_protocol_obj()
    projectors = io.matrices_to_json(np.stack([P0, P1]))
    swapped = io.matrices_to_json(np.stack([P1, P0]))
    obj["rounds"].append({"side": 2, "outcomes": 2,
                          "instrument": {"1": projectors, "2": projectors, "01": swapped}})
    with pytest.raises(ParseError, match=r"history keys '1' and '01' both name history \(1,\)"):
        io.protocol_from_json(obj)
    path, rho_path = tmp_path / "proto.json", tmp_path / "bell.json"
    io.dump_json(obj, path)
    io.dump_json(io.matrix_to_json(BELL), rho_path)
    for argv in (["validate", str(path)], ["locc", str(path), str(rho_path)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        # dump_json sorts keys, so the file reads "01" first
        assert captured.out == "" and "history keys '01' and '1'" in captured.err


def _spec_files_by_id():
    return {p.values[0]: p.values[2] for p in _spec_files()}


def test_validate_measures_each_protocol_round_once(tmp_path, kraus_defect_calls, capsys):
    rng = np.random.default_rng(3)
    proto = LoccProtocol((2, 3), tuple(
        LoccRound(2, {h: random_kraus_set((2, 3)[r % 2], 2, rng)
                      for h in itertools.product((1, 2), repeat=r)}, 1 + r % 2)
        for r in range(3)
    ))
    path = tmp_path / "proto.json"
    io.dump_json(io.protocol_to_json(proto), path)
    kraus_defect_calls.clear()
    assert main(["validate", str(path)]) == 0
    assert len(kraus_defect_calls) == len(proto.rounds)
    (check,) = json.loads(capsys.readouterr().out)["reports"][0]["checks"]
    assert check["name"] == "instrument_completeness"
    assert check["deviation"] == proto.completeness_defect


# finite entries whose L^dag L overflows: the matmul alone yields inf and NaN
HUGE = np.array([[1e200 + 1e200j, 1e200 - 1e200j], [1e200 - 1e200j, -1e200 - 1e200j]])
# two rows whose grams overflow to +inf and -inf in one entry, so summing them is invalid too
OPPOSITE = np.array([[[1e200, 1e200], [0, 0]], [[1e200, -1e200], [0, 0]]], dtype=complex)


def _overflowing_inputs():
    one, space = counting_space(1), {"weights": [1.0]}
    channel = lambda ops: {"src_space": space, "dst_space": space, "qdim_src": 2, "qdim_dst": 2,
                           "blocks": [{"m": 0, "n": 0, "L": io.matrices_to_json(ops)}]}
    kraus = io.matrices_to_json(HUGE[None])
    cases = [
        ("from_rows", IncompleteChannel, lambda: from_rows(one, one, 2, 2, [0], [0], [HUGE]),
         channel(HUGE[None])),
        ("from_rows-opposite-overflows", IncompleteChannel,
         lambda: from_rows(one, one, 2, 2, [0, 0], [0, 0], OPPOSITE), channel(OPPOSITE)),
        ("non_interacting", IncompleteKraus, lambda: non_interacting(identity_kernel(one), [HUGE]),
         {"type": "non_interacting", "kernel": {"P": [1.0], "rows": 1, "cols": 1}, "kraus": kraus}),
        ("LoccProtocol", IncompleteInstrument,
         lambda: LoccProtocol((2, 2), (LoccRound(1, {(): [HUGE]}, side=1),)),
         {"dims": [2, 2], "rounds": [{"side": 1, "outcomes": 1, "instrument": {"": kraus}}]}),
    ]
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


@pytest.mark.parametrize("error, build, spec", _overflowing_inputs())
def test_overflowing_kraus_entries_are_incomplete(tmp_path, error, build, spec, capsys):
    # the defect reads inf, not NaN (which passes every "defect > tol" test), and no
    # RuntimeWarning escapes: the pytest settings turn one into an error
    with pytest.raises(error) as info:
        build()
    assert info.value.deviation == np.inf
    path = tmp_path / "huge.json"
    io.dump_json(spec, path)
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    (check,) = json.loads(captured.out)["reports"][0]["checks"]
    assert check["deviation"] is None and not check["ok"]
    assert check["error"].startswith(error.__name__)
