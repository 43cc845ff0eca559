import json

import numpy as np
import pytest

from hybridiq import io
from hybridiq.channel import identity_channel, non_interacting
from hybridiq.classical import counting_space, uniform_mixing_kernel
from hybridiq.cli import main
from hybridiq.errors import HybridError
from hybridiq.locc import LoccProtocol, LoccRound
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
    assert main(["validate", str(bad_kernel)]) == 2

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
    # lower a Bell measurement protocol to record-space channels, drive the
    # initial point-mass state through them, and check the final quantum
    # marginal is PPT
    from hybridiq.locc import as_hybrid_channels, initial_record_state
    from hybridiq.state import quantum_marginal
    from hybridiq.locc import is_ppt

    proto = LoccProtocol((2, 2), (LoccRound(2, {(): [P0, P1]}, side=1),))
    state_path = tmp_path / "record_state.json"
    io.dump_json(io.state_to_json(initial_record_state(proto, BELL)), state_path)
    channel_paths = []
    for i, ch in enumerate(as_hybrid_channels(proto)):
        path = tmp_path / f"round{i}.json"
        io.dump_json(io.channel_to_json(ch), path)
        channel_paths.append(str(path))
    out_path = tmp_path / "final.json"
    assert main(["evolve", str(state_path), *channel_paths, "--out", str(out_path)]) == 0
    capsys.readouterr()
    final = io.state_from_json(io.load_json(out_path))
    assert is_ppt(quantum_marginal(final), 2, 2)


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


def test_properties_exit_codes(capsys):
    assert main(["properties", "axioms", "--trials", "30", "--seed", "7"]) == 0
    capsys.readouterr()
    assert main(["properties", "not-a-suite"]) == 1


def test_properties_report_determinism(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        assert main(["properties", "metric", "--trials", "20", "--seed", "5",
                     "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_randgen_determinism_and_validity(tmp_path):
    for name in ("a.json", "b.json"):
        assert main(["randgen", "state", "--cells", "3", "--qdim", "2",
                     "--seed", "21", "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert main(["validate", str(tmp_path / "a.json")]) == 0

    assert main(["randgen", "channel", "--src-cells", "2", "--dst-cells", "2",
                 "--seed", "3", "--out", str(tmp_path / "ch.json")]) == 0
    assert main(["validate", str(tmp_path / "ch.json")]) == 0

    assert main(["randgen", "kernel", "--rows", "3", "--cols", "2",
                 "--seed", "4", "--out", str(tmp_path / "k.json")]) == 0
    assert main(["validate", str(tmp_path / "k.json")]) == 0


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
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    assert main(argv) == 1
    assert "error" in capsys.readouterr().err


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
    ],
    ids=["missing-space", "bad-qdim", "bad-labels"],
)
def test_validate_malformed_state_exits_1(tmp_path, obj, capsys):
    path = tmp_path / "state.json"
    io.dump_json(obj, path)
    assert main(["validate", str(path)]) == 1
    assert main(["metrics", str(path)]) == 1
    assert capsys.readouterr().out == ""


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


def _spec_files():
    unnormalized = _state_obj()
    for entry in unnormalized["masses"]:
        entry["re"] = (0.8 * np.asarray(entry["re"])).tolist()
        entry["im"] = (0.8 * np.asarray(entry["im"])).tolist()
    non_psd = {
        "space": {"weights": [1.0]},
        "qdim": 2,
        "masses": [io.matrix_to_json(np.diag([1.01, -0.01]))],
    }
    incomplete_channel = io.channel_to_json(identity_channel(counting_space(2), 2))
    incomplete_channel["blocks"][0]["L"][0]["re"] = [0.5, 0.0, 0.0, 0.5]
    incomplete_instrument = _bell_protocol_obj()
    incomplete_instrument["rounds"][0]["instrument"][""][1]["re"] = [0.0, 0.0, 0.0, 0.5]
    files = [
        ("good-state", io.state_from_json, _state_obj()),
        ("unnormalized-state", io.state_from_json, unnormalized),
        ("non-psd-state", io.state_from_json, non_psd),
        ("good-channel", io.channel_from_json,
         io.channel_to_json(identity_channel(counting_space(2), 2))),
        ("incomplete-channel", io.channel_from_json, incomplete_channel),
        ("good-protocol", io.protocol_from_json, _bell_protocol_obj()),
        ("incomplete-instrument", io.protocol_from_json, incomplete_instrument),
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
    try:
        loader(io.load_json(path))
        accepted = True
    except HybridError:
        accepted = False
    assert accepted == name.startswith("good")
    assert main(["validate", str(path)]) == (0 if accepted else 2)
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert all(c["ok"] for c in report["checks"]) == accepted
