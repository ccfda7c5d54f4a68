"""End-to-end CLI behavior: artifacts, determinism, exit codes."""

import csv
import json

import pytest

from cnotbench.circuits import Circuit, Gate, build_n_stage
from cnotbench.cli import VERIFY_MAX_QUBITS, main
from cnotbench.noise import synth_asymmetric_model
from cnotbench.transpiler import CouplingMap, orient_for_error

FAST = ["--stages", "3", "--reps", "2", "--shots", "512"]


def write_json(path, document):
    path.write_text(json.dumps(document) + "\n", encoding="utf-8")


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "model.json"
    write_json(path, synth_asymmetric_model(0.01, 2.0).to_document())
    return path


def run(*argv):
    return main([str(a) for a in argv])


# ── bench ───────────────────────────────────────────────────────────────


def test_bench_writes_artifacts(tmp_path, model_path, capsys):
    out = tmp_path / "out"
    assert run("bench", "--model", model_path, "--pair", "0,1", "--out", out, *FAST) == 0
    assert (out / "results.csv").is_file() and (out / "report.json").is_file()

    with open(out / "results.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2 * 3  # two orientations, three stage counts
    assert list(rows[0]) == ["pair", "control", "target", "n", "shots", "ground_count", "g", "exact_p00"]
    assert {r["pair"] for r in rows} == {"0-1"}
    assert {(r["control"], r["target"]) for r in rows} == {("0", "1"), ("1", "0")}
    for row in rows:
        assert int(row["shots"]) == 1024
        assert float(row["g"]) == pytest.approx(int(row["ground_count"]) / 1024)

    report = json.loads((out / "report.json").read_text())
    assert report["classified_asymmetric"] is True
    assert report["config"]["seed"] == 0
    assert "asymmetric" in capsys.readouterr().out


def test_bench_runs_are_byte_identical(tmp_path, model_path):
    first, second = tmp_path / "a", tmp_path / "b"
    for out in (first, second):
        assert run("bench", "--model", model_path, "--pair", "0,1", "--out", out,
                   "--seed", "42", *FAST) == 0
    for name in ("results.csv", "report.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_bench_threshold_flips_classification(tmp_path, model_path, capsys):
    out = tmp_path / "out"
    assert run("bench", "--model", model_path, "--pair", "0,1", "--out", out,
               "--threshold", "0.9", *FAST) == 0
    assert "symmetric" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["classified_asymmetric"] is False


def test_bench_rejects_bad_pair(tmp_path, model_path, capsys):
    assert run("bench", "--model", model_path, "--pair", "0,0", "--out", tmp_path / "x") == 2
    assert "--pair" in capsys.readouterr().err


def test_bench_rejects_bad_model(tmp_path, capsys):
    path = tmp_path / "bad.json"
    document = synth_asymmetric_model(0.01, 2.0).to_document()
    document["qubits"][0]["t1_us"] = -5
    write_json(path, document)
    assert run("bench", "--model", path, "--pair", "0,1", "--out", tmp_path / "x") == 2
    assert "t1_us" in capsys.readouterr().err


def test_bench_missing_model_file(tmp_path, capsys):
    assert run("bench", "--model", tmp_path / "nope.json", "--pair", "0,1",
               "--out", tmp_path / "x") == 2
    assert "error:" in capsys.readouterr().err


def test_bench_rejects_bad_config(tmp_path, model_path):
    assert run("bench", "--model", model_path, "--pair", "0,1", "--out", tmp_path / "x",
               "--stages", "0") == 2


# ── mitigate ────────────────────────────────────────────────────────────


def test_mitigate_artifacts(tmp_path, capsys):
    path = tmp_path / "model.json"
    model = synth_asymmetric_model(0.01, 2.0)
    write_json(path, model.to_document())
    out = tmp_path / "out"
    assert run("mitigate", "--model", path, "--pair", "0,1", "--out", out, *FAST) == 0

    with open(out / "mitigation_table.csv", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = list(reader)
    assert header == ["n", "g_raw_01", "g_raw_10", "g_mit_01", "g_mit_10"]
    assert [r[0] for r in rows] == ["1", "2", "3"]

    document = json.loads((out / "comparison.json").read_text())
    assert document["pair"] == [0, 1]
    assert document["raw_classified_asymmetric"] is True
    assert document["mitigated_classified_asymmetric"] is True
    matrix = document["assignment_matrix"]
    assert len(matrix) == 4 and all(len(row) == 4 for row in matrix)
    for j in range(4):
        assert sum(matrix[i][j] for i in range(4)) == pytest.approx(1.0)
    assert "max f" in capsys.readouterr().out


def test_mitigate_cal_gate_noise_flag(tmp_path):
    path = tmp_path / "model.json"
    write_json(path, synth_asymmetric_model(0.01, 2.0).to_document())
    on, off = tmp_path / "on", tmp_path / "off"
    assert run("mitigate", "--model", path, "--pair", "0,1", "--out", on, *FAST) == 0
    assert run("mitigate", "--model", path, "--pair", "0,1", "--out", off,
               "--no-cal-gate-noise", *FAST) == 0
    a = json.loads((on / "comparison.json").read_text())["assignment_matrix"]
    b = json.loads((off / "comparison.json").read_text())["assignment_matrix"]
    assert a != b


# ── transpile ───────────────────────────────────────────────────────────


def transpile_inputs(tmp_path, err_01=0.02, err_10=0.003):
    circuit_path = tmp_path / "circuit.json"
    write_json(circuit_path, build_n_stage(0, 1, 2).to_document())
    map_path = tmp_path / "map.json"
    model = synth_asymmetric_model(err_01, err_10 / err_01)
    write_json(map_path, model.to_document())
    return circuit_path, map_path


def test_transpile_optimize_with_verify(tmp_path, capsys):
    circuit_path, map_path = transpile_inputs(tmp_path)
    out = tmp_path / "out"
    assert run("transpile", "--circuit", circuit_path, "--map", map_path,
               "--verify", "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "optimize"
    assert report["verified"] is True
    assert report["cnot_count"] == 4
    assert report["sandwiched"] == 4  # reverse direction is far cleaner
    assert report["gates_after"] == report["gates_before"] + 16
    lines = (out / "decisions.jsonl").read_text().splitlines()
    assert len(lines) == 4
    assert all(json.loads(line)["realization"] == "sandwich" for line in lines)
    rebuilt = Circuit.from_document(json.loads((out / "circuit.json").read_text()))
    assert rebuilt.measurement_count == 2
    assert "estimated success" in capsys.readouterr().out


def test_transpile_enforce_mode(tmp_path):
    circuit_path, map_path = transpile_inputs(tmp_path)
    out = tmp_path / "out"
    assert run("transpile", "--circuit", circuit_path, "--map", map_path,
               "--mode", "enforce", "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    # circuit CNOTs already sit on the physical control 0
    assert report["mode"] == "enforce"
    assert report["sandwiched"] == 0
    assert report["gates_after"] == report["gates_before"]


def test_transpile_cleanup_reduces_gates(tmp_path):
    circuit_path, map_path = transpile_inputs(tmp_path)
    plain, cleaned = tmp_path / "plain", tmp_path / "cleaned"
    assert run("transpile", "--circuit", circuit_path, "--map", map_path, "--out", plain) == 0
    assert run("transpile", "--circuit", circuit_path, "--map", map_path,
               "--cleanup-hadamards", "--verify", "--out", cleaned) == 0
    before = json.loads((plain / "report.json").read_text())
    after = json.loads((cleaned / "report.json").read_text())
    assert after["gates_after"] < before["gates_after"]
    assert after["estimated_success"] > before["estimated_success"]


def test_transpile_bad_circuit_document(tmp_path, capsys):
    _, map_path = transpile_inputs(tmp_path)
    bad_path = tmp_path / "bad_circuit.json"
    for document in (
        {"num_qubits": 2},
        {"num_qubits": None, "num_clbits": 0, "instructions": []},
        {"num_qubits": 2, "num_clbits": 0, "instructions": 5},
        {"num_qubits": 2, "num_clbits": 0, "instructions": [{"kind": "H", "qubits": 0}]},
        {"num_qubits": 2.7, "num_clbits": 0, "instructions": []},
    ):
        write_json(bad_path, document)
        assert run("transpile", "--circuit", bad_path, "--map", map_path,
                   "--out", tmp_path / "x") == 2, document
        assert "error:" in capsys.readouterr().err


def one_direction_inputs(tmp_path):
    circuit_path = tmp_path / "circuit.json"
    write_json(circuit_path, Circuit(2, 0, (Gate.cnot(1, 0),)).to_document())
    map_path = tmp_path / "map.json"
    document = synth_asymmetric_model(0.01, 2.0).to_document()
    # only 1 -> 0 is characterized, yet the hardware control is 0
    document["edges"] = [e for e in document["edges"] if e["control"] == 1]
    document["physical_direction"] = {"0-1": 0}
    write_json(map_path, document)
    return circuit_path, map_path


def test_transpile_names_uncharacterized_direction_in_estimate(tmp_path, capsys):
    circuit_path, map_path = one_direction_inputs(tmp_path)
    out = tmp_path / "out"
    assert run("transpile", "--circuit", circuit_path, "--map", map_path,
               "--mode", "enforce", "--out", out) == 0
    assert "success estimate unavailable (no edge characterization for (0 -> 1))" in capsys.readouterr().out
    assert json.loads((out / "report.json").read_text())["estimated_success"] is None


def test_transpile_cleanup_keeps_the_missing_estimate_reason(tmp_path, capsys):
    circuit_path, map_path = one_direction_inputs(tmp_path)
    out = tmp_path / "out"
    assert run("transpile", "--circuit", circuit_path, "--map", map_path,
               "--mode", "enforce", "--cleanup-hadamards", "--out", out) == 0
    assert "success estimate unavailable (no edge characterization for (0 -> 1))" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["estimated_success"] is None
    assert report["gates_after"] == 5


def test_map_with_non_ascii_digit_pair_is_a_schema_problem(tmp_path, capsys):
    circuit_path, map_path = transpile_inputs(tmp_path)
    document = json.loads(map_path.read_text(encoding="utf-8"))
    document["physical_direction"]["\u00b2-3"] = 2
    write_json(map_path, document)
    assert run("transpile", "--circuit", circuit_path, "--map", map_path,
               "--out", tmp_path / "x") == 2
    assert "$.physical_direction['\u00b2-3']" in capsys.readouterr().err


@pytest.mark.parametrize("circuit", [
    Circuit(3, 2, (
        Gate.u(0, 0.25, -1.5, 3.0), Gate.h(1), Gate.cnot(0, 1), Gate.barrier(0, 1, 2),
        Gate.u(2, 0.0, -0.0, 1e-300), Gate.cnot(0, 1), Gate.h(1), Gate.x(2), Gate.sx(0),
        Gate.cnot(1, 2), Gate.cnot(1, 0), Gate.u(0, 0.25, -1.5, 3.0), Gate.cnot(2, 1),
        Gate.cnot(1, 0), Gate.measure(2, 0), Gate.measure(0, 1),
    )),
    Circuit(3, 0, ()),
], ids=["every-kind", "empty"])
def test_transpile_circuit_json_bytes(tmp_path, circuit):
    circuit_path, map_path = tmp_path / "circuit.json", tmp_path / "map.json"
    write_json(circuit_path, circuit.to_document())
    model = synth_asymmetric_model(0.01, 2.0).to_document()
    model["qubits"].append(model["qubits"][0])
    model["edges"] += [dict(e, control=e["control"] + 1, target=e["target"] + 1) for e in model["edges"]]
    model["physical_direction"]["1-2"] = 2
    write_json(map_path, model)
    out = tmp_path / "out"
    assert run("transpile", "--circuit", circuit_path, "--map", map_path, "--out", out) == 0
    final = orient_for_error(circuit, CouplingMap.from_document(model)).circuit
    expected = json.dumps(final.to_document(), indent=2, sort_keys=True) + "\n"
    assert (out / "circuit.json").read_text(encoding="utf-8") == expected


def test_transpile_gate_off_the_map_names_the_qubit(tmp_path, capsys):
    _, map_path = transpile_inputs(tmp_path)
    circuit_path = tmp_path / "circuit.json"
    write_json(circuit_path, Circuit(3, 0, (Gate.h(2),)).to_document())
    assert run("transpile", "--circuit", circuit_path, "--map", map_path,
               "--mode", "enforce", "--out", tmp_path / "x") == 1
    assert "H on qubit 2 is outside the 2-qubit coupling map" in capsys.readouterr().err


def test_transpile_verify_size_limit(tmp_path, capsys):
    _, map_path = transpile_inputs(tmp_path)
    circuit_path = tmp_path / "circuit.json"
    for num_qubits, code in ((VERIFY_MAX_QUBITS, 0), (VERIFY_MAX_QUBITS + 1, 2)):
        body = (Gate.h(0), Gate.cnot(0, 1))
        write_json(circuit_path, Circuit(num_qubits, 0, body).to_document())
        assert run("transpile", "--circuit", circuit_path, "--map", map_path,
                   "--verify", "--out", tmp_path / str(num_qubits)) == code
    assert "VERIFY_MAX_QUBITS = 10" in capsys.readouterr().err
    assert not (tmp_path / str(VERIFY_MAX_QUBITS + 1)).exists()


def test_transpile_uncoupled_cnot_is_runtime_failure(tmp_path, capsys):
    circuit_path = tmp_path / "circuit.json"
    write_json(circuit_path, Circuit.from_document(
        build_n_stage(0, 1, 1).to_document()).to_document())
    map_path = tmp_path / "map.json"
    document = synth_asymmetric_model(0.01, 2.0).to_document()
    # characterization for a different pair only
    document["qubits"].append(document["qubits"][0])
    for edge in document["edges"]:
        edge["control"] += 1
        edge["target"] += 1
    document["physical_direction"] = {"1-2": 1}
    write_json(map_path, document)
    assert run("transpile", "--circuit", circuit_path, "--map", map_path,
               "--out", tmp_path / "x") == 1
    assert "not a coupled pair" in capsys.readouterr().err


def test_malformed_json_is_a_schema_problem(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert run("bench", "--model", path, "--pair", "0,1", "--out", tmp_path / "x") == 2
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["bench"]) == 2
    capsys.readouterr()
