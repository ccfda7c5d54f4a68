"""Noise model: schema loading, validation paths, round trips, factories."""

import json
import math

import pytest

from cnotbench.circuits import GateKind
from cnotbench.noise import (
    DEFAULT_QUBIT,
    DirectedEdgeParams,
    NoiseModel,
    QubitParams,
    SchemaError,
    ideal_model,
    load_noise_model,
    synth_asymmetric_model,
)


def sample_document() -> dict:
    return {
        "qubits": [
            {
                "t1_us": 85.0,
                "t2_us": 110.0,
                "readout_p01": 0.025,
                "readout_p10": 0.035,
                "u2_error": 0.00042,
                "u2_duration_ns": 35.0,
            },
            {
                "t1_us": 92.0,
                "t2_us": 70.0,
                "readout_p01": 0.02,
                "readout_p10": 0.03,
                "u2_error": 0.00084,
                "u2_duration_ns": 35.0,
            },
        ],
        "edges": [
            {"control": 0, "target": 1, "cnot_error": 0.00862, "duration_ns": 348.0},
            {
                "control": 1,
                "target": 0,
                "cnot_error": 0.0105,
                "duration_ns": 384.0,
                "coherent_axis": "ZX",
                "coherent_angle_rad": 0.02,
            },
        ],
        "physical_direction": {"0-1": 0},
    }


def test_load_valid_document():
    model = load_noise_model(sample_document())
    assert model.num_qubits == 2
    assert model.qubit(0).t1_us == 85.0
    assert model.edge(0, 1).cnot_error == 0.00862
    assert model.edge(1, 0).coherent_axis == "ZX"
    assert model.physical_direction[(0, 1)] == 0
    assert model.readout_pairs((0, 1)) == [(0.025, 0.035), (0.02, 0.03)]


def test_round_trip_is_exact():
    model = load_noise_model(sample_document())
    doc = model.to_document()
    assert load_noise_model(doc) == model
    # and through an actual JSON encode/decode
    assert load_noise_model(json.loads(json.dumps(doc))) == model


@pytest.mark.parametrize(
    "mutate,path_fragment",
    [
        (lambda d: d["qubits"][0].pop("t1_us"), "$.qubits[0].t1_us"),
        (lambda d: d["qubits"][1].update(t2_us=250.0), "$.qubits[1]"),
        (lambda d: d["qubits"][0].update(readout_p01=1.5), "$.qubits[0]"),
        (lambda d: d["qubits"][0].update(t1_us=True), "$.qubits[0].t1_us"),
        (lambda d: d["qubits"][0].update(extra=1.0), "$.qubits[0]"),
        (lambda d: d["edges"][0].update(cnot_error="high"), "$.edges[0].cnot_error"),
        (lambda d: d["edges"][1].update(coherent_axis="XY"), "$.edges[1]"),
        (lambda d: d["edges"][0].update(control=0, target=0), "$.edges[0]"),
        (lambda d: d["edges"][0].pop("duration_ns"), "$.edges[0].duration_ns"),
        (lambda d: d["physical_direction"].update({"1-0": 0}), "'1-0'"),
        (lambda d: d["physical_direction"].update({"0-1": 2}), "$"),
        # str.isdigit accepts these digits, and int() takes the Arabic-Indic ones.
        (lambda d: d["physical_direction"].update({"\u00b2-3": 0}), "$.physical_direction['\u00b2-3']"),
        (lambda d: d["physical_direction"].update({"0-\u0661": 0}), "$.physical_direction['0-\u0661']"),
        (lambda d: d["physical_direction"].update({"\u0660-1": 0}), "$.physical_direction['\u0660-1']"),
        (lambda d: d.update(extra={}), "$"),
        (lambda d: d.pop("edges"), "$.edges"),
    ],
)
def test_schema_errors_carry_paths(mutate, path_fragment):
    doc = sample_document()
    mutate(doc)
    with pytest.raises(SchemaError) as err:
        load_noise_model(doc)
    assert path_fragment in str(err.value)


def test_duplicate_edge_rejected():
    doc = sample_document()
    doc["edges"].append(dict(doc["edges"][0]))
    with pytest.raises(SchemaError, match="duplicate"):
        load_noise_model(doc)


def test_missing_physical_direction_rejected():
    doc = sample_document()
    doc["physical_direction"] = {}
    with pytest.raises(SchemaError, match="physical_direction"):
        load_noise_model(doc)


def test_qubit_params_validation():
    with pytest.raises(ValueError):
        QubitParams(100.0, 250.0, 0.0, 0.0, 0.0, 0.0)  # t2 > 2 t1
    with pytest.raises(ValueError):
        QubitParams(-1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        QubitParams(50.0, 50.0, 0.0, 1.2, 0.0, 0.0)
    # t2 up to 2*t1 and infinite times are legal
    QubitParams(50.0, 100.0, 0.0, 0.0, 0.0, 0.0)
    QubitParams(math.inf, math.inf, 0.0, 0.0, 0.0, 0.0)


def test_single_qubit_gate_rates():
    q = QubitParams(80.0, 100.0, 0.0, 0.0, 0.00042, 35.0)
    assert q.gate_error(GateKind.H) == 0.00042
    assert q.gate_error(GateKind.SX) == 0.00042
    assert q.gate_error(GateKind.X) == 0.00084  # full rotation costs double
    assert q.gate_error(GateKind.U) == 0.00084
    assert q.gate_duration_ns(GateKind.H) == 35.0
    assert q.gate_duration_ns(GateKind.X) == 70.0
    with pytest.raises(ValueError):
        q.gate_error(GateKind.CNOT)


def test_edge_params_validation():
    with pytest.raises(ValueError):
        DirectedEdgeParams(0, 0, 0.01, 100.0)
    with pytest.raises(ValueError):
        DirectedEdgeParams(0, 1, 0.01, 100.0, coherent_angle_rad=0.1)  # angle without axis
    with pytest.raises(ValueError):
        DirectedEdgeParams(0, 1, 0.01, 100.0, coherent_axis="YY", coherent_angle_rad=0.1)
    edge = DirectedEdgeParams(1, 0, 0.01, 100.0)
    assert edge.direction == (1, 0)


def test_model_cross_validation():
    quiet = QubitParams(math.inf, math.inf, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="physical_direction"):
        NoiseModel((quiet, quiet), (DirectedEdgeParams(0, 1, 0.0, 0.0),), {})
    with pytest.raises(ValueError, match="references qubit"):
        NoiseModel((quiet,), (DirectedEdgeParams(0, 1, 0.0, 0.0),), {(0, 1): 0})
    with pytest.raises(ValueError, match="duplicate"):
        NoiseModel(
            (quiet, quiet),
            (DirectedEdgeParams(0, 1, 0.0, 0.0), DirectedEdgeParams(0, 1, 0.1, 0.0)),
            {(0, 1): 0},
        )
    model = NoiseModel((quiet, quiet), (DirectedEdgeParams(0, 1, 0.0, 0.0),), {(0, 1): 1})
    with pytest.raises(ValueError, match=r"1 -> 0"):
        model.edge(1, 0)


def test_synth_model_factor_semantics():
    model = synth_asymmetric_model(0.01, 2.0)
    assert model.edge(0, 1).cnot_error == 0.01
    assert model.edge(1, 0).cnot_error == 0.02
    assert model.edge(0, 1).duration_ns == 348.0
    assert model.edge(1, 0).duration_ns == 384.0
    assert model.qubits[0] == model.qubits[1] == DEFAULT_QUBIT
    assert model.physical_direction == {(0, 1): 0}


def test_synth_model_validation_and_overrides():
    with pytest.raises(ValueError):
        synth_asymmetric_model(0.6, 2.0)  # boosted error above 1
    with pytest.raises(ValueError):
        synth_asymmetric_model(0.01, -1.0)
    quiet = QubitParams(math.inf, math.inf, 0.0, 0.0, 0.0, 0.0)
    model = synth_asymmetric_model(0.05, 1.0, durations_ns=(100.0, 100.0), qubit=quiet)
    assert model.edge(1, 0).cnot_error == pytest.approx(0.05)
    assert model.qubits[0] is quiet


def test_ideal_model_is_quiet():
    model = ideal_model(3)
    assert model.num_qubits == 3
    assert len(model.edges) == 6  # both directions of all three pairs
    for edge in model.edges:
        assert edge.cnot_error == 0.0 and edge.duration_ns == 0.0
    for q in model.qubits:
        assert q.t1_us == math.inf and q.readout_p01 == 0.0
