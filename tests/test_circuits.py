"""Circuit IR: construction, structure counts, matrix oracles, serialization."""

import math

import numpy as np
import pytest

from cnotbench.circuits import (
    CNOT_MATRIX,
    Circuit,
    Gate,
    GateKind,
    H_MATRIX,
    SX_MATRIX,
    X_MATRIX,
    build_identity_op,
    build_n_stage,
    build_readout_calibration_circuits,
    circuit_unitary,
    embed_operator,
    gate_unitary,
    reverse_cnot,
    u_matrix,
    unitaries_equal_up_to_phase,
)


# ── gate and circuit validation ─────────────────────────────────────────


def test_gate_constructors_and_accessors():
    cx = Gate.cnot(1, 0)
    assert cx.control == 1 and cx.target == 0
    assert Gate.h(0).qubits == (0,)
    assert Gate.u(0, 0.1, 0.2, 0.3).params == (0.1, 0.2, 0.3)
    m = Gate.measure(1, 0)
    assert m.qubits == (1,) and m.clbits == (0,)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Gate.cnot(1, 1),
        lambda: Gate.h(-1),
        lambda: Gate.u(0, math.nan, 0.0, 0.0),
        lambda: Gate(GateKind.H, (0, 1)),
        lambda: Gate(GateKind.U, (0,)),
        lambda: Gate(GateKind.BARRIER, ()),
        lambda: Gate(GateKind.MEASURE, (0,)),
        lambda: Gate(GateKind.H, (0,), clbits=(0,)),
    ],
)
def test_bad_gates_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(1, 0, (Gate.h(1),))  # qubit out of range
    with pytest.raises(ValueError):
        Circuit(2, 1, (Gate.measure(0, 0), Gate.measure(0, 0)))  # qubit twice
    with pytest.raises(ValueError):
        Circuit(2, 1, (Gate.measure(0, 0), Gate.measure(1, 0)))  # clbit twice
    with pytest.raises(ValueError):
        Circuit(2, 0, (Gate.measure(0, 0),))  # clbit out of range


def test_circuit_is_immutable():
    circ = build_identity_op(0, 1)
    with pytest.raises(Exception):
        circ.num_qubits = 3
    assert isinstance(circ.instructions, tuple)


# ── benchmark constructors ──────────────────────────────────────────────


def test_identity_op_structure():
    circ = build_identity_op(0, 1)
    kinds = [g.kind for g in circ.instructions]
    assert kinds == [GateKind.H, GateKind.CNOT, GateKind.BARRIER, GateKind.CNOT, GateKind.H]
    # the H's sit on the control, both CNOTs share the orientation
    assert circ.instructions[0].qubits == (0,)
    assert circ.instructions[1].control == 0 and circ.instructions[1].target == 1
    with pytest.raises(ValueError):
        build_identity_op(1, 1)


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("pair", [(0, 1), (1, 0)])
def test_n_stage_counts(pair, n):
    circ = build_n_stage(pair[0], pair[1], n)
    assert circ.unitary_gate_count == 4 * n
    assert circ.barrier_count == 2 * n - 1
    assert circ.measurement_count == 2
    # lower qubit index lands in classical bit 0 for either orientation
    assert circ.measured_pairs() == ((0, 0), (1, 1))


def test_n_stage_rejects_bad_args():
    with pytest.raises(ValueError):
        build_n_stage(0, 1, 0)
    with pytest.raises(ValueError):
        build_n_stage(2, 2, 1)


def test_reverse_cnot_sequence_shape():
    seq = reverse_cnot(0, 1)
    assert [g.kind for g in seq] == [
        GateKind.H,
        GateKind.H,
        GateKind.CNOT,
        GateKind.H,
        GateKind.H,
    ]
    assert seq[2].control == 1 and seq[2].target == 0


def test_calibration_circuits_prepare_each_basis_state():
    circs = build_readout_calibration_circuits(2)
    assert len(circs) == 4
    # circuit i applies X exactly on the set bits of i
    for i, circ in enumerate(circs):
        x_qubits = {g.qubits[0] for g in circ.instructions if g.kind is GateKind.X}
        assert x_qubits == {j for j in range(2) if (i >> j) & 1}
        assert circ.measurement_count == 2
    with pytest.raises(ValueError):
        build_readout_calibration_circuits(4)
    on_pair = build_readout_calibration_circuits(2, qubits=(1, 2))
    assert on_pair[1].instructions[0].qubits == (1,)  # bit 0 of basis 1 -> qubit 1


# ── matrix oracles ──────────────────────────────────────────────────────


def test_gate_matrix_identities():
    # SX*SX is exactly X; U(pi/2, 0, pi) is exactly H
    assert np.max(np.abs(SX_MATRIX @ SX_MATRIX - X_MATRIX)) < 1e-15
    assert np.max(np.abs(u_matrix(math.pi / 2, 0.0, math.pi) - H_MATRIX)) < 1e-15
    # columns of CNOT follow the little-endian convention: input "01"
    # (qubit 0 set) flips qubit 1 and lands on "11"
    assert CNOT_MATRIX[3, 1] == 1.0
    assert CNOT_MATRIX[1, 3] == 1.0
    for matrix in (H_MATRIX, X_MATRIX, SX_MATRIX, CNOT_MATRIX):
        assert np.max(np.abs(matrix @ matrix.conj().T - np.eye(len(matrix)))) < 1e-12


def test_embed_operator_little_endian():
    # X on qubit 0 of two: kron(I, X)
    full = embed_operator(X_MATRIX, (0,), 2)
    assert np.array_equal(full, np.kron(np.eye(2), X_MATRIX))
    full = embed_operator(X_MATRIX, (1,), 2)
    assert np.array_equal(full, np.kron(X_MATRIX, np.eye(2)))
    # embedding CNOT with swapped qubit order reverses control/target
    swapped = embed_operator(CNOT_MATRIX, (1, 0), 2)
    direct = embed_operator(CNOT_MATRIX, (0, 1), 2)
    assert not np.array_equal(swapped, direct)
    assert np.max(np.abs(swapped @ swapped - np.eye(4))) < 1e-12


@pytest.mark.parametrize("pair", [(0, 1), (1, 0)])
@pytest.mark.parametrize("n", range(1, 7))
def test_n_stage_composes_to_identity(pair, n):
    circ = build_n_stage(pair[0], pair[1], n).without_measurements()
    unitary = circuit_unitary(circ)
    assert np.max(np.abs(unitary - np.eye(4))) < 1e-12


@pytest.mark.parametrize("pair", [(0, 1), (1, 0), (0, 2), (2, 1)])
def test_reverse_cnot_equals_cnot(pair):
    control, target = pair
    num_qubits = max(pair) + 1
    circ = Circuit(num_qubits, 0, reverse_cnot(control, target))
    sandwich = circuit_unitary(circ)
    direct = embed_operator(CNOT_MATRIX, (control, target), num_qubits)
    assert np.max(np.abs(sandwich - direct)) < 1e-12


def test_unitaries_equal_up_to_phase():
    u = circuit_unitary(build_identity_op(0, 1))
    assert unitaries_equal_up_to_phase(u, np.eye(4) * np.exp(0.3j))
    assert not unitaries_equal_up_to_phase(u, embed_operator(X_MATRIX, (0,), 2))


def test_circuit_unitary_rejects_measurements():
    with pytest.raises(ValueError):
        circuit_unitary(build_n_stage(0, 1, 1))


def test_gate_unitary_rejects_non_unitary_kinds():
    with pytest.raises(ValueError):
        gate_unitary(Gate.barrier(0))


# ── serialization ───────────────────────────────────────────────────────


def test_circuit_round_trip():
    circ = build_n_stage(1, 0, 3)
    doc = circ.to_document()
    again = Circuit.from_document(doc)
    assert again == circ
    assert again.to_document() == doc


def test_circuit_round_trip_with_params():
    circ = Circuit(2, 0, (Gate.u(0, 0.1, -0.2, 0.3), Gate.sx(1), Gate.cnot(0, 1)))
    assert Circuit.from_document(circ.to_document()) == circ


def test_from_document_rejects_garbage():
    with pytest.raises(ValueError):
        Circuit.from_document({"num_qubits": 2, "num_clbits": 0})
    with pytest.raises(ValueError):
        Circuit.from_document(
            {"num_qubits": 2, "num_clbits": 0, "instructions": [{"kind": "CPHASE", "qubits": [0, 1]}]}
        )
    with pytest.raises(ValueError):
        Circuit.from_document(
            {"num_qubits": 2, "num_clbits": 0, "instructions": [], "extra": 1}
        )


# ── parsing shares one Gate per distinct instruction ────────────────────


def test_interned_parse_still_type_checks_every_instruction():
    for later in ([True], [1.0], ["1"], 1):
        doc = {
            "num_qubits": 2,
            "num_clbits": 0,
            "instructions": [{"kind": "H", "qubits": [1]}, {"kind": "H", "qubits": later}],
        }
        with pytest.raises(ValueError, match="qubits must be a list of int"):
            Circuit.from_document(doc)
    doc = {
        "num_qubits": 1,
        "num_clbits": 0,
        "instructions": [{"kind": "U", "qubits": [0], "params": [1, 0, 0]},
                         {"kind": "U", "qubits": [0], "params": [True, 0, 0]}],
    }
    with pytest.raises(ValueError, match="params must be a list of int or float"):
        Circuit.from_document(doc)


def test_interned_parse_equals_per_document_parse():
    instructions = [
        {"kind": "H", "qubits": [0]},
        {"kind": "CNOT", "qubits": [0, 2]},
        {"kind": "H", "qubits": [0]},
        {"kind": "U", "qubits": [1], "params": [0.5, 0, -1.25]},
        {"kind": "U", "qubits": [1], "params": [0.5, 0.0, -1.25]},
        {"kind": "U", "qubits": [1], "params": [0.5, -0.0, -1.25]},
        {"kind": "BARRIER", "qubits": [2, 0, 1]},
        {"kind": "CNOT", "qubits": [0, 2]},
        {"kind": "MEASURE", "qubits": [2], "clbits": [0]},
    ]
    doc = {"num_qubits": 3, "num_clbits": 1, "instructions": instructions}
    parsed = Circuit.from_document(doc)
    assert parsed.instructions == tuple(Gate.from_document(g) for g in instructions)
    assert parsed.instructions[0] is parsed.instructions[2]
    assert parsed.instructions[1] is parsed.instructions[7]
    # 0 and 0.0 are one gate; -0.0 keeps its sign.
    assert parsed.instructions[3] is parsed.instructions[4]
    assert math.copysign(1.0, parsed.instructions[5].params[1]) == -1.0
    assert parsed.to_document()["instructions"][5]["params"] == [0.5, -0.0, -1.25]


def test_memoized_circuit_unitary_matches_per_gate_fold():
    body = (
        Gate.h(0), Gate.u(1, 0.3, -0.7, 1.1), Gate.cnot(0, 2), Gate.barrier(0, 1, 2),
        Gate.sx(2), Gate.u(1, 0.3, -0.7, 1.1), Gate.h(0), Gate.cnot(2, 1), Gate.x(1),
        Gate.cnot(0, 2), Gate.u(0, 2.0, 0.1, -0.4), Gate.h(0),
    )
    circ = Circuit(3, 0, body)
    fold = np.eye(8, dtype=complex)
    for gate in body:
        if gate.kind is not GateKind.BARRIER:
            fold = embed_operator(gate_unitary(gate), gate.qubits, 3) @ fold
    assert np.array_equal(circuit_unitary(circ), fold)
