"""Direction-aware passes: correctness, optimality, idempotence."""

import itertools

import numpy as np
import pytest

from cnotbench.circuits import (
    Circuit,
    Gate,
    GateKind,
    build_n_stage,
    circuit_unitary,
    reverse_cnot,
    unitaries_equal_up_to_phase,
)
from cnotbench.noise import DirectedEdgeParams, QubitParams, synth_asymmetric_model
from cnotbench.transpiler import (
    CnotDecision,
    CouplingMap,
    TranspileReport,
    cancel_adjacent_hadamards,
    enforce_direction,
    estimate_success,
    orient_for_error,
)


def qubit(u2_error=0.0004):
    return QubitParams(80.0, 100.0, 0.0, 0.0, u2_error, 35.0)


def two_qubit_map(err_01, err_10, u2_error=0.0004, physical=0):
    return CouplingMap(
        num_qubits=2,
        edges={
            (0, 1): DirectedEdgeParams(0, 1, err_01, 300.0),
            (1, 0): DirectedEdgeParams(1, 0, err_10, 300.0),
        },
        physical_direction={(0, 1): physical},
        qubit_params=(qubit(u2_error), qubit(u2_error)),
    )


def triangle_map(errors, u2_error=0.0004):
    """Fully connected 3-qubit map; errors keyed by directed pair."""
    return CouplingMap(
        num_qubits=3,
        edges={
            d: DirectedEdgeParams(d[0], d[1], e, 300.0) for d, e in errors.items()
        },
        physical_direction={(0, 1): 0, (0, 2): 0, (1, 2): 1},
        qubit_params=(qubit(u2_error),) * 3,
    )


TRIANGLE = triangle_map(
    {
        (0, 1): 0.004,
        (1, 0): 0.011,
        (0, 2): 0.020,
        (2, 0): 0.003,
        (1, 2): 0.008,
        (2, 1): 0.009,
    }
)


# ── coupling map ────────────────────────────────────────────────────────


def test_coupling_map_lookup_and_errors():
    cmap = two_qubit_map(0.005, 0.008)
    assert cmap.has_edge(0, 1) and cmap.has_edge(1, 0)
    assert cmap.edge(1, 0).cnot_error == 0.008
    assert cmap.physical_control(1, 0) == 0
    with pytest.raises(ValueError, match=r"\(0 -> 2\)"):
        cmap.edge(0, 2)
    with pytest.raises(ValueError, match="not a coupled pair"):
        cmap.physical_control(0, 2)


def test_coupling_map_validation():
    edge = DirectedEdgeParams(0, 1, 0.01, 300.0)
    with pytest.raises(ValueError, match="describes"):
        CouplingMap(2, {(1, 0): edge}, {(0, 1): 0})
    with pytest.raises(ValueError, match="outside register"):
        CouplingMap(2, {(0, 1): edge, (2, 1): DirectedEdgeParams(2, 1, 0.01, 300.0)}, {(0, 1): 0})
    with pytest.raises(ValueError, match="physical control"):
        CouplingMap(2, {(0, 1): edge}, {(0, 1): 2})
    with pytest.raises(ValueError, match="parameter set"):
        CouplingMap(2, {(0, 1): edge}, {(0, 1): 0}, qubit_params=(qubit(),))


def test_from_noise_model_round_trip():
    model = synth_asymmetric_model(0.01, 2.0)
    cmap = CouplingMap.from_noise_model(model)
    assert cmap.num_qubits == 2
    assert cmap.edge(0, 1).cnot_error == 0.01
    assert cmap.edge(1, 0).cnot_error == 0.02
    assert cmap.physical_control(0, 1) == 0
    assert cmap.qubit_params == model.qubits
    again = CouplingMap.from_document(model.to_document())
    assert again.edges == cmap.edges


# ── success estimation ──────────────────────────────────────────────────


def test_estimate_success_frozen_sandwich_cost():
    # four half-rotations at 4e-4 each around a 5e-3 CNOT
    cmap = two_qubit_map(0.005, 0.005)
    circuit = Circuit(2, 0, reverse_cnot(0, 1))
    assert estimate_success(circuit, cmap) == pytest.approx(0.9934089549453057, abs=1e-15)


def test_estimate_success_skips_barriers_and_measures():
    cmap = two_qubit_map(0.005, 0.008)
    bare = Circuit(2, 0, (Gate.cnot(0, 1),))
    dressed = Circuit(
        2, 2, (Gate.barrier(0, 1), Gate.cnot(0, 1), Gate.barrier(0, 1), Gate.measure(0, 0), Gate.measure(1, 1))
    )
    assert estimate_success(dressed, cmap) == estimate_success(bare, cmap) == 0.995


def test_estimate_success_full_rotation_costs_double():
    cmap = two_qubit_map(0.005, 0.008, u2_error=0.001)
    half = Circuit(2, 0, (Gate.h(0),))
    full = Circuit(2, 0, (Gate.x(0),))
    assert estimate_success(half, cmap) == 0.999
    assert estimate_success(full, cmap) == 0.998


def test_estimate_success_needs_parameters_for_single_qubit_gates():
    cmap = CouplingMap(2, {(0, 1): DirectedEdgeParams(0, 1, 0.01, 300.0)}, {(0, 1): 0})
    with pytest.raises(ValueError, match="qubit parameters"):
        estimate_success(Circuit(2, 0, (Gate.h(0),)), cmap)
    # CNOT-only circuits are fine without them
    assert estimate_success(Circuit(2, 0, (Gate.cnot(0, 1),)), cmap) == 0.99


def test_estimate_success_is_the_product_in_circuit_order():
    cmap = two_qubit_map(0.0131, 0.0047, u2_error=0.00037)
    body = (Gate.h(0), Gate.cnot(0, 1), Gate.u(1, 0.1, 0.2, 0.3), Gate.sx(0), Gate.cnot(1, 0),
            Gate.h(0), Gate.x(1), Gate.cnot(0, 1), Gate.u(1, 0.4, 0.5, 0.6), Gate.h(0)) * 7
    expected = 1.0
    for gate in body:
        if gate.kind is GateKind.CNOT:
            expected *= 1.0 - cmap.edge(*gate.qubits).cnot_error
        else:
            expected *= 1.0 - cmap.qubit_params[gate.qubits[0]].gate_error(gate.kind)
    assert estimate_success(Circuit(2, 0, body), cmap) == expected


# ── enforce_direction ───────────────────────────────────────────────────


def test_enforce_keeps_aligned_cnots():
    cmap = two_qubit_map(0.005, 0.008, physical=0)
    circuit = build_n_stage(0, 1, 2)
    report = enforce_direction(circuit, cmap)
    assert report.circuit == circuit
    assert all(d.realization == "direct" for d in report.decisions)
    assert report.gates_before == report.gates_after == 8


def test_enforce_rewrites_misaligned_cnots():
    cmap = two_qubit_map(0.005, 0.008, physical=1)
    circuit = build_n_stage(0, 1, 1)
    report = enforce_direction(circuit, cmap)
    assert [d.realization for d in report.decisions] == ["sandwich", "sandwich"]
    assert report.gates_after == report.gates_before + 8
    kinds = [g.kind for g in report.circuit.instructions]
    assert kinds.count(GateKind.CNOT) == 2
    for g in report.circuit.instructions:
        if g.kind is GateKind.CNOT:
            assert (g.control, g.target) == (1, 0)
    # measurement map untouched
    assert report.circuit.measured_pairs() == circuit.measured_pairs()


def test_enforce_unknown_pair_is_an_error():
    cmap = two_qubit_map(0.005, 0.008)
    big = Circuit(3, 0, (Gate.cnot(0, 2),))
    big_map = CouplingMap(3, cmap.edges, cmap.physical_direction, cmap.qubit_params + (qubit(),))
    with pytest.raises(ValueError, match="not a coupled pair"):
        enforce_direction(big, big_map)


# ── orient_for_error ────────────────────────────────────────────────────


def test_orient_prefers_strictly_better_sandwich():
    # direct 0->1 error 0.02 vs sandwich over 1->0 at 0.003: sandwich wins
    cmap = two_qubit_map(0.020, 0.003)
    report = orient_for_error(Circuit(2, 0, (Gate.cnot(0, 1),)), cmap)
    (decision,) = report.decisions
    assert decision.realization == "sandwich"
    assert decision.est_success_direct == pytest.approx(0.980)
    assert decision.est_success_sandwich == pytest.approx((1 - 0.0004) ** 4 * 0.997)
    assert report.estimated_success == decision.est_success_sandwich


def test_orient_tie_keeps_direct():
    # make both realizations exactly equal with zero-cost Hadamards
    cmap = two_qubit_map(0.006, 0.006, u2_error=0.0)
    report = orient_for_error(Circuit(2, 0, (Gate.cnot(0, 1),)), cmap)
    (decision,) = report.decisions
    assert decision.est_success_direct == decision.est_success_sandwich == 0.994
    assert decision.realization == "direct"
    assert report.gates_after == 1


def test_orient_uses_reverse_when_direction_is_uncharacterized():
    cmap = CouplingMap(
        2,
        {(1, 0): DirectedEdgeParams(1, 0, 0.01, 300.0)},
        {(0, 1): 1},
        qubit_params=(qubit(), qubit()),
    )
    report = orient_for_error(Circuit(2, 0, (Gate.cnot(0, 1),)), cmap)
    (decision,) = report.decisions
    assert decision.realization == "sandwich"
    assert decision.est_success_direct is None


def test_orient_missing_parameters_for_needed_sandwich():
    cmap = CouplingMap(2, {(1, 0): DirectedEdgeParams(1, 0, 0.01, 300.0)}, {(0, 1): 1})
    with pytest.raises(ValueError, match="sandwich"):
        orient_for_error(Circuit(2, 0, (Gate.cnot(0, 1),)), cmap)


def random_cnot_circuits(rng, count=40, max_cnots=4):
    """Small 3-qubit circuits mixing CNOTs with single-qubit gates."""
    directions = list(TRIANGLE.edges)
    out = []
    for _ in range(count):
        gates: list[Gate] = []
        for _ in range(int(rng.integers(0, max_cnots + 1))):
            if rng.random() < 0.3:
                gates.append(Gate.h(int(rng.integers(0, 3))))
            c, t = directions[int(rng.integers(0, len(directions)))]
            gates.append(Gate.cnot(c, t))
        out.append(Circuit(3, 0, tuple(gates)))
    return out


def test_passes_preserve_unitaries():
    rng = np.random.default_rng(99)
    for circuit in random_cnot_circuits(rng):
        expected = circuit_unitary(circuit)
        for pass_fn in (enforce_direction, orient_for_error):
            rewritten = pass_fn(circuit, TRIANGLE).circuit
            assert unitaries_equal_up_to_phase(circuit_unitary(rewritten), expected)


def test_orient_matches_brute_force_optimum():
    # success factorizes per gate, so per-CNOT choice must equal the best
    # over all 2^k realization assignments
    rng = np.random.default_rng(7)
    for circuit in random_cnot_circuits(rng, count=25, max_cnots=4):
        report = orient_for_error(circuit, TRIANGLE)
        cnot_positions = [
            i for i, g in enumerate(circuit.instructions) if g.kind is GateKind.CNOT
        ]
        best = None
        for choice in itertools.product(("direct", "sandwich"), repeat=len(cnot_positions)):
            gates: list[Gate] = []
            for i, g in enumerate(circuit.instructions):
                if g.kind is GateKind.CNOT and choice[cnot_positions.index(i)] == "sandwich":
                    gates.extend(reverse_cnot(g.control, g.target))
                else:
                    gates.append(g)
            candidate = estimate_success(Circuit(3, 0, tuple(gates)), TRIANGLE)
            best = candidate if best is None else max(best, candidate)
        if best is None:
            assert report.estimated_success == 1.0
        else:
            assert report.estimated_success == pytest.approx(best, abs=1e-12)


def test_both_passes_are_idempotent():
    rng = np.random.default_rng(31)
    for circuit in random_cnot_circuits(rng, count=15):
        for pass_fn in (enforce_direction, orient_for_error):
            once = pass_fn(circuit, TRIANGLE)
            twice = pass_fn(once.circuit, TRIANGLE)
            assert twice.circuit == once.circuit
            assert twice.estimated_success == once.estimated_success


def test_decision_lines_are_json():
    import json

    cmap = two_qubit_map(0.02, 0.003)
    report = orient_for_error(build_n_stage(0, 1, 1), cmap)
    lines = report.decision_lines()
    assert len(lines) == 2
    doc = json.loads(lines[0])
    assert doc["logical"] == [0, 1]
    assert doc["realization"] == "sandwich"


def test_decision_lines_match_per_decision_json():
    import json

    circuit = Circuit(2, 0, (Gate.cnot(0, 1), Gate.h(0), Gate.cnot(1, 0), Gate.cnot(0, 1)) * 3)
    for pass_fn in (enforce_direction, orient_for_error):
        report = pass_fn(circuit, two_qubit_map(0.02, 0.003))
        assert report.decision_lines() == [json.dumps(d.to_document(), sort_keys=True)
                                           for d in report.decisions]
    decisions = (CnotDecision(0, 0, 1, "direct", 0.0, None), CnotDecision(7, 0, 1, "direct", -0.0, None))
    report = TranspileReport(circuit, decisions, None, 0, 0, None)
    assert report.decision_lines() == [json.dumps(d.to_document(), sort_keys=True) for d in decisions]


# ── Hadamard cleanup ────────────────────────────────────────────────────


def test_cancel_adjacent_hadamards():
    circuit = Circuit(
        2,
        0,
        (Gate.h(0), Gate.h(0), Gate.h(1), Gate.cnot(0, 1), Gate.h(1), Gate.h(1)),
    )
    cleaned = cancel_adjacent_hadamards(circuit)
    assert cleaned.instructions == (Gate.h(1), Gate.cnot(0, 1))


def test_cancel_respects_barriers_and_measures():
    blocked = Circuit(2, 1, (Gate.h(0), Gate.barrier(0, 1), Gate.h(0)))
    assert cancel_adjacent_hadamards(blocked).instructions == blocked.instructions
    measured = Circuit(1, 1, (Gate.h(0), Gate.measure(0, 0), Gate.h(0)))
    assert cancel_adjacent_hadamards(measured).instructions == measured.instructions


def test_cancel_only_pairs_on_the_same_qubit():
    crossed = Circuit(2, 0, (Gate.h(0), Gate.h(1), Gate.h(0)))
    cleaned = cancel_adjacent_hadamards(crossed)
    assert cleaned.instructions == (Gate.h(1),)
    expected = circuit_unitary(crossed)
    assert unitaries_equal_up_to_phase(circuit_unitary(cleaned), expected)


def test_cancel_shrinks_double_sandwich():
    # enforce on a misaligned 2-stage circuit creates back-to-back H pairs
    # only where no barrier intervenes
    cmap = two_qubit_map(0.005, 0.008, physical=1)
    report = enforce_direction(build_n_stage(0, 1, 1), cmap)
    cleaned = cancel_adjacent_hadamards(report.circuit)
    assert cleaned.unitary_gate_count < report.circuit.unitary_gate_count
    expected = circuit_unitary(build_n_stage(0, 1, 1).without_measurements())
    assert unitaries_equal_up_to_phase(
        circuit_unitary(cleaned.without_measurements()), expected
    )
