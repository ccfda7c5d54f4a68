"""Direction-aware CNOT passes over the circuit IR.

enforce_direction rewrites every CNOT onto the hardware's physical
control direction using the Hadamard sandwich. orient_for_error instead
picks, per CNOT, whichever realization maximizes the product of per-gate
success probabilities (1 - error), consuming the dual-direction error
rates carried by the coupling map.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass

from .circuits import Circuit, Gate, GateKind, reverse_cnot
from .noise import DirectedEdgeParams, NoiseModel, QubitParams, load_noise_model

__all__ = [
    "CouplingMap",
    "CnotDecision",
    "TranspileReport",
    "enforce_direction",
    "orient_for_error",
    "estimate_success",
    "cancel_adjacent_hadamards",
]


@dataclass(frozen=True)
class CouplingMap:
    """Directed CNOT characterization plus the hardware control direction.

    Shares the noise-model document schema, so a calibration snapshot
    serves both the simulator and the transpiler. qubit_params supplies
    single-qubit error rates for success estimates when present.
    """

    num_qubits: int
    edges: dict[tuple[int, int], DirectedEdgeParams]
    physical_direction: dict[tuple[int, int], int]
    qubit_params: tuple[QubitParams, ...] | None = None

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError(f"coupling map needs at least one qubit, got {self.num_qubits}")
        for direction, edge in self.edges.items():
            if direction != edge.direction:
                raise ValueError(f"edge stored under {direction} describes {edge.direction}")
            if max(direction) >= self.num_qubits:
                raise ValueError(f"edge {direction} outside register of {self.num_qubits}")
        for pair, ctrl in self.physical_direction.items():
            a, b = pair
            if not (0 <= a < b < self.num_qubits):
                raise ValueError(f"pair {pair} is not ordered and in range")
            if ctrl not in pair:
                raise ValueError(f"physical control {ctrl} not in pair {pair}")
        if self.qubit_params is not None and len(self.qubit_params) != self.num_qubits:
            raise ValueError(
                f"{len(self.qubit_params)} qubit parameter set(s) for {self.num_qubits} qubit(s)"
            )

    @classmethod
    def from_noise_model(cls, model: NoiseModel) -> "CouplingMap":
        return cls(
            num_qubits=model.num_qubits,
            edges={e.direction: e for e in model.edges},
            physical_direction=dict(model.physical_direction),
            qubit_params=model.qubits,
        )

    @classmethod
    def from_document(cls, document: dict) -> "CouplingMap":
        return cls.from_noise_model(load_noise_model(document))

    def has_edge(self, control: int, target: int) -> bool:
        return (control, target) in self.edges

    def edge(self, control: int, target: int) -> DirectedEdgeParams:
        try:
            return self.edges[(control, target)]
        except KeyError:
            raise ValueError(f"no edge characterization for ({control} -> {target})") from None

    def physical_control(self, a: int, b: int) -> int:
        pair = (min(a, b), max(a, b))
        try:
            return self.physical_direction[pair]
        except KeyError:
            raise ValueError(f"qubits {pair} are not a coupled pair") from None


@dataclass(frozen=True)
class CnotDecision:
    """How one logical CNOT was realized and what each option scored."""

    index: int
    control: int
    target: int
    realization: str  # "direct" | "sandwich"
    est_success_direct: float | None
    est_success_sandwich: float | None

    def to_document(self) -> dict:
        return {
            "index": self.index,
            "logical": [self.control, self.target],
            "realization": self.realization,
            "est_success_direct": self.est_success_direct,
            "est_success_sandwich": self.est_success_sandwich,
        }


@dataclass(frozen=True)
class TranspileReport:
    """Rewritten circuit, per-CNOT decisions, and the success estimate.

    estimate_error says why estimated_success is None.
    """

    circuit: Circuit
    decisions: tuple[CnotDecision, ...]
    estimated_success: float | None
    gates_before: int
    gates_after: int
    estimate_error: str | None

    def decision_lines(self) -> list[str]:
        # Decisions that differ only in index share one rendering around it.
        # Zero scores are not shared: 0.0 == -0.0, but they render differently.
        shared: dict[tuple, tuple[str, str]] = {}
        lines = []
        for d in self.decisions:
            key = (d.control, d.target, d.realization, d.est_success_direct, d.est_success_sandwich)
            parts = shared.get(key)
            if parts is None:
                slot = f'"index": {d.index}'
                head, _, tail = json.dumps(d.to_document(), sort_keys=True).partition(slot)
                parts = (head + '"index": ', tail)
                if 0 not in key[3:]:
                    shared[key] = parts
            lines.append(f"{parts[0]}{d.index}{parts[1]}")
        return lines


# ── success estimation ──────────────────────────────────────────────────


def _single_qubit_success(gate: Gate, cmap: CouplingMap) -> float:
    params = cmap.qubit_params
    if params is None:
        raise ValueError("single-qubit error rates are needed but no qubit parameters were given")
    return 1.0 - params[gate.qubits[0]].gate_error(gate.kind)


def estimate_success(circuit: Circuit, cmap: CouplingMap) -> float:
    """Product of per-gate success probabilities (1 - error) over the circuit.

    Barriers and measurements contribute nothing; every CNOT direction used
    must be characterized on the map.
    """
    success = 1.0
    # Each (kind, qubits) factor is derived once; the product keeps circuit order.
    factors: dict[tuple[GateKind, tuple[int, ...]], float] = {}
    for gate in circuit.instructions:
        if gate.kind is GateKind.BARRIER or gate.kind is GateKind.MEASURE:
            continue
        key = (gate.kind, gate.qubits)
        factor = factors.get(key)
        if factor is None:
            if gate.kind is GateKind.CNOT:
                factor = 1.0 - cmap.edge(gate.control, gate.target).cnot_error
            else:
                factor = _single_qubit_success(gate, cmap)
            factors[key] = factor
        success *= factor
    return success


def _cnot_options(control: int, target: int, cmap: CouplingMap) -> tuple[float | None, float | None]:
    """Success of the direct and sandwich realizations, where computable."""
    params = cmap.qubit_params
    direct = None
    if cmap.has_edge(control, target):
        direct = 1.0 - cmap.edge(control, target).cnot_error
    sandwich = None
    if cmap.has_edge(target, control) and params is not None:
        h_success = (1.0 - params[control].gate_error(GateKind.H)) ** 2
        h_success *= (1.0 - params[target].gate_error(GateKind.H)) ** 2
        sandwich = h_success * (1.0 - cmap.edge(target, control).cnot_error)
    return direct, sandwich


def _finish(
    original: Circuit, rewritten: list[Gate], decisions: list[CnotDecision], cmap: CouplingMap
) -> TranspileReport:
    circuit = Circuit(original.num_qubits, original.num_clbits, tuple(rewritten))
    if circuit.num_qubits > cmap.num_qubits:
        for gate in circuit.instructions:
            if gate.is_unitary and max(gate.qubits) >= cmap.num_qubits:
                raise ValueError(
                    f"{gate.kind.value} on qubit {max(gate.qubits)} is outside the "
                    f"{cmap.num_qubits}-qubit coupling map"
                )
    success: float | None = None
    error = None
    try:
        success = estimate_success(circuit, cmap)
    except ValueError as exc:
        error = str(exc)
    return TranspileReport(
        circuit=circuit,
        decisions=tuple(decisions),
        estimated_success=success,
        gates_before=original.unitary_gate_count,
        gates_after=circuit.unitary_gate_count,
        estimate_error=error,
    )


# ── passes ──────────────────────────────────────────────────────────────


def _rewrite(
    circuit: Circuit, cmap: CouplingMap, choose: Callable[[int, int, float | None, float | None], str]
) -> TranspileReport:
    """Realize each CNOT as choose(control, target, direct, sandwich) says.

    Options, choice and sandwich gates are worked out once per direction.
    """
    rewritten: list[Gate] = []
    decisions: list[CnotDecision] = []
    plans: dict[tuple[int, ...], tuple[str, float | None, float | None, tuple[Gate, ...]]] = {}
    for index, gate in enumerate(circuit.instructions):
        if gate.kind is not GateKind.CNOT:
            rewritten.append(gate)
            continue
        plan = plans.get(gate.qubits)
        if plan is None:
            control, target = gate.qubits
            direct, sandwich = _cnot_options(control, target, cmap)
            realization = choose(control, target, direct, sandwich)
            # Gates are immutable, so every CNOT on this direction can share them.
            gates = reverse_cnot(control, target) if realization == "sandwich" else (gate,)
            plan = plans[gate.qubits] = (realization, direct, sandwich, gates)
        realization, direct, sandwich, gates = plan
        rewritten.extend(gates)
        decisions.append(CnotDecision(index, *gate.qubits, realization, direct, sandwich))
    return _finish(circuit, rewritten, decisions, cmap)


def enforce_direction(circuit: Circuit, cmap: CouplingMap) -> TranspileReport:
    """Realize every CNOT in the hardware's physical control direction.

    A CNOT already oriented with the physical direction is kept; the
    reversed one becomes the Hadamard sandwich. CNOTs on uncoupled pairs
    are errors.
    """

    def choose(control: int, target: int, direct, sandwich) -> str:
        return "direct" if control == cmap.physical_control(control, target) else "sandwich"

    return _rewrite(circuit, cmap, choose)


def orient_for_error(circuit: Circuit, cmap: CouplingMap) -> TranspileReport:
    """Pick per-CNOT realizations maximizing the success product.

    The sandwich is chosen only when it strictly beats the direct
    realization, so ties keep the cheaper direct form and a second pass
    changes nothing.
    """

    def choose(control: int, target: int, direct, sandwich) -> str:
        if direct is None and sandwich is None:
            if cmap.has_edge(target, control) and cmap.qubit_params is None:
                raise ValueError(
                    "qubit parameters are needed to cost the sandwich realization"
                )
            raise ValueError(f"qubits ({control}, {target}) are not a coupled pair")
        if direct is None or (sandwich is not None and sandwich > direct):
            return "sandwich"
        return "direct"

    return _rewrite(circuit, cmap, choose)


def cancel_adjacent_hadamards(circuit: Circuit) -> Circuit:
    """Drop H pairs with nothing in between on that qubit.

    Barriers and measurements act as fences: a pair straddling one is
    kept. Off by default in the CLI since it can erase deliberate
    sandwich structure.
    """
    dropped: set[int] = set()
    pending: dict[int, int] = {}  # qubit -> index of an uncancelled H
    for index, gate in enumerate(circuit.instructions):
        if gate.kind is GateKind.H:
            q = gate.qubits[0]
            if q in pending:
                dropped.add(pending.pop(q))
                dropped.add(index)
            else:
                pending[q] = index
            continue
        for q in gate.qubits:
            pending.pop(q, None)
    kept = tuple(g for i, g in enumerate(circuit.instructions) if i not in dropped)
    return Circuit(circuit.num_qubits, circuit.num_clbits, kept)
