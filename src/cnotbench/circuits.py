"""Circuit IR for small CNOT-direction benchmarks.

Gates, immutable circuits, and the benchmark constructors: the Bell-pair
identity block, its n-stage repetition, the Hadamard-sandwich CNOT
reversal, and readout calibration circuits.

Bitstrings are little-endian throughout: qubit 0 is the least significant
(rightmost) character, so "01" means qubit 0 is 1 and qubit 1 is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "GateKind",
    "Gate",
    "Circuit",
    "UNITARY_KINDS",
    "build_identity_op",
    "build_n_stage",
    "reverse_cnot",
    "build_readout_calibration_circuits",
    "gate_unitary",
    "embed_operator",
    "circuit_unitary",
    "unitaries_equal_up_to_phase",
    "H_MATRIX",
    "X_MATRIX",
    "SX_MATRIX",
    "CNOT_MATRIX",
    "u_matrix",
]


class GateKind(Enum):
    H = "H"
    X = "X"
    SX = "SX"
    U = "U"
    CNOT = "CNOT"
    BARRIER = "BARRIER"
    MEASURE = "MEASURE"

    # Members are singletons, so identity hashing agrees with equality and
    # is cheaper than Enum's hash of the name.
    __hash__ = object.__hash__


UNITARY_KINDS = frozenset(
    {GateKind.H, GateKind.X, GateKind.SX, GateKind.U, GateKind.CNOT}
)

# Fixed arity per kind; barriers take any non-empty qubit set.
_ARITY = {
    GateKind.H: 1,
    GateKind.X: 1,
    GateKind.SX: 1,
    GateKind.U: 1,
    GateKind.CNOT: 2,
    GateKind.MEASURE: 1,
}


@dataclass(frozen=True)
class Gate:
    """One instruction: a unitary gate, a barrier, or a measurement.

    For CNOT, qubits[0] is the control and qubits[1] the target. U takes
    three Euler angles (theta, phi, lam); no other kind takes parameters.
    """

    kind: GateKind
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    clbits: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", tuple(map(int, self.qubits)))
        object.__setattr__(self, "params", tuple(map(float, self.params)))
        object.__setattr__(self, "clbits", tuple(map(int, self.clbits)))

        if self.qubits and min(self.qubits) < 0:
            raise ValueError(f"negative qubit index in {self.qubits}")
        if self.clbits and min(self.clbits) < 0:
            raise ValueError(f"negative classical bit index in {self.clbits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.kind.value} addresses a qubit twice: {self.qubits}")

        if self.kind is GateKind.BARRIER:
            if not self.qubits:
                raise ValueError("barrier needs at least one qubit")
        elif len(self.qubits) != _ARITY[self.kind]:
            raise ValueError(
                f"{self.kind.value} takes {_ARITY[self.kind]} qubit(s), got {self.qubits}"
            )

        expected_params = 3 if self.kind is GateKind.U else 0
        if len(self.params) != expected_params:
            raise ValueError(
                f"{self.kind.value} takes {expected_params} parameter(s), got {self.params}"
            )
        if not all(map(math.isfinite, self.params)):
            raise ValueError(f"gate angles must be finite, got {self.params}")

        expected_clbits = 1 if self.kind is GateKind.MEASURE else 0
        if len(self.clbits) != expected_clbits:
            raise ValueError(
                f"{self.kind.value} takes {expected_clbits} classical bit(s), got {self.clbits}"
            )

    # ── constructors ────────────────────────────────────────────────────

    @staticmethod
    def h(qubit: int) -> "Gate":
        return Gate(GateKind.H, (qubit,))

    @staticmethod
    def x(qubit: int) -> "Gate":
        return Gate(GateKind.X, (qubit,))

    @staticmethod
    def sx(qubit: int) -> "Gate":
        return Gate(GateKind.SX, (qubit,))

    @staticmethod
    def u(qubit: int, theta: float, phi: float, lam: float) -> "Gate":
        return Gate(GateKind.U, (qubit,), (theta, phi, lam))

    @staticmethod
    def cnot(control: int, target: int) -> "Gate":
        return Gate(GateKind.CNOT, (control, target))

    @staticmethod
    def barrier(*qubits: int) -> "Gate":
        return Gate(GateKind.BARRIER, tuple(qubits))

    @staticmethod
    def measure(qubit: int, clbit: int) -> "Gate":
        return Gate(GateKind.MEASURE, (qubit,), clbits=(clbit,))

    # ── accessors ───────────────────────────────────────────────────────

    @property
    def control(self) -> int:
        if self.kind is not GateKind.CNOT:
            raise ValueError(f"{self.kind.value} has no control qubit")
        return self.qubits[0]

    @property
    def target(self) -> int:
        if self.kind is not GateKind.CNOT:
            raise ValueError(f"{self.kind.value} has no target qubit")
        return self.qubits[1]

    @property
    def is_unitary(self) -> bool:
        return self.kind in UNITARY_KINDS

    def to_document(self) -> dict:
        doc: dict = {"kind": self.kind.value, "qubits": list(self.qubits)}
        if self.params:
            doc["params"] = list(self.params)
        if self.clbits:
            doc["clbits"] = list(self.clbits)
        return doc

    @staticmethod
    def from_document(doc: dict) -> "Gate":
        return Gate(*_instruction_fields(doc))


@dataclass(frozen=True)
class Circuit:
    """An immutable instruction list over num_qubits qubits and num_clbits bits."""

    num_qubits: int
    num_clbits: int
    instructions: tuple[Gate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "instructions", tuple(self.instructions))
        if self.num_qubits < 1:
            raise ValueError(f"circuit needs at least one qubit, got {self.num_qubits}")
        if self.num_clbits < 0:
            raise ValueError(f"negative classical register size {self.num_clbits}")

        measured_qubits: set[int] = set()
        used_clbits: set[int] = set()
        for pos, gate in enumerate(self.instructions):
            if not isinstance(gate, Gate):
                raise ValueError(f"instruction {pos} is not a Gate")
            for q in gate.qubits:
                if q >= self.num_qubits:
                    raise ValueError(
                        f"instruction {pos} touches qubit {q}, register has {self.num_qubits}"
                    )
            for c in gate.clbits:
                if c >= self.num_clbits:
                    raise ValueError(
                        f"instruction {pos} writes classical bit {c}, register has {self.num_clbits}"
                    )
            if gate.kind is GateKind.MEASURE:
                q, c = gate.qubits[0], gate.clbits[0]
                if q in measured_qubits:
                    raise ValueError(f"qubit {q} measured twice")
                if c in used_clbits:
                    raise ValueError(f"classical bit {c} written twice")
                measured_qubits.add(q)
                used_clbits.add(c)

    # ── inspection ──────────────────────────────────────────────────────

    @property
    def unitary_gate_count(self) -> int:
        return sum(1 for g in self.instructions if g.is_unitary)

    @property
    def barrier_count(self) -> int:
        return sum(1 for g in self.instructions if g.kind is GateKind.BARRIER)

    @property
    def measurement_count(self) -> int:
        return sum(1 for g in self.instructions if g.kind is GateKind.MEASURE)

    def measured_pairs(self) -> tuple[tuple[int, int], ...]:
        """(qubit, clbit) pairs in classical-bit order."""
        pairs = [
            (g.qubits[0], g.clbits[0])
            for g in self.instructions
            if g.kind is GateKind.MEASURE
        ]
        return tuple(sorted(pairs, key=lambda qc: qc[1]))

    def without_measurements(self) -> "Circuit":
        kept = tuple(g for g in self.instructions if g.kind is not GateKind.MEASURE)
        return Circuit(self.num_qubits, 0, kept)

    def to_document(self) -> dict:
        return {
            "num_qubits": self.num_qubits,
            "num_clbits": self.num_clbits,
            "instructions": [g.to_document() for g in self.instructions],
        }

    @staticmethod
    def from_document(doc: dict) -> "Circuit":
        if not isinstance(doc, dict):
            raise ValueError(f"circuit must be an object, got {type(doc).__name__}")
        unknown = set(doc) - {"num_qubits", "num_clbits", "instructions"}
        if unknown:
            raise ValueError(f"unknown circuit fields: {sorted(unknown)}")
        for key in ("num_qubits", "num_clbits", "instructions"):
            if key not in doc:
                raise ValueError(f"circuit document missing {key!r}")
        for key in ("num_qubits", "num_clbits"):
            if type(doc[key]) is not int:
                raise ValueError(f"{key} must be an integer, got {doc[key]!r}")
        if not isinstance(doc["instructions"], list):
            raise ValueError(f"instructions must be a list, got {doc['instructions']!r}")
        # Every document is type-checked; equal ones then share one Gate,
        # so each distinct gate is validated once.
        interned: dict[tuple, Gate] = {}
        gates = []
        for item in doc["instructions"]:
            fields = _instruction_fields(item)
            key = fields
            if 0 in fields[2]:
                # 0.0 == -0.0, but the sign is written back out.
                key = (*fields, tuple(math.copysign(1.0, p) for p in fields[2]))
            gate = interned.get(key)
            if gate is None:
                gate = interned[key] = Gate(*fields)
            gates.append(gate)
        return Circuit(doc["num_qubits"], doc["num_clbits"], tuple(gates))


_INSTRUCTION_FIELDS = frozenset({"kind", "qubits", "params", "clbits"})
# What GateKind() accepts: a value, or a member standing for itself.
_KINDS = {**{k.value: k for k in GateKind}, **{k: k for k in GateKind}}


def _instruction_fields(doc: object) -> tuple[GateKind, tuple, tuple, tuple]:
    """Type-checked (kind, qubits, params, clbits) of an instruction document.

    Gate() checks the values; this checks only the JSON types.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"instruction must be an object, got {type(doc).__name__}")
    if not _INSTRUCTION_FIELDS.issuperset(doc):
        raise ValueError(f"unknown instruction fields: {sorted(set(doc) - _INSTRUCTION_FIELDS)}")
    try:
        kind = _KINDS[doc["kind"]]
    except (KeyError, TypeError):
        raise ValueError(f"unknown gate kind: {doc.get('kind')!r}") from None
    return (
        kind,
        _list_of(doc.get("qubits", []), (int,), "qubits"),
        _list_of(doc.get("params", []), (int, float), "params"),
        _list_of(doc.get("clbits", []), (int,), "clbits"),
    )


def _list_of(value: object, types: tuple[type, ...], what: str) -> tuple:
    # type() rather than isinstance(), so JSON true/false are not taken as 1/0.
    if type(value) is list:
        for item in value:
            if type(item) not in types:
                break
        else:
            return tuple(value)
    raise ValueError(f"{what} must be a list of {' or '.join(t.__name__ for t in types)}, got {value!r}")


# ── gate matrices ───────────────────────────────────────────────────────
#
# Local two-qubit matrices index the first addressed qubit as the least
# significant bit, matching the register-level bitstring convention.

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) * _INV_SQRT2
X_MATRIX = np.array([[0, 1], [1, 0]], dtype=complex)
SX_MATRIX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
CNOT_MATRIX = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
    ],
    dtype=complex,
)


def u_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """General single-qubit rotation; U(pi/2, 0, pi) is H up to phase."""
    cos = math.cos(theta / 2.0)
    sin = math.sin(theta / 2.0)
    return np.array(
        [
            [cos, -np.exp(1j * lam) * sin],
            [np.exp(1j * phi) * sin, np.exp(1j * (phi + lam)) * cos],
        ],
        dtype=complex,
    )


def gate_unitary(gate: Gate) -> np.ndarray:
    """Local matrix of a unitary gate (2x2, or 4x4 for CNOT)."""
    if gate.kind is GateKind.H:
        return H_MATRIX
    if gate.kind is GateKind.X:
        return X_MATRIX
    if gate.kind is GateKind.SX:
        return SX_MATRIX
    if gate.kind is GateKind.U:
        return u_matrix(*gate.params)
    if gate.kind is GateKind.CNOT:
        return CNOT_MATRIX
    raise ValueError(f"{gate.kind.value} has no unitary matrix")


def embed_operator(op: np.ndarray, qubits: tuple[int, ...], num_qubits: int) -> np.ndarray:
    """Lift a local operator onto the full register.

    qubits[i] carries bit i of the local operator's index, so the first
    listed qubit is the local least significant bit.
    """
    local_dim = 2 ** len(qubits)
    if op.shape != (local_dim, local_dim):
        raise ValueError(f"operator shape {op.shape} does not match {len(qubits)} qubit(s)")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubits in {qubits}")
    if any(q < 0 or q >= num_qubits for q in qubits):
        raise ValueError(f"qubits {qubits} outside register of size {num_qubits}")

    dim = 2**num_qubits
    full = np.zeros((dim, dim), dtype=complex)
    mask = 0
    for q in qubits:
        mask |= 1 << q
    for col in range(dim):
        rest = col & ~mask
        local_col = 0
        for i, q in enumerate(qubits):
            local_col |= ((col >> q) & 1) << i
        for local_row in range(local_dim):
            amp = op[local_row, local_col]
            if amp == 0:
                continue
            row = rest
            for i, q in enumerate(qubits):
                row |= ((local_row >> i) & 1) << q
            full[row, col] += amp
    return full


# circuit_unitary keeps at most this many bytes of lifted gate matrices.
_LIFTED_BYTES = 32 * 2**20


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Composite unitary of a measurement-free circuit; barriers are skipped.

    Each distinct gate is lifted onto the register once per call (as long
    as the lifted matrices fit in _LIFTED_BYTES), then the lifted matrices
    are multiplied in circuit order.
    """
    dim = 2**circuit.num_qubits
    room = max(1, _LIFTED_BYTES // (16 * dim * dim))
    lifted: dict[Gate, np.ndarray] = {}
    total = np.eye(dim, dtype=complex)
    for gate in circuit.instructions:
        if gate.kind is GateKind.BARRIER:
            continue
        if gate.kind is GateKind.MEASURE:
            raise ValueError("circuit_unitary needs a measurement-free circuit")
        op = lifted.get(gate)
        if op is None:
            op = embed_operator(gate_unitary(gate), gate.qubits, circuit.num_qubits)
            if len(lifted) < room:
                lifted[gate] = op
        total = op @ total
    return total


def unitaries_equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    """True when a == phase * b for some unit-modulus phase, within tol."""
    if a.shape != b.shape:
        return False
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) < tol:
        return bool(np.max(np.abs(a)) < tol)
    phase = a[idx] / b[idx]
    if abs(abs(phase) - 1.0) > tol:
        return False
    return bool(np.max(np.abs(a - phase * b)) <= tol)


# ── benchmark constructors ──────────────────────────────────────────────


def _check_pair(control: int, target: int) -> None:
    if control == target:
        raise ValueError(f"control and target must differ, both are {control}")
    if control < 0 or target < 0:
        raise ValueError(f"negative qubit index in pair ({control}, {target})")


def build_identity_op(control: int, target: int) -> Circuit:
    """One logically trivial stage: H, double CNOT split by a barrier, H.

    Noiselessly this composes to the identity; the barrier keeps the two
    CNOTs from being merged away by any downstream rewrite.
    """
    _check_pair(control, target)
    return Circuit(
        num_qubits=max(control, target) + 1,
        num_clbits=0,
        instructions=(
            Gate.h(control),
            Gate.cnot(control, target),
            Gate.barrier(control, target),
            Gate.cnot(control, target),
            Gate.h(control),
        ),
    )


def build_n_stage(control: int, target: int, n: int) -> Circuit:
    """n identity stages separated by barriers, then measure both qubits.

    Gate count is 4n with 2n - 1 barriers; the lower qubit index maps to
    classical bit 0 so either orientation produces comparable bitstrings.
    """
    _check_pair(control, target)
    if n < 1:
        raise ValueError(f"stage count must be at least 1, got {n}")
    stage = build_identity_op(control, target).instructions
    body: list[Gate] = []
    for i in range(n):
        if i:
            body.append(Gate.barrier(control, target))
        body.extend(stage)
    low, high = sorted((control, target))
    body.append(Gate.measure(low, 0))
    body.append(Gate.measure(high, 1))
    return Circuit(max(control, target) + 1, 2, tuple(body))


def reverse_cnot(control: int, target: int) -> tuple[Gate, ...]:
    """Hadamard sandwich realizing CNOT(control, target) from the reversed CNOT."""
    _check_pair(control, target)
    return (
        Gate.h(control),
        Gate.h(target),
        Gate.cnot(target, control),
        Gate.h(control),
        Gate.h(target),
    )


def build_readout_calibration_circuits(
    num_qubits: int, qubits: tuple[int, ...] | None = None
) -> list[Circuit]:
    """One circuit per basis state: X on the set bits, then measure all.

    Circuit i prepares |i> with bit j of i carried by qubits[j] (register
    qubits 0..k-1 when qubits is omitted), measured into classical bit j.
    """
    if not 1 <= num_qubits <= 3:
        raise ValueError(f"calibration supports 1..3 qubits, got {num_qubits}")
    if qubits is None:
        qubits = tuple(range(num_qubits))
    if len(qubits) != num_qubits:
        raise ValueError(f"expected {num_qubits} qubits, got {qubits}")
    register = max(qubits) + 1
    circuits = []
    for basis in range(2**num_qubits):
        body: list[Gate] = []
        for j, q in enumerate(qubits):
            if (basis >> j) & 1:
                body.append(Gate.x(q))
        for j, q in enumerate(qubits):
            body.append(Gate.measure(q, j))
        circuits.append(Circuit(register, num_qubits, tuple(body)))
    return circuits
