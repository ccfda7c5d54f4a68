"""Exact density-matrix simulation with Kraus noise and seeded sampling.

States stay small (at most three qubits), so every operation works on the
full matrix. Measurement sampling applies per-qubit readout confusion to
the exact outcome distribution and draws once from a multinomial, keeping
runs bit-reproducible for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .circuits import Circuit, Gate, GateKind, embed_operator, gate_unitary
from .noise import COHERENT_AXES, NoiseModel

__all__ = [
    "DensityState",
    "KrausChannel",
    "Counts",
    "bitstring",
    "pauli_string_matrix",
    "depolarizing_channel",
    "thermal_relaxation_channel",
    "coherent_overrotation_channel",
    "apply_gate",
    "apply_channel",
    "readout_confusion_matrix",
    "measured_distribution",
    "sample_counts",
    "evolve",
    "simulate",
    "exact_distribution",
]

_MAX_QUBITS = 3

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass
class DensityState:
    """Density matrix over a register of 1..3 qubits."""

    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.num_qubits <= _MAX_QUBITS:
            raise ValueError(f"supported register sizes are 1..{_MAX_QUBITS}, got {self.num_qubits}")
        dim = 2**self.num_qubits
        if self.matrix.shape != (dim, dim):
            raise ValueError(f"matrix shape {self.matrix.shape} does not match {self.num_qubits} qubit(s)")

    @classmethod
    def ground(cls, num_qubits: int) -> "DensityState":
        dim = 2**num_qubits
        matrix = np.zeros((dim, dim), dtype=complex)
        matrix[0, 0] = 1.0
        return cls(num_qubits, matrix)

    def probabilities(self) -> np.ndarray:
        """Diagonal in the computational basis, clipped of round-off negatives."""
        return np.clip(np.real(np.diag(self.matrix)), 0.0, None)

    def validate(self) -> None:
        """Check Hermiticity, unit trace, and positivity up to round-off."""
        defect = np.max(np.abs(self.matrix - self.matrix.conj().T))
        if defect > 1e-10:
            raise ValueError(f"state is not Hermitian, defect {defect:g}")
        trace = np.trace(self.matrix).real
        if abs(trace - 1.0) > 1e-10:
            raise ValueError(f"state trace is {trace!r}, expected 1")
        lowest = float(np.min(np.linalg.eigvalsh(self.matrix)))
        if lowest < -1e-9:
            raise ValueError(f"state has negative eigenvalue {lowest:g}")


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive map given by its Kraus operators."""

    operators: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "operators", tuple(np.asarray(k, dtype=complex) for k in self.operators))
        if not self.operators:
            raise ValueError("channel needs at least one Kraus operator")
        dim = self.operators[0].shape[0]
        if dim < 2 or (dim & (dim - 1)) != 0:
            raise ValueError(f"Kraus dimension {dim} is not a power of two")
        for k in self.operators:
            if k.shape != (dim, dim):
                raise ValueError(f"inconsistent Kraus shapes: {k.shape} vs ({dim}, {dim})")

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    @property
    def arity(self) -> int:
        return self.dim.bit_length() - 1

    def completeness_defect(self) -> float:
        total = sum(k.conj().T @ k for k in self.operators)
        return float(np.max(np.abs(total - np.eye(self.dim))))


def bitstring(index: int, width: int) -> str:
    """Outcome label of an index: little-endian, so bit 0 is the rightmost character."""
    return format(index, f"0{width}b")


@dataclass(frozen=True)
class Counts:
    """Shot counts indexed by outcome; bit j of an index is classical bit j.

    Outcome 0 reads all zeros. data gives the report form, keyed by
    bitstring with zero counts left out.
    """

    per_outcome: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_outcome", tuple(self.per_outcome))
        size = len(self.per_outcome)
        if size < 2 or size & (size - 1):
            raise ValueError(f"need one count per outcome of at least one bit, got {size} count(s)")
        for value in self.per_outcome:
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(f"bad count {value!r}")

    @property
    def total(self) -> int:
        return sum(self.per_outcome)

    @property
    def num_bits(self) -> int:
        return len(self.per_outcome).bit_length() - 1

    @property
    def ground_count(self) -> int:
        return self.per_outcome[0]

    @property
    def data(self) -> dict[str, int]:
        return {bitstring(i, self.num_bits): c for i, c in enumerate(self.per_outcome) if c}

    def __add__(self, other: "Counts") -> "Counts":
        if self.num_bits != other.num_bits:
            raise ValueError(f"cannot merge counts over {self.num_bits} and {other.num_bits} bits")
        return Counts(tuple(a + b for a, b in zip(self.per_outcome, other.per_outcome)))


# ── channels ────────────────────────────────────────────────────────────


def pauli_string_matrix(label: str) -> np.ndarray:
    """Tensor product of Paulis; the first character acts on the first qubit."""
    if not label or set(label) - set("IXYZ"):
        raise ValueError(f"bad Pauli label {label!r}")
    matrix = np.array([[1.0 + 0.0j]])
    for ch in label:
        matrix = np.kron(PAULI[ch], matrix)
    return matrix


def depolarizing_channel(p: float, arity: int = 1) -> KrausChannel:
    """Uniform Pauli noise: with probability p the state is fully mixed.

    Kraus set is the weighted identity plus all 4^arity - 1 non-identity
    Pauli strings; p = 0 collapses to a single identity operator.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"depolarizing probability must lie in [0, 1], got {p}")
    if not 1 <= arity <= _MAX_QUBITS:
        raise ValueError(f"depolarizing arity must be 1..{_MAX_QUBITS}, got {arity}")
    dim = 2**arity
    dim2 = dim * dim
    if p == 0.0:
        return KrausChannel((np.eye(dim, dtype=complex),))
    operators = [math.sqrt(1.0 - p * (dim2 - 1) / dim2) * np.eye(dim, dtype=complex)]
    weight = math.sqrt(p / dim2)
    for chars in product("IXYZ", repeat=arity):
        label = "".join(chars)
        if label == "I" * arity:
            continue
        operators.append(weight * pauli_string_matrix(label))
    return KrausChannel(tuple(operators))


def thermal_relaxation_channel(duration_ns: float, t1_us: float, t2_us: float) -> KrausChannel:
    """Amplitude damping plus the residual pure dephasing over one gate time.

    The damping probability is 1 - exp(-d/T1) and the surviving coherence
    is scaled by exp(-d/T2) overall, with T2 <= 2*T1 required so the
    residual dephasing rate stays non-negative. Infinite times are valid
    and drop the corresponding decay.
    """
    if not (0.0 <= duration_ns < math.inf):
        raise ValueError(f"duration_ns must be finite and >= 0, got {duration_ns}")
    if math.isnan(t1_us) or t1_us <= 0 or math.isnan(t2_us) or t2_us <= 0:
        raise ValueError(f"relaxation times must be positive, got t1={t1_us}, t2={t2_us}")
    if t2_us > 2.0 * t1_us:
        raise ValueError(f"t2 must not exceed 2*t1, got t2={t2_us} with t1={t1_us}")

    t1_ns = t1_us * 1e3
    t2_ns = t2_us * 1e3
    gamma = -math.expm1(-duration_ns / t1_ns) if t1_ns != math.inf else 0.0
    # Residual dephasing after removing the T1 contribution to T2.
    rate = (1.0 / t2_ns if t2_ns != math.inf else 0.0) - (
        1.0 / (2.0 * t1_ns) if t1_ns != math.inf else 0.0
    )
    p_z = 0.5 * -math.expm1(-duration_ns * rate)

    damp_keep = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
    damp_jump = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    operators = []
    for weight, flip in ((math.sqrt(1.0 - p_z), False), (math.sqrt(p_z), True)):
        if weight == 0.0:
            continue
        for base in (damp_keep, damp_jump):
            k = weight * (PAULI["Z"] @ base if flip else base)
            if np.max(np.abs(k)) > 0.0:
                operators.append(k)
    return KrausChannel(tuple(operators))


def coherent_overrotation_channel(axis: str, angle_rad: float) -> KrausChannel:
    """Unitary over-rotation exp(-i * angle * P / 2) about a two-qubit Pauli axis.

    The first axis character acts on the control (first qubit the channel
    is applied to), so "ZX" is the usual cross-resonance term.
    """
    if axis not in COHERENT_AXES:
        raise ValueError(f"axis must be one of {COHERENT_AXES}, got {axis!r}")
    if not math.isfinite(angle_rad):
        raise ValueError(f"angle must be finite, got {angle_rad}")
    pauli = pauli_string_matrix(axis)
    unitary = math.cos(angle_rad / 2.0) * np.eye(4, dtype=complex) - 1j * math.sin(angle_rad / 2.0) * pauli
    return KrausChannel((unitary,))


# ── state evolution ─────────────────────────────────────────────────────


def apply_gate(state: DensityState, gate: Gate) -> DensityState:
    """Conjugate the state by a unitary gate lifted onto the register."""
    if not gate.is_unitary:
        raise ValueError(f"cannot apply {gate.kind.value} as a unitary")
    full = embed_operator(gate_unitary(gate), gate.qubits, state.num_qubits)
    return DensityState(state.num_qubits, full @ state.matrix @ full.conj().T)


def apply_channel(state: DensityState, channel: KrausChannel, qubits: tuple[int, ...]) -> DensityState:
    """Apply a Kraus channel to the given qubits of the register."""
    if len(qubits) != channel.arity:
        raise ValueError(f"channel acts on {channel.arity} qubit(s), got {qubits}")
    defect = channel.completeness_defect()
    if defect > 1e-8:
        raise ValueError(f"channel is not trace preserving, defect {defect:g}")
    result = np.zeros_like(state.matrix)
    for k in channel.operators:
        full = embed_operator(k, qubits, state.num_qubits)
        result += full @ state.matrix @ full.conj().T
    return DensityState(state.num_qubits, result)


# ── measurement ─────────────────────────────────────────────────────────


def readout_confusion_matrix(readout: list[tuple[float, float]]) -> np.ndarray:
    """Joint column-stochastic confusion matrix from per-qubit (p01, p10).

    Entry [observed, true] uses the same little-endian bit order as outcome
    indices: pair j describes bit j.
    """
    joint = np.array([[1.0]])
    for p01, p10 in readout:
        if not (0.0 <= p01 <= 1.0 and 0.0 <= p10 <= 1.0):
            raise ValueError(f"readout probabilities must lie in [0, 1], got ({p01}, {p10})")
        single = np.array([[1.0 - p01, p10], [p01, 1.0 - p10]])
        joint = np.kron(single, joint)
    return joint


def measured_distribution(
    state: DensityState,
    measured_qubits: tuple[int, ...],
    readout: list[tuple[float, float]] | None = None,
) -> np.ndarray:
    """Exact outcome distribution over the measured qubits.

    Index bit j of the result corresponds to measured_qubits[j]; unmeasured
    qubits are traced out. With readout given, the per-qubit confusion is
    applied to the distribution.
    """
    if not measured_qubits:
        raise ValueError("need at least one measured qubit")
    if len(set(measured_qubits)) != len(measured_qubits):
        raise ValueError(f"duplicate measured qubits: {measured_qubits}")
    if any(q < 0 or q >= state.num_qubits for q in measured_qubits):
        raise ValueError(f"measured qubits {measured_qubits} outside register")

    diag = state.probabilities()
    total = float(diag.sum())
    if not math.isclose(total, 1.0, abs_tol=1e-8):
        raise ValueError(f"state probabilities sum to {total!r}")
    diag = diag / total

    m = len(measured_qubits)
    probs = np.zeros(2**m)
    for index in range(2**state.num_qubits):
        outcome = 0
        for j, q in enumerate(measured_qubits):
            outcome |= ((index >> q) & 1) << j
        probs[outcome] += diag[index]

    if readout is not None:
        if len(readout) != m:
            raise ValueError(f"need one readout pair per measured qubit, got {len(readout)} for {m}")
        probs = readout_confusion_matrix(readout) @ probs
    return probs


def sample_counts(probs: np.ndarray, shots: int, seed: int = 0) -> Counts:
    """Draw shot counts from an outcome distribution, reproducibly."""
    if isinstance(shots, bool) or not isinstance(shots, int) or shots < 1:
        raise ValueError(f"shots must be a positive integer, got {shots!r}")
    rng = np.random.default_rng(seed)
    return Counts(tuple(rng.multinomial(shots, probs / probs.sum()).tolist()))


# ── circuit execution ───────────────────────────────────────────────────


def _relax_all(state: DensityState, noise: NoiseModel, duration_ns: float) -> DensityState:
    if duration_ns == 0.0:
        return state
    for q in range(state.num_qubits):
        params = noise.qubit(q)
        if params.t1_us == math.inf and params.t2_us == math.inf:
            continue
        channel = thermal_relaxation_channel(duration_ns, params.t1_us, params.t2_us)
        state = apply_channel(state, channel, (q,))
    return state


def evolve(circuit: Circuit, noise: NoiseModel) -> tuple[DensityState, tuple[int, ...]]:
    """Run the circuit under the noise model, deferring measurements.

    Returns the final state and the measured qubits in classical-bit
    order. Each gate applies its unitary, then depolarizing noise, then
    thermal relaxation on every qubit for the gate duration, then any
    coherent CNOT error. Missing edge characterization is an error.
    """
    if circuit.num_qubits > _MAX_QUBITS:
        raise ValueError(f"simulation supports up to {_MAX_QUBITS} qubits, got {circuit.num_qubits}")
    if noise.num_qubits < circuit.num_qubits:
        raise ValueError(
            f"noise model covers {noise.num_qubits} qubit(s), circuit needs {circuit.num_qubits}"
        )

    state = DensityState.ground(circuit.num_qubits)
    for gate in circuit.instructions:
        if gate.kind is GateKind.BARRIER or gate.kind is GateKind.MEASURE:
            continue
        state = apply_gate(state, gate)
        if gate.kind is GateKind.CNOT:
            edge = noise.edge(gate.control, gate.target)
            if edge.cnot_error > 0.0:
                state = apply_channel(state, depolarizing_channel(edge.cnot_error, 2), gate.qubits)
            state = _relax_all(state, noise, edge.duration_ns)
            if edge.coherent_axis is not None and edge.coherent_angle_rad != 0.0:
                channel = coherent_overrotation_channel(edge.coherent_axis, edge.coherent_angle_rad)
                state = apply_channel(state, channel, gate.qubits)
        else:
            params = noise.qubit(gate.qubits[0])
            error = params.gate_error(gate.kind)
            if error > 0.0:
                state = apply_channel(state, depolarizing_channel(error, 1), gate.qubits)
            state = _relax_all(state, noise, params.gate_duration_ns(gate.kind))

    measured = tuple(q for q, _ in circuit.measured_pairs())
    return state, measured


def _outcome_probs(circuit: Circuit, noise: NoiseModel, include_readout: bool) -> np.ndarray:
    state, measured = evolve(circuit, noise)
    if not measured:
        raise ValueError("circuit has no measurements")
    readout = noise.readout_pairs(measured) if include_readout else None
    return measured_distribution(state, measured, readout)


def simulate(circuit: Circuit, noise: NoiseModel, shots: int, seed: int = 0) -> Counts:
    """Noisy run of a measured circuit: exact evolution plus sampled readout."""
    return sample_counts(_outcome_probs(circuit, noise, True), shots, seed)


def exact_distribution(circuit: Circuit, noise: NoiseModel, include_readout: bool = True) -> dict[str, float]:
    """Exact outcome probabilities of a measured circuit, keyed by bitstring."""
    probs = _outcome_probs(circuit, noise, include_readout)
    width = len(probs).bit_length() - 1
    return {bitstring(i, width): float(p) for i, p in enumerate(probs)}
