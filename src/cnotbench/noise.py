"""Device noise description: per-qubit rates, per-direction CNOT rates.

A NoiseModel carries one DirectedEdgeParams per characterized CNOT
direction, so the two orientations of a coupled pair can differ. The JSON
schema is shared with the transpiler's coupling map; loading validates
every field and reports the offending path on failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .circuits import GateKind

__all__ = [
    "SchemaError",
    "QubitParams",
    "DirectedEdgeParams",
    "NoiseModel",
    "COHERENT_AXES",
    "load_noise_model",
    "synth_asymmetric_model",
    "ideal_model",
    "DEFAULT_QUBIT",
]

COHERENT_AXES = ("ZX", "XI", "IX", "ZZ")


class SchemaError(ValueError):
    """A malformed or out-of-range field in a noise-model document."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def _positive_time(value: float, label: str) -> None:
    # inf is a valid relaxation time (no decay); nan and <= 0 are not.
    if math.isnan(value) or value <= 0:
        raise ValueError(f"{label} must be positive, got {value}")


def _probability(value: float, label: str) -> None:
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{label} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class QubitParams:
    """Relaxation times (us), readout flip rates, and single-qubit gate error.

    u2_error and u2_duration_ns describe one half-rotation layer (H, SX);
    full rotations (X, U) cost twice both.
    """

    t1_us: float
    t2_us: float
    readout_p01: float
    readout_p10: float
    u2_error: float
    u2_duration_ns: float

    def __post_init__(self) -> None:
        _positive_time(self.t1_us, "t1_us")
        _positive_time(self.t2_us, "t2_us")
        if self.t2_us > 2.0 * self.t1_us:
            raise ValueError(
                f"t2_us must not exceed 2*t1_us, got t2={self.t2_us} with t1={self.t1_us}"
            )
        _probability(self.readout_p01, "readout_p01")
        _probability(self.readout_p10, "readout_p10")
        _probability(self.u2_error, "u2_error")
        if not (0.0 <= self.u2_duration_ns < math.inf):
            raise ValueError(f"u2_duration_ns must be finite and >= 0, got {self.u2_duration_ns}")

    def gate_error(self, kind: GateKind) -> float:
        if kind in (GateKind.H, GateKind.SX):
            return self.u2_error
        if kind in (GateKind.X, GateKind.U):
            return 2.0 * self.u2_error
        raise ValueError(f"no single-qubit error rate for {kind.value}")

    def gate_duration_ns(self, kind: GateKind) -> float:
        if kind in (GateKind.H, GateKind.SX):
            return self.u2_duration_ns
        if kind in (GateKind.X, GateKind.U):
            return 2.0 * self.u2_duration_ns
        raise ValueError(f"no single-qubit duration for {kind.value}")

    @property
    def readout(self) -> tuple[float, float]:
        return (self.readout_p01, self.readout_p10)


@dataclass(frozen=True)
class DirectedEdgeParams:
    """CNOT characterization for one orientation of a coupled pair."""

    control: int
    target: int
    cnot_error: float
    duration_ns: float
    coherent_axis: str | None = None
    coherent_angle_rad: float = 0.0

    def __post_init__(self) -> None:
        if self.control == self.target:
            raise ValueError(f"edge control equals target: {self.control}")
        if self.control < 0 or self.target < 0:
            raise ValueError(f"negative qubit index on edge ({self.control}, {self.target})")
        _probability(self.cnot_error, "cnot_error")
        if not (0.0 <= self.duration_ns < math.inf):
            raise ValueError(f"duration_ns must be finite and >= 0, got {self.duration_ns}")
        if self.coherent_axis is None:
            if self.coherent_angle_rad != 0.0:
                raise ValueError("coherent_angle_rad set without coherent_axis")
        else:
            if self.coherent_axis not in COHERENT_AXES:
                raise ValueError(
                    f"coherent_axis must be one of {COHERENT_AXES}, got {self.coherent_axis!r}"
                )
            if not math.isfinite(self.coherent_angle_rad):
                raise ValueError(f"coherent_angle_rad must be finite, got {self.coherent_angle_rad}")

    @property
    def direction(self) -> tuple[int, int]:
        return (self.control, self.target)


@dataclass(frozen=True)
class NoiseModel:
    """Qubit rates, directed CNOT edges, and the hardware CNOT direction.

    physical_direction maps each coupled unordered pair (a, b), a < b, to
    the qubit index acting as hardware control.
    """

    qubits: tuple[QubitParams, ...]
    edges: tuple[DirectedEdgeParams, ...]
    physical_direction: dict[tuple[int, int], int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", tuple(self.qubits))
        object.__setattr__(self, "edges", tuple(self.edges))
        if not self.qubits:
            raise ValueError("noise model needs at least one qubit")

        seen: set[tuple[int, int]] = set()
        for edge in self.edges:
            for q in edge.direction:
                if q >= self.num_qubits:
                    raise ValueError(
                        f"edge {edge.direction} references qubit {q}, "
                        f"model has {self.num_qubits}"
                    )
            if edge.direction in seen:
                raise ValueError(f"duplicate edge for direction {edge.direction}")
            seen.add(edge.direction)

        for pair, ctrl in self.physical_direction.items():
            a, b = pair
            if not (0 <= a < b < self.num_qubits):
                raise ValueError(f"physical_direction pair {pair} is not ordered and in range")
            if ctrl not in pair:
                raise ValueError(f"physical_direction control {ctrl} not in pair {pair}")
        for edge in self.edges:
            pair = tuple(sorted(edge.direction))
            if pair not in self.physical_direction:
                raise ValueError(f"pair {pair} has edges but no physical_direction entry")
        by_direction = {edge.direction: edge for edge in self.edges}
        object.__setattr__(self, "_by_direction", by_direction)

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    def qubit(self, index: int) -> QubitParams:
        if not 0 <= index < self.num_qubits:
            raise ValueError(f"qubit {index} outside model of size {self.num_qubits}")
        return self.qubits[index]

    def has_edge(self, control: int, target: int) -> bool:
        return (control, target) in self._by_direction  # type: ignore[attr-defined]

    def edge(self, control: int, target: int) -> DirectedEdgeParams:
        try:
            return self._by_direction[(control, target)]  # type: ignore[attr-defined]
        except KeyError:
            raise ValueError(
                f"no CNOT characterization for direction ({control} -> {target})"
            ) from None

    def readout_pairs(self, qubits: tuple[int, ...]) -> list[tuple[float, float]]:
        return [self.qubit(q).readout for q in qubits]

    def to_document(self) -> dict:
        doc: dict = {
            "qubits": [
                {
                    "t1_us": q.t1_us,
                    "t2_us": q.t2_us,
                    "readout_p01": q.readout_p01,
                    "readout_p10": q.readout_p10,
                    "u2_error": q.u2_error,
                    "u2_duration_ns": q.u2_duration_ns,
                }
                for q in self.qubits
            ],
            "edges": [],
            "physical_direction": {
                f"{a}-{b}": ctrl for (a, b), ctrl in sorted(self.physical_direction.items())
            },
        }
        for e in self.edges:
            entry: dict = {
                "control": e.control,
                "target": e.target,
                "cnot_error": e.cnot_error,
                "duration_ns": e.duration_ns,
            }
            if e.coherent_axis is not None:
                entry["coherent_axis"] = e.coherent_axis
                entry["coherent_angle_rad"] = e.coherent_angle_rad
            doc["edges"].append(entry)
        return doc


# ── document loading ────────────────────────────────────────────────────


def _number(doc: dict, field: str, path: str) -> float:
    if field not in doc:
        raise SchemaError(f"{path}.{field}", "missing required field")
    value = doc[field]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}.{field}", f"expected a number, got {value!r}")
    return float(value)


def _integer(doc: dict, field: str, path: str) -> int:
    if field not in doc:
        raise SchemaError(f"{path}.{field}", "missing required field")
    value = doc[field]
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}.{field}", f"expected an integer, got {value!r}")
    return value


def _reject_unknown(doc: dict, allowed: set[str], path: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise SchemaError(path, f"unknown fields: {sorted(unknown)}")


def load_noise_model(document: dict) -> NoiseModel:
    """Build a NoiseModel from a parsed JSON document, validating every field."""
    if not isinstance(document, dict):
        raise SchemaError("$", f"expected an object, got {type(document).__name__}")
    _reject_unknown(document, {"qubits", "edges", "physical_direction"}, "$")
    for field in ("qubits", "edges", "physical_direction"):
        if field not in document:
            raise SchemaError(f"$.{field}", "missing required field")
    if not isinstance(document["qubits"], list):
        raise SchemaError("$.qubits", "expected a list")
    if not isinstance(document["edges"], list):
        raise SchemaError("$.edges", "expected a list")
    if not isinstance(document["physical_direction"], dict):
        raise SchemaError("$.physical_direction", "expected an object")

    qubits = []
    for i, entry in enumerate(document["qubits"]):
        path = f"$.qubits[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(path, "expected an object")
        _reject_unknown(
            entry,
            {"t1_us", "t2_us", "readout_p01", "readout_p10", "u2_error", "u2_duration_ns"},
            path,
        )
        try:
            qubits.append(
                QubitParams(
                    t1_us=_number(entry, "t1_us", path),
                    t2_us=_number(entry, "t2_us", path),
                    readout_p01=_number(entry, "readout_p01", path),
                    readout_p10=_number(entry, "readout_p10", path),
                    u2_error=_number(entry, "u2_error", path),
                    u2_duration_ns=_number(entry, "u2_duration_ns", path),
                )
            )
        except SchemaError:
            raise
        except ValueError as exc:
            raise SchemaError(path, str(exc)) from None

    edges = []
    for i, entry in enumerate(document["edges"]):
        path = f"$.edges[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(path, "expected an object")
        _reject_unknown(
            entry,
            {"control", "target", "cnot_error", "duration_ns", "coherent_axis", "coherent_angle_rad"},
            path,
        )
        axis = entry.get("coherent_axis")
        if axis is not None and not isinstance(axis, str):
            raise SchemaError(f"{path}.coherent_axis", f"expected a string, got {axis!r}")
        angle = 0.0
        if "coherent_angle_rad" in entry:
            angle = _number(entry, "coherent_angle_rad", path)
        try:
            edges.append(
                DirectedEdgeParams(
                    control=_integer(entry, "control", path),
                    target=_integer(entry, "target", path),
                    cnot_error=_number(entry, "cnot_error", path),
                    duration_ns=_number(entry, "duration_ns", path),
                    coherent_axis=axis,
                    coherent_angle_rad=angle,
                )
            )
        except SchemaError:
            raise
        except ValueError as exc:
            raise SchemaError(path, str(exc)) from None

    physical = {}
    for key, value in document["physical_direction"].items():
        path = f"$.physical_direction[{key!r}]"
        parts = key.split("-") if isinstance(key, str) else []
        if len(parts) != 2 or not all(p.isascii() and p.isdigit() for p in parts):
            raise SchemaError(path, 'key must look like "0-1"')
        a, b = int(parts[0]), int(parts[1])
        if a >= b:
            raise SchemaError(path, f"pair must be ordered low-high, got {a}-{b}")
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(path, f"control must be an integer, got {value!r}")
        physical[(a, b)] = value

    try:
        return NoiseModel(tuple(qubits), tuple(edges), physical)
    except ValueError as exc:
        raise SchemaError("$", str(exc)) from None


# ── model factories ─────────────────────────────────────────────────────

DEFAULT_QUBIT = QubitParams(
    t1_us=80.0,
    t2_us=100.0,
    readout_p01=0.025,
    readout_p10=0.025,
    u2_error=0.00042,
    u2_duration_ns=35.0,
)


def synth_asymmetric_model(
    base_error: float,
    asymmetry_factor: float,
    durations_ns: tuple[float, float] = (348.0, 384.0),
    qubit: QubitParams | None = None,
) -> NoiseModel:
    """Two identical qubits with a direction-asymmetric CNOT pair.

    Direction (0 -> 1) gets base_error and the first duration; direction
    (1 -> 0) gets base_error * asymmetry_factor and the second duration.
    Factor 1 yields an exactly direction-symmetric model.
    """
    if not (0.0 <= base_error <= 1.0):
        raise ValueError(f"base_error must lie in [0, 1], got {base_error}")
    if asymmetry_factor <= 0.0 or not math.isfinite(asymmetry_factor):
        raise ValueError(f"asymmetry_factor must be positive, got {asymmetry_factor}")
    boosted = base_error * asymmetry_factor
    if boosted > 1.0:
        raise ValueError(f"boosted error {boosted} exceeds 1")
    q = DEFAULT_QUBIT if qubit is None else qubit
    return NoiseModel(
        qubits=(q, q),
        edges=(
            DirectedEdgeParams(0, 1, base_error, durations_ns[0]),
            DirectedEdgeParams(1, 0, boosted, durations_ns[1]),
        ),
        physical_direction={(0, 1): 0},
    )


def ideal_model(num_qubits: int = 2) -> NoiseModel:
    """Noise-free model: infinite relaxation times, zero errors, zero durations."""
    q = QubitParams(
        t1_us=math.inf,
        t2_us=math.inf,
        readout_p01=0.0,
        readout_p10=0.0,
        u2_error=0.0,
        u2_duration_ns=0.0,
    )
    edges = []
    physical = {}
    for a in range(num_qubits):
        for b in range(a + 1, num_qubits):
            edges.append(DirectedEdgeParams(a, b, 0.0, 0.0))
            edges.append(DirectedEdgeParams(b, a, 0.0, 0.0))
            physical[(a, b)] = a
    return NoiseModel((q,) * num_qubits, tuple(edges), physical)
