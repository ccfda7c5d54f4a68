"""Measurement-error mitigation via a full assignment matrix.

Calibration circuits prepare every basis state; their observed
distributions form a column-stochastic assignment matrix A. Mitigation
solves min ||A x - c||_2 subject to x >= 0 and renormalizes, which keeps
corrected distributions physical even with sampling noise. Applying the
correction to both orientations separates readout-induced asymmetry
(removed) from gate-induced asymmetry (persists).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .circuits import build_readout_calibration_circuits
from .experiment import (
    AsymmetryReport,
    ExperimentConfig,
    OrientationResult,
    StageResult,
    assemble_report,
    derive_seed,
    relative_change,
)
from .noise import NoiseModel
from .simulator import Counts, readout_confusion_matrix, simulate

__all__ = [
    "MitigationError",
    "AssignmentMatrix",
    "MitigatedDistribution",
    "ComparisonRecord",
    "build_assignment_matrix",
    "mitigate",
    "mitigate_probabilities",
    "run_calibration",
    "mitigate_report",
    "compare_mitigated",
    "CONDITION_LIMIT",
]

# Assignment matrices with condition numbers beyond this cannot be
# inverted meaningfully at realistic shot budgets.
CONDITION_LIMIT = 1e8


class MitigationError(ValueError):
    """Mitigation cannot produce a reliable corrected distribution."""


@dataclass(frozen=True)
class AssignmentMatrix:
    """Column-stochastic readout response: A[observed, prepared]."""

    num_bits: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))
        dim = 2**self.num_bits
        if self.matrix.shape != (dim, dim):
            raise ValueError(f"matrix shape {self.matrix.shape} does not match {self.num_bits} bit(s)")
        if np.min(self.matrix) < 0.0:
            raise ValueError("assignment matrix entries must be non-negative")
        sums = self.matrix.sum(axis=0)
        if np.max(np.abs(sums - 1.0)) > 1e-9:
            raise ValueError(f"assignment matrix columns must each sum to 1, got {sums}")

    @classmethod
    def from_readout(cls, readout: list[tuple[float, float]]) -> "AssignmentMatrix":
        """Closed-form matrix for independent per-qubit confusion."""
        return cls(len(readout), readout_confusion_matrix(readout))

    def condition_number(self) -> float:
        return float(np.linalg.cond(self.matrix))


@dataclass(frozen=True)
class MitigatedDistribution:
    """Corrected probabilities plus the same values scaled back to shots, by outcome."""

    probabilities: np.ndarray
    pseudo_counts: np.ndarray
    total: int
    residual_norm: float


def build_assignment_matrix(calibration_counts: list[Counts]) -> AssignmentMatrix:
    """Assemble A from one observed Counts per prepared basis state.

    calibration_counts[j] must come from the circuit preparing basis state
    j; its outcome frequencies form column j.
    """
    size = len(calibration_counts)
    num_bits = size.bit_length() - 1
    if size < 2 or 2**num_bits != size:
        raise ValueError(f"need a counts entry per basis state, got {size}")
    for j, counts in enumerate(calibration_counts):
        if counts.num_bits != num_bits:
            raise ValueError(
                f"calibration column {j} covers {counts.num_bits} bit(s), expected {num_bits}"
            )
    columns = [np.array(counts.per_outcome, dtype=float) / counts.total for counts in calibration_counts]
    return AssignmentMatrix(num_bits, np.column_stack(columns))


def _solve(observed: np.ndarray, assignment: AssignmentMatrix) -> tuple[np.ndarray, float]:
    condition = assignment.condition_number()
    if condition > CONDITION_LIMIT:
        raise MitigationError(
            f"assignment matrix condition number {condition:.3g} exceeds {CONDITION_LIMIT:.0e}; "
            "calibration cannot be inverted reliably"
        )
    corrected, residual = nnls(assignment.matrix, observed)
    total = corrected.sum()
    if total <= 0.0:
        raise MitigationError("mitigation produced an all-zero distribution")
    return corrected / total, float(residual)


def mitigate(counts: Counts, assignment: AssignmentMatrix) -> MitigatedDistribution:
    """Correct observed counts; returns probabilities and pseudo-counts."""
    if counts.num_bits != assignment.num_bits:
        raise ValueError(
            f"counts cover {counts.num_bits} bit(s), assignment expects {assignment.num_bits}"
        )
    observed = np.array(counts.per_outcome, dtype=float) / counts.total
    corrected, residual = _solve(observed, assignment)
    return MitigatedDistribution(corrected, corrected * counts.total, counts.total, residual)


def mitigate_probabilities(probabilities: np.ndarray, assignment: AssignmentMatrix) -> np.ndarray:
    """Correct an exact outcome distribution with the same solver."""
    observed = np.asarray(probabilities, dtype=float)
    if observed.shape != (2**assignment.num_bits,):
        raise ValueError(
            f"distribution has shape {observed.shape}, assignment expects {assignment.num_bits} bit(s)"
        )
    return _solve(observed, assignment)[0]


def _without_gate_noise(noise: NoiseModel) -> NoiseModel:
    qubits = tuple(
        dataclasses.replace(q, u2_error=0.0, u2_duration_ns=0.0) for q in noise.qubits
    )
    return NoiseModel(qubits, noise.edges, dict(noise.physical_direction))


def run_calibration(
    noise: NoiseModel,
    config: ExperimentConfig,
    qubits: tuple[int, ...],
    include_gate_noise: bool = True,
) -> list[Counts]:
    """Simulate the basis-state calibration set at the experiment's shot budget.

    By default the X preparation gates see the model's gate noise, as on
    hardware; include_gate_noise=False calibrates readout alone.
    """
    model = noise if include_gate_noise else _without_gate_noise(noise)
    circuits = build_readout_calibration_circuits(len(qubits), qubits)
    results = []
    for basis, circuit in enumerate(circuits):
        draws = [
            simulate(circuit, model, config.shots_per_rep, derive_seed(config.seed, "cal", *qubits, basis, rep))
            for rep in range(config.repetitions)
        ]
        results.append(sum(draws[1:], draws[0]))
    return results


def _mitigate_orientation(
    result: OrientationResult, assignment: AssignmentMatrix
) -> OrientationResult:
    per_n: dict[int, StageResult] = {}
    for n, cell in result.per_n.items():
        if cell.counts is None:
            raise ValueError("stage has no raw counts; was the report already mitigated?")
        corrected = mitigate(cell.counts, assignment)
        exact = mitigate_probabilities(cell.exact_probs, assignment).tolist()
        per_n[n] = StageResult(
            ground_count=float(corrected.pseudo_counts[0]),
            total=cell.total,
            g=float(corrected.probabilities[0]),
            exact_p00=exact[0],
            exact_probs=tuple(exact),
            counts=None,
        )
    return OrientationResult(result.control, result.target, per_n)


def mitigate_report(report: AsymmetryReport, assignment: AssignmentMatrix) -> AsymmetryReport:
    """Re-derive the asymmetry verdict from mitigated distributions."""
    return assemble_report(
        report.pair,
        report.config,
        _mitigate_orientation(report.result_01, assignment),
        _mitigate_orientation(report.result_10, assignment),
    )


@dataclass(frozen=True)
class ComparisonRecord:
    """Raw versus mitigated asymmetry for one pair."""

    pair: tuple[int, int]
    per_n: dict[int, dict[str, float]]
    max_f_raw: float
    max_f_mit: float
    relative_change_max_f: float | None
    asymmetry_exacerbated: bool

    def to_document(self) -> dict:
        return {
            "pair": list(self.pair),
            "per_n": {str(n): dict(row) for n, row in sorted(self.per_n.items())},
            "max_f_raw": self.max_f_raw,
            "max_f_mit": self.max_f_mit,
            "relative_change_max_f": self.relative_change_max_f,
            "asymmetry_exacerbated": self.asymmetry_exacerbated,
        }


def compare_mitigated(raw: AsymmetryReport, mitigated: AsymmetryReport) -> ComparisonRecord:
    """Tabulate per-stage g and f before and after mitigation."""
    if raw.pair != mitigated.pair or raw.config != mitigated.config:
        raise ValueError("reports describe different experiments")
    if set(raw.f) != set(mitigated.f):
        raise ValueError("reports cover different stage counts")
    per_n = {}
    for n in sorted(raw.f):
        per_n[n] = {
            "g_raw_01": raw.result_01.per_n[n].g,
            "g_raw_10": raw.result_10.per_n[n].g,
            "g_mit_01": mitigated.result_01.per_n[n].g,
            "g_mit_10": mitigated.result_10.per_n[n].g,
            "f_raw": raw.f[n],
            "f_mit": mitigated.f[n],
        }
    change = None
    if raw.max_f > 0.0:
        change = relative_change(raw.max_f, mitigated.max_f)
    return ComparisonRecord(
        pair=raw.pair,
        per_n=per_n,
        max_f_raw=raw.max_f,
        max_f_mit=mitigated.max_f,
        relative_change_max_f=change,
        asymmetry_exacerbated=mitigated.max_f > raw.max_f,
    )
