"""Direction-asymmetry benchmark: run both CNOT orientations and compare.

For each orientation the n-stage identity circuit is executed at n = 1..
max_stages with seeded repetitions, recording the measured all-zeros
fraction g alongside the exact outcome probabilities. The asymmetry
f(n) = |g01(n) - g10(n)| classifies the pair once any stage reaches the
threshold.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction

from .circuits import build_n_stage
from .noise import NoiseModel
from .simulator import Counts, bitstring, evolve, measured_distribution, sample_counts

__all__ = [
    "ExperimentConfig",
    "StageResult",
    "OrientationResult",
    "AsymmetryReport",
    "derive_seed",
    "ground_fraction",
    "asymmetry",
    "classify",
    "relative_change",
    "run_orientation",
    "run_asymmetry_experiment",
    "assemble_report",
    "report_rows",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Stage sweep, shot budget, classification threshold, and master seed."""

    max_stages: int = 6
    repetitions: int = 3
    shots_per_rep: int = 4096
    threshold: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_stages < 1:
            raise ValueError(f"max_stages must be at least 1, got {self.max_stages}")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be at least 1, got {self.repetitions}")
        if self.shots_per_rep < 1:
            raise ValueError(f"shots_per_rep must be at least 1, got {self.shots_per_rep}")
        if not (0.0 < self.threshold < 1.0):
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")

    @property
    def total_shots(self) -> int:
        return self.repetitions * self.shots_per_rep

    def to_document(self) -> dict:
        return {
            "max_stages": self.max_stages,
            "repetitions": self.repetitions,
            "shots_per_rep": self.shots_per_rep,
            "threshold": self.threshold,
            "seed": self.seed,
        }


def derive_seed(master_seed: int, *fields: object) -> int:
    """Stable per-cell sampling seed; independent of evaluation order."""
    key = ":".join([str(master_seed), *(str(f) for f in fields)])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# ── metrics ─────────────────────────────────────────────────────────────


def ground_fraction(counts: Counts) -> float:
    """Fraction of shots that read all zeros."""
    if counts.total < 1:
        raise ValueError("counts are empty")
    return counts.ground_count / counts.total


def asymmetry(g01: float, g10: float) -> float:
    """Absolute ground-fraction gap between the two orientations."""
    return abs(g01 - g10)


def classify(f_by_n: dict[int, float], threshold: float) -> bool:
    """Asymmetric when any stage reaches the threshold (inclusive)."""
    if not f_by_n:
        raise ValueError("no asymmetry values to classify")
    return any(f >= threshold for f in f_by_n.values())


def relative_change(before: float, after: float) -> float:
    """(after - before) / before, for strictly positive before."""
    if before <= 0.0:
        raise ValueError(f"relative change needs a positive baseline, got {before}")
    return (after - before) / before


# ── results ─────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class StageResult:
    """One (orientation, n) cell.

    ground_count is an integer for sampled runs and a scaled pseudo-count
    after mitigation; counts is None once mitigation replaces the raw
    shot record. exact_probs is indexed by outcome, and it and exact_p00
    include readout confusion.
    """

    ground_count: float
    total: int
    g: float
    exact_p00: float
    exact_probs: tuple[float, ...]
    counts: Counts | None

    def to_document(self) -> dict:
        width = len(self.exact_probs).bit_length() - 1
        return {
            "ground_count": self.ground_count,
            "total": self.total,
            "g": self.g,
            "exact_p00": self.exact_p00,
            "exact_probs": {bitstring(i, width): p for i, p in enumerate(self.exact_probs)},
            "counts": None if self.counts is None else self.counts.data,
        }


@dataclass(frozen=True)
class OrientationResult:
    """Stage sweep for one CNOT orientation."""

    control: int
    target: int
    per_n: dict[int, StageResult]

    def to_document(self) -> dict:
        return {
            "control": self.control,
            "target": self.target,
            "per_n": {str(n): r.to_document() for n, r in sorted(self.per_n.items())},
        }


@dataclass(frozen=True)
class AsymmetryReport:
    """Both orientations of one pair plus the derived asymmetry curve.

    result_01 runs CNOT(pair[0] -> pair[1]); result_10 the reverse. f is
    computed from sampled counts, f_exact from exact probabilities.
    """

    pair: tuple[int, int]
    config: ExperimentConfig
    result_01: OrientationResult
    result_10: OrientationResult
    f: dict[int, float]
    f_exact: dict[int, float]
    classified_asymmetric: bool
    max_f: float
    argmax_n: int

    def to_document(self) -> dict:
        return {
            "pair": list(self.pair),
            "config": self.config.to_document(),
            "result_01": self.result_01.to_document(),
            "result_10": self.result_10.to_document(),
            "f": {str(n): v for n, v in sorted(self.f.items())},
            "f_exact": {str(n): v for n, v in sorted(self.f_exact.items())},
            "classified_asymmetric": self.classified_asymmetric,
            "max_f": self.max_f,
            "argmax_n": self.argmax_n,
        }


# ── runners ─────────────────────────────────────────────────────────────


def run_orientation(
    control: int, target: int, noise: NoiseModel, config: ExperimentConfig
) -> OrientationResult:
    """Sweep n = 1..max_stages for one orientation.

    The outcome distribution is computed once per stage count; each
    repetition draws shots_per_rep samples from it with a seed derived from
    (seed, control, target, n, repetition), so cells are reproducible in
    any execution order.
    """
    per_n: dict[int, StageResult] = {}
    for n in range(1, config.max_stages + 1):
        state, measured = evolve(build_n_stage(control, target, n), noise)
        dist = measured_distribution(state, measured, noise.readout_pairs(measured))
        draws = [
            sample_counts(dist, config.shots_per_rep, derive_seed(config.seed, control, target, n, rep))
            for rep in range(config.repetitions)
        ]
        counts = sum(draws[1:], draws[0])
        per_n[n] = StageResult(
            ground_count=counts.ground_count,
            total=counts.total,
            g=ground_fraction(counts),
            exact_p00=float(dist[0]),
            exact_probs=tuple(dist.tolist()),
            counts=counts,
        )
    return OrientationResult(control, target, per_n)


def assemble_report(
    pair: tuple[int, int],
    config: ExperimentConfig,
    result_01: OrientationResult,
    result_10: OrientationResult,
) -> AsymmetryReport:
    """Derive the asymmetry curve and verdict from two orientation sweeps."""
    if set(result_01.per_n) != set(result_10.per_n):
        raise ValueError("orientation sweeps cover different stage counts")
    f: dict[int, float] = {}
    f_exact: dict[int, float] = {}
    for n in sorted(result_01.per_n):
        a, b = result_01.per_n[n], result_10.per_n[n]
        # Exact rational difference of count ratios, rounded once at the end.
        f[n] = float(abs(Fraction(a.ground_count) / a.total - Fraction(b.ground_count) / b.total))
        f_exact[n] = abs(a.exact_p00 - b.exact_p00)
    max_f = max(f.values())
    argmax_n = min(n for n, v in f.items() if v == max_f)
    return AsymmetryReport(
        pair=pair,
        config=config,
        result_01=result_01,
        result_10=result_10,
        f=f,
        f_exact=f_exact,
        classified_asymmetric=classify(f, config.threshold),
        max_f=max_f,
        argmax_n=argmax_n,
    )


def run_asymmetry_experiment(
    pair: tuple[int, int], noise: NoiseModel, config: ExperimentConfig | None = None
) -> AsymmetryReport:
    """Benchmark both orientations of a pair and classify its asymmetry."""
    a, b = pair
    if a == b:
        raise ValueError(f"pair qubits must differ, both are {a}")
    if config is None:
        config = ExperimentConfig()
    result_01 = run_orientation(a, b, noise, config)
    result_10 = run_orientation(b, a, noise, config)
    return assemble_report((a, b), config, result_01, result_10)


def report_rows(report: AsymmetryReport) -> list[dict]:
    """Flat per-(orientation, n) rows matching the CSV column layout."""
    pair_label = f"{report.pair[0]}-{report.pair[1]}"
    rows = []
    for result in (report.result_01, report.result_10):
        for n in sorted(result.per_n):
            cell = result.per_n[n]
            rows.append(
                {
                    "pair": pair_label,
                    "control": result.control,
                    "target": result.target,
                    "n": n,
                    "shots": cell.total,
                    "ground_count": cell.ground_count,
                    "g": cell.g,
                    "exact_p00": cell.exact_p00,
                }
            )
    return rows
