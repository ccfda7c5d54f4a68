"""Measurement-error mitigation: matrix assembly, inversion, dichotomy."""

import math

import numpy as np
import pytest

from cnotbench.experiment import ExperimentConfig, run_asymmetry_experiment
from cnotbench.mitigation import (
    AssignmentMatrix,
    MitigationError,
    build_assignment_matrix,
    compare_mitigated,
    mitigate,
    mitigate_probabilities,
    mitigate_report,
    run_calibration,
)
from cnotbench.noise import (
    DirectedEdgeParams,
    NoiseModel,
    QubitParams,
    ideal_model,
    synth_asymmetric_model,
)
from cnotbench.simulator import Counts, readout_confusion_matrix

CONFIG = ExperimentConfig(max_stages=3, repetitions=2, shots_per_rep=1024, seed=5)


def readout_model(pairs, cnot_error=0.0, duration=0.0, t1=math.inf, u2=0.0):
    qubits = tuple(
        QubitParams(t1, t1 if t1 != math.inf else math.inf, p01, p10, u2, 35.0 if u2 else 0.0)
        for p01, p10 in pairs
    )
    return NoiseModel(
        qubits,
        (DirectedEdgeParams(0, 1, cnot_error, duration), DirectedEdgeParams(1, 0, cnot_error, duration)),
        {(0, 1): 0},
    )


# ── assignment matrix ───────────────────────────────────────────────────


def test_build_assignment_matrix_columns_are_frequencies():
    calibration = [
        Counts((90, 6, 4, 0)),
        Counts((5, 95, 0, 0)),
        Counts((0, 0, 92, 8)),
        Counts((0, 0, 0, 100)),
    ]
    a = build_assignment_matrix(calibration)
    assert a.matrix[0, 0] == pytest.approx(0.90)
    assert a.matrix[1, 1] == pytest.approx(0.95)
    assert a.matrix[3, 2] == pytest.approx(0.08)
    assert np.max(np.abs(a.matrix.sum(axis=0) - 1.0)) < 1e-12


def test_build_assignment_matrix_validation():
    with pytest.raises(ValueError):
        build_assignment_matrix([Counts((10, 0))])  # not a power-of-two count
    with pytest.raises(ValueError):
        build_assignment_matrix([Counts((1, 0)), Counts((1, 0, 0, 0))])


def test_from_readout_matches_confusion_matrix():
    pairs = [(0.02, 0.03), (0.05, 0.01)]
    a = AssignmentMatrix.from_readout(pairs)
    assert np.array_equal(a.matrix, readout_confusion_matrix(pairs))
    assert a.condition_number() > 1.0


def test_assignment_matrix_rejects_bad_columns():
    with pytest.raises(ValueError):
        AssignmentMatrix(1, np.array([[0.9, 0.0], [0.2, 1.0]]))
    with pytest.raises(ValueError):
        AssignmentMatrix(1, np.array([[1.1, 0.0], [-0.1, 1.0]]))


# ── correction ──────────────────────────────────────────────────────────


def test_identity_assignment_leaves_counts_alone():
    counts = Counts((700, 200, 60, 40))
    result = mitigate(counts, AssignmentMatrix(2, np.eye(4)))
    for outcome, value in enumerate(counts.per_outcome):
        assert result.probabilities[outcome] == pytest.approx(value / 1000, abs=1e-12)
        assert result.pseudo_counts[outcome] == pytest.approx(value, abs=1e-9)
    assert result.total == 1000


def test_exact_inversion_recovers_true_distribution():
    truth = {"00": 0.9, "01": 0.04, "10": 0.04, "11": 0.02}
    pairs = [(0.02, 0.03), (0.05, 0.01)]
    confusion = readout_confusion_matrix(pairs)
    vec = np.array([truth["00"], truth["01"], truth["10"], truth["11"]])
    observed = confusion @ vec
    recovered = mitigate_probabilities(observed, AssignmentMatrix.from_readout(pairs))
    for i in range(4):
        assert abs(recovered[i] - vec[i]) < 1e-9


def test_nonnegativity_under_sampling_noise():
    # an observed vector inconsistent with any true distribution still
    # yields a physical result
    a = AssignmentMatrix.from_readout([(0.3, 0.3)])
    result = mitigate_probabilities(np.array([0.99, 0.01]), a)
    assert result[0] >= 0.0 and result[1] >= 0.0
    assert abs(sum(result) - 1.0) < 1e-12


def test_ill_conditioned_matrix_is_an_error():
    a = AssignmentMatrix.from_readout([(0.5, 0.5), (0.02, 0.02)])
    with pytest.raises(MitigationError, match="condition"):
        mitigate(Counts((10, 0, 0, 6)), a)


def test_mitigate_checks_width():
    with pytest.raises(ValueError):
        mitigate(Counts((16, 0)), AssignmentMatrix(2, np.eye(4)))


# ── calibration runs ────────────────────────────────────────────────────


def test_run_calibration_ideal_model_is_diagonal():
    counts = run_calibration(ideal_model(2), CONFIG, (0, 1))
    assert [c.total for c in counts] == [CONFIG.total_shots] * 4
    for basis, c in enumerate(counts):
        assert c.data == {format(basis, "02b"): CONFIG.total_shots}


def test_run_calibration_gate_noise_toggle():
    model = readout_model([(0.02, 0.03), (0.02, 0.03)], u2=0.01)
    with_noise = build_assignment_matrix(run_calibration(model, CONFIG, (0, 1)))
    without = build_assignment_matrix(
        run_calibration(model, CONFIG, (0, 1), include_gate_noise=False)
    )
    # X preparation errors only show up when gate noise is left on
    assert not np.allclose(with_noise.matrix, without.matrix, atol=1e-4)
    ideal = readout_confusion_matrix([(0.02, 0.03), (0.02, 0.03)])
    assert np.max(np.abs(without.matrix - ideal)) < 0.02


def test_run_calibration_is_deterministic():
    model = readout_model([(0.02, 0.03), (0.01, 0.04)])
    a = run_calibration(model, CONFIG, (0, 1))
    b = run_calibration(model, CONFIG, (0, 1))
    assert a == b


# ── report-level mitigation ─────────────────────────────────────────────


def test_readout_only_asymmetry_is_removed():
    # direction-symmetric gates, asymmetric readout: raw f nonzero,
    # mitigated exact f at numerical zero
    model = readout_model([(0.0, 0.0), (0.05, 0.5)], cnot_error=0.008, duration=500.0, t1=20.0, u2=0.0005)
    raw = run_asymmetry_experiment((0, 1), model, CONFIG)
    assert max(raw.f_exact.values()) > 0.001
    mitigated = mitigate_report(raw, AssignmentMatrix.from_readout([(0.0, 0.0), (0.05, 0.5)]))
    assert max(mitigated.f_exact.values()) < 1e-9
    # pseudo-counts stay consistent with the mitigated g values
    for cell in mitigated.result_01.per_n.values():
        assert cell.counts is None
        assert cell.ground_count == pytest.approx(cell.g * cell.total)


def test_gate_asymmetry_survives_mitigation():
    model = synth_asymmetric_model(0.01, 2.0)
    raw = run_asymmetry_experiment((0, 1), model, ExperimentConfig(seed=13))
    assignment = AssignmentMatrix.from_readout([(0.025, 0.025), (0.025, 0.025)])
    mitigated = mitigate_report(raw, assignment)
    assert max(mitigated.f_exact.values()) >= 0.02
    assert mitigated.classified_asymmetric
    # g goes up once readout losses are corrected
    for result_raw, result_mit in (
        (raw.result_01, mitigated.result_01),
        (raw.result_10, mitigated.result_10),
    ):
        for n in result_raw.per_n:
            assert result_mit.per_n[n].exact_p00 > result_raw.per_n[n].exact_p00


def test_mitigate_report_requires_raw_counts():
    model = synth_asymmetric_model(0.01, 2.0)
    raw = run_asymmetry_experiment((0, 1), model, CONFIG)
    assignment = AssignmentMatrix.from_readout([(0.025, 0.025), (0.025, 0.025)])
    mitigated = mitigate_report(raw, assignment)
    with pytest.raises(ValueError, match="already mitigated"):
        mitigate_report(mitigated, assignment)


def test_compare_mitigated_record():
    model = synth_asymmetric_model(0.01, 2.0)
    raw = run_asymmetry_experiment((0, 1), model, CONFIG)
    assignment = build_assignment_matrix(run_calibration(model, CONFIG, (0, 1)))
    mitigated = mitigate_report(raw, assignment)
    record = compare_mitigated(raw, mitigated)
    assert record.pair == (0, 1)
    assert set(record.per_n) == {1, 2, 3}
    row = record.per_n[2]
    assert set(row) == {"g_raw_01", "g_raw_10", "g_mit_01", "g_mit_10", "f_raw", "f_mit"}
    assert row["g_raw_01"] == raw.result_01.per_n[2].g
    assert row["f_mit"] == mitigated.f[2]
    assert record.max_f_raw == raw.max_f and record.max_f_mit == mitigated.max_f
    assert record.asymmetry_exacerbated == (mitigated.max_f > raw.max_f)
    if raw.max_f > 0:
        assert record.relative_change_max_f == pytest.approx(
            (mitigated.max_f - raw.max_f) / raw.max_f
        )


def test_compare_mitigated_rejects_mismatch():
    model = synth_asymmetric_model(0.01, 2.0)
    raw = run_asymmetry_experiment((0, 1), model, CONFIG)
    other = run_asymmetry_experiment(
        (0, 1), model, ExperimentConfig(max_stages=2, repetitions=2, shots_per_rep=1024, seed=5)
    )
    with pytest.raises(ValueError):
        compare_mitigated(raw, other)
