"""Experiment runner: metrics, seed discipline, reports, symmetries."""

import math
from fractions import Fraction

import pytest

from cnotbench.circuits import build_n_stage
from cnotbench.experiment import (
    AsymmetryReport,
    ExperimentConfig,
    asymmetry,
    classify,
    derive_seed,
    ground_fraction,
    relative_change,
    report_rows,
    run_asymmetry_experiment,
    run_orientation,
)
from cnotbench.noise import (
    DirectedEdgeParams,
    NoiseModel,
    QubitParams,
    synth_asymmetric_model,
)
from cnotbench.simulator import Counts, simulate

SMALL = ExperimentConfig(max_stages=3, repetitions=2, shots_per_rep=512, seed=17)


# ── metrics ─────────────────────────────────────────────────────────────


def test_ground_fraction_exact_rationals():
    for g_count in (0, 1, 600, 11288, 12288):
        counts = Counts((g_count, 0, 0, 12288 - g_count))
        assert ground_fraction(counts) == float(Fraction(g_count, 12288))


def test_asymmetry_and_classify():
    assert asymmetry(0.92, 0.895) == pytest.approx(0.025)
    assert asymmetry(0.895, 0.92) == pytest.approx(0.025)
    assert classify({1: 0.001, 2: 0.02}, 0.02) is True  # threshold is inclusive
    assert classify({1: 0.0199999}, 0.02) is False
    with pytest.raises(ValueError):
        classify({}, 0.02)


def test_relative_change_values():
    assert abs(relative_change(0.0555, 0.0618) - 0.1135135135135135) < 1e-12
    assert relative_change(2.0, 1.0) == pytest.approx(-0.5)
    with pytest.raises(ValueError):
        relative_change(0.0, 0.1)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(max_stages=0)
    with pytest.raises(ValueError):
        ExperimentConfig(threshold=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(shots_per_rep=0)
    assert ExperimentConfig().total_shots == 12288


def test_derive_seed_is_stable_and_sensitive():
    base = derive_seed(0, 0, 1, 3, 2)
    assert base == derive_seed(0, 0, 1, 3, 2)
    others = {
        derive_seed(1, 0, 1, 3, 2),
        derive_seed(0, 1, 0, 3, 2),
        derive_seed(0, 0, 1, 4, 2),
        derive_seed(0, 0, 1, 3, 1),
    }
    assert base not in others and len(others) == 4


# ── orientation runs ────────────────────────────────────────────────────


def test_run_orientation_totals_and_shape():
    model = synth_asymmetric_model(0.01, 2.0)
    result = run_orientation(0, 1, model, SMALL)
    assert sorted(result.per_n) == [1, 2, 3]
    for cell in result.per_n.values():
        assert cell.total == SMALL.total_shots
        assert cell.counts is not None and cell.counts.total == cell.total
        assert cell.g == cell.ground_count / cell.total
        assert abs(sum(cell.exact_probs) - 1.0) < 1e-9
        assert cell.exact_p00 == cell.exact_probs[0]


def test_run_orientation_matches_per_repetition_simulate():
    # the runner's merged counts are exactly the per-repetition simulate
    # draws under the documented seed derivation
    model = synth_asymmetric_model(0.01, 2.0)
    result = run_orientation(1, 0, model, SMALL)
    for n, cell in result.per_n.items():
        circuit = build_n_stage(1, 0, n)
        merged = None
        for rep in range(SMALL.repetitions):
            drawn = simulate(circuit, model, SMALL.shots_per_rep, derive_seed(SMALL.seed, 1, 0, n, rep))
            merged = drawn if merged is None else merged + drawn
        assert merged == cell.counts


def test_exact_p00_decreases_with_depth():
    # depolarizing-only model has a strictly decaying closed form
    quiet = QubitParams(math.inf, math.inf, 0.0, 0.0, 0.0, 0.0)
    model = NoiseModel(
        (quiet, quiet),
        (DirectedEdgeParams(0, 1, 0.02, 0.0), DirectedEdgeParams(1, 0, 0.02, 0.0)),
        {(0, 1): 0},
    )
    result = run_orientation(0, 1, model, ExperimentConfig(max_stages=6, repetitions=1, shots_per_rep=1))
    values = [result.per_n[n].exact_p00 for n in range(1, 7)]
    assert all(a > b for a, b in zip(values, values[1:]))


# ── full experiment ─────────────────────────────────────────────────────


def test_report_structure_and_f_consistency():
    model = synth_asymmetric_model(0.01, 2.0)
    report = run_asymmetry_experiment((0, 1), model, SMALL)
    assert report.pair == (0, 1)
    assert report.result_01.control == 0 and report.result_10.control == 1
    for n, f_value in report.f.items():
        a = report.result_01.per_n[n]
        b = report.result_10.per_n[n]
        # stored f must equal the exact rational recomputation from counts
        expected = float(abs(Fraction(int(a.ground_count), a.total) - Fraction(int(b.ground_count), b.total)))
        assert f_value == expected
    assert report.max_f == max(report.f.values())
    assert report.f[report.argmax_n] == report.max_f
    assert report.classified_asymmetric == any(v >= SMALL.threshold for v in report.f.values())


def test_experiment_is_deterministic():
    model = synth_asymmetric_model(0.01, 2.0)
    one = run_asymmetry_experiment((0, 1), model, SMALL)
    two = run_asymmetry_experiment((0, 1), model, SMALL)
    assert one == two
    assert one.to_document() == two.to_document()
    shifted = run_asymmetry_experiment((0, 1), model, ExperimentConfig(
        max_stages=3, repetitions=2, shots_per_rep=512, seed=18))
    assert shifted != one


def test_orientation_exchange_symmetry():
    # relabeling which orientation is "01" must not change f or the verdict
    model = synth_asymmetric_model(0.01, 2.0)
    forward = run_asymmetry_experiment((0, 1), model, SMALL)
    backward = run_asymmetry_experiment((1, 0), model, SMALL)
    assert forward.f == backward.f
    assert forward.f_exact == backward.f_exact
    assert forward.classified_asymmetric == backward.classified_asymmetric
    assert forward.result_01 == backward.result_10


def test_symmetric_model_has_zero_exact_f():
    model = synth_asymmetric_model(0.01, 1.0, durations_ns=(348.0, 348.0))
    report = run_asymmetry_experiment((0, 1), model, SMALL)
    assert max(report.f_exact.values()) < 1e-12


def test_run_asymmetry_rejects_degenerate_pair():
    with pytest.raises(ValueError):
        run_asymmetry_experiment((1, 1), synth_asymmetric_model(0.01, 2.0), SMALL)


def test_report_rows_layout():
    model = synth_asymmetric_model(0.01, 2.0)
    report = run_asymmetry_experiment((0, 1), model, SMALL)
    rows = report_rows(report)
    assert len(rows) == 2 * SMALL.max_stages
    assert rows[0]["pair"] == "0-1"
    assert [r["control"] for r in rows] == [0, 0, 0, 1, 1, 1]
    assert [r["n"] for r in rows] == [1, 2, 3, 1, 2, 3]
    for row in rows:
        assert row["shots"] == SMALL.total_shots
        assert 0.0 <= row["g"] <= 1.0 and 0.0 <= row["exact_p00"] <= 1.0


def test_report_document_round_trip_shape():
    model = synth_asymmetric_model(0.01, 2.0)
    report = run_asymmetry_experiment((0, 1), model, SMALL)
    doc = report.to_document()
    assert doc["pair"] == [0, 1]
    assert set(doc["f"]) == {"1", "2", "3"}
    assert doc["config"]["shots_per_rep"] == 512
    cell = doc["result_01"]["per_n"]["1"]
    assert set(cell) == {"ground_count", "total", "g", "exact_p00", "exact_probs", "counts"}
