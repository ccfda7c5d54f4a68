"""Acceptance gate: one test per package-level guarantee.

Each criterion prints a single [PASS]/[FAIL] line carrying the measured
quantities, then asserts. Run with -s (or read failure output) to see the
lines; `pytest -v` shows one verdict per criterion either way.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np

from cnotbench.circuits import (
    CNOT_MATRIX,
    Circuit,
    Gate,
    GateKind,
    build_n_stage,
    circuit_unitary,
    reverse_cnot,
)
from cnotbench.cli import main
from cnotbench.experiment import (
    ExperimentConfig,
    StageResult,
    OrientationResult,
    assemble_report,
    ground_fraction,
    relative_change,
    run_asymmetry_experiment,
)
from cnotbench.mitigation import AssignmentMatrix, mitigate_report
from cnotbench.noise import (
    DirectedEdgeParams,
    NoiseModel,
    QubitParams,
    ideal_model,
    synth_asymmetric_model,
)
from cnotbench.simulator import Counts, exact_distribution, simulate
from cnotbench.transpiler import CouplingMap, estimate_success, orient_for_error


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_identity_composite():
    # noiseless n-stage circuits return to |00> for both orientations
    model = ideal_model(2)
    worst = 0.0
    counts_ok = True
    for control, target in ((0, 1), (1, 0)):
        for n in range(1, 7):
            circuit = build_n_stage(control, target, n)
            p00 = exact_distribution(circuit, model)["00"]
            worst = max(worst, abs(p00 - 1.0))
            counts = simulate(circuit, model, shots=4096, seed=n)
            counts_ok = counts_ok and counts.data == {"00": 4096}
    verdict(
        1,
        worst < 1e-10 and counts_ok,
        f"max |P(00) - 1| = {worst:.3e} over both orientations, n = 1..6; "
        f"all sampled counts concentrated on 00: {counts_ok}",
    )


def test_criterion_2_cnot_reversal(tmp_path):
    # (a) the Hadamard sandwich reproduces CNOT as a matrix
    gap = 0.0
    for control, target in ((0, 1), (1, 0)):
        composite = circuit_unitary(Circuit(2, 0, reverse_cnot(control, target)))
        direct = circuit_unitary(Circuit(2, 0, (Gate.cnot(control, target),)))
        gap = max(gap, float(np.max(np.abs(composite - direct))))
    gap = max(
        gap,
        float(np.max(np.abs(circuit_unitary(Circuit(2, 0, reverse_cnot(0, 1))) - CNOT_MATRIX))),
    )

    # (b) CLI --verify succeeds on a 50-circuit random corpus
    model = ideal_model(3)
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(model.to_document()), encoding="utf-8")
    directions = [e.direction for e in model.edges]
    rng = np.random.default_rng(2024)
    failures = 0
    for index in range(50):
        gates = []
        for _ in range(int(rng.integers(1, 9))):
            roll = rng.random()
            if roll < 0.45:
                c, t = directions[int(rng.integers(0, len(directions)))]
                gates.append(Gate.cnot(c, t))
            elif roll < 0.60:
                gates.append(Gate.h(int(rng.integers(0, 3))))
            elif roll < 0.70:
                gates.append(Gate.x(int(rng.integers(0, 3))))
            elif roll < 0.80:
                gates.append(Gate.sx(int(rng.integers(0, 3))))
            elif roll < 0.92:
                theta, phi, lam = (float(v) for v in rng.uniform(-math.pi, math.pi, 3))
                gates.append(Gate.u(int(rng.integers(0, 3)), theta, phi, lam))
            else:
                gates.append(Gate.barrier(0, 1, 2))
        circuit_path = tmp_path / f"circuit_{index}.json"
        circuit_path.write_text(
            json.dumps(Circuit(3, 0, tuple(gates)).to_document()), encoding="utf-8"
        )
        code = main([
            "transpile", "--circuit", str(circuit_path), "--map", str(map_path),
            "--verify", "--out", str(tmp_path / f"out_{index}"),
        ])
        failures += code != 0
    verdict(
        2,
        gap < 1e-12 and failures == 0,
        f"reversal matrix gap = {gap:.3e}; --verify failures = {failures}/50",
    )


def test_criterion_3_asymmetry_emergence():
    report = run_asymmetry_experiment((0, 1), synth_asymmetric_model(0.01, 2.0))
    curve = [report.f_exact[n] for n in range(1, 7)]
    increasing = all(b > a for a, b in zip(curve, curve[1:]))
    crossing = next((n for n in range(1, 7) if report.f_exact[n] >= 0.02), None)

    symmetric = run_asymmetry_experiment(
        (0, 1), synth_asymmetric_model(0.01, 1.0, durations_ns=(348.0, 348.0))
    )
    residual = max(symmetric.f_exact.values())
    verdict(
        3,
        increasing
        and crossing is not None
        and crossing <= 4
        and report.classified_asymmetric
        and residual < 1e-12,
        f"f_exact strictly increasing: {increasing}, crosses 0.02 at n = {crossing}, "
        f"classified asymmetric: {report.classified_asymmetric}; "
        f"factor-1 residual max f = {residual:.3e}",
    )


def test_criterion_4_coherent_periodicity():
    ideal_qubit = QubitParams(math.inf, math.inf, 0.0, 0.0, 0.0, 0.0)
    model = NoiseModel(
        (ideal_qubit, ideal_qubit),
        (
            DirectedEdgeParams(0, 1, 0.0, 0.0, coherent_axis="ZX", coherent_angle_rad=0.25),
            DirectedEdgeParams(1, 0, 0.0, 0.0),
        ),
        {(0, 1): 0},
    )
    g = {n: exact_distribution(build_n_stage(0, 1, n), model)["00"] for n in range(1, 13)}
    dips = [n for n in range(2, 12) if g[n] < g[n - 1] and g[n + 1] > g[n]]
    verdict(
        4,
        bool(dips),
        f"g(n) local minima followed by a rise at n = {dips}; "
        f"g spans [{min(g.values()):.4f}, {max(g.values()):.4f}]",
    )


def test_criterion_5_mitigation_dichotomy():
    # (a) asymmetry caused by readout alone disappears under mitigation
    q0 = QubitParams(20.0, 30.0, 0.0, 0.0, 0.0005, 35.0)
    q1 = QubitParams(20.0, 30.0, 0.05, 0.5, 0.0005, 35.0)
    readout_model = NoiseModel(
        (q0, q1),
        (DirectedEdgeParams(0, 1, 0.008, 500.0), DirectedEdgeParams(1, 0, 0.008, 500.0)),
        {(0, 1): 0},
    )
    raw_a = run_asymmetry_experiment((0, 1), readout_model)
    mit_a = mitigate_report(raw_a, AssignmentMatrix.from_readout(readout_model.readout_pairs((0, 1))))
    raw_f = max(raw_a.f_exact.values())
    mit_f = max(mit_a.f_exact.values())

    # (b) gate-induced asymmetry survives while overall g improves
    gate_model = synth_asymmetric_model(0.01, 2.0)
    raw_b = run_asymmetry_experiment((0, 1), gate_model)
    mit_b = mitigate_report(raw_b, AssignmentMatrix.from_readout(gate_model.readout_pairs((0, 1))))
    surviving = max(mit_b.f_exact.values())
    deltas = [
        mit.per_n[n].g - raw.per_n[n].g
        for raw, mit in ((raw_b.result_01, mit_b.result_01), (raw_b.result_10, mit_b.result_10))
        for n in raw.per_n
    ]
    mean_gain = sum(deltas) / len(deltas)
    verdict(
        5,
        raw_f >= 0.01 and mit_f < 1e-9 and surviving >= 0.02 and mean_gain >= 0.01,
        f"readout-only: raw f = {raw_f:.4f}, mitigated f = {mit_f:.3e}; "
        f"gate-noise: mitigated f = {surviving:.4f}, mean g gain = {mean_gain:.4f}",
    )


def test_criterion_6_reported_arithmetic():
    change = relative_change(0.0555, 0.0618)
    within = abs(change - 0.1135) <= 0.0005

    total = 12288
    exact = all(
        ground_fraction(Counts((g, total - g, 0, 0))) == float(Fraction(g, total))
        for g in range(total + 1)
    )

    def sweep(ground_counts):
        per_n = {
            n: StageResult(g, total, g / total, g / total, {}, None)
            for n, g in enumerate(ground_counts, start=1)
        }
        return OrientationResult(0, 1, per_n)

    report = assemble_report(
        (0, 1), ExperimentConfig(max_stages=3), sweep([682, 700, 759]), sweep([759, 682, 700])
    )
    rational = all(
        report.f[n] == float(abs(Fraction(a, total) - Fraction(b, total)))
        for n, (a, b) in enumerate(zip([682, 700, 759], [759, 682, 700]), start=1)
    )
    verdict(
        6,
        within and exact and rational,
        f"relative_change(0.0555, 0.0618) = {change:.6f}; "
        f"g = G/{total} exact for all G: {exact}; f exact as rationals: {rational}",
    )


def test_criterion_7_transpiler_optimality():
    u2 = 0.00042
    qubit = QubitParams(80.0, 100.0, 0.0, 0.0, u2, 35.0)

    def cmap(direct_error):
        return CouplingMap(
            num_qubits=2,
            edges={
                (0, 1): DirectedEdgeParams(0, 1, direct_error, 300.0),
                (1, 0): DirectedEdgeParams(1, 0, 0.00862, 300.0),
            },
            physical_direction={(0, 1): 0},
            qubit_params=(qubit, qubit),
        )

    # exhaustive optimality over every 2-qubit circuit with <= 4 CNOTs
    competitive = cmap(0.0105)
    worst_gap = 0.0
    circuits = 0
    for length in range(5):
        for combo in itertools.product(((0, 1), (1, 0)), repeat=length):
            circuit = Circuit(2, 0, tuple(Gate.cnot(c, t) for c, t in combo))
            achieved = orient_for_error(circuit, competitive).estimated_success
            best = 1.0
            if combo:
                best = -1.0
                for choice in itertools.product((False, True), repeat=length):
                    gates = []
                    for (c, t), sandwich in zip(combo, choice):
                        gates.extend(reverse_cnot(c, t) if sandwich else [Gate.cnot(c, t)])
                    best = max(best, estimate_success(Circuit(2, 0, tuple(gates)), competitive))
            worst_gap = max(worst_gap, abs(achieved - best))
            circuits += 1

    # realization switches exactly when the reverse direction wins the
    # product objective despite the four extra half-rotations
    h_cost = (1.0 - u2) ** 2
    h_cost *= (1.0 - u2) ** 2
    sandwich_success = h_cost * (1.0 - 0.00862)
    boundary_ok = True
    for direct_error in (0.0090, 0.0100, 0.0102, 0.01028, 0.010285, 0.0103, 0.0105, 0.0120):
        report = orient_for_error(Circuit(2, 0, (Gate.cnot(0, 1),)), cmap(direct_error))
        expected = "sandwich" if sandwich_success > 1.0 - direct_error else "direct"
        boundary_ok = boundary_ok and report.decisions[0].realization == expected
    kept = orient_for_error(Circuit(2, 0, (Gate.cnot(0, 1),)), cmap(0.0100))
    switched = orient_for_error(Circuit(2, 0, (Gate.cnot(0, 1),)), cmap(0.0105))
    endpoints = (
        kept.decisions[0].realization == "direct"
        and switched.decisions[0].realization == "sandwich"
    )
    verdict(
        7,
        worst_gap < 1e-12 and boundary_ok and endpoints,
        f"{circuits} circuits exhaustively checked, worst optimality gap = {worst_gap:.3e}; "
        f"switch boundary respected around 1 - {sandwich_success!r}",
    )


def test_criterion_8_determinism_and_statistics(tmp_path):
    # (a) repeated CLI runs are byte-identical
    model_path = tmp_path / "model.json"
    model_path.write_text(
        json.dumps(synth_asymmetric_model(0.01, 2.0).to_document()), encoding="utf-8"
    )
    for label in ("a", "b"):
        code = main([
            "bench", "--model", str(model_path), "--pair", "0,1",
            "--seed", "3", "--out", str(tmp_path / label),
        ])
        assert code == 0
    identical = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("results.csv", "report.json")
    )

    # (b) the symmetric model stays classified symmetric across seeds
    symmetric = synth_asymmetric_model(0.01, 1.0, durations_ns=(348.0, 348.0))
    false_positives = sum(
        run_asymmetry_experiment((0, 1), symmetric, ExperimentConfig(seed=seed)).classified_asymmetric
        for seed in range(100)
    )
    verdict(
        8,
        identical and false_positives <= 5,
        f"repeat runs byte-identical: {identical}; "
        f"{100 - false_positives}/100 seeds classified symmetric",
    )
