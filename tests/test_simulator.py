"""Density-matrix simulator: channels against closed forms, sampling, execution."""

import math

import numpy as np
import pytest

from cnotbench.circuits import Circuit, Gate, build_n_stage
from cnotbench.noise import (
    DirectedEdgeParams,
    NoiseModel,
    QubitParams,
    ideal_model,
    synth_asymmetric_model,
)
from cnotbench.simulator import (
    Counts,
    DensityState,
    KrausChannel,
    apply_channel,
    apply_gate,
    coherent_overrotation_channel,
    depolarizing_channel,
    evolve,
    exact_distribution,
    measured_distribution,
    pauli_string_matrix,
    readout_confusion_matrix,
    sample_counts,
    simulate,
    thermal_relaxation_channel,
)


def bell_state() -> DensityState:
    state = DensityState.ground(2)
    state = apply_gate(state, Gate.h(0))
    return apply_gate(state, Gate.cnot(0, 1))


def plus_state() -> DensityState:
    return apply_gate(DensityState.ground(1), Gate.h(0))


# ── states and counts ───────────────────────────────────────────────────


def test_ground_state_and_validate():
    state = DensityState.ground(2)
    assert state.matrix[0, 0] == 1.0
    state.validate()
    with pytest.raises(ValueError):
        DensityState.ground(4)
    bad = DensityState(1, np.array([[0.5, 0.0], [0.3, 0.5]], dtype=complex))
    with pytest.raises(ValueError):
        bad.validate()


def test_counts_invariants():
    counts = Counts((3, 0, 0, 5))
    assert counts.total == 8 and counts.num_bits == 2
    assert counts.ground_count == 3 and counts.per_outcome[1] == 0
    merged = counts + Counts((1, 2, 0, 0))
    assert merged.data == {"00": 4, "11": 5, "01": 2} and merged.total == 11
    with pytest.raises(ValueError):
        Counts((1, 2, 3))  # not one count per outcome of whole bits
    with pytest.raises(ValueError):
        Counts((1, -1))
    with pytest.raises(ValueError):
        counts + Counts((1, 0))


# ── gates ───────────────────────────────────────────────────────────────


def test_apply_gate_little_endian_cnot():
    # "01" means qubit 0 is set; CNOT(0,1) must produce "11" (index 3)
    state = apply_gate(DensityState.ground(2), Gate.x(0))
    assert np.argmax(state.probabilities()) == 1
    state = apply_gate(state, Gate.cnot(0, 1))
    assert np.argmax(state.probabilities()) == 3
    # and with control on qubit 1 the same input is untouched
    state = apply_gate(DensityState.ground(2), Gate.x(0))
    state = apply_gate(state, Gate.cnot(1, 0))
    assert np.argmax(state.probabilities()) == 1


def test_apply_gate_preserves_state_quality():
    rng = np.random.default_rng(5)
    state = DensityState.ground(3)
    gates = [Gate.h(0), Gate.sx(2), Gate.cnot(2, 0), Gate.u(1, 1.0, 0.5, -0.3), Gate.cnot(1, 2)]
    for _ in range(30):
        state = apply_gate(state, gates[rng.integers(len(gates))])
    state.validate()
    assert abs(np.trace(state.matrix).real - 1.0) < 1e-12


def test_apply_gate_rejects_barriers():
    with pytest.raises(ValueError):
        apply_gate(DensityState.ground(1), Gate.barrier(0))


# ── depolarizing channel ────────────────────────────────────────────────


def test_depolarizing_kraus_structure():
    assert len(depolarizing_channel(0.0, 2).operators) == 1
    channel = depolarizing_channel(0.1, 2)
    assert len(channel.operators) == 16
    assert channel.completeness_defect() < 1e-12
    assert len(depolarizing_channel(0.1, 1).operators) == 4
    with pytest.raises(ValueError):
        depolarizing_channel(1.5, 1)


def test_depolarizing_mixes_toward_identity():
    p = 0.37
    state = apply_channel(bell_state(), depolarizing_channel(p, 2), (0, 1))
    expected = (1 - p) * bell_state().matrix + p * np.eye(4) / 4
    assert np.max(np.abs(state.matrix - expected)) < 1e-12


def test_depolarizing_bell_fidelity_closed_form():
    # for any two-qubit pure state: F = 1 - 3p/4
    p = 0.1
    rho = bell_state().matrix
    noisy = apply_channel(bell_state(), depolarizing_channel(p, 2), (0, 1))
    fidelity = float(np.real(np.trace(rho @ noisy.matrix)))
    assert abs(fidelity - 0.925) < 1e-12


def test_depolarizing_average_infidelity_scale():
    # average gate infidelity of the channel is 0.75p, same scale as the
    # published two-qubit error rates it stands in for
    p = 0.00862
    channel = depolarizing_channel(p, 2)
    trace_sum = sum(abs(np.trace(k)) ** 2 for k in channel.operators)
    avg_fidelity = (trace_sum + 4) / (16 + 4)
    assert abs((1 - avg_fidelity) - 0.75 * p) < 1e-12


# ── thermal relaxation ──────────────────────────────────────────────────


def test_thermal_relaxation_t1_decay():
    excited = DensityState(1, np.array([[0, 0], [0, 1]], dtype=complex))
    channel = thermal_relaxation_channel(80_000.0, 80.0, 80.0)  # one T1
    after = apply_channel(excited, channel, (0,))
    assert abs(after.matrix[1, 1].real - math.exp(-1)) < 1e-12


def test_thermal_relaxation_pure_dephasing():
    channel = thermal_relaxation_channel(50_000.0, math.inf, 50.0)  # one T2, no damping
    after = apply_channel(plus_state(), channel, (0,))
    assert abs(after.matrix[0, 1].real - 0.5 * math.exp(-1)) < 1e-12
    assert abs(after.matrix[0, 0].real - 0.5) < 1e-12  # populations untouched


def test_thermal_relaxation_combined_rates():
    # off-diagonals decay as exp(-d/T2) overall, populations as exp(-d/T1)
    d, t1, t2 = 23_000.0, 60.0, 80.0
    channel = thermal_relaxation_channel(d, t1, t2)
    after = apply_channel(plus_state(), channel, (0,))
    assert abs(after.matrix[0, 1].real - 0.5 * math.exp(-23 / 80)) < 1e-12
    excited = DensityState(1, np.array([[0, 0], [0, 1]], dtype=complex))
    after = apply_channel(excited, channel, (0,))
    assert abs(after.matrix[1, 1].real - math.exp(-23 / 60)) < 1e-12


def test_thermal_relaxation_identity_cases():
    assert len(thermal_relaxation_channel(0.0, 10.0, 10.0).operators) == 1
    infinite = thermal_relaxation_channel(1000.0, math.inf, math.inf)
    assert np.array_equal(infinite.operators[0], np.eye(2))


def test_thermal_relaxation_validation():
    with pytest.raises(ValueError):
        thermal_relaxation_channel(1.0, 10.0, 25.0)  # t2 > 2 t1
    with pytest.raises(ValueError):
        thermal_relaxation_channel(-1.0, 10.0, 10.0)
    with pytest.raises(ValueError):
        thermal_relaxation_channel(1.0, 0.0, 1.0)
    # t2 slightly above t1 (up to 2*t1) is legal
    channel = thermal_relaxation_channel(1000.0, 50.0, 90.0)
    assert channel.completeness_defect() < 1e-12


def test_thermal_relaxation_completeness_random_params():
    rng = np.random.default_rng(11)
    for _ in range(25):
        t1 = float(rng.uniform(5.0, 200.0))
        t2 = float(rng.uniform(0.5, 2.0)) * t1
        channel = thermal_relaxation_channel(float(rng.uniform(0.0, 5000.0)), t1, t2)
        assert channel.completeness_defect() < 1e-12


# ── coherent over-rotation ──────────────────────────────────────────────


def test_coherent_channel_is_unitary_and_oriented():
    channel = coherent_overrotation_channel("ZX", 0.25)
    (k,) = channel.operators
    assert np.max(np.abs(k @ k.conj().T - np.eye(4))) < 1e-12
    # first label character acts on the first qubit the channel touches
    expected = math.cos(0.125) * np.eye(4) - 1j * math.sin(0.125) * np.kron(
        pauli_string_matrix("X"), pauli_string_matrix("Z")
    )
    assert np.max(np.abs(k - expected)) < 1e-12


def test_coherent_channel_zero_and_full_turn():
    zero = coherent_overrotation_channel("ZZ", 0.0)
    assert np.array_equal(zero.operators[0], np.eye(4))
    full = coherent_overrotation_channel("IX", 2 * math.pi)
    assert np.max(np.abs(full.operators[0] + np.eye(4))) < 1e-12  # -identity


def test_coherent_channel_rejects_unknown_axis():
    with pytest.raises(ValueError):
        coherent_overrotation_channel("XY", 0.1)
    with pytest.raises(ValueError):
        coherent_overrotation_channel("zx", 0.1)


def test_apply_channel_rejects_incomplete_kraus():
    broken = KrausChannel((math.sqrt(0.5) * np.eye(2),))
    with pytest.raises(ValueError):
        apply_channel(DensityState.ground(1), broken, (0,))


def test_apply_channel_arity_mismatch():
    with pytest.raises(ValueError):
        apply_channel(DensityState.ground(2), depolarizing_channel(0.1, 2), (0,))


# ── measurement and sampling ────────────────────────────────────────────


def test_measured_distribution_marginalizes():
    probs = measured_distribution(bell_state(), (0,))
    assert np.max(np.abs(probs - [0.5, 0.5])) < 1e-12
    both = measured_distribution(bell_state(), (0, 1))
    assert np.max(np.abs(both - [0.5, 0.0, 0.0, 0.5])) < 1e-12


def test_measured_distribution_readout_confusion():
    # deterministic |00> seen through asymmetric readout
    probs = measured_distribution(DensityState.ground(2), (0, 1), [(0.025, 0.0), (0.035, 0.0)])
    assert abs(probs[0] - 0.940875) < 1e-12
    matrix = readout_confusion_matrix([(0.025, 0.0), (0.035, 0.0)])
    assert np.max(np.abs(matrix.sum(axis=0) - 1.0)) < 1e-12


def test_sample_counts_deterministic_and_complete():
    probs = measured_distribution(bell_state(), (0, 1))
    a = sample_counts(probs, 4096, seed=42)
    b = sample_counts(probs, 4096, seed=42)
    assert a == b and a.total == 4096
    c = sample_counts(probs, 4096, seed=43)
    assert c != a
    assert set(a.data) <= {"00", "11"}  # Bell state has no odd-parity outcomes


def test_sample_counts_binomial_band():
    # |00> through symmetric 2.5% readout: P(00) = 0.950625; a 4-sigma
    # band around 11681.28 of 12288 shots is about +/- 96
    readout = [(0.025, 0.025), (0.025, 0.025)]
    probs = measured_distribution(DensityState.ground(2), (0, 1), readout)
    counts = sample_counts(probs, 12288, seed=9)
    assert abs(counts.ground_count - 11681.28) < 97.0


def test_sample_counts_validation():
    with pytest.raises(ValueError):
        sample_counts(np.array([1.0, 0.0]), 0)
    with pytest.raises(ValueError):
        sample_counts(np.array([0.5, 0.3, 0.2]), 10)  # not a distribution over whole bits
    with pytest.raises(ValueError):
        measured_distribution(DensityState.ground(1), ())


# ── circuit execution ───────────────────────────────────────────────────


def test_simulate_noiseless_stays_grounded():
    model = ideal_model(2)
    counts = simulate(build_n_stage(0, 1, 3), model, 2048, seed=1)
    assert counts.data == {"00": 2048}
    dist = exact_distribution(build_n_stage(0, 1, 3), model)
    assert abs(dist["00"] - 1.0) < 1e-10


def test_depolarizing_only_closed_form():
    # with CNOT depolarizing p as the only noise, the all-zeros probability
    # is 1/4 + 3/4 (1-p)^(2n)
    p = 0.02
    quiet = QubitParams(math.inf, math.inf, 0.0, 0.0, 0.0, 0.0)
    model = NoiseModel(
        (quiet, quiet),
        (DirectedEdgeParams(0, 1, p, 0.0), DirectedEdgeParams(1, 0, p, 0.0)),
        {(0, 1): 0},
    )
    for n in (1, 2, 4):
        dist = exact_distribution(build_n_stage(0, 1, n), model)
        assert abs(dist["00"] - (0.25 + 0.75 * (1 - p) ** (2 * n))) < 1e-12


def test_simulate_direction_dependence():
    # lossier (0 -> 1) direction must score lower at every stage count
    quiet = QubitParams(math.inf, math.inf, 0.0, 0.0, 0.0, 0.0)
    model = NoiseModel(
        (quiet, quiet),
        (DirectedEdgeParams(0, 1, 0.02, 0.0), DirectedEdgeParams(1, 0, 0.01, 0.0)),
        {(0, 1): 0},
    )
    for n in range(1, 7):
        p_01 = exact_distribution(build_n_stage(0, 1, n), model)["00"]
        p_10 = exact_distribution(build_n_stage(1, 0, n), model)["00"]
        assert p_01 < p_10


def test_simulate_requires_edge_characterization():
    quiet = QubitParams(math.inf, math.inf, 0.0, 0.0, 0.0, 0.0)
    one_way = NoiseModel(
        (quiet, quiet), (DirectedEdgeParams(0, 1, 0.01, 0.0),), {(0, 1): 0}
    )
    simulate(build_n_stage(0, 1, 1), one_way, 16, seed=0)  # characterized direction works
    with pytest.raises(ValueError, match=r"1 -> 0"):
        simulate(build_n_stage(1, 0, 1), one_way, 16, seed=0)


def test_simulate_requires_enough_qubits():
    with pytest.raises(ValueError):
        simulate(build_n_stage(0, 2, 1), ideal_model(2), 16, seed=0)


def test_evolve_keeps_states_physical():
    model = synth_asymmetric_model(0.02, 2.0)
    state, measured = evolve(build_n_stage(0, 1, 4), model)
    assert measured == (0, 1)
    state.validate()


def test_exact_distribution_matches_sampling_in_the_limit():
    model = synth_asymmetric_model(0.01, 2.0)
    circuit = build_n_stage(0, 1, 2)
    dist = exact_distribution(circuit, model)
    counts = simulate(circuit, model, 200_000, seed=3)
    for key, p in dist.items():
        assert abs(counts.data.get(key, 0) / 200_000 - p) < 0.005
