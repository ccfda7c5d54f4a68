"""Where the tracer hooks into each package module, and the per-layer metrics.

Each hook names the module attribute a caller looks the function up by;
the span name's prefix is the layer (the module that defines the
function). Folded hooks run thousands of times per op and are counted
per parent instead of kept as spans.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = ("cli", "noise", "circuits", "simulator", "experiment", "mitigation", "transpiler")
CHANNELS = ("simulator.depolarizing_channel", "simulator.thermal_relaxation_channel",
            "simulator.coherent_overrotation_channel")

# name -> (unit, better), in the order they are reported.
PER_LAYER = {
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "noise.load_s": ("s", "lower"),
    "noise.load_calls": ("count", "lower"),
    "circuits.build_s": ("s", "lower"),
    "circuits.gates_built": ("count", "lower"),
    "circuits.parse_s": ("s", "lower"),
    "circuits.gates_parsed": ("count", "lower"),
    "circuits.unitary_s": ("s", "lower"),
    "circuits.embed_s": ("s", "lower"),
    "circuits.embed_calls": ("count", "lower"),
    "simulator.evolve_s": ("s", "lower"),
    "simulator.evolve_calls": ("count", "lower"),
    "simulator.gates_evolved": ("count", "lower"),
    "simulator.us_per_gate": ("us/gate", "lower"),
    "simulator.useful_gate_ratio": ("ratio", "higher"),
    "simulator.channel_builds": ("count", "lower"),
    "simulator.channel_build_s": ("s", "lower"),
    "simulator.channel_useful_ratio": ("ratio", "higher"),
    "simulator.apply_channel_calls": ("count", "lower"),
    "simulator.apply_channel_s": ("s", "lower"),
    "simulator.apply_gate_s": ("s", "lower"),
    "simulator.sample_calls": ("count", "lower"),
    "simulator.sample_s": ("s", "lower"),
    "experiment.run_orientation_self_s": ("s", "lower"),
    "experiment.cells": ("count", "lower"),
    "experiment.assemble_s": ("s", "lower"),
    "experiment.derive_seed_calls": ("count", "lower"),
    "mitigation.calibration_s": ("s", "lower"),
    "mitigation.calibration_circuits": ("count", "lower"),
    "mitigation.solve_s": ("s", "lower"),
    "mitigation.solves": ("count", "lower"),
    "transpiler.map_build_s": ("s", "lower"),
    "transpiler.pass_s": ("s", "lower"),
    "transpiler.cnots": ("count", "lower"),
    "transpiler.us_per_cnot": ("us/cnot", "lower"),
    "transpiler.sandwich_ratio": ("ratio", "lower"),
    "transpiler.estimate_s": ("s", "lower"),
    "transpiler.cleanup_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS if layer != "cli"},
    "trace.op_wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.self_time_ratio": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# trace.self_time_ratio must lie within this distance of 1: the layer self
# times of the traced ops add up to the ops' wall time measured outside.
SELF_TIME_TOLERANCE = 0.01


class Observers:
    """Counters that need a call's arguments or result."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.channels: set = set()
        self.deepest: dict = defaultdict(int)

    def gates_built(self, args, result) -> None:
        circuits = result if isinstance(result, list) else [result]
        self.tracer.counters["circuits.gates_built"] += sum(len(c.instructions) for c in circuits)

    def calibration(self, args, result) -> None:
        self.gates_built(args, result)
        self.tracer.counters["mitigation.calibration_circuits"] += len(result)

    def parsed(self, args, result) -> None:
        self.tracer.counters["circuits.gates_parsed"] += len(result.instructions)

    def evolved(self, args, result) -> None:
        circuit = args[0]
        gates = circuit.unitary_gate_count
        self.tracer.counters["simulator.gates_evolved"] += gates
        # n-stage circuits of one orientation share a family; the deepest
        # one alone holds every gate a stage-by-stage sweep must apply.
        # Circuits without a CNOT (calibration) are their own family.
        cnots = [g for g in circuit.instructions if g.kind.value == "CNOT"]
        family = (self.tracer.op, cnots[0].qubits if cnots else circuit.instructions)
        self.deepest[family] = max(self.deepest[family], gates)

    def channel(self, name):
        def observe(args, result) -> None:
            self.channels.add((name, args))
        return observe

    def cells(self, args, result) -> None:
        self.tracer.counters["experiment.cells"] += len(result.per_n)

    def decisions(self, args, result) -> None:
        self.tracer.counters["transpiler.cnots"] += len(result.decisions)
        self.tracer.counters["transpiler.sandwiched"] += sum(
            1 for d in result.decisions if d.realization == "sandwich")


def install(tracer) -> Observers:
    from cnotbench import circuits, cli, experiment, mitigation, simulator, transpiler

    obs = Observers(tracer)
    hooks = [
        (cli, "load_noise_model", "noise.load_noise_model", False, None),
        (transpiler, "load_noise_model", "noise.load_noise_model", False, None),
        (cli.Circuit, "from_document", "circuits.Circuit.from_document", False, obs.parsed),
        (cli, "circuit_unitary", "circuits.circuit_unitary", False, None),
        (experiment, "build_n_stage", "circuits.build_n_stage", False, obs.gates_built),
        (mitigation, "build_readout_calibration_circuits", "circuits.build_readout_calibration_circuits",
         False, obs.calibration),
        (circuits, "embed_operator", "circuits.embed_operator", True, None),
        (simulator, "embed_operator", "circuits.embed_operator", True, None),
        (cli, "run_asymmetry_experiment", "experiment.run_asymmetry_experiment", False, None),
        (experiment, "run_orientation", "experiment.run_orientation", False, obs.cells),
        (experiment, "assemble_report", "experiment.assemble_report", False, None),
        (mitigation, "assemble_report", "experiment.assemble_report", False, None),
        (experiment, "derive_seed", "experiment.derive_seed", True, None),
        (mitigation, "derive_seed", "experiment.derive_seed", True, None),
        (experiment, "evolve", "simulator.evolve", False, obs.evolved),
        (simulator, "evolve", "simulator.evolve", False, obs.evolved),
        (experiment, "measured_distribution", "simulator.measured_distribution", False, None),
        (experiment, "sample_counts", "simulator.sample_counts", False, None),
        (simulator, "sample_counts", "simulator.sample_counts", False, None),
        (mitigation, "simulate", "simulator.simulate", False, None),
        (simulator, "apply_gate", "simulator.apply_gate", True, None),
        (simulator, "apply_channel", "simulator.apply_channel", True, None),
        *[(simulator, name.split(".")[1], name, True, obs.channel(name)) for name in CHANNELS],
        (cli, "run_calibration", "mitigation.run_calibration", False, None),
        (cli, "build_assignment_matrix", "mitigation.build_assignment_matrix", False, None),
        (cli, "mitigate_report", "mitigation.mitigate_report", False, None),
        (mitigation, "mitigate", "mitigation.mitigate", False, None),
        (mitigation, "mitigate_probabilities", "mitigation.mitigate_probabilities", False, None),
        (cli, "compare_mitigated", "mitigation.compare_mitigated", False, None),
        (cli.CouplingMap, "from_document", "transpiler.CouplingMap.from_document", False, None),
        (cli, "enforce_direction", "transpiler.enforce_direction", False, obs.decisions),
        (cli, "orient_for_error", "transpiler.orient_for_error", False, obs.decisions),
        (cli, "estimate_success", "transpiler.estimate_success", False, None),
        (transpiler, "estimate_success", "transpiler.estimate_success", False, None),
        (cli, "cancel_adjacent_hadamards", "transpiler.cancel_adjacent_hadamards", False, None),
    ]
    for owner, attr, name, fold, observe in hooks:
        tracer.wrap(owner, attr, name, fold, observe)
    return obs


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tracer, obs: Observers, op_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics over the traced ops; a ratio with a zero base reads 0."""
    calls, total, own, count = tracer.calls, tracer.total_s, tracer.self_s, tracer.counters
    channel_builds = sum(calls[n] for n in CHANNELS)
    pass_s = total["transpiler.enforce_direction"] + total["transpiler.orient_for_error"]
    solves = ("mitigation.mitigate", "mitigation.mitigate_probabilities")
    values = {
        "cli.self_s": tracer.layer_self_s["cli"],
        "cli.bytes_written": count["cli.bytes_written"],
        "noise.load_s": total["noise.load_noise_model"],
        "noise.load_calls": calls["noise.load_noise_model"],
        "circuits.build_s": total["circuits.build_n_stage"] + total["circuits.build_readout_calibration_circuits"],
        "circuits.gates_built": count["circuits.gates_built"],
        "circuits.parse_s": total["circuits.Circuit.from_document"],
        "circuits.gates_parsed": count["circuits.gates_parsed"],
        "circuits.unitary_s": total["circuits.circuit_unitary"],
        "circuits.embed_s": total["circuits.embed_operator"],
        "circuits.embed_calls": calls["circuits.embed_operator"],
        "simulator.evolve_s": total["simulator.evolve"],
        "simulator.evolve_calls": calls["simulator.evolve"],
        "simulator.gates_evolved": count["simulator.gates_evolved"],
        "simulator.us_per_gate": 1e6 * _ratio(total["simulator.evolve"], count["simulator.gates_evolved"]),
        "simulator.useful_gate_ratio": _ratio(sum(obs.deepest.values()), count["simulator.gates_evolved"]),
        "simulator.channel_builds": channel_builds,
        "simulator.channel_build_s": sum(total[n] for n in CHANNELS),
        "simulator.channel_useful_ratio": _ratio(len(obs.channels), channel_builds),
        "simulator.apply_channel_calls": calls["simulator.apply_channel"],
        "simulator.apply_channel_s": total["simulator.apply_channel"],
        "simulator.apply_gate_s": total["simulator.apply_gate"],
        "simulator.sample_calls": calls["simulator.sample_counts"],
        "simulator.sample_s": total["simulator.sample_counts"],
        "experiment.run_orientation_self_s": own["experiment.run_orientation"],
        "experiment.cells": count["experiment.cells"],
        "experiment.assemble_s": total["experiment.assemble_report"],
        "experiment.derive_seed_calls": calls["experiment.derive_seed"],
        "mitigation.calibration_s": total["mitigation.run_calibration"],
        "mitigation.calibration_circuits": count["mitigation.calibration_circuits"],
        "mitigation.solve_s": sum(total[n] for n in solves),
        "mitigation.solves": sum(calls[n] for n in solves),
        "transpiler.map_build_s": total["transpiler.CouplingMap.from_document"],
        "transpiler.pass_s": pass_s,
        "transpiler.cnots": count["transpiler.cnots"],
        "transpiler.us_per_cnot": 1e6 * _ratio(pass_s, count["transpiler.cnots"]),
        "transpiler.sandwich_ratio": _ratio(count["transpiler.sandwiched"], count["transpiler.cnots"]),
        "transpiler.estimate_s": total["transpiler.estimate_success"],
        "transpiler.cleanup_s": total["transpiler.cancel_adjacent_hadamards"],
        **{f"{layer}.self_s": tracer.layer_self_s[layer] for layer in LAYERS if layer != "cli"},
        "trace.op_wall_s": op_wall_s,
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.self_time_ratio": _ratio(sum(tracer.layer_self_s.values()), op_wall_s),
        "trace.overhead_ratio": _ratio(op_wall_s, untraced_wall_s),
    }
    return {name: int(values[name]) if PER_LAYER[name][0] in ("count", "bytes") else values[name]
            for name in PER_LAYER}
