"""Seeded input generation for the three benchmark workloads.

Every workload is a fixed cycle of CLI operations ("ops"). The workload
seed decides every number in the generated model, map and circuit files
and every --seed passed to the program; the structure of the inputs
(qubit counts, gate counts per kind, which channels are applied) does not
depend on the seed, so the work per op is the same on every seed.

Standard library only: this module runs in the benchmark's parent process
and must not import numpy or the package under test.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("deep-sweep", "device-survey", "route-verify")
DEFAULT_SEED = 0

BOWTIE_EDGES = ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4))
DEEP_KINDS = ("duration-asymmetric", "gate-error-asymmetric", "coherent-zx")


@dataclass(frozen=True)
class Size:
    """Input size of every workload; "full" is what the benchmark measures."""

    deep_stages: int
    deep_models_per_kind: int
    survey_seeds: int
    survey_depth: tuple[int, int, int] | None  # (stages, reps, shots); None: CLI defaults
    route_map_qubits: tuple[int, ...]
    route_gates: int
    route_verify_qubits: tuple[int, ...]
    route_verify_gates: int


SIZES = {
    "full": Size(
        deep_stages=16,
        deep_models_per_kind=8,
        survey_seeds=4,
        survey_depth=None,
        route_map_qubits=(5, 6, 7, 8),
        route_gates=10_000,
        route_verify_qubits=(3, 2),
        route_verify_gates=2_000,
    ),
    "tiny": Size(
        deep_stages=3,
        deep_models_per_kind=1,
        survey_seeds=1,
        survey_depth=(2, 1, 256),
        route_map_qubits=(5, 8),
        route_gates=400,
        route_verify_qubits=(3,),
        route_verify_gates=120,
    ),
}


def _rng(*key: object) -> random.Random:
    # A string seed is hashed with SHA-512, so streams are stable across
    # Python versions and independent of the order they are drawn in.
    return random.Random(":".join(str(k) for k in key))


def _write_json(path: Path, document: dict) -> str:
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return str(path)


def _qubit(rng: random.Random) -> dict:
    t1 = rng.uniform(60.0, 150.0)
    return {
        "t1_us": t1,
        "t2_us": t1 * rng.uniform(0.6, 1.8),
        "readout_p01": rng.uniform(0.01, 0.04),
        "readout_p10": rng.uniform(0.01, 0.04),
        "u2_error": rng.uniform(2e-4, 8e-4),
        "u2_duration_ns": rng.uniform(30.0, 40.0),
    }


def _op(work: Path, op_id: str, kind: str, argv: list[str], check: dict, template: str) -> dict:
    """One CLI call; every op writes to its own output directory."""
    out = str(work / "out" / op_id)
    return {"id": op_id, "kind": kind, "argv": [*argv, "--out", out], "out": out, "check": check,
            "template": template}


# ── deep-sweep ──────────────────────────────────────────────────────────


def _deep_model(seed: int, index: int, kind: str) -> dict:
    rng = _rng("deep-sweep", seed, "model", index)
    qubits = [_qubit(rng), _qubit(rng)]
    if kind == "duration-asymmetric":
        e01 = rng.uniform(0.006, 0.012)
        e10 = e01 * rng.uniform(1.5, 2.5)
        d01 = rng.uniform(300.0, 360.0)
        d10 = d01 + rng.uniform(30.0, 80.0)
        extra = {}
    elif kind == "gate-error-asymmetric":
        e01 = rng.uniform(0.005, 0.010)
        e10 = e01 * rng.uniform(2.0, 3.0)
        d01 = d10 = rng.uniform(300.0, 400.0)
        extra = {}
    else:
        e01 = e10 = rng.uniform(0.006, 0.012)
        d01 = d10 = rng.uniform(300.0, 400.0)
        angle = rng.uniform(0.03, 0.08) * rng.choice((-1.0, 1.0))
        extra = {"coherent_axis": "ZX", "coherent_angle_rad": angle}
    return {
        "qubits": qubits,
        "edges": [
            {"control": 0, "target": 1, "cnot_error": e01, "duration_ns": d01},
            {"control": 1, "target": 0, "cnot_error": e10, "duration_ns": d10, **extra},
        ],
        "physical_direction": {"0-1": 0},
    }


def deep_sweep(seed: int, size: Size, work: Path) -> list[dict]:
    stages = size.deep_stages
    ops = []
    seeds = _rng("deep-sweep", seed, "seeds")
    for index in range(size.deep_models_per_kind * len(DEEP_KINDS)):
        kind = DEEP_KINDS[index % len(DEEP_KINDS)]
        model = _write_json(work / f"deep-model-{index}.json", _deep_model(seed, index, kind))
        op_id = f"bench-{index}"
        argv = ["bench", "--model", model, "--pair", "0,1", "--stages", str(stages),
                "--reps", "3", "--shots", "4096", "--seed", str(seeds.randrange(2**31))]
        check = {"pair": [0, 1], "stages": stages, "shots": 3 * 4096, "threshold": 0.02,
                 "reference": f"deep-sweep:{index}" if seed == DEFAULT_SEED else None}
        ops.append(_op(work, op_id, "bench", argv, check, kind))
    return ops


# ── device-survey ───────────────────────────────────────────────────────


def bowtie_model(seed: int) -> dict:
    """Five qubits coupled as two triangles sharing qubit 2."""
    rng = _rng("device-survey", seed, "model")
    doc = {"qubits": [_qubit(rng) for _ in range(5)], "edges": [], "physical_direction": {}}
    for a, b in BOWTIE_EDGES:
        for control, target in ((a, b), (b, a)):
            doc["edges"].append({
                "control": control,
                "target": target,
                "cnot_error": rng.uniform(0.004, 0.02),
                "duration_ns": rng.uniform(250.0, 450.0),
                "coherent_axis": "ZX",
                "coherent_angle_rad": rng.uniform(0.005, 0.04) * rng.choice((-1.0, 1.0)),
            })
        doc["physical_direction"][f"{a}-{b}"] = rng.choice((a, b))
    return doc


def device_survey(seed: int, size: Size, work: Path) -> list[dict]:
    model = _write_json(work / "bowtie.json", bowtie_model(seed))
    seeds = _rng("device-survey", seed, "seeds")
    # Default depth passes no flags: 6 stages, 3 x 4096 shots.
    stages, reps, shots = size.survey_depth or (6, 3, 4096)
    flags = [] if size.survey_depth is None else [
        "--stages", str(stages), "--reps", str(reps), "--shots", str(shots)]
    ops = []
    for s in range(size.survey_seeds):
        run_seed = seeds.randrange(2**31)
        for a, b in BOWTIE_EDGES:
            op_id = f"mitigate-{a}{b}-{s}"
            argv = ["mitigate", "--model", model, "--pair", f"{a},{b}", "--seed", str(run_seed),
                    *flags]
            check = {"pair": [a, b], "stages": stages, "shots": reps * shots, "threshold": 0.02}
            ops.append(_op(work, op_id, "mitigate", argv, check, f"pair-{a}-{b}"))
    return ops


# ── route-verify ────────────────────────────────────────────────────────


def _route_map(rng: random.Random, num_qubits: int) -> tuple[dict, list[tuple[int, int]]]:
    """All pairs of 2 or 3 qubits, or a ring plus two chords; each pair has a
    clearly better CNOT direction.

    The better direction's error is below the worse one's by more than
    the four Hadamards of a sandwich cost, so the optimizing pass reverses
    exactly the CNOTs written against it. About half the pairs have the
    better direction as their hardware direction, the rest the worse one.
    """
    if num_qubits <= 3:
        pairs = [(a, b) for a in range(num_qubits) for b in range(a + 1, num_qubits)]
    else:
        chords = [(a, b) for a in range(num_qubits) for b in range(a + 2, num_qubits)
                  if (a, b) != (0, num_qubits - 1)]
        pairs = [(q, q + 1) for q in range(num_qubits - 1)] + [(0, num_qubits - 1)]
        pairs += rng.sample(chords, 2)
    native_is_good = [i % 2 == 0 for i in range(len(pairs))]
    rng.shuffle(native_is_good)

    doc = {"qubits": [_qubit(rng) for _ in range(num_qubits)], "edges": [], "physical_direction": {}}
    good_directions = []
    for (a, b), native_good in zip(pairs, native_is_good):
        good = (a, b) if rng.random() < 0.5 else (b, a)
        good_directions.append(good)
        for control, target in ((a, b), (b, a)):
            is_good = (control, target) == good
            doc["edges"].append({
                "control": control,
                "target": target,
                "cnot_error": rng.uniform(0.005, 0.010) if is_good else rng.uniform(0.02, 0.03),
                "duration_ns": rng.uniform(250.0, 450.0),
            })
        doc["physical_direction"][f"{a}-{b}"] = good[0] if native_good else good[1]
    return doc, good_directions


def _route_circuit(rng: random.Random, num_qubits: int, gates: int,
                   good_directions: list[tuple[int, int]]) -> dict:
    """Fixed gate mix, shuffled: 40% CNOT, 58% single-qubit, 2% barriers.

    Every pair carries an even number of CNOTs, half of them against its
    better direction, so both passes reverse exactly half of all CNOTs.
    """
    per_pair = max(2, (gates * 2 // 5) // len(good_directions) // 2 * 2)
    body = []
    for good in good_directions:
        for i in range(per_pair):
            body.append({"kind": "CNOT", "qubits": list(good if i % 2 else good[::-1])})
    barriers = max(1, gates // 50)
    for _ in range(barriers):
        body.append({"kind": "BARRIER", "qubits": list(range(num_qubits))})
    kinds = ("H", "X", "SX", "U")
    for i in range(gates - len(body)):
        kind = kinds[i % len(kinds)]
        gate = {"kind": kind, "qubits": [rng.randrange(num_qubits)]}
        if kind == "U":
            gate["params"] = [rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi),
                              rng.uniform(-math.pi, math.pi)]
        body.append(gate)
    rng.shuffle(body)
    body += [{"kind": "MEASURE", "qubits": [q], "clbits": [q]} for q in range(num_qubits)]
    return {"num_qubits": num_qubits, "num_clbits": num_qubits, "instructions": body}


def route_verify(seed: int, size: Size, work: Path) -> list[dict]:
    ops = []
    jobs = [(q, size.route_gates, False) for q in size.route_map_qubits]
    jobs += [(q, size.route_verify_gates, True) for q in size.route_verify_qubits]
    for num_qubits, gates, verify in jobs:
        rng = _rng("route-verify", seed, num_qubits, gates)
        doc, good = _route_map(rng, num_qubits)
        cmap = _write_json(work / f"map-{num_qubits}q.json", doc)
        circuit = _write_json(work / f"circuit-{num_qubits}q-{gates}.json",
                              _route_circuit(rng, num_qubits, gates, good))
        for mode in ("optimize", "enforce"):
            op_id = f"transpile-{num_qubits}q-{gates}-{mode}"
            flags = ["--verify", "--cleanup-hadamards"] if verify else []
            argv = ["transpile", "--circuit", circuit, "--map", cmap, "--mode", mode, *flags]
            check = {"circuit": circuit, "map": cmap, "mode": mode, "verify": verify,
                     "cleanup": verify}
            template = f"{'verify' if verify else 'long'}-{mode}"
            ops.append(_op(work, op_id, "transpile", argv, check, template))
    return ops


GENERATORS = {"deep-sweep": deep_sweep, "device-survey": device_survey, "route-verify": route_verify}

# A round is the first ops of the cycle that cover every kind of op once:
# one model of each kind, every pair at one seed, every transpile op. Timed
# runs stop at a round boundary, so each run has the same mix of ops; the
# traced run runs one round.
ROUND_OPS = {"deep-sweep": len(DEEP_KINDS), "device-survey": len(BOWTIE_EDGES), "route-verify": 12}


def generate(workload: str, seed: int, size: str, work: Path) -> list[dict]:
    """Write the workload's input files under work and return its op cycle."""
    (work / "out").mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](seed, SIZES[size], work)
