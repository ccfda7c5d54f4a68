"""Command line front end: bench, mitigate, and transpile.

Exit codes: 0 on success, 2 for configuration and schema problems
(including malformed documents), 1 for runtime failures such as a failed
equivalence check.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .circuits import Circuit, Gate, circuit_unitary, unitaries_equal_up_to_phase
from .experiment import ExperimentConfig, report_rows, run_asymmetry_experiment
from .mitigation import build_assignment_matrix, compare_mitigated, mitigate_report, run_calibration
from .noise import NoiseModel, SchemaError, load_noise_model
from .transpiler import CouplingMap, cancel_adjacent_hadamards, enforce_direction, estimate_success, orient_for_error

__all__ = ["main"]

RESULTS_CSV_COLUMNS = ["pair", "control", "target", "n", "shots", "ground_count", "g", "exact_p00"]
MITIGATION_CSV_COLUMNS = ["n", "g_raw_01", "g_raw_10", "g_mit_01", "g_mit_10"]
# --verify builds dense unitaries of 16 * 4**n bytes: 16 MiB at this limit.
VERIFY_MAX_QUBITS = 10


def _fmt(value: object) -> str:
    # repr keeps full float precision and is stable across runs.
    return repr(value) if isinstance(value, float) else str(value)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _write_json(path: Path, document: dict) -> None:
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _circuit_json(circuit: Circuit) -> str:
    """What _write_json writes for circuit.to_document(), each distinct gate rendered once."""
    fragments: dict[Gate, str] = {}
    parts = []
    for gate in circuit.instructions:
        text = fragments.get(gate)
        if text is None:
            text = fragments[gate] = _instruction_json(gate.to_document())
        parts.append(text)
    instructions = "[\n" + ",\n".join(parts) + "\n  ]" if parts else "[]"
    return (f'{{\n  "instructions": {instructions},\n  "num_clbits": {circuit.num_clbits},\n'
            f'  "num_qubits": {circuit.num_qubits}\n}}\n')


def _instruction_json(doc: dict) -> str:
    """One instruction as json.dumps(..., indent=2, sort_keys=True) nests it two levels deep.

    Its values are strings or non-empty lists of ints and finite floats,
    which json writes as their repr.
    """
    fields = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, str):
            fields.append(f'"{key}": {json.dumps(value)}')
        else:
            fields.append(f'"{key}": [\n        ' + ",\n        ".join(map(repr, value)) + "\n      ]")
    return "    {\n      " + ",\n      ".join(fields) + "\n    }"


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise SchemaError("--pair", f'expected "A,B", got {text!r}')
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise SchemaError("--pair", f"qubit indices must be integers, got {text!r}") from None
    if a < 0 or b < 0 or a == b:
        raise SchemaError("--pair", f"need two distinct non-negative qubits, got {text!r}")
    return a, b


def _load_model(path: str) -> NoiseModel:
    return load_noise_model(_load_json(path))


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    try:
        return ExperimentConfig(
            max_stages=args.stages,
            repetitions=args.reps,
            shots_per_rep=args.shots,
            threshold=args.threshold,
            seed=args.seed,
        )
    except ValueError as exc:
        raise SchemaError("experiment configuration", str(exc)) from None


def _add_bench_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", required=True, help="noise model JSON file")
    parser.add_argument("--pair", required=True, help='qubit pair, e.g. "0,1"')
    parser.add_argument("--stages", type=int, default=6, help="largest stage count n (default 6)")
    parser.add_argument("--reps", type=int, default=3, help="repetitions per cell (default 3)")
    parser.add_argument("--shots", type=int, default=4096, help="shots per repetition (default 4096)")
    parser.add_argument("--threshold", type=float, default=0.02, help="classification threshold (default 0.02)")
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnotbench",
        description="Benchmark, mitigate, and transpile around CNOT direction asymmetry.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    bench = commands.add_parser("bench", help="run the two-orientation asymmetry benchmark")
    _add_bench_flags(bench)
    bench.set_defaults(handler=_cmd_bench)

    mitigate = commands.add_parser("mitigate", help="benchmark, then correct measurement errors")
    _add_bench_flags(mitigate)
    mitigate.add_argument(
        "--cal-gate-noise",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="apply gate noise to calibration preparation (default on)",
    )
    mitigate.set_defaults(handler=_cmd_mitigate)

    transpile = commands.add_parser("transpile", help="rewrite CNOT directions against a coupling map")
    transpile.add_argument("--circuit", required=True, help="circuit JSON file")
    transpile.add_argument("--map", required=True, help="coupling map JSON file (noise model schema)")
    transpile.add_argument("--mode", choices=["optimize", "enforce"], default="optimize",
                           help="optimize per-CNOT success (default) or enforce the physical direction")
    transpile.add_argument("--verify", action="store_true",
                           help=f"check unitary equivalence of input and output "
                                f"(circuits of at most {VERIFY_MAX_QUBITS} qubits)")
    transpile.add_argument("--cleanup-hadamards", action="store_true",
                           help="cancel adjacent H pairs after rewriting (off by default)")
    transpile.add_argument("--out", required=True, help="output directory")
    transpile.set_defaults(handler=_cmd_transpile)
    return parser


def _cmd_bench(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    pair = _parse_pair(args.pair)
    config = _config_from_args(args)
    report = run_asymmetry_experiment(pair, model, config)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "results.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(RESULTS_CSV_COLUMNS)
        for row in report_rows(report):
            writer.writerow([_fmt(row[col]) for col in RESULTS_CSV_COLUMNS])
    _write_json(out / "report.json", report.to_document())

    verdict = "asymmetric" if report.classified_asymmetric else "symmetric"
    print(f"pair {pair[0]}-{pair[1]}: {verdict} (max f = {report.max_f:.6f} at n = {report.argmax_n}, "
          f"threshold {config.threshold})")
    return 0


def _cmd_mitigate(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    pair = _parse_pair(args.pair)
    config = _config_from_args(args)
    raw = run_asymmetry_experiment(pair, model, config)

    measured = tuple(sorted(pair))
    calibration = run_calibration(model, config, measured, include_gate_noise=args.cal_gate_noise)
    assignment = build_assignment_matrix(calibration)
    mitigated = mitigate_report(raw, assignment)
    record = compare_mitigated(raw, mitigated)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    document = record.to_document()
    document["raw_classified_asymmetric"] = raw.classified_asymmetric
    document["mitigated_classified_asymmetric"] = mitigated.classified_asymmetric
    document["assignment_matrix"] = [[float(x) for x in row] for row in assignment.matrix]
    _write_json(out / "comparison.json", document)
    with open(out / "mitigation_table.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(MITIGATION_CSV_COLUMNS)
        for n in sorted(record.per_n):
            row = record.per_n[n]
            writer.writerow([_fmt(n)] + [_fmt(row[col]) for col in MITIGATION_CSV_COLUMNS[1:]])

    if record.asymmetry_exacerbated:
        trend = "exacerbated"
    elif record.max_f_mit == record.max_f_raw:
        trend = "unchanged"
    else:
        trend = "reduced"
    print(f"pair {pair[0]}-{pair[1]}: max f {record.max_f_raw:.6f} -> {record.max_f_mit:.6f} "
          f"({trend} by mitigation)")
    return 0


def _cmd_transpile(args: argparse.Namespace) -> int:
    try:
        circuit = Circuit.from_document(_load_json(args.circuit))
    except ValueError as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(args.circuit, str(exc)) from None
    if args.verify and circuit.num_qubits > VERIFY_MAX_QUBITS:
        raise SchemaError(
            "--verify",
            f"circuit has {circuit.num_qubits} qubits, over VERIFY_MAX_QUBITS = {VERIFY_MAX_QUBITS}",
        )
    cmap = CouplingMap.from_document(_load_json(args.map))

    if args.mode == "enforce":
        report = enforce_direction(circuit, cmap)
    else:
        report = orient_for_error(circuit, cmap)

    final = report.circuit
    estimated, estimate_error = report.estimated_success, report.estimate_error
    gates_after = report.gates_after
    if args.cleanup_hadamards:
        final = cancel_adjacent_hadamards(final)
        gates_after = final.unitary_gate_count
        try:
            estimated, estimate_error = estimate_success(final, cmap), None
        except ValueError as exc:
            estimated, estimate_error = None, str(exc)

    if args.verify:
        before = circuit_unitary(circuit.without_measurements())
        after = circuit_unitary(final.without_measurements())
        if not unitaries_equal_up_to_phase(before, after, tol=1e-10):
            print("verification failed: output unitary differs from input", file=sys.stderr)
            return 1

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "circuit.json").write_text(_circuit_json(final), encoding="utf-8")
    with open(out / "decisions.jsonl", "w", encoding="utf-8") as handle:
        for line in report.decision_lines():
            handle.write(line + "\n")
    _write_json(
        out / "report.json",
        {
            "mode": args.mode,
            "estimated_success": estimated,
            "gates_before": report.gates_before,
            "gates_after": gates_after,
            "cnot_count": sum(1 for d in report.decisions),
            "sandwiched": sum(1 for d in report.decisions if d.realization == "sandwich"),
            "verified": bool(args.verify),
        },
    )
    if estimated is None:
        print(f"transpiled; success estimate unavailable ({estimate_error})")
    else:
        print(f"transpiled; estimated success {estimated:.6f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
