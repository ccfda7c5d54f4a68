"""Output checks for each op kind.

Each check reads the files an op wrote and returns a list of problems; an
empty list means the output is correct. The checks recompute what they
can from the files alone (exact rational metrics, success products,
rewritten circuits), so they do not share code with the package under
test. Standard library only.
"""

from __future__ import annotations

import csv
import hashlib
import json
from fractions import Fraction
from pathlib import Path

# Files whose bytes must repeat when an op is rerun with the same flags.
DETERMINISTIC_FILES = {
    "bench": ("results.csv", "report.json"),
    "mitigate": ("comparison.json", "mitigation_table.csv"),
    "transpile": ("circuit.json", "decisions.jsonl", "report.json"),
}

EXACT_P00_TOLERANCE = 1e-12
RELATIVE_TOLERANCE = 1e-12


def digest(out: Path, kind: str) -> str:
    h = hashlib.sha256()
    for name in DETERMINISTIC_FILES[kind]:
        h.update(name.encode())
        h.update((out / name).read_bytes())
    return h.hexdigest()


def bytes_written(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RELATIVE_TOLERANCE * max(abs(a), abs(b))


def _exact_gap(c01: int, c10: int, total: int) -> float:
    return float(abs(Fraction(c01, total) - Fraction(c10, total)))


# ── bench ───────────────────────────────────────────────────────────────


def check_bench(out: Path, check: dict, reference: dict | None) -> list[str]:
    problems: list[str] = []
    a, b = check["pair"]
    stages, shots = check["stages"], check["shots"]
    with open(out / "results.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))

    expected_cells = {(c, t, n) for c, t in ((a, b), (b, a)) for n in range(1, stages + 1)}
    cells = {(int(r["control"]), int(r["target"]), int(r["n"])): r for r in rows}
    if len(rows) != len(expected_cells) or set(cells) != expected_cells:
        return [f"results.csv has {len(rows)} rows, expected one per (orientation, n)"]

    ground: dict[tuple[int, int, int], int] = {}
    p00: dict[tuple[int, int, int], float] = {}
    for key, row in cells.items():
        c, t, n = key
        count, total = int(row["ground_count"]), int(row["shots"])
        ground[key], p00[key] = count, float(row["exact_p00"])
        if row["pair"] != f"{a}-{b}" or total != shots:
            problems.append(f"row {key}: pair {row['pair']} shots {total}")
        if float(row["g"]) != count / total:
            problems.append(f"row {key}: g {row['g']} != ground_count/shots")
        side = report["result_01"] if (c, t) == (a, b) else report["result_10"]
        cell = side["per_n"][str(n)]
        if cell["ground_count"] != count or cell["exact_p00"] != p00[key]:
            problems.append(f"row {key}: results.csv and report.json disagree")
        if cell["counts"] is None or sum(cell["counts"].values()) != total \
                or cell["counts"].get("00", 0) != count:
            problems.append(f"row {key}: counts do not sum to shots or miss the ground count")
        if not 0.0 <= p00[key] <= 1.0 or abs(sum(cell["exact_probs"].values()) - 1.0) > 1e-9:
            problems.append(f"row {key}: exact probabilities are not a distribution")

    f = {int(n): v for n, v in report["f"].items()}
    for n in range(1, stages + 1):
        expected = _exact_gap(ground[(a, b, n)], ground[(b, a, n)], shots)
        if f.get(n) != expected:
            problems.append(f"f({n}) = {f.get(n)!r}, exact |g01 - g10| is {expected!r}")
        exact = abs(p00[(a, b, n)] - p00[(b, a, n)])
        if report["f_exact"][str(n)] != exact:
            problems.append(f"f_exact({n}) != |exact_p00_01 - exact_p00_10|")
    if report["classified_asymmetric"] != any(v >= check["threshold"] for v in f.values()):
        problems.append("verdict disagrees with any f >= threshold")
    max_f = max(f.values())
    if report["max_f"] != max_f or report["argmax_n"] != min(n for n, v in f.items() if v == max_f):
        problems.append("max_f / argmax_n disagree with f")

    if reference is not None:
        for (c, t, n), value in p00.items():
            expected = reference[f"{c}-{t}"][n - 1]
            if abs(value - expected) > EXACT_P00_TOLERANCE:
                problems.append(f"exact_p00 {c}->{t} n={n}: {value!r} vs reference {expected!r}")
    return problems


# ── mitigate ────────────────────────────────────────────────────────────


def check_mitigate(out: Path, check: dict) -> list[str]:
    problems: list[str] = []
    stages, shots, threshold = check["stages"], check["shots"], check["threshold"]
    doc = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
    with open(out / "mitigation_table.csv", newline="", encoding="utf-8") as handle:
        table = {int(r["n"]): r for r in csv.DictReader(handle)}

    if doc["pair"] != check["pair"]:
        problems.append(f"comparison pair {doc['pair']} != {check['pair']}")
    matrix = doc["assignment_matrix"]
    for j in range(len(matrix)):
        column = [row[j] for row in matrix]
        if min(column) < 0.0 or abs(sum(column) - 1.0) > 1e-9:
            problems.append(f"assignment column {j} sums to {sum(column)!r}")

    per_n = {int(n): row for n, row in doc["per_n"].items()}
    if set(per_n) != set(range(1, stages + 1)) or set(table) != set(per_n):
        return problems + [f"per-n rows cover {sorted(per_n)}, expected 1..{stages}"]
    for n, row in per_n.items():
        for key in ("g_raw_01", "g_raw_10", "g_mit_01", "g_mit_10"):
            if repr(row[key]) != table[n][key]:
                problems.append(f"n={n} {key}: table and comparison disagree")
        for key in ("g_mit_01", "g_mit_10"):
            if not 0.0 <= row[key] <= 1.0:
                problems.append(f"n={n} {key} = {row[key]!r} outside [0, 1]")
        raw = [round(row[key] * shots) for key in ("g_raw_01", "g_raw_10")]
        if any(c / shots != row[key] for c, key in zip(raw, ("g_raw_01", "g_raw_10"))):
            problems.append(f"n={n}: raw g is not a count over {shots} shots")
        elif row["f_raw"] != _exact_gap(raw[0], raw[1], shots):
            problems.append(f"n={n}: f_raw != exact |g01 - g10|")
        mitigated = [Fraction(row[key] * shots) / shots for key in ("g_mit_01", "g_mit_10")]
        if row["f_mit"] != float(abs(mitigated[0] - mitigated[1])):
            problems.append(f"n={n}: f_mit != |g_mit_01 - g_mit_10|")

    max_raw = max(r["f_raw"] for r in per_n.values())
    max_mit = max(r["f_mit"] for r in per_n.values())
    if doc["max_f_raw"] != max_raw or doc["max_f_mit"] != max_mit:
        problems.append("max_f_raw / max_f_mit disagree with per-n values")
    if doc["asymmetry_exacerbated"] != (doc["max_f_mit"] > doc["max_f_raw"]):
        problems.append("asymmetry_exacerbated != (max_f_mit > max_f_raw)")
    if doc["raw_classified_asymmetric"] != (max_raw >= threshold) \
            or doc["mitigated_classified_asymmetric"] != (max_mit >= threshold):
        problems.append("classification disagrees with the threshold")
    return problems


# ── transpile ───────────────────────────────────────────────────────────


class DeviceMap:
    """Per-direction CNOT errors, hardware directions and H errors of a map file."""

    def __init__(self, doc: dict):
        self.cnot_error = {(e["control"], e["target"]): e["cnot_error"] for e in doc["edges"]}
        self.physical = {tuple(int(q) for q in k.split("-")): v
                         for k, v in doc["physical_direction"].items()}
        self.u2_error = [q["u2_error"] for q in doc["qubits"]]

    def gate_error(self, gate: dict) -> float:
        u2 = self.u2_error[gate["qubits"][0]]
        return u2 if gate["kind"] in ("H", "SX") else 2.0 * u2

    def physical_control(self, a: int, b: int) -> int:
        return self.physical[(min(a, b), max(a, b))]

    def success(self, instructions: list[dict]) -> float:
        total = 1.0
        for gate in instructions:
            if gate["kind"] == "CNOT":
                total *= 1.0 - self.cnot_error[tuple(gate["qubits"])]
            elif gate["kind"] not in ("BARRIER", "MEASURE"):
                total *= 1.0 - self.gate_error(gate)
        return total

    def options(self, control: int, target: int) -> tuple[float | None, float | None]:
        direct = sandwich = None
        if (control, target) in self.cnot_error:
            direct = 1.0 - self.cnot_error[(control, target)]
        if (target, control) in self.cnot_error:
            sandwich = (1.0 - self.u2_error[control]) ** 2 * (1.0 - self.u2_error[target]) ** 2
            sandwich *= 1.0 - self.cnot_error[(target, control)]
        return direct, sandwich


def _sandwich(control: int, target: int) -> list[dict]:
    h = [{"kind": "H", "qubits": [control]}, {"kind": "H", "qubits": [target]}]
    return h + [{"kind": "CNOT", "qubits": [target, control]}] + h


def _same_score(got: float | None, want: float | None) -> bool:
    return got is None and want is None or got is not None and want is not None and _close(got, want)


def check_transpile(out: Path, check: dict, inputs: dict) -> list[str]:
    """inputs caches parsed input files across ops by path."""
    problems: list[str] = []
    if check["circuit"] not in inputs:
        inputs[check["circuit"]] = json.loads(Path(check["circuit"]).read_text(encoding="utf-8"))
    if check["map"] not in inputs:
        inputs[check["map"]] = DeviceMap(json.loads(Path(check["map"]).read_text(encoding="utf-8")))
    source, device = inputs[check["circuit"]], inputs[check["map"]]
    enforce = check["mode"] == "enforce"

    output = json.loads((out / "circuit.json").read_text(encoding="utf-8"))
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    decisions = [json.loads(line) for line in (out / "decisions.jsonl").read_text(encoding="utf-8").splitlines()]

    cnot_positions = [i for i, g in enumerate(source["instructions"]) if g["kind"] == "CNOT"]
    if len(decisions) != len(cnot_positions):
        return [f"{len(decisions)} decisions for {len(cnot_positions)} input CNOTs"]

    expected: list[dict] = []
    decision_iter = iter(decisions)
    for index, gate in enumerate(source["instructions"]):
        if gate["kind"] != "CNOT":
            expected.append(gate)
            continue
        decision = next(decision_iter)
        control, target = gate["qubits"]
        if decision["index"] != index or decision["logical"] != [control, target]:
            problems.append(f"decision {decision['index']} does not describe input CNOT {index}")
            break
        direct, sandwich = device.options(control, target)
        if not (_same_score(decision["est_success_direct"], direct)
                and _same_score(decision["est_success_sandwich"], sandwich)):
            problems.append(f"CNOT {index}: decision scores differ from the map")
        if enforce:
            want = "direct" if control == device.physical_control(control, target) else "sandwich"
        else:
            want = "sandwich" if direct is None or (sandwich is not None and sandwich > direct) else "direct"
        if decision["realization"] != want:
            problems.append(f"CNOT {index}: realized {decision['realization']}, expected {want}")
        expected.extend([gate] if want == "direct" else _sandwich(control, target))

    got = output["instructions"]
    if check["cleanup"]:
        # Cleanup may only drop H gates, an even number per qubit.
        dropped: dict[int, int] = {}
        j = 0
        for gate in expected:
            if j < len(got) and got[j] == gate:
                j += 1
            elif gate["kind"] == "H":
                dropped[gate["qubits"][0]] = dropped.get(gate["qubits"][0], 0) + 1
            else:
                break
        if j != len(got) or any(v % 2 for v in dropped.values()):
            problems.append("output is not the rewritten input minus cancelled H pairs")
    elif got != expected:
        problems.append("output circuit differs from the input with the decided rewrites")

    for gate in got:
        if gate["kind"] != "CNOT":
            continue
        control, target = gate["qubits"]
        if (control, target) not in device.cnot_error:
            problems.append(f"output CNOT {control}->{target} is not characterized")
            break
        if enforce and control != device.physical_control(control, target):
            problems.append(f"output CNOT {control}->{target} is not the physical direction")
            break

    sandwiched = sum(1 for d in decisions if d["realization"] == "sandwich")
    unitary = sum(1 for g in got if g["kind"] not in ("BARRIER", "MEASURE"))
    source_unitary = sum(1 for g in source["instructions"] if g["kind"] not in ("BARRIER", "MEASURE"))
    summary = (report["mode"], report["cnot_count"], report["sandwiched"], report["gates_before"],
               report["gates_after"], report["verified"])
    if summary != (check["mode"], len(cnot_positions), sandwiched, source_unitary, unitary, check["verify"]):
        problems.append(f"report summary {summary} disagrees with the circuits")
    if not _close(report["estimated_success"], device.success(got)):
        problems.append(f"estimated_success {report['estimated_success']!r} != product over the map "
                        f"{device.success(got)!r}")
    return problems


def check_op(kind: str, out: Path, check: dict, reference: dict | None, inputs: dict) -> list[str]:
    if kind == "bench":
        return check_bench(out, check, reference)
    if kind == "mitigate":
        return check_mitigate(out, check)
    return check_transpile(out, check, inputs)


def corrupt(kind: str, out: Path) -> None:
    """Alter one output value; the self-test expects the check to catch it."""
    if kind == "bench":
        lines = (out / "results.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[5] = str(int(cells[5]) + 1)  # ground_count of the first row
        lines[1] = ",".join(cells)
        (out / "results.csv").write_text("".join(lines), encoding="utf-8")
        return
    name, key = ("comparison.json", "asymmetry_exacerbated") if kind == "mitigate" else ("report.json", "verified")
    doc = json.loads((out / name).read_text(encoding="utf-8"))
    doc[key] = not doc[key]
    (out / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
