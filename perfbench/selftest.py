"""Self-test of the benchmark at a tiny input size.

    python3 perfbench/selftest.py

For every workload and both --trace settings it checks that the last line
printed is the result object, that it carries exactly the metrics
BENCHMARK.json names, each with its unit and also printed by name, and
that the outputs check clean (device-survey: exactly the ops on pairs that
touch qubit 3 or 4 fail). It checks that a corrupted output is caught:
counted in failed, with correct false. Last, it checks that run.py fails
without printing a result in a directory that holds only BENCHMARK.json
and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
               "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def result(lines: list[str]) -> dict | None:
    try:
        document = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    return document if isinstance(document, dict) and set(document) == KEYS else None


def check_metrics(spec: list[dict], lines: list[str], document: dict) -> list[str]:
    problems = []
    if set(document["metrics"]) != {m["name"] for m in spec}:
        problems.append(f"metric names differ: {sorted(set(document['metrics']) ^ {m['name'] for m in spec})}")
    for metric in spec:
        got = document["metrics"].get(metric["name"], {})
        if got.get("unit") != metric["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{metric['name']}: {got} lacks a number in {metric['unit']}")
        if not any(line.startswith(f"{metric['name']} = ") and line.split()[3] == metric["unit"]
                   for line in lines):
            problems.append(f"{metric['name']} is not printed with its unit")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0

    def verdict(name: str, problems: list[str]) -> None:
        nonlocal failures
        failures += bool(problems)
        print(f"[{'FAIL' if problems else 'PASS'}] {name}" + "".join(f"\n    {p}" for p in problems))

    for workload in workloads.WORKLOADS:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, lines = run(workload, trace)
            document = result(lines)
            if code != 0 or document is None:
                verdict(f"{workload} --trace {trace}", [f"exit {code}, no result line"])
                continue
            problems = check_metrics(metrics, lines, document)
            expected_failed = document["attempted"] // 2 if workload == "device-survey" else 0
            if not document["correct"] or document["failed"] != expected_failed:
                problems.append(f"correct {document['correct']}, {document['failed']} of "
                                f"{document['attempted']} failed, expected {expected_failed}")
            verdict(f"{workload} --trace {trace}", problems)

        code, lines = run(workload, 0, "--corrupt")
        document = result(lines)
        caught = code == 0 and document is not None and not document["correct"] \
            and document["failed"] >= 1 + (document["attempted"] // 2 if workload == "device-survey" else 0)
        verdict(f"{workload} corrupted output is caught", [] if caught else [f"exit {code}: {lines[-1:]}"])

    bare = ROOT / ".bench_runs" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run("deep-sweep", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    verdict("without the package: nonzero exit, no result",
            [] if code != 0 and result(lines) is None else [f"exit {code}: {lines[-1:]}"])
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
