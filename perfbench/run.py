"""Run one benchmark workload against the package in ../src and print its metrics.

    python3 perfbench/run.py --workload deep-sweep --seed 0 --seconds 20 --trace 0

Run from anywhere; inputs, outputs and summaries go to .bench_runs/ at the
repository root. The workload seed makes every input file and every --seed
the program sees. Each measurement happens in a fresh worker process with
BLAS threads pinned to 1 (see worker.py):

  --trace 0  setup_s is the median over several fresh processes of importing
             the package plus one warm-up op; then one process runs the op
             cycle in a closed loop for --seconds of op time and reports the
             end-to-end metrics.
  --trace 1  one process runs one round of ops (workloads.ROUND_OPS) once untraced and
             once with every layer wrapped, and reports the per-layer
             metrics (layers.py).

Every op's outputs are checked (checks.py) and every op template is rerun
with the same flags to check byte-identical outputs. The last line printed
is a JSON object with the keys correct, attempted, failed and metrics.
An op that exits nonzero counts in failed; a wrong output also makes
correct false. --size tiny and --corrupt serve selftest.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import layers
import workloads
from worker import BLAS_VARIABLES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".bench_runs"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    pass


def run_worker(work: Path, mode: str, deadline: float, corrupt: bool = False) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", **{name: "1" for name in BLAS_VARIABLES})
    result = work / f"result-{mode}.json"
    command = [sys.executable, str(HERE / "worker.py"), "--plan", str(work / "plan.json"),
               "--mode", mode, "--result", str(result)]
    if corrupt:
        command.append("--corrupt")
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {mode} worker")
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish in {remaining:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(result.read_text(encoding="utf-8"))


def end_to_end(samples: list[float], timed: dict) -> tuple[dict[str, float], list[str]]:
    latencies = sorted(timed["latencies"])
    done = len(latencies)
    if done > TAIL_BEYOND:
        tail = latencies[done - TAIL_BEYOND - 1]
        tail_note = f"p{100.0 * (done - TAIL_BEYOND) / done:.1f}: {TAIL_BEYOND} of {done} completed ops beyond it"
    else:
        tail = latencies[-1] if latencies else 0.0
        tail_note = f"maximum: only {done} completed ops, fewer than {TAIL_BEYOND + 1}"
    values = {
        "setup_s": statistics.median(samples),
        "ops_per_s": done / timed["busy_s"],
        "op_p50_ms": 1e3 * statistics.median(latencies) if latencies else 0.0,
        "op_tail_ms": 1e3 * tail,
        "peak_rss_mb": timed["peak_rss_kb"] / 1024.0,
    }
    notes = [
        f"median of {len(samples)} fresh processes: import + warm-up op",
        f"{done} completed ops in {timed['busy_s']:.3f} s of op time",
        f"median of {done} completed ops",
        tail_note,
        "peak resident memory of the timed worker process",
    ]
    return values, notes


def describe_machine(machine: dict) -> str:
    threads = ", ".join(f"{k}={v}" for k, v in machine["blas_threads"].items())
    return (f"machine: nproc {machine['nproc']} ({machine['cpus_usable']} usable), cpu {machine['cpu_model']}, "
            f"python {machine['python']}, numpy {machine['numpy']}, scipy {machine['scipy']}, "
            f"blas {machine['blas']}; {threads}")


def measure(args: argparse.Namespace, work: Path) -> dict:
    deadline = monotonic() + DEADLINE_S
    ops = workloads.generate(args.workload, args.seed, args.size, work)
    references = json.loads((HERE / "reference_exact_p00.json").read_text(encoding="utf-8"))["values"]
    keys = {op["check"].get("reference") for op in ops} - {None}
    plan = {
        "ops": ops,
        "seconds": args.seconds,
        "round_ops": min(workloads.ROUND_OPS[args.workload], len(ops)),
        "trace_path": str(RUNS / f"{work.name}.trace.json"),
        "reference": {key: references[key] for key in keys if key in references},
    }
    (work / "plan.json").write_text(json.dumps(plan) + "\n", encoding="utf-8")

    if args.trace:
        result = run_worker(work, "traced", deadline, args.corrupt)
        values = result["per_layer"]
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
        notes = ["not called on this workload" if value == 0 else "" for value in values.values()]
    else:
        samples = [run_worker(work, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        result = run_worker(work, "timed", deadline, args.corrupt)
        values, notes = end_to_end(samples + [result["setup_s"]], result)
        units = END_TO_END
    return {"result": result, "values": values, "units": units, "notes": notes}


def report(args: argparse.Namespace, measured: dict) -> dict:
    result, values = measured["result"], measured["values"]
    attempted, failed = result["attempted"], result["failed"]
    print(describe_machine(result["machine"]))
    print(f"{args.workload} seed {args.seed}: {attempted} ops attempted, {failed} failed, "
          f"error_rate {failed / attempted:.4f}")
    by_message: dict[str, list[str]] = {}
    for op_id, message in result["errors"].items():
        by_message.setdefault(message, []).append(op_id)
    for message, op_ids in by_message.items():
        print(f"  {len(op_ids)} op(s) failed, {message}: {', '.join(op_ids[:6])}")
    for problem in result["problems"][:10]:
        print(f"  wrong output {problem}")
    for (name, value), note in zip(values.items(), measured["notes"]):
        print(f"{name} = {value!r} {measured['units'][name]}" + (f"  ({note})" if note else ""))
    if "functions" in result:
        children = {name: result["functions"].get(name, {"total_s": 0.0, "self_s": 0.0})
                    for name in ("simulator.apply_gate", "simulator.apply_channel", *layers.CHANNELS)}
        print("simulator children of evolve, total / self s (apply_channel's total includes "
              "circuits.embed_operator): " + ", ".join(
                  f"{name.split('.')[1]} {c['total_s']:.4f} / {c['self_s']:.4f}" for name, c in children.items()))
    return {
        "correct": not result["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": measured["units"][name]} for name, value in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "cnotbench" / "cli.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'cnotbench'}", file=sys.stderr)
        return 2

    work = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        measured = measure(args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    summary = report(args, measured)
    (RUNS / f"{work.name}.json").write_text(
        json.dumps({"args": vars(args), "summary": summary, "notes": measured["notes"],
                    "functions": measured["result"].get("functions"),
                    "machine": measured["result"]["machine"], "errors": measured["result"]["errors"],
                    "problems": measured["result"]["problems"]}, indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
