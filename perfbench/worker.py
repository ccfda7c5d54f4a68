"""One workload process: import the package, warm up, then time or trace ops.

Started by run.py with BLAS threads pinned to 1; reads the plan run.py
wrote and writes its raw measurements as JSON. Modes:

  setup   import cnotbench and run the warm-up op, report the time only;
  timed   also run the op cycle in a closed loop (one client: the next op
          starts when the previous one returns) until the ops have taken
          --seconds and a round of ops is complete, checking every output;
  traced  run one round of ops once untraced and once traced.

Everything the timed import must not include (numpy, the package) is
imported only after the clock starts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

import checks
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Runner:
    """Runs ops through cnotbench.cli.main in-process and checks their outputs."""

    def __init__(self, main, reference: dict, corrupt: bool = False):
        self.main = main
        self.corrupt = corrupt
        self.reference = reference
        self.inputs: dict = {}
        self.digests: dict[str, str] = {}
        self.repeats: dict[str, int] = {}
        self.problems: list[str] = []  # wrong outputs
        self.errors: dict[str, str] = {}  # nonzero exits, first message per op

    def call(self, op: dict, tracer: Tracer | None = None) -> tuple[int, float]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                start = perf_counter()
                code = self.main(op["argv"])
                seconds = perf_counter() - start
            else:
                code, seconds = tracer.run_op(op["id"], "cli.main", self.main, op["argv"])
        if code != 0:
            self.errors.setdefault(op["id"], f"exit {code}: {err.getvalue().strip()}")
        return code, seconds

    def verify(self, op: dict) -> bool:
        """Check an op's outputs and that they repeat byte for byte; True if correct."""
        out = Path(op["out"])
        if self.corrupt:
            checks.corrupt(op["kind"], out)
            self.corrupt = False
        reference = self.reference.get(op["check"].get("reference") or "")
        try:
            problems = checks.check_op(op["kind"], out, op["check"], reference, self.inputs)
        except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if not problems:
            digest = checks.digest(out, op["kind"])
            first = self.digests.setdefault(op["id"], digest)
            if digest != first:
                problems = ["rerun with the same flags wrote different bytes"]
            else:
                self.repeats[op["id"]] = self.repeats.get(op["id"], 0) + 1
        self.problems += [f"{op['id']}: {p}" for p in problems[:3]]
        return not problems


def timed(runner: Runner, ops: list[dict], seconds: float, round_ops: int) -> dict:
    latencies, attempted, failed, busy = [], 0, 0, 0.0
    while busy < seconds or attempted % round_ops:
        op = ops[attempted % len(ops)]
        code, elapsed = runner.call(op)
        attempted += 1
        busy += elapsed
        if code == 0 and runner.verify(op):
            latencies.append(elapsed)
        else:
            failed += 1
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # Every op template gets at least one rerun with the same flags.
    for template in dict.fromkeys(op["template"] for op in ops):
        done = [op for op in ops if op["template"] == template and op["id"] in runner.digests]
        if done and not any(runner.repeats.get(op["id"], 0) > 1 for op in done):
            code, _ = runner.call(done[0])
            if code != 0 or not runner.verify(done[0]):
                failed += 1
    return {"latencies": latencies, "attempted": attempted, "failed": failed, "busy_s": busy,
            "peak_rss_kb": peak_rss_kb}


def traced(runner: Runner, ops: list[dict], trace_path: Path) -> dict:
    import layers

    untraced_s = sum(runner.call(op)[1] for op in ops)
    tracer = Tracer()
    observers = layers.install(tracer)
    failed, wall = 0, 0.0
    try:
        for op in ops:
            code, seconds = runner.call(op, tracer)
            wall += seconds
            out = Path(op["out"])
            tracer.counters["cli.bytes_written"] += checks.bytes_written(out) if out.is_dir() else 0
            if code != 0 or not runner.verify(op):
                failed += 1
    finally:
        tracer.uninstall()
    trace_path.write_text(json.dumps(tracer.document()) + "\n", encoding="utf-8")
    values = layers.metrics(tracer, observers, wall, untraced_s)
    if abs(values["trace.self_time_ratio"] - 1.0) > layers.SELF_TIME_TOLERANCE:
        runner.problems.append(
            f"layer self times add up to {values['trace.self_time_ratio']:.4f} of the traced op wall time")
    functions = {name: {"calls": tracer.calls[name], "total_s": tracer.total_s[name], "self_s": tracer.self_s[name]}
                 for name in sorted(tracer.calls)}
    return {"per_layer": values, "functions": functions, "attempted": len(ops), "failed": failed}


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARIABLES},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()
    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))

    start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from cnotbench.cli import main as cli_main

    runner = Runner(cli_main, plan["reference"], args.corrupt)
    ops = plan["ops"]
    code, _ = runner.call(ops[0])
    setup_s = perf_counter() - start
    if code != 0:
        print(f"warm-up op {ops[0]['id']} failed: {runner.errors[ops[0]['id']]}", file=sys.stderr)
        return 1

    result: dict = {"setup_s": setup_s}
    if args.mode == "timed":
        result.update(timed(runner, ops, plan["seconds"], plan["round_ops"]))
    elif args.mode == "traced":
        result.update(traced(runner, ops[: plan["round_ops"]], Path(plan["trace_path"])))
    result.update(problems=runner.problems, errors=runner.errors, machine=machine_facts())
    Path(args.result).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
