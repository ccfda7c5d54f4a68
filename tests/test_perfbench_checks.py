"""The benchmark's output checks pass on the route-verify workload.

Generates perfbench's tiny route-verify ops, runs each through the CLI and
checks its outputs with perfbench/checks.py, then reruns it and requires
the same bytes. The perfbench files are loaded, not edited.
"""

import importlib.util
import sys
from pathlib import Path

from cnotbench.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_route_verify_outputs_pass_the_benchmark_checks(tmp_path, capsys, monkeypatch):
    checks, workloads = _load("checks", monkeypatch), _load("workloads", monkeypatch)
    ops = workloads.generate("route-verify", workloads.DEFAULT_SEED, "tiny", tmp_path)
    assert {op["kind"] for op in ops} == {"transpile"}
    assert any(op["check"]["verify"] for op in ops) and not all(op["check"]["verify"] for op in ops)
    inputs: dict = {}
    for op in ops:
        out = Path(op["out"])
        assert main(op["argv"]) == 0, op["id"]
        assert checks.check_op(op["kind"], out, op["check"], None, inputs) == [], op["id"]
        first = checks.digest(out, op["kind"])
        assert main(op["argv"]) == 0, op["id"]
        assert checks.digest(out, op["kind"]) == first, op["id"]
    capsys.readouterr()
