"""The benchmark's tracer hooks still resolve on the package modules.

perfbench/layers.py wraps package functions under the module attribute
their callers look them up by; renaming or dropping one of those
attributes must fail here, not only in the benchmark's own self-test.
"""

import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_hooks_install_and_uninstall():
    layers, tracer = _load("layers"), _load("tracer")
    t = tracer.Tracer()
    try:
        layers.install(t)
        patches = list(t._patches)
        assert patches
        for owner, attr, _ in patches:
            assert hasattr(getattr(owner, attr), "__wrapped__"), attr
    finally:
        t.uninstall()
    for owner, attr, original in patches:
        assert inspect.getattr_static(owner, attr) is original, attr
