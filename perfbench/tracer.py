"""Span tracing from outside the package.

The tracer replaces a module attribute (or a class's static/class method)
with a timing wrapper, under the name the calling code looks it up by, so
cnotbench.experiment.evolve and cnotbench.simulator.evolve are separate
call sites of one function. Every call updates per-name totals and the
self time of its layer (its duration minus the time of the wrapped calls
it made). Calls of functions marked as folded, which run thousands of
times per op, are only counted per parent; every other call is kept as a
span (name, start, end, parent, op) in memory until the run ends.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent span index or -1, op id]
        self.folded: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.op: str | None = None
        self._stack: list[list] = []  # [child seconds, span index, name]
        self._patches: list[tuple[object, str, object]] = []

    # ── installing wrappers ─────────────────────────────────────────────

    def wrap(self, owner: object, attr: str, name: str, fold: bool = False, observe=None) -> None:
        """Time owner.attr as name; observe(args, result) may update counters."""
        static = inspect.getattr_static(owner, attr)
        target = getattr(owner, attr)  # unwraps static methods, binds class methods
        wrapper = self._wrapper(target, name, fold, observe)
        self._patches.append((owner, attr, static))
        setattr(owner, attr, staticmethod(wrapper) if inspect.isclass(owner) else wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrapper(self, target, name: str, fold: bool, observe):
        layer = name.split(".", 1)[0]
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = -1
            if not fold:
                index = len(spans)
                spans.append([name, 0.0, 0.0, parent[1] if parent else -1, self.op])
            frame = [0.0, index, name]
            stack.append(frame)
            start = perf_counter()
            try:
                result = target(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._close(name, layer, frame, start, end, parent, fold)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = target
        return traced

    def _close(self, name, layer, frame, start, end, parent, fold) -> None:
        duration = end - start
        own = duration - frame[0]
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += own
        self.layer_self_s[layer] += own
        if parent is not None:
            parent[0] += duration
        if fold:
            entry = self.folded[(name, parent[2] if parent else "")]
            entry[0] += 1
            entry[1] += duration
        else:
            span = self.spans[frame[1]]
            span[1], span[2] = start, end

    # ── ops ─────────────────────────────────────────────────────────────

    def run_op(self, op_id: str, name: str, fn, *args):
        """Run one op as a root span; returns (result, seconds)."""
        self.op = op_id
        traced = self._wrapper(fn, name, False, None)
        start = perf_counter()
        result = traced(*args)
        return result, perf_counter() - start

    def document(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "op": o} for n, s, e, p, o in self.spans
            ],
            "folded": [
                {"name": name, "parent": parent, "calls": calls, "total_s": total}
                for (name, parent), (calls, total) in sorted(self.folded.items())
            ],
        }
