"""Spans around the public functions of the dlam modules, recorded from outside.

``Tracer.install`` replaces every public function of the package's modules,
and every name another module imported it under, with a wrapper that opens a
span, so ``optimizer.clamp`` and ``tensor_core.clamp`` count as one function.
Spans are folded into totals as they close, because a traced run closes
millions of them: per function the call count, the inclusive time and the
self time (inclusive minus the time of its direct child spans), and per
(parent, child) pair the child's inclusive time.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import Counter, defaultdict

PACKAGE = "dlam"
MODULES = ("tensor_core", "network_state", "objective", "diagnostics",
           "optimizer", "baselines", "data_io", "cli")


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.child_time: defaultdict = defaultdict(float)   # (parent, child) -> s
        self._stack: list[list] = []
        self._wrappers: dict = {}
        self._patched: list[tuple] = []

    def reset(self) -> None:
        self.calls.clear()
        self.inclusive.clear()
        self.self_time.clear()
        self.child_time.clear()

    def _wrap(self, name: str, fn):
        stack, calls = self._stack, self.calls
        inclusive, self_time, child_time = self.inclusive, self.self_time, self.child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[name] += 1
                inclusive[name] += dt
                self_time[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                    child_time[stack[-1][0], name] += dt

        return traced

    def install(self) -> None:
        """Wrap every public package function under each name it is bound to."""
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        own = {m.__name__ for m in modules}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                        or value.__module__ not in own):
                    continue
                if value not in self._wrappers:
                    layer = value.__module__.rpartition(".")[2]
                    self._wrappers[value] = self._wrap(f"{layer}.{value.__name__}", value)
                setattr(module, attr, self._wrappers[value])
                self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def layer_self(self, layer: str) -> float:
        """Time spent in the layer's own code, outside spans of its callees."""
        return sum(t for name, t in self.self_time.items()
                   if name.startswith(layer + "."))
