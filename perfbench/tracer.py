"""Per-function call counts and self time, installed from outside `gatss`.

`Tracer.install()` wraps every public callable (the names in `__all__`) of
the modules below: functions directly, classes through their `__init__`.
Because modules import each other's functions by name (`from .algebra
import gp`), each wrapper is bound in place of the original in every
`gatss` module namespace, so calls between modules are counted too.

Self time is a wrapper's inclusive time minus the inclusive time of the
wrapped calls made inside it.  Nothing under `src/` changes; the wrappers
exist only in a process that called `install()`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

MODULES = ("algebra", "spinor", "twostate", "matrixqm", "conformance", "cli")


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self._stack: list[float] = []

    def reset(self) -> None:
        for key in self.calls:
            self.calls[key] = 0
            self.self_s[key] = 0.0

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s)}

    def _wrap(self, key: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        calls[key] = 0
        self_s[key] = 0.0
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[key] += dt - stack.pop()
                calls[key] += 1
                if stack:
                    stack[-1] += dt

        wrapper.__perfbench_key__ = key
        return wrapper

    def install(self) -> None:
        replaced = {}
        modules = [importlib.import_module(f"gatss.{name}") for name in MODULES]
        for short, mod in zip(MODULES, modules):
            for name in mod.__all__:
                obj = getattr(mod, name)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                key = f"{short}.{name}"
                if inspect.isclass(obj):
                    obj.__init__ = self._wrap(key, obj.__init__)
                elif inspect.isfunction(obj):
                    replaced[obj] = self._wrap(key, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "gatss" and not mod_name.startswith("gatss."):
                continue
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(mod, name, replaced[value])
