"""The benchmark traces functions by name (`TRACED_FUNCTIONS` in
`perfbench/run.py`); each must stay an exported function or class, or the
trace breaks.  The list is read with `ast`, without importing the harness."""

import ast
import importlib
import inspect
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def traced_functions():
    for node in ast.parse(RUN_PY.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "TRACED_FUNCTIONS" for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no TRACED_FUNCTIONS")


def test_every_traced_name_is_exported():
    names = traced_functions()
    assert names
    for key in names:
        module_name, name = key.split(".")
        module = importlib.import_module(f"gatss.{module_name}")
        assert name in module.__all__, key
        obj = getattr(module, name)
        assert inspect.isfunction(obj) or inspect.isclass(obj), key
