"""Exported names.  The benchmark traces functions by name
(`TRACED_FUNCTIONS` in `perfbench/run.py`); each must stay an exported
function or class, or the trace breaks.  The list is read with `ast`,
without importing the harness.  The package exports what each of
`algebra`, `spinor` and `twostate` lists in its `__all__`, and no more."""

import ast
import importlib
import inspect
from pathlib import Path

import gatss
from gatss import algebra, spinor, twostate

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


def test_package_exports_each_modules_all():
    modules = (algebra, spinor, twostate)
    exported = set().union(*(module.__all__ for module in modules))
    assert len(exported) == sum(len(module.__all__) for module in modules)  # no name shadows another
    public = {
        name for name, value in vars(gatss).items()
        if not name.startswith("_")
        and not (inspect.ismodule(value) and value.__name__ == f"gatss.{name}")
    }
    assert public == exported
    for module in modules:
        for name in module.__all__:
            assert getattr(gatss, name) is getattr(module, name), name
    assert isinstance(gatss.__version__, str)
