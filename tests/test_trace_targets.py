"""The benchmark's trace wrapper must name functions that exist in tlab."""

import ast
import importlib
import inspect
from pathlib import Path

TRACED_TLAB = Path(__file__).resolve().parent.parent / "perfbench" / "traced_tlab.py"


def traced_names():
    tree = ast.parse(TRACED_TLAB.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED tuple in {TRACED_TLAB}")


def test_every_traced_stage_is_a_tlab_function():
    names = traced_names()
    assert names
    missing = []
    for qualname in names:
        module_name, func_name = qualname.split(".")
        module = importlib.import_module("tlab." + module_name)
        if not inspect.isfunction(getattr(module, func_name, None)):
            missing.append(qualname)
    assert missing == []
