"""The benchmark's trace wrapper must name functions that exist in tlab."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED_TLAB = ROOT / "perfbench" / "traced_tlab.py"


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


def test_cli_import_loads_every_traced_module_and_no_dataclasses():
    # the trace wrapper imports tlab.cli and then looks each traced module up
    # in sys.modules, so the CLI must import them all; and the records are
    # named tuples, so that no process pays for importing dataclasses
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", "import json, sys, tlab.cli; print(json.dumps(sorted(sys.modules)))"],
        env=env, capture_output=True, encoding="utf-8", check=True,
    )
    loaded = set(json.loads(done.stdout))
    assert "dataclasses" not in loaded
    assert {"tlab." + name.split(".")[0] for name in traced_names()} <= loaded
