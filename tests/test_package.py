"""Package surface: the names fdl exports, and the methods the benchmark tracer wraps."""

import ast
import importlib
from pathlib import Path

import fdl

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_exported_name_resolves():
    missing = [name for name in fdl.__all__ if not hasattr(fdl, name)]
    assert not missing


def test_every_traced_method_resolves():
    # Tracer.install patches Class.method entries through the class __dict__ and raises on a
    # missing one, which stops a traced benchmark run; the table is read, not imported
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets))
    entries = [(entry.elts[0].value, entry.elts[1].value) for entry in table.elts]
    methods = [(layer, name) for layer, name in entries if "." in name]
    assert methods
    missing = []
    for layer, name in methods:
        owner, attr = name.rsplit(".", 1)
        cls = getattr(importlib.import_module(f"fdl.{layer}"), owner, None)
        if cls is None or attr not in vars(cls):
            missing.append(f"{layer}.{name}")
    assert not missing
