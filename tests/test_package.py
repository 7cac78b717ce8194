"""Package surface: the names fdl exports, the README Quick start, and the methods the benchmark tracer wraps."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import fdl

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def test_every_exported_name_resolves():
    missing = [name for name in fdl.__all__ if not hasattr(fdl, name)]
    assert not missing


def test_readme_quick_start_runs():
    # the public signatures the README shows, run as written against src
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", block],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _tracer_targets():
    """The tracer's module tree and the entries of its TARGETS table, read, not imported."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets))
    return tree, table.elts


def test_every_traced_method_resolves():
    # Tracer.install patches Class.method entries through the class __dict__ and raises on a
    # missing one, which stops a traced benchmark run
    _, table = _tracer_targets()
    entries = [(entry.elts[0].value, entry.elts[1].value) for entry in table]
    methods = [(layer, name) for layer, name in entries if "." in name]
    assert methods
    missing = []
    for layer, name in methods:
        owner, attr = name.rsplit(".", 1)
        cls = getattr(importlib.import_module(f"fdl.{layer}"), owner, None)
        if cls is None or attr not in vars(cls):
            missing.append(f"{layer}.{name}")
    assert not missing


def _counter_reads(counter: ast.FunctionDef) -> list[tuple[int, str | None]]:
    """(position, name) of each argument a counter reads: _arg(args, kwargs, i, name), or args[i] unnamed."""
    reads = []
    for node in ast.walk(counter):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_arg":
            reads.append((node.args[2].value, node.args[3].value))
        elif (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id == "args"
              and isinstance(node.slice, ast.Constant)):
            reads.append((node.slice.value, None))
    return reads


def test_every_counted_private_kernel_takes_the_arguments_its_counter_reads():
    # Tracer.install skips a private kernel that is gone, so its work count would read 0
    # without an error; a renamed or moved argument would make the counter read another one
    tree, table = _tracer_targets()
    counters = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    kernels = [(entry.elts[0].value, entry.elts[1].value, counters[entry.elts[2].id]) for entry in table
               if entry.elts[1].value.startswith("_") and isinstance(entry.elts[2], ast.Name)]
    assert {name for _, name, _ in kernels} >= {"_probe_hits", "_maximal_ratios", "_max_dirichlet_values"}
    wrong = []
    for layer, name, counter in kernels:
        reads = _counter_reads(counter)
        assert reads, counter.name
        fn = getattr(importlib.import_module(f"fdl.{layer}"), name, None)
        if not callable(fn):
            wrong.append(f"{layer}.{name} is missing")
            continue
        params = list(inspect.signature(fn).parameters)
        wrong += [f"{layer}.{name} argument {i} is not {want}" for i, want in reads
                  if i >= len(params) or want not in (None, params[i])]
    assert not wrong
