"""Every name a ``sqkdsim`` module imports is used in that module, and
every name the benchmark's tracer wraps still exists.

The first check is the one pyflakes calls F401, done with ``ast`` alone.  A
name listed in ``__all__`` counts as used, and so does a name inside a
string annotation.  An import line marked ``# noqa: F401`` is exempt.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sqkdsim"
SPANS = ROOT / "perfbench" / "spans.py"


def imported_names(tree):
    """``(name, line)`` of every name an import binds, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.lineno


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = used_names(tree)
    unused = [f"{path.name}:{line}: {name}"
              for name, line in imported_names(tree)
              if name not in used and "# noqa: F401" not in lines[line - 1]]
    assert not unused, "imported but unused: " + ", ".join(unused)


def test_benchmark_span_targets_resolve():
    """``perfbench/spans.py`` wraps ``(module, attribute path)`` targets and
    counts a missing one as a trace gap; an engine change that renames or
    drops a target must fail here instead of opening that gap silently."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = spans
    try:
        spec.loader.exec_module(spans)
    finally:
        del sys.modules[spec.name]
    missing = []
    for module, path, _span in spans.TARGETS:
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{path}")
    assert spans.TARGETS and not missing, f"unresolved: {missing}"
