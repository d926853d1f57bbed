"""Every name a ``sqkdsim`` module imports is used in that module, every
name it defines and every record field is used somewhere, every file a
module opens as text names its encoding, and every name the benchmark's
tracer wraps still exists.

The first check is the one pyflakes calls F401, done with ``ast`` alone.  A
name listed in ``__all__`` counts as used, and so does a name inside a
string annotation.  An import line marked ``# noqa: F401`` is exempt.

The second is its twin across modules: a function, class or name that a
module defines at top level, and a method of a top-level class, must be
read, as a name or an attribute, in ``src/`` or ``tests/``.  Its
definition, an import and an ``__all__`` entry do not count, so a name
that is only re-exported is dead code.  Dunder names are exempt.

The third is the same check for data: every annotated field of a
``@dataclass`` or ``NamedTuple`` class in ``src/`` must be read as an
attribute in ``src/`` or ``tests/``, so a record does not carry a field
that only repeats what its caller already holds.

The fourth pins a class of bug that a test run under one locale cannot: a
text-mode ``open``, ``read_text`` or ``write_text`` without ``encoding=``
reads or writes in the locale's encoding, so a UTF-8 file that works here
fails under an ASCII locale.
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


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def top_level_names(tree):
    """``(name, line)`` of every function, class and name a module defines
    at top level, and of every method of a top-level class as
    ``Class.method``, dunder names aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not is_dunder(item.name):
                    yield f"{node.name}.{item.name}", item.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and not is_dunder(sub.id):
                        yield sub.id, node.lineno


def read_names(trees, attributes_only=False):
    """Every name read as an ``ast.Name`` or an attribute in ``trees``; with
    ``attributes_only``, every name read as an attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                if not attributes_only:
                    read.add(node.id)
            elif isinstance(node, ast.Attribute) and not (
                    attributes_only and isinstance(node.ctx, ast.Store)):
                read.add(node.attr)
    return read


def unused_top_level(modules, trees):
    """``module:line: name`` of each top-level name of the ``(module,
    tree)`` pairs that no tree of ``trees`` reads; a method counts as read
    when any attribute of its name is."""
    read = read_names(trees)
    return [f"{module}:{line}: {name}" for module, tree in modules
            for name, line in top_level_names(tree)
            if name.rsplit(".", 1)[-1] not in read]


def parsed_sources():
    """``(modules, trees)``: the ``(file name, tree)`` pairs of the
    ``sqkdsim`` modules, and the trees of every file in ``src/`` and
    ``tests/``."""
    parse = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src").rglob("*.py"))
             + sorted((ROOT / "tests").rglob("*.py"))}
    modules = [(path.name, tree) for path, tree in parse.items()
               if path.parent == SRC]
    return modules, list(parse.values())


def test_every_top_level_name_is_used():
    unused = unused_top_level(*parsed_sources())
    assert not unused, "defined but never used: " + ", ".join(unused)


def test_unused_top_level_check_flags_what_it_should():
    module = ast.parse("\n".join([
        "from .kernels import walk", "__all__ = ['walk', 'planted']",
        "def planted(): return helper()", "def helper(): pass",
        "class Stage:", "    def __init__(self): self.pick()",
        "    def pick(self): pass", "    def planted(self): pass",
        "LIMIT: int = 3", "A, B = 1, 2"]))
    user = ast.parse("import m\nm.Stage()\nprint(LIMIT, A)\nB = 4")
    assert unused_top_level([("m.py", module)], [module, user]) == [
        "m.py:3: planted", "m.py:8: Stage.planted", "m.py:10: B"]


def decorator_or_base_name(node):
    """``dataclass`` for ``@dataclass``, ``@dataclasses.dataclass(...)`` and
    the like: the last name of a decorator or base, called or not."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(
        node, "id", None)


def record_fields(tree):
    """``(Class.field, line)`` of every annotated field of a ``@dataclass``
    or ``NamedTuple`` class in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and (
                "dataclass" in map(decorator_or_base_name, node.decorator_list)
                or "NamedTuple" in map(decorator_or_base_name, node.bases)):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) \
                        and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.lineno


def unread_fields(modules, trees):
    """``module:line: Class.field`` of each record field of the ``(module,
    tree)`` pairs that no tree of ``trees`` reads as an attribute; setting
    it, or passing it by keyword, does not count."""
    read = read_names(trees, attributes_only=True)
    return [f"{module}:{line}: {name}" for module, tree in modules
            for name, line in record_fields(tree)
            if name.split(".", 1)[1] not in read]


def test_every_record_field_is_read():
    unread = unread_fields(*parsed_sources())
    assert not unread, "record fields never read: " + ", ".join(unread)


def test_unread_field_check_flags_what_it_should():
    module = ast.parse("\n".join([
        "from dataclasses import dataclass", "import dataclasses",
        "from typing import NamedTuple", "@dataclass(frozen=True)",
        "class Row:", "    n: int", "    sign: int = 1", "    coeffs: tuple",
        "    LIMIT = 3", "@dataclasses.dataclass", "class Summary:",
        "    trials: int", "class Pair(NamedTuple):", "    lo: int",
        "    hi: int", "class Plain:", "    width: int",
        "def make(n, sign): return Row(n=n, sign=sign, coeffs=())"]))
    user = ast.parse("r = make(1, 1)\nprint(r.coeffs, Pair(0, 1).hi)\n"
                     "s = Summary(0)\ns.trials = 2")
    assert unread_fields([("m.py", module)], [module, user]) == [
        "m.py:6: Row.n", "m.py:7: Row.sign", "m.py:12: Summary.trials",
        "m.py:14: Pair.lo"]


def text_io_without_encoding(tree):
    """Line of every text-mode ``open``, ``read_text`` or ``write_text``
    call without an ``encoding`` keyword.  A mode that is not a string
    constant containing ``b`` counts as text."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or any(
                k.arg == "encoding" for k in node.keywords):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("read_text",
                                                             "write_text"):
            yield node.lineno
        elif (isinstance(func, ast.Name) and func.id == "open"
              or isinstance(func, ast.Attribute) and func.attr == "open"):
            # builtin open(file, mode); a path's or resource's open(mode)
            where = 1 if isinstance(func, ast.Name) else 0
            mode = [k.value for k in node.keywords if k.arg == "mode"]
            mode += node.args[where:where + 1]
            if not (mode and isinstance(mode[0], ast.Constant)
                    and "b" in str(mode[0].value)):
                yield node.lineno


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: p.name)
def test_text_io_names_its_encoding(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [f"{path.name}:{line}" for line in text_io_without_encoding(tree)]
    assert not lines, "text I/O in the locale's encoding: " + ", ".join(lines)


def test_text_io_check_flags_what_it_should():
    flagged = ["open(p)", "open(p, 'r')", "open(p, mode='w')", "open(p, m)",
               "p.open()", "p.open('w')", "p.read_text()",
               "p.write_text(t)"]
    passed = ["open(p, 'rb')", "open(p, mode='wb')",
              "open(p, encoding='utf-8')", "p.open('rb')",
              "p.read_text(encoding='utf-8')", "p.read_bytes()",
              "parser.read_file(fh)"]
    for sources, expected in ((flagged, 1), (passed, 0)):
        for source in sources:
            found = list(text_io_without_encoding(ast.parse(source)))
            assert len(found) == expected, source


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
