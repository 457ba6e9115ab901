import ast
import sys
from collections import Counter
from pathlib import Path

import staircase_pir

PACKAGE = Path(staircase_pir.__file__).parent
BENCH = Path(__file__).parents[1] / "bench"


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    outside = {
        (path.name, name)
        for path in modules
        for name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names | {"staircase_pir"}
    }
    assert not outside


def test_the_retrieval_core_does_no_io():
    # protocol.Retrieval makes a retrieval's decisions for both net's socket
    # loop and sim's virtual clock, so its module reads no clock and
    # touches no socket or thread.
    imported = {name.split(".")[0] for name in _absolute_imports(PACKAGE / "protocol.py")}
    assert not imported & {"socket", "selectors", "select", "threading", "time"}


def test_package_has_no_assert_statement():
    # A check is an exception, not an assert, which `python -O` strips.
    asserts = [
        (path.name, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not asserts


# Names no package function and nothing under bench/ refers to, each kept
# for a reason of its own.
NO_CALLER_NEEDED = {
    "Database.from_files": "README's library entry: a database from lists of symbols",
}

# Fields no package module and nothing under bench/ reads as an attribute,
# each read another way.
READ_OTHERWISE = {
    "RetrievalMetrics.bytes_sent": "`cli retrieve` emits every field through vars(metrics)",
    "RetrievalMetrics.bytes_received": "`cli retrieve` emits every field through vars(metrics)",
}


def _names(tree, strings=False):
    """Every identifier `tree` reads or calls; with `strings`, every string
    too, since bench/tracing.py wraps package functions by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _parse(directory):
    """The tree of each module in `directory`."""
    return [ast.parse(path.read_text(), str(path)) for path in sorted(directory.glob("*.py"))]


def _definitions(node, prefix=""):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + child.name, child
            yield from _definitions(child, prefix + child.name + ".")
        else:
            yield from _definitions(child, prefix)


def test_every_function_and_class_has_a_production_caller():
    # A production caller is another package function or bench/; a name in
    # __all__ is the library's, and dunders are called by Python itself.
    trees = _parse(PACKAGE)
    named = Counter(name for tree in trees for name in _names(tree))
    for tree in _parse(BENCH):
        named.update(_names(tree, strings=True))
    uncalled = {
        qualified
        for tree in trees
        for qualified, node in _definitions(tree)
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in staircase_pir.__all__
        and named[node.name] == sum(name == node.name for name in _names(node))
    }
    assert uncalled == set(NO_CALLER_NEEDED)


def _fields(tree):
    """(Class.NAME, NAME) for every field of a package class: each name a
    dataclass body declares, and each `self.NAME` its methods assign. A
    NamedTuple, read by unpacking, is no dataclass and assigns none."""
    for qualified, node in _definitions(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if any(ast.unparse(getattr(d, "func", d)) in ("dataclass", "dataclasses.dataclass")
               for d in node.decorator_list):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield f"{qualified}.{stmt.target.id}", stmt.target.id
        for method in node.body:
            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in ast.walk(method):
                    if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                        yield f"{qualified}.{sub.attr}", sub.attr


def test_every_field_is_read():
    # A field that nothing in the package or bench/ reads is one the
    # package keeps for no caller.
    trees = _parse(PACKAGE)
    read = {node.attr for tree in trees + _parse(BENCH) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = {qualified for tree in trees for qualified, name in _fields(tree)
              if name not in read}
    assert unread == set(READ_OTHERWISE)
