import ast
import sys
from collections import Counter
from pathlib import Path

import staircase_pir

PACKAGE = Path(staircase_pir.__file__).parent


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
    "nonuniversality_demo": "the ramp baseline's contrast with the staircase's universal rate",
    "LatencyModel.unresponsive": "the simulator's silent server, a model built by hand",
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
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))]
    named = Counter(name for tree in trees for name in _names(tree))
    for path in sorted((Path(__file__).parents[1] / "bench").glob("*.py")):
        named.update(_names(ast.parse(path.read_text(), str(path)), strings=True))
    uncalled = {
        qualified
        for tree in trees
        for qualified, node in _definitions(tree)
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in staircase_pir.__all__
        and named[node.name] == sum(name == node.name for name in _names(node))
    }
    assert uncalled == set(NO_CALLER_NEEDED)
