"""The package is the referee: each public function, class and constant in
``src/bellbet``, and each public method and property of its classes, is run
by a command, another module or the benchmark. The references the tests
check the program against live in ``theory``."""

import ast
import collections
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def named(tree) -> collections.Counter:
    """How often each name occurs in ``tree``: as a variable, an attribute
    or an imported name."""
    counts = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.alias):
            counts[node.name.rpartition(".")[2]] += 1
    return counts


def defined(tree):
    """(name, statement) of each public function, class and constant that
    ``tree`` defines at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def attributes(tree) -> collections.Counter:
    """How often each name occurs in ``tree`` as an attribute, ``.name``."""
    return collections.Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def methods(tree):
    """(class.name, statement) of each public method and property of each
    class that ``tree`` defines at module level."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def parsed():
    """(path, tree, in the package) of each file of ``src/bellbet`` and of
    the benchmark."""
    package = sorted((ROOT / "src" / "bellbet").glob("*.py"))
    for path in package + sorted((ROOT / "perfbench").rglob("*.py")):
        yield path, ast.parse(path.read_bytes(), str(path)), path in package


def test_every_public_name_has_a_caller_outside_the_tests():
    total = collections.Counter()
    definitions = []
    for path, tree, in_package in parsed():
        total += named(tree)
        if in_package:
            definitions += [(path.name, name, node) for name, node in defined(tree)]
    # A name whose every occurrence is inside its own definition has no caller.
    uncalled = [f"{file}: {name}" for file, name, node in definitions if total[name] == named(node)[name]]
    assert len(definitions) > 100
    assert not uncalled, f"public names no command, module or benchmark runs: {uncalled}"


def test_every_public_method_has_a_caller_outside_the_tests():
    total = collections.Counter()
    definitions = []
    for path, tree, in_package in parsed():
        total += attributes(tree)
        if in_package:
            definitions += [(path.name, name, node) for name, node in methods(tree)]
    # A method or property read as ``.name`` only inside its own definition
    # has no caller.
    uncalled = [
        f"{file}: {name}"
        for file, name, node in definitions
        if total[node.name] == attributes(node)[node.name]
    ]
    assert len(definitions) > 50
    assert not uncalled, f"public methods no command, module or benchmark runs: {uncalled}"
