"""The package is the referee: each public function, class and constant in
``src/bellbet`` is run by a command, another module or the benchmark. The
references the tests check the program against live in ``theory``."""

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


def test_every_public_name_has_a_caller_outside_the_tests():
    package = sorted((ROOT / "src" / "bellbet").glob("*.py"))
    callers = package + sorted((ROOT / "perfbench").rglob("*.py"))
    total = collections.Counter()
    definitions = []
    for path in callers:
        tree = ast.parse(path.read_bytes(), str(path))
        total += named(tree)
        if path in package:
            definitions += [(path.name, name, node) for name, node in defined(tree)]
    # A name whose every occurrence is inside its own definition has no caller.
    uncalled = [f"{file}: {name}" for file, name, node in definitions if total[name] == named(node)[name]]
    assert len(definitions) > 100
    assert not uncalled, f"public names no command, module or benchmark runs: {uncalled}"
