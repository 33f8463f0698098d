"""No function or class in the package that nothing else refers to.

A definition in ``src/kmslab`` counts as used when a name, an attribute or an
imported name equal to its name occurs in ``src``, ``tests``, ``perfbench`` or
``demos`` outside its own body. Dunders, which Python calls by protocol, and the
``_cmd_*`` handlers, which ``cli.main`` looks up by name, are exempt. The match is
by name alone, so a use of any same-named definition keeps all of them.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "perfbench", "demos")


def _names(node):
    """Every name the subtree refers to."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.rsplit(".", 1)[-1]


def _exempt(name):
    return (name.startswith("__") and name.endswith("__")) or name.startswith("_cmd_")


def unreferenced_definitions():
    trees = {path: ast.parse(path.read_text(), str(path))
             for tree in TREES for path in sorted((ROOT / tree).rglob("*.py"))}
    everywhere = Counter(name for tree in trees.values() for name in _names(tree))
    package = ROOT / "src" / "kmslab"
    dead = []
    for path, tree in trees.items():
        if package not in path.parents:
            continue
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not _exempt(node.name)
                    and everywhere[node.name] == Counter(_names(node))[node.name]):
                dead.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    return dead


def test_every_definition_in_the_package_is_referenced():
    assert unreferenced_definitions() == []
