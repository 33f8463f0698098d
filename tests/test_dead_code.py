"""No function or class in the package that nothing else refers to, and no method of a
package class that only the tests call.

A definition in ``src/kmslab`` counts as used when a name, an attribute or an
imported name equal to its name occurs in ``src``, ``tests``, ``perfbench`` or
``demos`` outside its own body. Dunders, which Python calls by protocol, and the
``_cmd_*`` handlers, which ``cli.main`` looks up by name, are exempt. The match is
by name alone, so a use of any same-named definition keeps all of them.

A method of a package class counts as used only when ``src``, ``perfbench`` or
``demos`` refer to it: a method that only the tests call either moves into the tests
as an oracle, where production decides the same fact another way, or is API, listed
in ``API_METHODS`` with the reason it stays.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "perfbench", "demos")
PRODUCTION = ("src", "perfbench", "demos")

#: public methods that no production code calls, kept as API because production has
#: no second route for what they give
API_METHODS = {
    "GnsTriple.cyclic_vector": "Ω, the third member of the GNS triple",
    "AlgElement.coords": "the GNS coordinates that adjoint_permutation is defined in",
    "BlockAlgebra.from_coords": "the element of given GNS coordinates, inverse to coords",
    "BlockAlgebra.basis": "the matrix units that the closed-form checks are stated in",
    "WindowInterval.contains": "the window's rule at its endpoints",
    "InnerFlow.unitary": "e^{ith}, the unitary that makes the flow inner",
    "InnerFlow.continue_analytic": "σ_z, the analytic extension; perfbench's tracing "
                                   "wraps it by name",
}


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


def _parsed(root, trees):
    """Each module under the ``trees`` of ``root``, parsed, and the count of every name
    they refer to."""
    parsed = {path: ast.parse(path.read_text(), str(path))
              for tree in trees for path in sorted((root / tree).rglob("*.py"))}
    return parsed, Counter(name for tree in parsed.values() for name in _names(tree))


def _unreferenced(node, everywhere):
    """Whether nothing outside the definition's own body refers to its name."""
    return everywhere[node.name] == Counter(_names(node))[node.name]


def unreferenced_definitions():
    trees, everywhere = _parsed(ROOT, TREES)
    package = ROOT / "src" / "kmslab"
    dead = []
    for path, tree in trees.items():
        if package not in path.parents:
            continue
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not _exempt(node.name) and _unreferenced(node, everywhere)):
                dead.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    return dead


def methods_only_tests_call(root=ROOT):
    """``Class.method`` for each method of a class in ``src/kmslab`` under ``root`` that
    no code in ``PRODUCTION`` refers to outside its own body."""
    trees, everywhere = _parsed(root, PRODUCTION)
    package = root / "src" / "kmslab"
    return [f"{cls.name}.{node.name}"
            for path, tree in trees.items() if package in path.parents
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not _exempt(node.name) and _unreferenced(node, everywhere)]


def test_every_definition_in_the_package_is_referenced():
    assert unreferenced_definitions() == []


def test_every_method_is_called_by_production_or_kept_as_api():
    assert sorted(methods_only_tests_call()) == sorted(API_METHODS)


def test_a_method_that_only_the_tests_call_is_caught(tmp_path):
    (tmp_path / "src" / "kmslab").mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "kmslab" / "mod.py").write_text(
        "class Thing:\n"
        "    def __init__(self):\n        self.used()\n"
        "    def used(self):\n        return 1\n"
        "    def planted(self):\n        return self.planted\n")
    (tmp_path / "tests" / "test_mod.py").write_text("Thing().planted()\n")
    assert methods_only_tests_call(tmp_path) == ["Thing.planted"]
