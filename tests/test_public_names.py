"""README's rule for public names: one exists only where the CLI, a script or ``verify`` needs it.

Every module-level public function or class in ``src/mzpovm/*.py`` must be
referenced outside its own definition by code in ``src/``, ``scripts/`` or
``perfbench/``. References from the tests do not count; README names the
four that stay for the tests alone. Every public method or property of a
public class must likewise be read as an attribute outside its own
definition and outside every other unused method; dunder methods are
exempt, and no method is kept for the tests.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mzpovm"
KEPT_FOR_THE_TESTS = {
    ("linalg", "expectation"),
    ("linalg", "variance"),
    ("relations", "shannon_entropy"),
    ("complementarity", "meet"),
}


def _referenced_names(node) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
    return names


def _attribute_reads(node) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def _sources() -> dict[Path, ast.Module]:
    # The parsed code of src/, scripts/ and perfbench/.
    trees = {}
    for folder in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if any(part.startswith(".") for part in path.relative_to(ROOT).parts):
                continue  # scratch copies, such as perfbench/.work
            trees[path] = ast.parse(path.read_text(encoding="utf-8"))
    return trees


def _public_classes(trees):
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                yield path.stem, node


def test_every_public_name_has_a_caller_outside_the_tests():
    trees = _sources()
    # How many top-level statements of src/, scripts/ and perfbench/ reference each name.
    statements = {path: [(node, _referenced_names(node)) for node in tree.body] for path, tree in trees.items()}
    counts = Counter(name for nodes in statements.values() for _, names in nodes for name in names)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node, names in statements[path]:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            # A reference inside the definition itself does not count.
            if (path.stem, node.name) not in KEPT_FOR_THE_TESTS and counts[node.name] == (node.name in names):
                unused.append(f"{path.stem}.{node.name}")
    assert unused == []


def _unused_methods(classes, trees) -> list[str]:
    """The public methods of ``classes``, (module, ClassDef) pairs, that nothing in ``trees`` reads.

    Reads are attribute names. A read inside the method itself, such as a
    recursive call, does not count, nor does a read inside a method already
    found unused; so the search repeats until it finds no more.
    """
    reads = sum((_attribute_reads(tree) for tree in trees), Counter())
    methods = {
        f"{module}.{cls.name}.{node.name}": node
        for module, cls in classes
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")  # not fields, private or dunder methods
    }
    unused: set[str] = set()
    while True:
        dead = sum((_attribute_reads(methods[name]) for name in unused), Counter())
        found = {
            name
            for name, node in methods.items()
            if reads[node.name] == (dead + (Counter() if name in unused else _attribute_reads(node)))[node.name]
        }
        if found == unused:
            return sorted(unused)
        unused = found


def test_every_public_method_and_property_has_a_reader_outside_the_tests():
    trees = _sources()
    assert _unused_methods(list(_public_classes(trees)), trees.values()) == []


def test_a_method_read_only_by_an_unused_method_is_unused():
    source = ast.parse(
        "class A:\n"
        "    def report(self):\n"
        "        return self.kept()\n"
        "    def kept(self):\n"
        "        return 1\n"
        "class B:\n"
        "    def report(self):\n"
        "        return A().report()\n"
        "A().kept()\n"
    )
    classes = [("m", node) for node in source.body if isinstance(node, ast.ClassDef)]
    assert _unused_methods(classes, [source]) == ["m.A.report", "m.B.report"]
