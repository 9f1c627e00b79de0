"""README's rule for names: one exists only where the CLI, a script or ``verify`` needs it.

Every module-level public function or class in ``src/mzpovm/*.py`` must be
referenced outside its own definition by code in ``src/``, ``scripts/`` or
``perfbench/``. References from the tests do not count, and no name is
kept for the tests alone: a test that needs a reference route writes its
own, as ``conftest.py`` does. ``KEPT_FOR_THE_TESTS`` stays, empty, so that
any exemption is an argued edit. Every module-level private function,
class or constant (not a dunder) must be referenced outside its own
definition by code in ``src/``. Every public method or property of a
public class must be read as an attribute outside its own definition and
outside every other unused method; dunder methods are exempt, and no
method is kept for the tests. Every field of a public dataclass must be
read as an attribute by the same code, outside the class's own
``__post_init__`` and every unused method, with no exemption. No module
of ``src/`` or ``scripts/`` reads a private name of another package
module: a kernel another module calls is public, and says what it checks.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mzpovm"
KEPT_FOR_THE_TESTS: set[tuple[str, str]] = set()


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


def _defined_names(node) -> list[str]:
    # The names a top-level statement binds: a function, a class or the targets of an assignment.
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name)]


def _unreferenced(trees, kinds) -> list[tuple[str, str]]:
    """(module, name) of each name bound by a top-level statement of src/mzpovm/*.py of a type in ``kinds``
    that no other top-level statement of ``trees`` references.

    A reference inside the defining statement itself does not count.
    """
    statements = {path: [(node, _referenced_names(node)) for node in tree.body] for path, tree in trees.items()}
    # How many top-level statements reference each name.
    counts = Counter(name for nodes in statements.values() for _, names in nodes for name in names)
    return [
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node, names in statements[path]
        if isinstance(node, kinds)
        for name in _defined_names(node)
        if counts[name] == (name in names)
    ]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = _unreferenced(_sources(), (ast.FunctionDef, ast.ClassDef))
    assert [key for key in unused if not key[1].startswith("_") and key not in KEPT_FOR_THE_TESTS] == []


def test_every_private_name_has_a_reader_in_src():
    # Private functions, classes and constants serve src/ alone, so only src/ counts.
    trees = {path: tree for path, tree in _sources().items() if PACKAGE in path.parents}
    unused = _unreferenced(trees, (ast.FunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign))
    assert [key for key in unused if _is_private(key[1])] == []


def _private_reads(trees) -> list[str]:
    """``module._name`` reads of package modules, and ``from`` imports of private names, in ``trees``."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    found = []
    for path, tree in trees.items():
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id in modules:
                names = [f"{sub.value.id}.{sub.attr}"]
            elif isinstance(sub, ast.ImportFrom) and (sub.level or (sub.module or "").startswith("mzpovm")):
                names = [f"{sub.module or ''}.{alias.name}" for alias in sub.names]
            else:
                continue
            found += [f"{path.relative_to(ROOT)}:{sub.lineno}: {name}" for name in names if _is_private(name.rsplit(".", 1)[-1])]
    return found


def test_no_module_reads_a_private_name_of_another_package_module():
    trees = {path: tree for path, tree in _sources().items() if "perfbench" not in path.relative_to(ROOT).parts}
    assert _private_reads(trees) == []


def test_a_private_read_is_found_and_a_dunder_is_not():
    source = ast.parse(
        "from mzpovm import relations\n"
        "from .oracle import _probabilities, haar_state\n"
        "relations._state_relations_core(x)\n"
        "relations.__name__, relations.state_relations_core, rng._private\n"
    )
    assert _private_reads({ROOT / "src" / "m.py": source}) == [
        "src/m.py:2: oracle._probabilities",
        "src/m.py:3: relations._state_relations_core",
    ]


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


def _unused_fields(classes, trees) -> list[str]:
    """The fields of the dataclasses among ``classes``, (module, ClassDef) pairs, that nothing in ``trees`` reads.

    Reads are attribute names, as for methods. A read inside the class's
    own ``__post_init__`` does not count, nor does a read inside a method
    that :func:`_unused_methods` finds unused. Matching is by name, so a
    field shares the reads of every attribute that has its name: a
    ``hermitian_deviation`` field would pass on the reads of
    ``linalg.hermitian_deviation``, and a ``visibility`` field on those of
    ``ErasureAudit.visibility``.
    """
    trees = list(trees)
    dead = set(_unused_methods(classes, trees))
    reads = sum((_attribute_reads(tree) for tree in trees), Counter())
    reads -= sum(
        (
            _attribute_reads(node)
            for module, cls in classes
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and f"{module}.{cls.name}.{node.name}" in dead
        ),
        Counter(),
    )
    unused = []
    for module, cls in classes:
        if not any("dataclass" in _referenced_names(decorator) for decorator in cls.decorator_list):
            continue
        own = sum((_attribute_reads(node) for node in cls.body if getattr(node, "name", "") == "__post_init__"), Counter())
        unused += [
            f"{module}.{cls.name}.{node.target.id}"
            for node in cls.body
            if isinstance(node, ast.AnnAssign) and reads[node.target.id] <= own[node.target.id]
        ]
    return sorted(unused)


def test_every_dataclass_field_has_a_reader_outside_the_tests():
    trees = _sources()
    assert _unused_fields(list(_public_classes(trees)), trees.values()) == []


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


def test_a_field_read_only_by_its_post_init_or_an_unused_method_is_unused():
    source = ast.parse(
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    kept: int\n"
        "    checked: int\n"
        "    reported: int\n"
        "    def __post_init__(self):\n"
        "        assert self.checked >= 0\n"
        "    def report(self):\n"
        "        return self.reported\n"
        "class B:\n"
        "    loose: int\n"
        "A(1, 2, 3).kept\n"
    )
    classes = [("m", node) for node in source.body if isinstance(node, ast.ClassDef)]
    assert _unused_fields(classes, [source]) == ["m.A.checked", "m.A.reported"]
