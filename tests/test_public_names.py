"""README's rule for public names: one exists only where the CLI, a script or ``verify`` needs it.

Every module-level public function or class in ``src/mzpovm/*.py`` must be
referenced outside its own definition by code in ``src/``, ``scripts/`` or
``perfbench/``. References from the tests do not count; README names the
four that stay for the tests alone.
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


def test_every_public_name_has_a_caller_outside_the_tests():
    # How many top-level statements of src/, scripts/ and perfbench/ reference each name.
    statements = {}
    for folder in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if any(part.startswith(".") for part in path.relative_to(ROOT).parts):
                continue  # scratch copies, such as perfbench/.work
            statements[path] = [(node, _referenced_names(node)) for node in ast.parse(path.read_text(encoding="utf-8")).body]
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
