"""Code hygiene: every definition in the package is used somewhere, the
package imports nothing outside the standard library, and the CLI reads
only the package's public names.

A definition counts as used when its name is read (as a bare name, an
attribute or an imported name) in ``src/``, ``tests/`` or ``bench/``
outside its own body; this file does not count.  Methods and
properties, dunders aside, must be read as ``.name``.
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

import spehcalc

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spehcalc"


def _trees() -> dict[Path, ast.Module]:
    here = Path(__file__).resolve()
    return {
        path: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for top in ("src", "tests", "bench")
        for path in sorted((ROOT / top).rglob("*.py"))
        if path != here
    }


TREES = _trees()
MODULES = {path: tree for path, tree in TREES.items() if path.parent == PACKAGE}


def _reads(node: ast.AST) -> Counter:
    """Each name read under node, as "name" (a bare or imported name)
    and as ".name" (an attribute)."""
    reads: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.alias):
            reads[sub.name.rsplit(".", 1)[-1]] += 1
        elif not isinstance(getattr(sub, "ctx", None), ast.Load):
            continue
        elif isinstance(sub, ast.Name):
            reads[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            reads["." + sub.attr] += 1
    return reads


ALL_READS = sum((_reads(tree) for tree in TREES.values()), Counter())


DEFINITIONS = [
    node
    for tree in MODULES.values()
    for node in tree.body
    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
]


def test_every_top_level_definition_is_used():
    unused = []
    for node in DEFINITIONS:
        own = _reads(node)
        outside = sum(ALL_READS[key] - own[key] for key in (node.name, "." + node.name))
        if node.name not in spehcalc.__all__ and outside == 0:
            unused.append(node.name)
    assert unused == [], f"defined but never used: {unused}"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


METHODS = [
    (cls.name, item)
    for cls in DEFINITIONS
    if isinstance(cls, ast.ClassDef)
    for item in cls.body
    if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name)
]


def test_every_method_is_used():
    unused = [
        f"{class_name}.{method.name}"
        for class_name, method in METHODS
        if ALL_READS["." + method.name] == _reads(method)["." + method.name]
    ]
    assert unused == [], f"methods never read as .name: {unused}"


def test_package_imports_only_the_standard_library():
    outside = []
    for path, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".", 1)[0]
                if top != "spehcalc" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {name}")
    assert outside == [], f"imports outside the standard library: {outside}"


def test_cli_uses_only_public_names():
    """The command-line front end is a shell over the library: it imports
    no underscore-prefixed name from the package and reads no
    underscore-prefixed attribute, dunders aside."""
    private = []
    for node in ast.walk(MODULES[PACKAGE / "cli.py"]):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("spehcalc")):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        private += [name for name in names if name.startswith("_") and not _is_dunder(name)]
    assert private == [], f"private names read by the CLI: {private}"
