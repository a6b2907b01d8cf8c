"""Code hygiene: every definition in the package is used somewhere, the
package imports nothing outside the standard library, the matcher
module imports only ``core`` of the package, the CLI reads only the
package's public names, only the base record defines equality
and hash, and family compatibility is checked apart from the search's
partner table.

A definition counts as used when its name is read (as a bare name, an
attribute or an imported name) in ``src/``, ``tests/`` or ``bench/``
outside its own body; this file does not count.  Methods and
properties, dunders aside, must be read as ``.name``.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
import sys
from collections import Counter
from pathlib import Path

import spehcalc
from spehcalc.core import _Record

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


def _package_imports(tree: ast.Module) -> set[str]:
    """The package's own modules that tree imports, anywhere in it."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # the imported name under its module: a name of a module, or a submodule
            module = ".".join(filter(None, ("spehcalc" if node.level else "", node.module)))
            names = [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        imported |= {name.split(".")[1] for name in names if name.startswith("spehcalc.")}
    return imported


def test_relevance_imports_only_core():
    """The matcher module depends, among the package's own modules, on
    ``core`` alone: the same-support comparison lives in ``core``, beside
    the ends it reads, not in ``relevance`` over the ``sl2`` layer."""
    assert _package_imports(MODULES[PACKAGE / "relevance.py"]) == {"core"}


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


def test_only_values_unpack_the_field_writers():
    """A record writes its fields through ``_Record._set``; only the
    constructors of the three values that the searches build in bulk
    (``SpehDatum``, ``MatchedPair`` and ``Matching``, in
    ``relevance._leaf`` and ``_merge``) unpack ``_setters`` themselves (see
    ``core._Value``)."""
    readers = [
        f"{path.name}: {getattr(node, 'name', f'line {node.lineno}')}"
        for path, tree in MODULES.items()
        for node in tree.body
        if _reads(node)["._setters"]
        and getattr(node, "name", None) not in ("_Record", "SpehDatum", "MatchedPair", "Matching")
    ]
    assert readers == []


def test_compatibility_is_checked_apart_from_the_partner_table():
    """``MoveFamily.compatible``, which every ``MatchedPair`` and
    ``Matching.validate`` check a certificate by, spells out the family
    equations (``relevance._EQUATIONS``); neither it nor ``validate``
    (with the ``_term_counts`` it counts terms by) reads ``_partner_keys``
    or ``_KEY_INDEX``, which the search finds partners by, nor the
    search's ``_option_tables`` or ``_Line``, so a fault in the search
    cannot pass its own check."""
    tree = MODULES[PACKAGE / "relevance.py"]

    def method(class_name, name):
        cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == class_name)
        return next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == name)

    compatible, validate = method("MoveFamily", "compatible"), method("Matching", "validate")
    equations = next(
        n for n in tree.body
        if isinstance(n, ast.Assign) and any(getattr(t, "id", None) == "_EQUATIONS" for t in n.targets)
    )
    counts = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_term_counts")
    assert (_reads(compatible) + _reads(equations))["_EQUATIONS"] == 1
    assert _reads(validate)[".compatible"] == 1
    for node in (compatible, equations, validate, counts):
        reads = _reads(node)
        assert [name for name in ("_partner_keys", "_KEY_INDEX", "_option_tables", "_Line") if reads[name]] == []


def test_only_the_base_record_defines_equality_and_hash():
    """Every record is equal and hashes by its key through ``_Record``
    (the key chosen by ``_key_slots``): no record class in the package
    defines ``__eq__`` or ``__hash__`` of its own."""
    for module in pkgutil.iter_modules(spehcalc.__path__):
        importlib.import_module(f"spehcalc.{module.name}")
    records, todo = [], [_Record]
    while todo:
        cls = todo.pop()
        records.append(cls)
        todo += cls.__subclasses__()
    own = sorted(
        f"{cls.__qualname__}.{name}"
        for cls in records
        if cls is not _Record and cls.__module__.startswith("spehcalc.")
        for name in ("__eq__", "__hash__")
        if name in cls.__dict__
    )
    assert len(records) > 10
    assert own == []
