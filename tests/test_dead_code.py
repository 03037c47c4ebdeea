"""Every top-level function and class of the package has a user: code
in the package that names it, or a place in the public ``__all__``; and
every public method or property of a package class is named somewhere
in the package.  Tests alone do not keep a helper alive, and neither
does a local variable of the same name: a bare name counts only where
its scope reads it as a global (found with ``symtable``), while every
attribute and import counts."""

import ast
import importlib
import symtable
from functools import cached_property
from pathlib import Path
from types import FunctionType

import admles

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "admles"


def _scopes(table: symtable.SymbolTable):
    yield table
    for child in table.get_children():
        yield from _scopes(child)


def _references(path: Path):
    source = path.read_text()
    module = symtable.symtable(source, str(path), "exec")
    for table in _scopes(module):
        for symbol in table.get_symbols():
            if symbol.is_referenced() and (table is module or symbol.is_global()):
                yield symbol.get_name()
    for node in ast.walk(ast.parse(source, str(path))):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_public_names_resolve():
    missing = [name for name in admles.__all__ if not hasattr(admles, name)]
    assert not missing, f"listed in __all__ but not defined: {missing}"


def test_no_top_level_definition_without_a_user():
    modules = sorted(PACKAGE.glob("*.py"))
    # the package's own re-exports count through __all__ only
    used = set(admles.__all__)
    for path in modules:
        if path.name != "__init__.py":
            used.update(_references(path))
    unused = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in modules
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in used
    ]
    assert not unused, f"defined but never named elsewhere: {unused}"


def _public_members(cls):
    """Public methods and properties that `cls` defines, less those that
    override a base class's (an argparse hook, say)."""
    for name, value in vars(cls).items():
        if (not name.startswith("_")
                and isinstance(value, (FunctionType, staticmethod, classmethod,
                                       property, cached_property))
                and not any(hasattr(base, name) for base in cls.__mro__[1:])):
            yield name


def test_no_public_method_without_a_user():
    used = set()
    for path in PACKAGE.glob("*.py"):
        used.update(_references(path))
    unused = [
        f"{module.__name__}.{cls.__name__}.{name}"
        for module in map(importlib.import_module, sorted(
            f"admles.{path.stem}" for path in PACKAGE.glob("*.py")
            if path.name != "__init__.py"))
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__
        for name in _public_members(cls)
        if name not in used
    ]
    assert not unused, f"public members never named in the package: {unused}"
