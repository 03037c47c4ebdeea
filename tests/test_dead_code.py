"""Every top-level function and class of the package has a user: code
in the package that names it, or a place in the public ``__all__``.
Tests alone do not keep a helper alive."""

import ast
from pathlib import Path

import admles

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "admles"


def _references(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
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
            used.update(_references(ast.parse(path.read_text(), str(path))))
    unused = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in modules
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in used
    ]
    assert not unused, f"defined but never named elsewhere: {unused}"
