"""A field is the coefficients of its box, and the half layout
(..., n1, n2, n3/2 + 1) is transform scratch only: the package names no
code that moves a box to or from it.  Band.gather, Band.scatter and
Grid.spectral_shape are gone; a second coefficient layout would have to
name them.  The tests keep their own copies in full_layout.py.  That
scratch is a BandWorkspace, which only grid.py builds: every other
module takes one from Band.workspace.  The package has one kind of
wavenumber, listed by grid.wavenumbers, the one caller of fftfreq."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "admles"
HALF_LAYOUT_NAMES = {"spectral_shape", "gather", "scatter"}


def _uses(path: Path):
    """(name, line) of each attribute, name, definition or import of a
    half-layout name in the module at `path`."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.name if isinstance(node, (ast.alias, ast.FunctionDef))
                else None)
        if name in HALF_LAYOUT_NAMES:
            yield name, node.lineno


def test_the_package_names_no_half_layout():
    stray = [f"{path.name}:{line} {name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for name, line in _uses(path)]
    assert not stray, f"half-layout moves in the package: {stray}"


def test_the_checkpoints_name_no_half_layout():
    # a checkpoint stores the state's box as it is
    assert list(_uses(PACKAGE / "solver.py")) == []


def test_only_grid_builds_a_band_workspace():
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "grid.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and "BandWorkspace" in (getattr(node.func, "id", None),
                                     getattr(node.func, "attr", None))]
    assert not calls, f"BandWorkspace built outside grid.py: {calls}"


def test_only_grid_lists_wavenumbers():
    names = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "grid.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if "fftfreq" in (getattr(node, "id", None), getattr(node, "attr", None),
                              getattr(node, "name", None))]
    assert not names, f"fftfreq named outside grid.py: {names}"
