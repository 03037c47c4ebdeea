"""A field is the coefficients of its box, and the half layout
(..., n1, n2, n3/2 + 1) is transform scratch and the checkpoint's file
layout only: the names that reach it, Grid.spectral_shape, Band.gather
and Band.scatter, appear in the package only in grid.py, which defines
them, and in the two checkpoint functions of solver.py.  A second
coefficient layout would have to name them elsewhere."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "admles"
HALF_LAYOUT_NAMES = {"spectral_shape", "gather", "scatter"}
ALLOWED = {("solver.py", "write_checkpoint"), ("solver.py", "read_checkpoint")}


def _uses(path: Path):
    """(top-level definition, line) of each attribute, name or import of
    a half-layout name in the module at `path`."""
    for top in ast.parse(path.read_text(), str(path)).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in HALF_LAYOUT_NAMES:
                yield owner, node.lineno


def test_half_layout_is_named_only_by_the_grid_and_the_checkpoints():
    stray = [f"{path.name}:{line} in {owner}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "grid.py"
             for owner, line in _uses(path) if (path.name, owner) not in ALLOWED]
    assert not stray, f"half-layout moves outside grid.py and the checkpoints: {stray}"


def test_the_checkpoints_still_name_the_half_layout():
    # the guard above has something to guard: the allowed places exist
    owners = {owner for owner, _ in _uses(PACKAGE / "solver.py")}
    assert owners == {owner for _, owner in ALLOWED}
