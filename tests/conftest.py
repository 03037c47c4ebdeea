"""Shared fixtures."""

import pytest

from admles import grid as grid_module


@pytest.fixture
def force_slab(monkeypatch):
    """force_slab(planes, shape, components=1) sets the slab budget so
    that a BandWorkspace built next for grid shape `shape` and that many
    components streams `planes` planes per slab; planes=None restores
    the package's budget.  Band.workspace builds one only on a thread's
    first call for that shape and count, so a box whose workspace exists
    keeps its slab: a test sets the budget, then takes the workspace
    from a box of a fresh Grid."""
    default = grid_module.SLAB_BYTES

    def force(planes, shape, components=1):
        _, m2, m3 = shape
        plane = components * m2 * (m3 // 2 + 1) * 16
        monkeypatch.setattr(grid_module, "SLAB_BYTES",
                            default if planes is None else planes * plane)

    return force
