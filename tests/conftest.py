"""Shared fixtures: small grids and kernels reused across test modules."""

import pytest

from cvp import build_exhaustion, grid_1d, make_kernel


@pytest.fixture(scope="session")
def int_grid6():
    return grid_1d(range(0, 6))


@pytest.fixture(scope="session")
def quarter_grid():
    # 0, 0.25, ..., 2
    return grid_1d([i * 0.25 for i in range(9)], prefix="t")


@pytest.fixture(scope="session")
def tent_identity(int_grid6):
    return make_kernel("tent", {"amplitude": 1.0, "range": 1.0}, int_grid6)


@pytest.fixture(scope="session")
def identity_run():
    """Tent kernel on an integer grid: every stage minimizer is uniform."""
    import cvp

    grid = grid_1d(range(-25, 26), prefix="g")
    tent = make_kernel("tent", {"amplitude": 1.0, "range": 1.0}, grid)
    exh = build_exhaustion(grid, grid.index["g25"], (5, 10, 20))
    run = cvp.run_exhaustion(grid, tent, exh, cvp.RunOptions())
    return grid, tent, run
