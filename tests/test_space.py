"""Metric space construction, balls, coverings and exhaustions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvp import (
    ConstructionError,
    DegenerateExhaustionError,
    Exhaustion,
    InputError,
    MetricSpace,
    build_exhaustion,
    closed_ball,
    covering_number,
    exact_covering_number,
    greedy_cover,
    grid_1d,
    space_from_dict,
    space_to_dict,
)

ATOL = 1e-12


def test_grid_ids_and_distances():
    g = grid_1d([0.0, 0.25, 0.5], prefix="t")
    assert g.ids == ("t0", "t1", "t2")
    assert g.d("t0", "t2") == pytest.approx(0.5, abs=ATOL)
    assert g.d("t1", "t1") == 0.0


def test_validation_rejects_asymmetric():
    d = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ConstructionError):
        MetricSpace(ids=("a", "b"), dist=d)


def test_validation_rejects_duplicate_ids():
    d = np.zeros((2, 2))
    with pytest.raises(ConstructionError):
        MetricSpace(ids=("a", "a"), dist=d)


def test_validation_rejects_triangle_violation():
    d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(ConstructionError):
        MetricSpace(ids=("a", "b", "c"), dist=d)


def test_distance_matrix_read_only():
    g = grid_1d(range(3))
    with pytest.raises(ValueError):
        g.dist[0, 1] = 7.0


def test_closed_ball_quarter_grid(quarter_grid):
    assert closed_ball(quarter_grid, "t0", 0.5) == frozenset({"t0", "t1", "t2"})


def test_closed_ball_zero_radius(quarter_grid):
    assert closed_ball(quarter_grid, "t3", 0.0) == frozenset({"t3"})


def test_greedy_cover_quarter_grid(quarter_grid):
    centers = greedy_cover(quarter_grid, "t0", 2.0, 0.5)
    assert [quarter_grid.coords[quarter_grid._at(c), 0] for c in centers] == [0.0, 0.75, 1.5]
    assert covering_number(quarter_grid, "t0", 2.0, 0.5) == 3


def test_exact_cover_beats_greedy(quarter_grid):
    # centers 0.5 and 1.5 cover [0,2] with delta=0.5; greedy needs 3
    assert exact_covering_number(quarter_grid, "t0", 2.0, 0.5) == 2


def test_exact_cover_never_beats_greedy(int_grid6):
    # ball {0,1,2}: one 1-ball at the midpoint suffices, greedy opens two
    assert covering_number(int_grid6, "x0", 2.0, 1.0) == 2
    assert exact_covering_number(int_grid6, "x0", 2.0, 1.0) == 1


def test_exhaustion_stage_sizes(int_grid6):
    exh = build_exhaustion(int_grid6, "x0", (1, 3, 5))
    assert [len(s) for s in exh.stages] == [2, 4, 6]


def test_exhaustion_rejects_equal_stages(int_grid6):
    with pytest.raises(DegenerateExhaustionError):
        build_exhaustion(int_grid6, "x0", (1, 1.4))


def test_exhaustion_rejects_nonincreasing_radii(int_grid6):
    with pytest.raises(InputError):
        build_exhaustion(int_grid6, "x0", (3, 2))


def test_exhaustion_validates_nesting(int_grid6):
    with pytest.raises(DegenerateExhaustionError):
        Exhaustion(stages=(frozenset({"x0", "x1"}), frozenset({"x0", "x1"})), covers_all=False)


def test_space_dict_round_trip(quarter_grid):
    payload = space_to_dict(quarter_grid)
    back = space_from_dict(payload)
    assert back.ids == quarter_grid.ids
    assert np.allclose(back.dist, quarter_grid.dist, atol=ATOL)


def test_space_from_explicit_distances():
    payload = {
        "points": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
        "metric": "explicit",
        "distances": [1.0, 2.0, 1.0],
    }
    s = space_from_dict(payload)
    assert s.d("a", "c") == 2.0
    assert s.d("b", "c") == 1.0


@given(r1=st.floats(0, 3), r2=st.floats(0, 3))
@settings(max_examples=100, deadline=None)
def test_ball_monotone_in_radius(r1, r2):
    g = grid_1d([0, 0.5, 1.0, 1.5, 2.0, 3.0])
    lo, hi = sorted((r1, r2))
    assert closed_ball(g, "x0", lo) <= closed_ball(g, "x0", hi)


@given(delta=st.floats(0.1, 2.0), shrink=st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_covering_number_monotone_in_delta(delta, shrink):
    g = grid_1d([i * 0.5 for i in range(9)])
    smaller = max(0.05, delta * (1.0 - shrink))
    assert covering_number(g, "x0", 3.0, delta) <= covering_number(g, "x0", 3.0, smaller)


@given(vals=st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=12, unique=True))
@settings(max_examples=80, deadline=None)
def test_grid_metric_axioms(vals):
    g = grid_1d(vals)
    d = g.dist
    assert np.allclose(d, d.T)
    assert (d >= 0).all()
    n = len(vals)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


@given(radius=st.floats(0.5, 5.0))
@settings(max_examples=50, deadline=None)
def test_greedy_cover_covers_the_ball(radius):
    g = grid_1d([i * 0.25 for i in range(17)])
    centers = greedy_cover(g, "x0", radius, 0.5)
    ball = closed_ball(g, "x0", radius)
    covered = set()
    for c in centers:
        covered |= closed_ball(g, c, 0.5)
    assert ball <= covered
