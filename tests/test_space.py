"""Metric space construction, balls, coverings and exhaustions."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cvp.space
from cvp import (
    ConstructionError,
    DegenerateExhaustionError,
    Exhaustion,
    InputError,
    MetricSpace,
    build_exhaustion,
    closed_ball,
    covering_number,
    effective_range,
    exact_covering_number,
    greedy_cover,
    grid_1d,
    make_kernel,
    space_from_dict,
    verify_compact_range,
    window_points,
)
from cvp.space import ball_cover_counts, greedy_cover_counts

ATOL = 1e-12


def test_grid_ids_and_distances():
    g = grid_1d([0.0, 0.25, 0.5], prefix="t")
    assert g.ids == ("t0", "t1", "t2")
    assert g.dist[0, 2] == pytest.approx(0.5, abs=ATOL)
    assert g.dist[1, 1] == 0.0


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
    assert np.flatnonzero(closed_ball(quarter_grid, 0, 0.5)).tolist() == [0, 1, 2]


def test_closed_ball_zero_radius(quarter_grid):
    assert np.flatnonzero(closed_ball(quarter_grid, 3, 0.0)).tolist() == [3]


@pytest.mark.parametrize("x", ["t0", 9, -1, 1.0, True])
def test_points_are_indices(quarter_grid, x):
    with pytest.raises(InputError):
        closed_ball(quarter_grid, x, 0.5)


def test_greedy_cover_quarter_grid(quarter_grid):
    centers = greedy_cover(quarter_grid, 0, 2.0, 0.5)
    assert quarter_grid.coords[list(centers), 0].tolist() == [0.0, 0.75, 1.5]
    assert covering_number(quarter_grid, 0, 2.0, 0.5) == 3


def test_exact_cover_beats_greedy(quarter_grid):
    # centers 0.5 and 1.5 cover [0,2] with delta=0.5; greedy needs 3
    assert exact_covering_number(quarter_grid, 0, 2.0, 0.5) == 2


def test_exact_cover_never_beats_greedy(int_grid6):
    # ball {0,1,2}: one 1-ball at the midpoint suffices, greedy opens two
    assert covering_number(int_grid6, 0, 2.0, 1.0) == 2
    assert exact_covering_number(int_grid6, 0, 2.0, 1.0) == 1


def test_exhaustion_stage_sizes(int_grid6):
    exh = build_exhaustion(int_grid6, 0, (1, 3, 5))
    assert [int(s.sum()) for s in exh.stages] == [2, 4, 6]
    assert not exh.stages[0].flags.writeable


def test_exhaustion_rejects_equal_stages(int_grid6):
    with pytest.raises(DegenerateExhaustionError):
        build_exhaustion(int_grid6, 0, (1, 1.4))


def test_exhaustion_rejects_nonincreasing_radii(int_grid6):
    with pytest.raises(InputError):
        build_exhaustion(int_grid6, 0, (3, 2))


def test_exhaustion_validates_nesting(int_grid6):
    with pytest.raises(DegenerateExhaustionError):
        Exhaustion(stages=(np.array([True, True, False]), np.array([True, True, False])))
    with pytest.raises(InputError, match="strictly nested"):
        Exhaustion(stages=(np.array([True, True, False]), np.array([True, False, True])))
    with pytest.raises(InputError, match="boolean mask"):
        Exhaustion(stages=(frozenset({"x0", "x1"}),))


def test_space_dict_round_trip(quarter_grid):
    payload = {"name": "quarter", "metric": "euclidean",
               "points": [{"id": f"t{i}", "coords": [i * 0.25]} for i in range(9)]}
    back = space_from_dict(payload)
    assert back.ids == quarter_grid.ids and back.name == "quarter"
    assert np.array_equal(back.dist, quarter_grid.dist)
    assert np.array_equal(back.coords, quarter_grid.coords)


def test_space_from_explicit_distances():
    payload = {
        "points": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
        "metric": "explicit",
        "distances": [1.0, 2.0, 1.0],
    }
    s = space_from_dict(payload)
    assert s.dist[0, 2] == 2.0
    assert s.dist[1, 2] == 1.0


@given(r1=st.floats(0, 3), r2=st.floats(0, 3))
@settings(max_examples=100, deadline=None)
def test_ball_monotone_in_radius(r1, r2):
    g = grid_1d([0, 0.5, 1.0, 1.5, 2.0, 3.0])
    lo, hi = sorted((r1, r2))
    assert not (closed_ball(g, 0, lo) & ~closed_ball(g, 0, hi)).any()


@given(delta=st.floats(0.1, 2.0), shrink=st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_covering_number_monotone_in_delta(delta, shrink):
    g = grid_1d([i * 0.5 for i in range(9)])
    smaller = max(0.05, delta * (1.0 - shrink))
    assert covering_number(g, 0, 3.0, delta) <= covering_number(g, 0, 3.0, smaller)


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
    centers = greedy_cover(g, 0, radius, 0.5)
    ball = closed_ball(g, 0, radius)
    covered = np.zeros(len(g), dtype=bool)
    for c in centers:
        covered |= closed_ball(g, c, 0.5)
    assert not (ball & ~covered).any()


# Radii offsets in units of the closed-ball slack 1e-12 * max(1, r): within it
# (-0.5, 0.5) a ball keeps the points at distance exactly r, beyond it (-2) it
# loses them.
_SLACK_STEPS = (-2.0, -0.5, 0.0, 0.5)


@st.composite
def small_spaces(draw):
    """1-D or 2-D points on the half grid: many tied and exactly realized distances."""
    if draw(st.booleans()):
        ks = draw(st.lists(st.integers(0, 40), min_size=1, max_size=14, unique=True))
        return grid_1d([k * 0.5 for k in ks])
    cells = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1,
                          max_size=14, unique=True))
    return space_from_dict({"points": [{"id": f"p{i}", "coords": [a * 0.5, b * 0.5]}
                                       for i, (a, b) in enumerate(cells)],
                            "metric": "euclidean"})


def _shifted(d, steps):
    return np.maximum(0.0, d + steps * 1e-12 * np.maximum(1.0, d))


def _ball_radii(space):
    """Every realized distance of each row, shifted around the slack, plus d + 2."""
    d = space.dist
    return np.hstack([_shifted(d, s) for s in _SLACK_STEPS] + [d + 2.0])


def _reference_covers(space, radii, delta):
    return np.array([[covering_number(space, x, float(r), delta) for r in row]
                     for x, row in enumerate(radii)])


@given(space=small_spaces(), pick=st.integers(0, 10 ** 4), steps=st.sampled_from(_SLACK_STEPS),
       free=st.none() | st.floats(0.05, 4.0))
@settings(max_examples=80, deadline=None)
def test_cover_kernels_match_covering_number(space, pick, steps, free):
    # delta is a free value or a realized distance shifted around the slack
    realized = np.unique(space.dist[space.dist > 0])
    delta = free
    if delta is None:
        delta = float(_shifted(realized[pick % realized.size], steps)) if realized.size else 1.0
    radii = _ball_radii(space)
    expected = _reference_covers(space, radii, delta)
    assert (ball_cover_counts(space, radii, delta) == expected).all()
    masks = np.array([closed_ball(space, x, float(r))
                      for x, row in enumerate(radii) for r in row])
    assert (greedy_cover_counts(space, masks, delta) == expected.ravel()).all()


@given(ks=st.lists(st.integers(0, 120), min_size=40, max_size=44, unique=True),
       delta=st.sampled_from([0.5, 1.0, 2.5]))
@settings(max_examples=3, deadline=None)
def test_ball_cover_counts_across_row_chunks(ks, delta):
    space = grid_1d([k * 0.5 for k in ks])
    radii = _ball_radii(space)
    n = len(space)
    assert cvp.space._CHUNK_CELLS // (n * radii.shape[1]) < n
    assert (ball_cover_counts(space, radii, delta)
            == _reference_covers(space, radii, delta)).all()


@given(space=small_spaces(), seed=st.integers(0, 2 ** 32 - 1),
       delta=st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=60, deadline=None)
def test_greedy_cover_counts_on_arbitrary_sets(space, seed, delta):
    # reference: the greedy scan of each set, written out
    masks = np.random.default_rng(seed).random((5, len(space))) < 0.6
    expected = []
    for mask in masks:
        members = np.nonzero(mask)[0]
        covered = np.zeros(len(members), dtype=bool)
        count = 0
        for pos, m in enumerate(members):
            if not covered[pos]:
                count += 1
                covered |= space.dist[m, members] <= delta + 1e-12 * max(1.0, delta)
        expected.append(count)
    assert greedy_cover_counts(space, masks, delta).tolist() == expected


def test_cover_kernels_reject_bad_input(quarter_grid):
    with pytest.raises(InputError):
        greedy_cover_counts(quarter_grid, np.ones((2, 9), dtype=bool), 0.0)
    with pytest.raises(InputError):
        greedy_cover_counts(quarter_grid, np.ones((2, 8), dtype=bool), 1.0)
    with pytest.raises(InputError):
        ball_cover_counts(quarter_grid, -np.ones((9, 2)), 1.0)


# Id-set references for the point-set masks, written out point by point.
def _ref_ball(space, x, r):
    i = space.ids.index(x)
    return frozenset(y for j, y in enumerate(space.ids)
                     if space.dist[i, j] <= r + 1e-12 * max(1.0, r))


def _ref_window(space, stage, layer):
    return frozenset(x for x in stage if _ref_ball(space, x, layer) <= stage)


def _ref_effective_range(L, space, K):
    rows = [space.ids.index(x) for x in K]
    return frozenset(y for j, y in enumerate(space.ids)
                     if any(L.matrix[i, j] > 0.0 for i in rows))


def _ref_compact_range(L, space, stages):
    per_stage = []
    holds = True
    for i, stage in enumerate(stages):
        kprime = _ref_effective_range(L, space, stage)
        if L.declared_range is not None:
            allowed = set()
            for x in stage:
                allowed |= _ref_ball(space, x, L.declared_range)
            contained = kprime <= allowed
        else:
            contained = kprime <= stage
        holds = holds and contained
        per_stage.append({"stage": i, "size": len(stage),
                          "range_size": len(kprime), "contained": contained})
    return {"holds": holds, "declared_range": L.declared_range, "stages": per_stage}


def _id_set(space, mask):
    return frozenset(space.ids[i] for i in np.flatnonzero(mask))


@given(space=small_spaces(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_point_set_masks_match_id_set_reference(space, data):
    n = len(space)
    realized = st.tuples(st.sampled_from(np.unique(space.dist).tolist()),
                         st.sampled_from(_SLACK_STEPS)).map(lambda t: float(_shifted(*t)))
    radius = st.one_of(realized, st.floats(0.0, 12.0))
    # a random strictly nested chain: running unions of random sets
    draws = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                                        min_size=1, max_size=4)))
    chain = np.logical_or.accumulate(draws, axis=0)
    chain[:, data.draw(st.integers(0, n - 1))] = True
    stages = [chain[0]] + [b for a, b in zip(chain, chain[1:]) if (a != b).any()]
    layer = data.draw(radius)
    kind = data.draw(st.sampled_from(["tent", "truncated_gaussian", "exponential"]))
    reach = max(data.draw(radius), 0.25)
    params = {"sigma": 1.0} if kind == "exponential" else {"range": reach, "sigma": 1.0}
    L = make_kernel(kind, params, space)

    for x in range(n):
        r = data.draw(radius)
        assert _id_set(space, closed_ball(space, x, r)) == _ref_ball(space, space.ids[x], r)
    for stage in stages:
        ids = _id_set(space, stage)
        assert _id_set(space, window_points(space, stage, layer)) == \
            _ref_window(space, ids, layer)
        assert _id_set(space, effective_range(L, space, stage)) == \
            _ref_effective_range(L, space, ids)
    got = verify_compact_range(L, space, Exhaustion(stages=tuple(stages)))
    want = _ref_compact_range(L, space, [_id_set(space, s) for s in stages])
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
