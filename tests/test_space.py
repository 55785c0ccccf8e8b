"""Metric space construction, balls, coverings and exhaustions."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cvp.space
from cvp import (
    Exhaustion,
    InputError,
    MetricSpace,
    build_exhaustion,
    closed_ball,
    grid_1d,
    make_kernel,
    space_from_dict,
    verify_compact_range,
    window_points,
)
from cvp.lagrangian import _effective_range
from cvp.space import ball_cover_counts, greedy_cover_counts
from cover_reference import covering_number, exact_covering_number, greedy_cover

ATOL = 1e-12


def test_grid_ids_and_distances():
    g = grid_1d([0.0, 0.25, 0.5], prefix="t")
    assert g.ids == ("t0", "t1", "t2")
    assert g.dist[0, 2] == pytest.approx(0.5, abs=ATOL)
    assert g.dist[1, 1] == 0.0


def test_validation_rejects_asymmetric():
    d = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(InputError, match="distance matrix must be symmetric"):
        MetricSpace(ids=("a", "b"), dist=d)


def test_validation_rejects_duplicate_ids():
    d = np.zeros((2, 2))
    with pytest.raises(InputError, match="point ids must be unique"):
        MetricSpace(ids=("a", "a"), dist=d)


def test_validation_rejects_triangle_violation():
    d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(InputError, match="triangle inequality violated"):
        MetricSpace(ids=("a", "b", "c"), dist=d)


def test_validation_rejects_violation_off_the_old_midpoint_sample():
    # only d(5,0) + d(5,1) < d(0,1); point 5 is the lowest one that a seeded
    # 256-midpoint sample of the 300 points leaves out
    n, k = 300, 5
    d = np.full((n, n), 2.0)
    np.fill_diagonal(d, 0.0)
    d[k, :2] = d[:2, k] = 0.9
    with pytest.raises(InputError, match="triangle inequality violated"):
        MetricSpace(ids=tuple(range(n)), dist=d)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validation_rejects_nonfinite_coords(bad):
    with pytest.raises(InputError, match="coords must be finite"):
        MetricSpace(ids=("a", "b"), dist=np.array([[0.0, 1.0], [1.0, 0.0]]),
                    coords=[[bad], [1.0]])


def test_space_keeps_its_own_copy_of_coords():
    x = np.array([[0.0], [1.0]])
    space = MetricSpace(ids=("a", "b"), dist=np.array([[0.0, 1.0], [1.0, 0.0]]), coords=x)
    x[1, 0] = 7.0
    assert space.coords[1, 0] == 1.0 and not space.coords.flags.writeable


def _slack(d):
    return 1e-9 * max(1.0, float(d.max()))


def _naive_violation(d, slack):
    # axes (i, k, j): d_ij > d_ik + d_kj + slack
    return bool(np.any(d[:, None, :] > d[:, :, None] + d[None, :, :] + slack))


def _counted(mp):
    """The calls of ``_euclidean`` and ``_midpoint_violation``, counted under ``mp``."""
    calls = {"euclidean": 0, "scan": 0}
    for name, attr in (("euclidean", "_euclidean"), ("scan", "_midpoint_violation")):
        f = getattr(cvp.space, attr)
        mp.setattr(cvp.space, attr, lambda *args, name=name, f=f: calls.__setitem__(
            name, calls[name] + 1) or f(*args))
    return calls


@given(base=st.lists(st.lists(st.integers(-8, 8), min_size=3, max_size=3), min_size=1,
                     max_size=40),
       dim=st.integers(1, 3), scale=st.sampled_from([1e-3, 0.37, 1.0, 250.0]),
       offset=st.floats(-1e6, 1e6), data=st.data())
@settings(max_examples=60, deadline=None)
def test_euclidean_certificate_agrees_with_midpoint_scan(base, dim, scale, offset, data):
    # integer cells repeat, so some points are duplicated
    coords = np.array(base, dtype=float)[:, :dim] * scale + offset
    n = len(coords)
    ids = tuple(range(n))
    diff = coords[:, None, :] - coords[None, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    assert not cvp.space._midpoint_violation(d, _slack(d))
    bad = None
    if n >= 2:
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        bump = _slack(d) * data.draw(st.floats(1.5, 10.0)) + float(d.max()) * data.draw(
            st.floats(0.0, 1.5))
        down = data.draw(st.booleans()) and d[i, j] >= bump
        bad = d.copy()
        bad[i, j] = bad[j, i] = d[i, j] - bump if down else d[i, j] + bump
    for cells in (cvp.space._CHUNK_CELLS, 5):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cvp.space, "_CHUNK_CELLS", cells)
            calls = _counted(mp)
            # the certificate accepts the distances of the coords: no midpoint is scanned
            MetricSpace(ids=ids, dist=d, coords=coords)
            assert calls == {"euclidean": 1, "scan": 0}
            if bad is None:
                continue
            # a bump beyond the certificate's tolerance goes to the scan
            violated = _naive_violation(bad, _slack(bad))
            if violated:
                with pytest.raises(InputError, match="triangle"):
                    MetricSpace(ids=ids, dist=bad, coords=coords)
            else:
                MetricSpace(ids=ids, dist=bad, coords=coords)
            assert calls == {"euclidean": 2, "scan": 1}
            assert cvp.space._midpoint_violation(bad, _slack(bad)) == violated


def test_euclidean_spaces_skip_the_midpoint_scan(monkeypatch):
    calls = []
    scan = cvp.space._midpoint_violation
    monkeypatch.setattr(cvp.space, "_midpoint_violation",
                        lambda d, slack: calls.append(len(d)) or scan(d, slack))
    grid = grid_1d(range(401))
    space_from_dict({"metric": "euclidean",
                     "points": [{"id": f"p{i}", "coords": [i * 0.25, (i % 7) * 0.5]}
                                for i in range(401)]})
    assert calls == []
    # the distances are a metric, but not the metric of these coordinates
    MetricSpace(ids=grid.ids, dist=grid.dist, coords=2.0 * grid.coords)
    assert calls == [401]


def _reference_distances(coords):
    """The Euclidean distances as ``space_from_dict`` computed them before
    ``MetricSpace`` derived them from coords itself: the reference bits."""
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def _reference_key(ids, dist):
    h = hashlib.sha256()
    h.update("\x1f".join(ids).encode())
    h.update(np.ascontiguousarray(dist))
    return h.hexdigest()[:16]


@given(dim=st.integers(1, 3), data=st.data())
@settings(max_examples=60, deadline=None)
def test_derived_distances_match_the_reference_formula(dim, data):
    rows = data.draw(st.lists(st.lists(
        st.one_of(st.integers(-8, 8).map(float), st.floats(-1e6, 1e6)),
        min_size=dim, max_size=dim), min_size=1, max_size=12))
    coords = np.array(rows)
    ids = tuple(f"p{i}" for i in range(len(rows)))
    ref = _reference_distances(coords)
    built = (MetricSpace(ids=ids, coords=coords),
             space_from_dict({"metric": "euclidean",
                              "points": [{"id": p, "coords": row} for p, row in zip(ids, rows)]}))
    for space in built:
        assert space.dist.tobytes() == ref.tobytes()
        assert space.key == _reference_key(ids, ref)


@pytest.mark.parametrize("n, dim", [(1, 1), (2, 3), (7, 2), (161, 1), (401, 2), (700, 3)])
def test_euclidean_distances_keep_their_bits_in_any_chunk(n, dim):
    coords = np.random.default_rng(n * dim).normal(0.0, 10.0, (n, dim))
    ref = _reference_distances(coords)
    for cells in (cvp.space._CHUNK_CELLS, 5, 1000):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cvp.space, "_CHUNK_CELLS", cells)
            assert cvp.space._euclidean(coords).tobytes() == ref.tobytes()


# the grids the tests and the README build keep the keys of |x_i - x_j|
@pytest.mark.parametrize("values", [
    range(1), range(2), range(3), range(4), range(5), range(6), range(8), range(11),
    range(21), range(41), range(401), range(-12, 13), range(-25, 26), range(-30, 31),
    range(-50, 51), range(-200, 201), [0.0, 0.5], [0.0, 0.25, 0.5], [0, 0.5, 1.0, 1.5, 2.0, 3.0],
    [i * 0.25 for i in range(9)], [i * 0.25 for i in range(17)], [i * 0.25 for i in range(121)],
    [i * 0.5 for i in range(9)], [i * 0.5 for i in range(12)], [i * 0.5 for i in range(300)],
    [i * 0.05 for i in range(41)]], ids=lambda v: f"{len(v)}pts")
def test_grids_keep_their_keys(values):
    vals = np.asarray(list(values), dtype=float)
    ids = tuple(f"x{i}" for i in range(len(vals)))
    ref = np.abs(vals[:, None] - vals[None, :])
    grid = grid_1d(values)
    assert grid.key == _reference_key(ids, ref) and grid.dist.tobytes() == ref.tobytes()


def test_grid_distances_are_exact_at_the_float_extremes():
    # |x_i - x_j| where the square of the difference would underflow or overflow
    assert grid_1d([0.0, 1e-160]).dist[0, 1] == 1e-160
    assert grid_1d([-1e154, 1e154]).dist[0, 1] == 2e154


@pytest.mark.parametrize("dim", [1, 2])
def test_overflowing_coords_are_refused_as_infinite_distances(dim):
    rows = [[-1e200] * dim, [1e200] * dim]
    with pytest.raises(InputError, match="distance matrix must be finite"):
        MetricSpace(ids=("a", "b"), coords=rows)
    with pytest.raises(InputError, match="distance matrix must be finite"):
        space_from_dict({"metric": "euclidean", "points": [{"id": "a", "coords": rows[0]},
                                                           {"id": "b", "coords": rows[1]}]})


def test_a_space_needs_distances_or_coords():
    with pytest.raises(InputError, match="needs a distance matrix or coords"):
        MetricSpace(ids=("a", "b"))


def test_only_explicit_distances_are_compared_with_their_coords(monkeypatch):
    calls = _counted(monkeypatch)
    points = [{"id": f"p{i}", "coords": [i * 0.5, (i % 3) * 0.25]} for i in range(6)]
    # derived distances are computed once and certified by the formula alone
    space_from_dict({"metric": "euclidean", "points": points})
    assert calls == {"euclidean": 1, "scan": 0}
    # a grid passes |x_i - x_j| with its coords, which certify it
    grid = grid_1d(range(4))
    assert calls == {"euclidean": 2, "scan": 0}
    # explicit distances that are a metric but not the metric of these coordinates
    upper = [float(abs(i - j)) for i in range(4) for j in range(i + 1, 4)]
    space = space_from_dict({"metric": "explicit", "distances": upper,
                             "points": [{"id": f"p{i}", "coords": [2.0 * i]} for i in range(4)]})
    assert calls == {"euclidean": 3, "scan": 1}
    assert space.dist.tobytes() == grid.dist.tobytes()


_HALF_MAX = float(np.finfo(float).max) / 2


def _reference_symmetric_matrix(value, n, what):
    """``symmetric_matrix`` before its exactly-symmetric fast path: the reference.
    An average that overflows is refused, naming its entry."""
    m = np.asarray(value, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or n not in (None, m.shape[0]):
        size = "square" if n is None else f"{n}x{n}"
        raise InputError(f"{what} must be {size}, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError(f"{what} must be finite")
    if np.any(m < 0):
        raise InputError(f"{what} must be nonnegative")
    out = m - m.T
    if not np.all(np.abs(out, out=out) <= 1e-12):
        raise InputError(f"{what} must be symmetric")
    with np.errstate(over="ignore"):
        np.add(m, m.T, out=out)
    out /= 2.0
    for i, j in zip(*np.nonzero(~np.isfinite(out))):
        raise InputError(f"{what} must be finite: the average of entry ({i}, {j}) "
                         f"with its transpose overflows")
    out.setflags(write=False)
    return out


def _outcome(f, value, n):
    try:
        with np.errstate(over="raise"):  # an average of entries above max/2 is refused
            out = f(value, n, "matrix")
    except InputError as exc:
        return str(exc)
    assert not out.flags.writeable
    return out.shape, out.tobytes()


_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1.0, 1e300, _HALF_MAX,
                     float(np.nextafter(_HALF_MAX, np.inf)), float(np.finfo(float).max),
                     np.inf, -np.inf, np.nan, -1.0, -5e-324]),
    st.floats(0.0, 10.0), st.floats())


@given(n=st.integers(1, 5), data=st.data())
@settings(max_examples=300, deadline=None)
def test_symmetric_matrix_matches_its_reference(n, data):
    m = np.array(data.draw(st.lists(_ENTRIES, min_size=n * n, max_size=n * n))).reshape(n, n)
    lower = np.tril_indices(n, -1)
    shape = data.draw(st.sampled_from(["mirrored", "as drawn", "near", "far", "signed zero"]))
    if shape != "as drawn":
        m[lower] = m.T[lower]
    if shape in ("near", "far", "signed zero") and n > 1:
        i, j = data.draw(st.sampled_from(list(zip(*lower))))
        if shape == "signed zero":
            m[i, j], m[j, i] = 0.0, -0.0
        else:
            # within and beyond the 1e-12 tolerance
            m[i, j] += data.draw(st.floats(1e-16, 9e-13) if shape == "near"
                                 else st.floats(2e-12, 1.0))
    for size in (None, n, n + 1):
        got = _outcome(cvp.space.symmetric_matrix, m, size)
        assert got == _outcome(_reference_symmetric_matrix, m, size)
        assert got == _outcome(cvp.space.symmetric_matrix, m.tolist(), size)


_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1.0, -1.0, 1e154, -1e154, 1.4e154, 1e200, -1e300,
                     float(np.finfo(float).max), np.nan]),
    st.floats(-10.0, 10.0), st.floats(allow_infinity=False))


@given(n=st.integers(1, 4), dim=st.integers(1, 3), data=st.data())
@settings(max_examples=300, deadline=None)
def test_derived_distances_are_refused_as_their_symmetric_matrix(n, dim, data):
    # distances derived from coords are exactly symmetric, so they are no
    # longer compared with their transpose: a space refuses them exactly when
    # the reference refuses them, with its message, and keeps their bits
    coords = np.array(data.draw(st.lists(_COORDS, min_size=n * dim, max_size=n * dim)))
    coords = coords.reshape(n, dim)

    def outcome(build):
        try:
            return build()
        except InputError as exc:
            return str(exc)

    with np.errstate(over="ignore", invalid="ignore"):  # differences that overflow
        expected = outcome(lambda: _reference_symmetric_matrix(
            cvp.space._euclidean(coords), n, "distance matrix").tobytes())
        got = outcome(lambda: MetricSpace(ids=tuple(f"p{i}" for i in range(n)),
                                          coords=coords).dist.tobytes())
    assert got == expected


@pytest.mark.parametrize("value", [np.zeros((2, 3)), np.zeros(3), np.zeros(()),
                                   np.zeros((2, 2, 2)), np.zeros((0, 0)), [[1.0], [2.0, 3.0]]],
                         ids=["2x3", "vector", "scalar", "cube", "empty", "ragged"])
def test_symmetric_matrix_refuses_shapes_as_its_reference(value):
    for n in (None, 2):
        try:
            expected = _outcome(_reference_symmetric_matrix, value, n)
        except ValueError:  # numpy refuses a ragged list before either checks it
            with pytest.raises(ValueError):
                cvp.space.symmetric_matrix(value, n, "matrix")
            continue
        assert _outcome(cvp.space.symmetric_matrix, value, n) == expected


def test_symmetric_matrix_copies_its_input():
    m = np.eye(3)
    out = cvp.space.symmetric_matrix(m, 3, "matrix")
    m[0, 0] = 7.0
    assert out[0, 0] == 1.0 and not out.flags.writeable


def test_distance_matrix_read_only():
    g = grid_1d(range(3))
    with pytest.raises(ValueError):
        g.dist[0, 1] = 7.0


def test_closed_ball_quarter_grid(quarter_grid):
    assert np.flatnonzero(closed_ball(quarter_grid, 0, 0.5)).tolist() == [0, 1, 2]


def test_closed_ball_zero_radius(quarter_grid):
    assert np.flatnonzero(closed_ball(quarter_grid, 3, 0.0)).tolist() == [3]


def test_closed_ball_refuses_nan_radius(quarter_grid):
    with pytest.raises(InputError, match="radius must be nonnegative"):
        closed_ball(quarter_grid, 3, float("nan"))


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
    with pytest.raises(InputError, match="stages 0 and 1 are identical"):
        build_exhaustion(int_grid6, 0, (1, 1.4))


def test_exhaustion_rejects_nonincreasing_radii(int_grid6):
    with pytest.raises(InputError):
        build_exhaustion(int_grid6, 0, (3, 2))


def test_exhaustion_validates_nesting(int_grid6):
    with pytest.raises(InputError, match="stages 0 and 1 are identical"):
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


def test_explicit_distances_whose_average_overflows_are_refused():
    # 1e308 is finite, but 1e308 + 1e308 is not: averaged with its transpose
    # it would become an infinite distance, which the triangle scan accepts
    payload = {"points": [{"id": "a"}, {"id": "b"}, {"id": "c"}], "metric": "explicit",
               "distances": [1e308, 1.0, 1.0]}
    with pytest.raises(InputError, match=r"distance matrix must be finite: "
                       r"the average of entry \(0, 1\) with its transpose overflows"):
        space_from_dict(payload)
    payload["distances"] = [1.0, 1.0, 1e308]
    with pytest.raises(InputError, match=r"entry \(1, 2\)"):
        space_from_dict(payload)


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
# (-0.5, 0.5) a ball keeps the points at distance exactly r, at its edge (-1)
# the shifted radius plus the slack lands exactly on a half-grid distance, and
# beyond it (-2) the ball loses them.
_SLACK_STEPS = (-2.0, -1.0, -0.5, 0.0, 0.5)


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
def test_cover_kernels_across_chunks(ks, delta):
    # 16 * n cells: the masks are built 16 balls a chunk, the delta-neighbour
    # pairs found 16 points a chunk and the counts read 16 sets a chunk, so
    # the distinct balls and the 40 or more points span at least two chunks
    space = grid_1d([k * 0.5 for k in ks])
    radii = _ball_radii(space)
    masks = np.array([closed_ball(space, x, float(r))
                      for x, row in enumerate(radii) for r in row])
    centers = np.repeat(np.arange(len(space)), radii.shape[1])
    assert len(set(zip(centers, masks.sum(axis=1)))) > 2 * 16
    expected = _reference_covers(space, radii, delta)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cvp.space, "_CHUNK_CELLS", 16 * len(space))
        assert (ball_cover_counts(space, radii, delta) == expected).all()
        assert (greedy_cover_counts(space, masks, delta) == expected.ravel()).all()


def test_ball_cover_counts_with_wide_ranks():
    # 300 points: a rank no longer fits in one byte, nor a ball key in two
    space = grid_1d([k * 0.5 for k in range(300)])
    radii = np.hstack([space.dist[:, ::25], space.dist[:, ::25] + 2.0])
    rows = [0, 1, 150, 299]
    expected = [[covering_number(space, x, float(r), 1.0) for r in radii[x]] for x in rows]
    assert (ball_cover_counts(space, radii, 1.0)[rows] == expected).all()


def _assert_ball_covers(space, radii, delta, cells=(None,)):
    """``ball_cover_counts`` equals ``greedy_cover_counts`` over the explicit
    ``closed_ball`` masks and the per-ball greedy cover, at each chunk size."""
    masks = np.array([closed_ball(space, x, float(r))
                      for x, row in enumerate(radii) for r in row])
    expected = _reference_covers(space, radii, delta)
    for size in cells:
        with pytest.MonkeyPatch.context() as mp:
            if size is not None:
                mp.setattr(cvp.space, "_CHUNK_CELLS", size)
            assert (ball_cover_counts(space, radii, delta) == expected).all()
            assert (greedy_cover_counts(space, masks, delta) == expected.ravel()).all()


def _distinct_balls(space, radii):
    """The (center, member count) of each distinct ball, sorted by center."""
    sizes = np.array([[closed_ball(space, x, float(r)).sum() for r in row]
                      for x, row in enumerate(radii)])
    return sorted({(x, int(m)) for x, row in enumerate(sizes) for m in row})


def test_a_chunk_splits_the_balls_of_a_center():
    # 8 cells a point: each chunk packs one byte, 8 balls, while the centers
    # have 20 or more distinct balls, so chunk edges fall inside a center's run
    space = grid_1d([k * 0.5 for k in range(24)])
    radii = _ball_radii(space)
    centers = [x for x, _ in _distinct_balls(space, radii)]
    spans = []
    greedy_counts = cvp.space._greedy_counts

    def recorded(space, sets, columns, delta):
        def spanned(lo, hi):
            spans.append((lo, hi))
            return columns(lo, hi)
        return greedy_counts(space, sets, spanned, delta)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cvp.space, "_CHUNK_CELLS", 8 * len(space))
        mp.setattr(cvp.space, "_greedy_counts", recorded)
        counts = ball_cover_counts(space, radii, 1.0)
    assert (counts == _reference_covers(space, radii, 1.0)).all()
    _assert_ball_covers(space, radii, 1.0, cells=(8 * len(space),))
    assert spans == [(lo, min(lo + 8, len(centers))) for lo in range(0, len(centers), 8)]
    assert any(centers[lo - 1] == centers[lo] for lo, _ in spans[1:])


@pytest.mark.parametrize("cells", [None, 8 * 40, 16 * 40])
def test_ball_cover_counts_at_1_7_8_9_16_and_17_balls_a_center(cells):
    # row x holds the first k_x realized distances of x, the last repeated, so
    # center x has k_x distinct balls: fewer than, exactly and just past one
    # and two bytes of bits
    space = grid_1d([float(k) for k in range(40)])
    per = [(1, 7, 8, 9, 16, 17)[x % 6] for x in range(40)]
    radii = np.array([np.unique(space.dist[x])[np.minimum(np.arange(17), k - 1)]
                      for x, k in enumerate(per)])
    balls = _distinct_balls(space, radii)
    assert [sum(c == x for c, _ in balls) for x in range(40)] == per
    _assert_ball_covers(space, radii, 2.0, cells=(cells,))


@pytest.mark.parametrize("delta", [0.5, 1.0, 1.5 ** 0.5, 2.0])
def test_ball_cover_counts_on_a_2d_half_grid(delta):
    # the 6 x 6 half grid: many points tie at each distance from a center
    cells = [[a * 0.5, b * 0.5] for a in range(6) for b in range(6)]
    space = space_from_dict({"points": [{"id": f"h{i}", "coords": c}
                                        for i, c in enumerate(cells)],
                             "metric": "euclidean"})
    assert len(np.unique(space.dist[14])) < len(space) // 3
    _assert_ball_covers(space, _ball_radii(space), delta, cells=(None, 8 * len(space)))


def test_ball_cover_counts_at_radii_between_distances_and_zero():
    # radius 0 holds the center alone; a radius halfway between two realized
    # distances holds the nearer ones; one past the diameter holds every point
    space = grid_1d([k * 0.5 for k in (0, 1, 2, 5, 6, 9, 13, 14, 20)])
    realized = np.unique(space.dist)
    between = (realized[:-1] + realized[1:]) / 2
    radii = np.tile(np.concatenate([[0.0], between, [realized[-1] + 0.25]]), (len(space), 1))
    assert not np.isin(between, space.dist).any()
    assert (ball_cover_counts(space, radii, 1.0)[:, 0] == 1).all()
    for delta in (0.25, 1.0, 3.0):
        _assert_ball_covers(space, radii, delta, cells=(None, 8 * len(space)))


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


@st.composite
def neighbour_spaces(draw):
    """A space on which delta = 1 gives points zero, one and several later
    neighbours: a half grid with gaps around the run 0, 0.5, 1 (0 has two later
    neighbours, 0.5 one, 1 none), or an explicit metric with distances in
    {1, 1.5, 2}, so tied at delta, where point 0 is 1 from points 1 and 2 and
    point 1 is 1 from point 2 alone."""
    if draw(st.booleans()):
        ks = draw(st.lists(st.integers(5, 40), max_size=10, unique=True))
        return grid_1d([k * 0.5 for k in [0, 1, 2, *ks]])
    n = draw(st.integers(4, 10))
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = draw(st.lists(st.sampled_from([1.0, 1.5, 2.0]),
                                             min_size=n * (n - 1) // 2,
                                             max_size=n * (n - 1) // 2))
    d[0, 1] = d[0, 2] = d[1, 2] = 1.0
    d[1, 3:] = 2.0
    d += d.T
    return space_from_dict({"metric": "explicit",
                            "points": [{"id": f"e{i}"} for i in range(n)],
                            "distances": d[np.triu_indices(n, 1)].tolist()})


@given(space=neighbour_spaces(), free=st.floats(0.05, 3.0), beyond=st.sampled_from([1.0, 1.5]))
@settings(max_examples=40, deadline=None)
def test_cover_kernels_on_zero_one_and_several_later_neighbours(space, free, beyond):
    # the scan clears each later neighbour's row in place, with its pairs found
    # in one chunk or two points a chunk; both kernels are checked against the
    # per-ball greedy cover
    later = np.triu(space.dist <= 1.0 + 1e-12, k=1).sum(axis=1)
    assert 0 in later and 1 in later and later.max() >= 2
    radii = _ball_radii(space)
    masks = np.array([closed_ball(space, x, float(r))
                      for x, row in enumerate(radii) for r in row])
    for delta in (1.0, free, float(space.dist.max()) * beyond):
        expected = _reference_covers(space, radii, delta)
        for cells in (cvp.space._CHUNK_CELLS, 2 * len(space)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cvp.space, "_CHUNK_CELLS", cells)
                assert (ball_cover_counts(space, radii, delta) == expected).all()
                assert (greedy_cover_counts(space, masks, delta) == expected.ravel()).all()
    # at or above the diameter one delta-ball covers every ball
    assert (expected == 1).all()


def test_cover_kernels_reject_bad_input(quarter_grid):
    with pytest.raises(InputError):
        greedy_cover_counts(quarter_grid, np.ones((2, 9), dtype=bool), 0.0)
    with pytest.raises(InputError):
        greedy_cover_counts(quarter_grid, np.ones((2, 8), dtype=bool), 1.0)
    with pytest.raises(InputError):
        ball_cover_counts(quarter_grid, -np.ones((9, 2)), 1.0)


def test_greedy_cover_counts_refuse_nan_delta(quarter_grid):
    with pytest.raises(InputError, match="delta must be positive"):
        greedy_cover_counts(quarter_grid, np.ones((2, 9), dtype=bool), float("nan"))


def test_ball_cover_counts_refuse_nan_radii(quarter_grid):
    radii = np.ones((9, 2))
    radii[4, 1] = np.nan
    with pytest.raises(InputError, match="radius must be nonnegative"):
        ball_cover_counts(quarter_grid, radii, 1.0)
    with pytest.raises(InputError, match="delta must be positive"):
        ball_cover_counts(quarter_grid, np.ones((9, 2)), float("nan"))


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
    params = {"exponential": {"sigma": 1.0}, "tent": {"range": reach},
              "truncated_gaussian": {"range": reach, "sigma": 1.0}}[kind]
    L = make_kernel(kind, params, space)

    for x in range(n):
        r = data.draw(radius)
        assert _id_set(space, closed_ball(space, x, r)) == _ref_ball(space, space.ids[x], r)
    for stage in stages:
        ids = _id_set(space, stage)
        assert _id_set(space, window_points(space, stage, layer)) == \
            _ref_window(space, ids, layer)
        assert _id_set(space, _effective_range(L.matrix > 0.0, stage, "stage")) == \
            _ref_effective_range(L, space, ids)
    got = verify_compact_range(L, space, Exhaustion(stages=tuple(stages)))
    want = _ref_compact_range(L, space, [_id_set(space, s) for s in stages])
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
