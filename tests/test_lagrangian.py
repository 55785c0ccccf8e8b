"""Kernel construction, range checks and the decay certificate."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvp import (
    InputError,
    build_exhaustion,
    diagonal_infimum,
    exp_profile,
    global_sup,
    grid_1d,
    kernel_from_spec,
    make_kernel,
    poly_profile,
    profile_from_spec,
    scaled_exp_profile,
    space_from_dict,
    tail_index,
    verify_compact_range,
    verify_entropy_decay,
)
import cvp.space
from cover_reference import covering_number, entropy_decay_reference
from cvp.lagrangian import _MAX_WITNESSES, _effective_range, _radius_bounds

ATOL = 1e-12


def test_tent_is_identity_on_integer_grid(int_grid6, tent_identity):
    assert np.allclose(tent_identity.matrix, np.eye(6), atol=ATOL)


def test_tent_values_on_quarter_grid(quarter_grid):
    tent = make_kernel("tent", {"amplitude": 1.0, "range": 1.0}, quarter_grid)
    assert tent.matrix[0, 1] == pytest.approx(0.75, abs=ATOL)
    assert tent.matrix[0, 4] == 0.0
    assert tent.declared_range == 1.0


def test_truncated_gaussian_cuts_at_range():
    g = grid_1d(range(5))
    k = make_kernel("truncated_gaussian", {"amplitude": 2.0, "sigma": 1.0, "range": 2.0}, g)
    assert k.matrix[0, 1] == pytest.approx(2.0 * math.exp(-1.0), abs=ATOL)
    assert k.matrix[0, 3] == 0.0


def test_exponential_has_no_declared_range():
    g = grid_1d(range(4))
    k = make_kernel("exponential", {"amplitude": 1.0, "sigma": 2.0}, g)
    assert k.declared_range is None
    assert k.matrix[0, 2] == pytest.approx(math.exp(-1.0), abs=ATOL)


def test_matrix_kernel_rejects_negative_entries():
    g = grid_1d(range(2))
    with pytest.raises(InputError, match="kernel matrix must be nonnegative"):
        make_kernel("matrix", {"matrix": [[1.0, -0.1], [-0.1, 1.0]]}, g)


def test_matrix_kernel_rejects_zero_diagonal():
    g = grid_1d(range(2))
    with pytest.raises(InputError, match="kernel diagonal must be strictly positive"):
        make_kernel("matrix", {"matrix": [[0.0, 0.5], [0.5, 1.0]]}, g)


def test_make_kernel_refuses_a_key_its_kind_does_not_take(quarter_grid):
    with pytest.raises(InputError, match=r"kernel\.sigma is not a tent kernel setting"):
        make_kernel("tent", {"range": 1.0, "sigma": 1.0}, quarter_grid)


def test_kernel_dict_round_trip(quarter_grid):
    tent = make_kernel("tent", {"amplitude": 1.0, "range": 1.0}, quarter_grid)
    back = kernel_from_spec({"kind": "tent", "amplitude": 1.0, "range": 1.0}, quarter_grid)
    assert np.array_equal(back.matrix, tent.matrix)
    assert back.declared_range == tent.declared_range == 1.0
    assert (back.kind, back.params) == ("tent", {"amplitude": 1.0, "range": 1.0})


def test_diagonal_infimum_and_sup(tent_identity):
    assert diagonal_infimum(tent_identity) == 1.0
    assert global_sup(tent_identity) == 1.0


def test_effective_range_tent_quarter(quarter_grid):
    tent = make_kernel("tent", {"amplitude": 1.0, "range": 1.0}, quarter_grid)
    K = np.arange(9) == 0
    assert np.flatnonzero(_effective_range(tent.matrix > 0.0, K, "set")).tolist() == [0, 1, 2, 3]
    with pytest.raises(InputError, match="effective range of an empty set"):
        _effective_range(tent.matrix > 0.0, np.zeros(9, dtype=bool), "set")


def test_compact_range_tent_holds(int_grid6, tent_identity):
    exh = build_exhaustion(int_grid6, 0, (1, 3, 5))
    rep = verify_compact_range(tent_identity, int_grid6, exh)
    assert rep["holds"]


def test_compact_range_exponential_fails(int_grid6):
    k = make_kernel("exponential", {"amplitude": 1.0, "sigma": 1.0}, int_grid6)
    exh = build_exhaustion(int_grid6, 0, (1, 3))
    rep = verify_compact_range(k, int_grid6, exh)
    assert not rep["holds"]


def test_compact_range_zero_row_matrix():
    g = grid_1d(range(3))
    m = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 1.0]]
    k = make_kernel("matrix", {"matrix": m}, g)
    exh = build_exhaustion(g, 0, (0.5,))
    assert verify_compact_range(k, g, exh)["holds"]


@pytest.mark.parametrize("size", [4, 8])
def test_compact_range_refuses_an_exhaustion_of_another_size(int_grid6, tent_identity, size):
    exh = build_exhaustion(grid_1d(range(size)), 0, (1, 2))
    with pytest.raises(InputError, match=r"exhaustion stage must be a boolean mask over 6 points"):
        verify_compact_range(tent_identity, int_grid6, exh)


def test_tail_index_exponential():
    prof = exp_profile(1.0, 1.0, delta=1.0, c=1.0)
    assert tail_index(prof, 0.3) == 4
    assert tail_index(prof, 3.0 / math.e + 0.003) == 2


def test_tail_index_requires_positive_eps():
    prof = exp_profile(1.0, 1.0, delta=1.0, c=1.0)
    with pytest.raises(InputError):
        tail_index(prof, 0.0)


def test_poly_profile_needs_integrable_power():
    with pytest.raises(InputError, match="power 1.0 is not integrable"):
        poly_profile(1.0, 1.0, delta=1.0, c=1.0)


def test_scaled_exp_profile_monotonicity_guard():
    with pytest.raises(InputError, match="must be decreasing"):
        scaled_exp_profile(1.0, 0.5, 1.0, delta=1.0, c=1.0)


@pytest.mark.parametrize("build, named", [
    (lambda: exp_profile(1.0, 1.0, delta=math.nan, c=1.0),
     r"profile\.delta must be positive, got nan"),
    (lambda: exp_profile(1.0, math.nan, delta=1.0, c=1.0), "needs rate > 0, got nan"),
    (lambda: exp_profile(math.nan, 1.0, delta=1.0, c=1.0), "needs amplitude >= 0, got nan"),
    (lambda: poly_profile(1.0, math.nan, delta=1.0, c=1.0), "power nan is not integrable"),
    (lambda: scaled_exp_profile(1.0, math.nan, 1.0, delta=1.0, c=1.0), "got slope nan"),
], ids=["delta", "exp-rate", "exp-amplitude", "poly-power", "scaled_exp-slope"])
def test_profile_refuses_a_nan_setting(build, named):
    # each setting is tested so that NaN fails; a config's NaN is refused by its
    # reader first, naming the field (test_bad_config_field_exits_1_naming_it)
    with pytest.raises(InputError, match=named):
        build()


def test_entropy_ball_radius_fine_exponential():
    g = grid_1d([i * 0.05 for i in range(41)])
    k = make_kernel("exponential", {"amplitude": 1.0, "sigma": 1.0}, g)
    rep = verify_entropy_decay(k, g, exp_profile(1.0, 1.0, delta=0.5, c=1.0))
    # largest realized radius with L >= 1/2 everywhere: 0.65 < ln 2
    assert rep["condition_b"]["delta_closed"] == pytest.approx(0.65, abs=ATOL)


def test_entropy_ball_radius_tent_integer(int_grid6, tent_identity):
    rep = verify_entropy_decay(tent_identity, int_grid6,
                               exp_profile(1.0, 1.0, delta=1.0, c=1.0))
    # neighbours sit exactly where the tent dies; closed radius collapses to 0
    assert rep["condition_b"]["delta_closed"] == 0.0


def test_decay_certificate_exponential_holds():
    g = grid_1d(range(21))
    k = make_kernel("exponential", {"amplitude": 1.0, "sigma": 1.0}, g)
    c = diagonal_infimum(k)
    prof = scaled_exp_profile(2.0 * (1.0 + 2.0 / c), 2.0, 1.0, delta=1.0, c=c)
    rep = verify_entropy_decay(k, g, prof)
    assert rep["holds"]
    assert rep["condition_b"]["delta_sup"] >= 1.0


def test_decay_certificate_weak_profile_fails():
    g = grid_1d(range(21))
    k = make_kernel("exponential", {"amplitude": 1.0, "sigma": 1.0}, g)
    prof = exp_profile(0.1, 1.0, delta=1.0, c=1.0)
    rep = verify_entropy_decay(k, g, prof)
    assert not rep["holds"]
    # reference: one covering_number per ordered pair, in (x, y) order
    expected, checked = [], 0
    for i, x in enumerate(g.ids):
        for j, y in enumerate(g.ids):
            if x == y:
                continue
            checked += 1
            d = float(g.dist[i, j])
            bound = prof.f(d) / (prof.coeff * covering_number(g, i, d + 2.0, prof.delta))
            value = float(k.matrix[i, j])
            if value > bound + 1e-12 * max(1.0, bound):
                expected.append({"x": x, "y": y, "value": value, "bound": bound,
                                 "distance": d})
    assert len(expected) > 10
    assert rep["witnesses"] == expected[:10]
    assert rep["condition_c"] == {"holds": False, "checked_pairs": checked}


def test_decay_certificate_fails_on_entropy_radius_alone():
    # the unit tent of range 1 falls below c/2 at distance 1, short of delta 1.5,
    # and vanishes off the diagonal, so the majorant bounds every pair
    g = grid_1d(range(21))
    k = make_kernel("tent", {"amplitude": 1.0, "range": 1.0}, g)
    rep = verify_entropy_decay(k, g, exp_profile(1.0, 1.0, delta=1.5, c=1.0))
    assert not rep["holds"]
    assert rep["condition_b"] == {"holds": False, "delta_closed": 0.0, "delta_sup": 1.0,
                                  "delta_required": 1.5}
    assert rep["condition_a"]["holds"] and rep["condition_c"]["holds"]
    assert rep["witnesses"] == []


def test_profile_spec_round_trip():
    prof = scaled_exp_profile(6.0, 2.0, 1.0, delta=1.0, c=1.0)
    back = profile_from_spec({"f": "scaled_exp", "delta": 1.0,
                              "params": {"amplitude": 6.0, "slope": 2.0, "rate": 1.0}}, c=1.0)
    assert back.params == prof.params and back.delta == prof.delta
    assert back.kind == prof.kind
    assert back.f(1.5) == prof.f(1.5)
    assert back.tail(2.0) == prof.tail(2.0)


@given(
    coords=st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=10, unique=True),
    sigma=st.floats(0.2, 5.0),
)
@settings(max_examples=60, deadline=None)
def test_exponential_kernel_axioms(coords, sigma):
    g = grid_1d(coords)
    k = make_kernel("exponential", {"amplitude": 1.0, "sigma": sigma}, g)
    m = k.matrix
    assert np.allclose(m, m.T, atol=ATOL)
    assert (m >= 0).all()
    assert (np.diag(m) > 0).all()


@given(r0=st.floats(0.3, 4.0))
@settings(max_examples=60, deadline=None)
def test_tent_vanishes_beyond_range(r0):
    g = grid_1d([i * 0.5 for i in range(12)])
    k = make_kernel("tent", {"amplitude": 1.0, "range": r0}, g)
    far = g.dist > r0
    assert (k.matrix[far] == 0.0).all()
    near = g.dist < r0
    assert (k.matrix[near] > 0.0).all()


@given(t=st.floats(0.0, 20.0), a=st.floats(0.1, 5.0), rate=st.floats(0.2, 3.0))
@settings(max_examples=80, deadline=None)
def test_exp_profile_tail_matches_quadrature(t, a, rate):
    prof = exp_profile(a, rate, delta=1.0, c=1.0)
    grid = np.linspace(t, t + 60.0 / rate, 20001)
    quad = np.trapezoid(a * np.exp(-rate * grid), grid)
    assert prof.tail(t) == pytest.approx(quad, rel=1e-6, abs=1e-12)


def _reference_radius_bounds(L, g):
    """Entropy radius bounds written out point by point: for each x the largest
    passing closed radius and the first failing distance, then the inf."""
    c = float(np.diag(L.matrix).min())
    closed_inf = sup_inf = math.inf
    for i in range(len(g)):
        row_d = g.dist[i]
        failing = L.matrix[i] < c / 2.0
        if failing.any():
            d_fail = float(row_d[failing].min())
            below = row_d[row_d < d_fail - 1e-15]
            d_ok = float(below.max()) if below.size else 0.0
        else:
            d_fail, d_ok = math.inf, float(row_d.max())
        closed_inf = min(closed_inf, d_ok)
        sup_inf = min(sup_inf, d_fail)
    return closed_inf, sup_inf


@given(ks=st.lists(st.integers(0, 30), min_size=1, max_size=14, unique=True),
       kind=st.sampled_from(["tent", "truncated_gaussian", "exponential", "matrix"]),
       reach=st.sampled_from([1.0, 2.0, 3.0]) | st.floats(0.3, 6.0),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_entropy_radius_matches_per_point_reference(ks, kind, reach, seed):
    # a tent of range 1, 2 or 3 on the half grid hits L = c/2 exactly
    g = grid_1d([k * 0.5 for k in ks])
    if kind == "matrix":
        m = np.random.default_rng(seed).uniform(0.0, 1.0, size=(len(g), len(g)))
        params = {"matrix": ((m + m.T) / 2.0 + np.diag(np.full(len(g), 0.5))).tolist()}
    else:
        params = {"exponential": {"sigma": reach}, "tent": {"range": reach},
                  "truncated_gaussian": {"range": reach, "sigma": reach}}[kind]
    L = make_kernel(kind, params, g)
    rep = verify_entropy_decay(L, g, exp_profile(1.0, 1.0, delta=1.0, c=diagonal_infimum(L)))
    b = rep["condition_b"]
    assert (b["delta_closed"], b["delta_sup"]) == _reference_radius_bounds(L, g)


def test_entropy_decay_with_per_ball_covers_on_exp41():
    # the 41-point exponential space with its failing exp profile: the screened
    # certificate and the all-pairs one with per-ball greedy covers give the
    # same report, witnesses included
    g = grid_1d([float(i) for i in range(41)])
    L = make_kernel("exponential", {"amplitude": 1.0, "sigma": 1.0}, g)
    profile = exp_profile(1.0, 1.0, delta=1.0, c=diagonal_infimum(L))
    screened = verify_entropy_decay(L, g, profile)
    per_ball = entropy_decay_reference(
        L, g, profile, covers=lambda space, radii, delta: np.array(
            [[covering_number(space, x, float(r), delta) for r in row]
             for x, row in enumerate(radii)]))
    assert not screened["condition_c"]["holds"]
    assert len(screened["witnesses"]) == _MAX_WITNESSES
    assert screened == per_ball


@given(n=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(0.2, 4.0),
       tied=st.booleans(), kind=st.sampled_from(["exponential", "matrix"]),
       f=st.sampled_from(["exp", "poly", "scaled_exp"]), amplitude=st.floats(0.05, 20.0))
@settings(max_examples=60, deadline=None)
def test_entropy_decay_matches_the_full_off_diagonal_formula(n, seed, scale, tied, kind, f,
                                                             amplitude):
    # distances in [scale, 2 scale] always form a metric; tied ones repeat
    rng = np.random.default_rng(seed)
    pairs = n * (n - 1) // 2
    upper = rng.choice([1.0, 1.25, 1.5, 2.0], pairs) if tied else rng.uniform(1.0, 2.0, pairs)
    space = space_from_dict({"metric": "explicit",
                             "points": [{"id": f"e{i}"} for i in range(n)],
                             "distances": (upper * scale).tolist()})
    if kind == "matrix":
        m = rng.uniform(0.0, 1.0, size=(n, n))
        L = make_kernel("matrix", {"matrix": ((m + m.T) / 2.0 + np.eye(n)).tolist()}, space)
    else:
        L = make_kernel("exponential", {"sigma": scale}, space)
    c = diagonal_infimum(L)
    params = {"exp": {"amplitude": amplitude, "rate": 1.0},
              "poly": {"amplitude": amplitude, "power": 2.0},
              "scaled_exp": {"amplitude": amplitude, "slope": 1.0, "rate": 1.0}}[f]
    profile = profile_from_spec({"f": f, "params": params, "delta": scale * 0.5}, c)
    # json writes each float by repr (and an infinite delta_sup as Infinity)
    assert json.dumps(verify_entropy_decay(L, space, profile), sort_keys=True) == \
        json.dumps(entropy_decay_reference(L, space, profile), sort_keys=True)


@st.composite
def decay_spaces(draw):
    """A 1-D grid with tied distances, a 2-D grid, random Euclidean points in
    the plane, or an explicit metric with distances in [1, 2]."""
    kind = draw(st.sampled_from(["grid_1d", "grid_2d", "euclidean", "explicit"]))
    if kind == "grid_1d":
        ks = draw(st.lists(st.integers(0, 40), min_size=2, max_size=24, unique=True))
        return grid_1d([k * draw(st.sampled_from([0.25, 0.5, 1.0])) for k in ks])
    n = draw(st.integers(2, 18))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "explicit":
        upper = rng.choice([1.0, 1.25, 1.5, 2.0], n * (n - 1) // 2)
        return space_from_dict({"metric": "explicit",
                                "points": [{"id": f"e{i}"} for i in range(n)],
                                "distances": upper.tolist()})
    if kind == "grid_2d":
        side = draw(st.integers(2, 5))
        coords = [[a * 0.5, b * 0.5] for a in range(side) for b in range(side)]
    else:
        coords = rng.uniform(0.0, 6.0, size=(n, 2)).tolist()
    return space_from_dict({"metric": "euclidean", "points": [
        {"id": f"p{i}", "coords": c} for i, c in enumerate(coords)]})


@given(space=decay_spaces(), kernel=st.sampled_from(["exponential", "truncated_gaussian",
                                                     "matrix"]),
       f=st.sampled_from(["exp", "poly", "scaled_exp"]), amplitude=st.floats(0.05, 40.0),
       delta=st.sampled_from([0.25, 0.5, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=120, deadline=None)
def test_screened_entropy_decay_equals_the_all_pairs_certificate(space, kernel, f, amplitude,
                                                                  delta, seed):
    # the member-count screen only skips pairs that pass with their exact
    # cover counts: verdict, witnesses and their bounds are the same bits
    n = len(space)
    if kernel == "matrix":
        m = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, n))
        params = {"matrix": ((m + m.T) / 2.0 + np.eye(n)).tolist()}
    else:
        params = {"exponential": {"sigma": 1.0},
                  "truncated_gaussian": {"sigma": 1.0, "range": 2.0}}[kernel]
    L = make_kernel(kernel, params, space)
    settings_of = {"exp": {"amplitude": amplitude, "rate": 1.0},
                   "poly": {"amplitude": amplitude, "power": 2.0},
                   "scaled_exp": {"amplitude": amplitude, "slope": 2.0, "rate": 1.0}}
    profile = profile_from_spec({"f": f, "params": settings_of[f], "delta": delta},
                                diagonal_infimum(L))
    assert verify_entropy_decay(L, space, profile) == entropy_decay_reference(L, space, profile)


def _exp_grid(n):
    g = grid_1d(range(n))
    return g, make_kernel("exponential", {"amplitude": 1.0, "sigma": 1.0}, g)


def _grid_2d(side):
    g = space_from_dict({"metric": "euclidean", "points": [
        {"id": f"p{a}_{b}", "coords": [a, b]} for a in range(side) for b in range(side)]})
    return g, make_kernel("exponential", {"amplitude": 1.0, "sigma": 1.0}, g)


@pytest.mark.parametrize("space, f, amplitude, holds", [
    (161, "scaled_exp", 6.0, True), (161, "exp", 1.0, False), (41, "scaled_exp", 6.0, True),
    (41, "exp", 1.0, False), (401, "scaled_exp", 6.0, True), ("14x14", "scaled_exp", 40.0, True),
    ("14x14", "scaled_exp", 6.0, False)])
def test_screened_entropy_decay_on_the_exponential_grids(space, f, amplitude, holds):
    # the bench majorant (scaled_exp, amplitude 6 = 2 (1 + 2/c)) holds and the
    # rate-1 exp profile fails on the unit exponential grids; on the 14 x 14
    # grid amplitude 40 holds and 6 fails
    g, L = _grid_2d(14) if space == "14x14" else _exp_grid(space)
    params = {"amplitude": amplitude, "rate": 1.0, **({"slope": 2.0} if f == "scaled_exp" else {})}
    profile = profile_from_spec({"f": f, "params": params, "delta": 1.0}, diagonal_infimum(L))
    screened = verify_entropy_decay(L, g, profile)
    assert screened["holds"] is holds
    assert len(screened["witnesses"]) == (0 if holds else _MAX_WITNESSES)
    assert screened == entropy_decay_reference(L, g, profile)


@pytest.mark.parametrize("amplitude, balls", [(6.0, 3059), (40.0, 0)])
def test_the_screen_leaves_few_balls_to_the_cover_scan(monkeypatch, amplitude, balls):
    # on the 161-point unit exponential grid the bench majorant leaves 6,118 of
    # 25,760 pairs open, whose balls are 3,059 distinct (center, size) pairs;
    # at amplitude 40 every pair passes the screen and no ball is covered
    scanned = []
    greedy_counts = cvp.space._greedy_counts

    def counted(space, sets, columns, delta):
        scanned.append(sets)
        return greedy_counts(space, sets, columns, delta)

    monkeypatch.setattr(cvp.space, "_greedy_counts", counted)
    g, L = _exp_grid(161)
    profile = scaled_exp_profile(amplitude, 2.0, 1.0, delta=1.0, c=diagonal_infimum(L))
    assert verify_entropy_decay(L, g, profile)["holds"]
    assert scanned == [balls]
