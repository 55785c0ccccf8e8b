"""Discrete measures, variations and the quadratic action."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cvp import (
    DiscreteMeasure,
    InputError,
    PositivityError,
    VolumeConstraintError,
    action,
    averaged_kernel,
    grid_1d,
    make_kernel,
    measure_to_dict,
    restrict,
)
from cvp.measure import action_differences, check_variations

ATOL = 1e-12
REL_RECOMPUTE = 1e-10


def dense(space, by_id):
    """Weights given by point id, as a vector in space order."""
    w = np.zeros(len(space))
    for pid, v in by_id.items():
        w[space.index[pid]] = v
    return w


def measure(space, by_id):
    return DiscreteMeasure(space, dense(space, by_id))


def mask(space, ids):
    """The point mask of a set of ids."""
    m = np.zeros(len(space), dtype=bool)
    m[[space.index[x] for x in ids]] = True
    return m


def moved(rho, delta):
    """The measure rho + delta, for a dense variation in space order."""
    return DiscreteMeasure(rho.space, rho.weights + delta)


def one_row(delta):
    """A dense variation as one row: the points it moves and its steps there."""
    delta = np.asarray(delta, dtype=float)
    pts = np.flatnonzero(delta)
    return pts[None], delta[pts][None]


def score(rho, L, delta):
    """The action change of one dense variation, after its rules are checked."""
    pts, d = one_row(delta)
    check_variations(rho, pts, d)
    return action_differences(averaged_kernel(rho, L), L, pts, d)[0]


def two_point_setup(offdiag=0.0):
    g = grid_1d(range(2))
    L = make_kernel("matrix", {"matrix": [[1.0, offdiag], [offdiag, 1.0]]}, g)
    rho = measure(g, {"x0": 0.5, "x1": 0.5})
    return g, L, rho


def test_measure_prunes_dust():
    g = grid_1d(range(2))
    rho = measure(g, {"x0": 1.0, "x1": 1e-13})
    assert rho.support.tolist() == [True, False]
    assert rho.weights[1] == 0.0
    assert not rho.weights.flags.writeable


def test_measure_rejects_negative_weights():
    g = grid_1d(range(2))
    with pytest.raises(InputError):
        measure(g, {"x0": 1.0, "x1": -1e-6})


@pytest.mark.parametrize("weights", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]],
                                     [1.0, float("nan")], [float("inf"), 1.0]])
def test_measure_rejects_wrong_length_and_non_finite(weights):
    g = grid_1d(range(2))
    with pytest.raises(InputError):
        DiscreteMeasure(g, weights)


def test_measure_total_and_mass():
    g = grid_1d(range(3))
    rho = measure(g, {"x0": 1.0, "x1": 2.0, "x2": 3.0})
    assert rho.total() == pytest.approx(6.0, abs=ATOL)
    assert restrict(rho, mask(g, {"x0", "x2"})).total() == pytest.approx(4.0, abs=ATOL)
    assert restrict(rho, mask(g, ())).total() == 0.0


def test_measure_equality_ignores_dust():
    g = grid_1d(range(2))
    a = measure(g, {"x0": 1.0})
    b = measure(g, {"x0": 1.0, "x1": 1e-13})
    assert a == b


def test_action_half_half_identity():
    _, L, rho = two_point_setup()
    assert action(rho, L) == pytest.approx(0.5, abs=ATOL)


def test_averaged_kernel_two_point():
    _, L, rho = two_point_setup(offdiag=0.5)
    lhat = averaged_kernel(rho, L)
    assert np.allclose(lhat, [0.75, 0.75], atol=ATOL)


def test_action_difference_symmetric_swap():
    _, L, rho = two_point_setup()
    # linear term cancels, quadratic term is 2 t^2
    assert score(rho, L, [0.1, -0.1]) == pytest.approx(0.02, abs=ATOL)


def test_zero_variation_gives_zero():
    _, L, rho = two_point_setup(offdiag=0.3)
    assert score(rho, L, [0.0, 0.0]) == 0.0


def test_variation_requires_balance():
    _, _, rho = two_point_setup()
    with pytest.raises(VolumeConstraintError):
        check_variations(rho, np.array([[0, 1]]), np.array([[0.1, 0.0]]))


def test_variation_requires_positivity():
    _, _, rho = two_point_setup()
    with pytest.raises(PositivityError):
        check_variations(rho, np.array([[0, 1]]), np.array([[-0.6, 0.6]]))


def test_apply_variation_moves_mass():
    g, L, rho = two_point_setup()
    delta = np.array([-0.25, 0.25])
    out = moved(rho, delta)
    assert out.weights == pytest.approx([0.25, 0.75], abs=ATOL)
    assert out.total() == pytest.approx(rho.total(), abs=ATOL)
    assert score(rho, L, delta) == pytest.approx(action(out, L) - action(rho, L), abs=ATOL)


def test_restrict_examples():
    g = grid_1d(range(3))
    rho = measure(g, {"x0": 1.0, "x1": 2.0, "x2": 3.0})
    sub = restrict(rho, [True, False, True])
    assert sub.weights.tolist() == [1.0, 0.0, 3.0]
    assert restrict(rho, np.ones(3, dtype=bool)) == rho
    assert restrict(rho, np.zeros(3, dtype=bool)).total() == 0.0
    for bad in ({"x0", "x2"}, [1, 0, 1], [True, False]):
        with pytest.raises(InputError):
            restrict(rho, bad)


def test_measure_dict_round_trip():
    g = grid_1d(range(3))
    rho = measure(g, {"x0": 0.25, "x2": 0.75})
    assert measure_to_dict(rho) == {"space": g.key, "weights": {"x0": 0.25, "x2": 0.75}}


small_weights = st.dictionaries(
    st.sampled_from([f"x{i}" for i in range(8)]),
    st.floats(0.0, 5.0, allow_nan=False),
    min_size=1, max_size=8,
)


@given(w=small_weights)
@example(w={"x0": 1.0, "x1": 1e-12, "x2": 1e-12})
@settings(max_examples=80, deadline=None)
def test_action_scales_quadratically(w):
    g = grid_1d(range(8))
    L = make_kernel("exponential", {"amplitude": 1.0, "sigma": 1.0}, g)
    rho = measure(g, w)
    # double the measure's own weights: a drawn weight at PRUNE_EPS is pruned in rho
    # but its double is not
    doubled = DiscreteMeasure(g, 2.0 * rho.weights)
    assert action(doubled, L) == pytest.approx(4.0 * action(rho, L), rel=1e-12, abs=1e-12)


@given(w=small_weights, seed=st.integers(0, 10 ** 6))
@settings(max_examples=200, deadline=None)
def test_action_difference_matches_recompute(w, seed):
    g = grid_1d(range(8))
    L = make_kernel("exponential", {"amplitude": 1.0, "sigma": 2.0}, g)
    rho = measure(g, w)
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, 1.0, size=len(g))
    raw -= raw.mean()
    # shrink until the shifted weights stay nonnegative
    scale = 1.0
    for i in range(len(g)):
        if raw[i] < 0 and rho.weights[i] < -raw[i] * scale:
            scale = min(scale, rho.weights[i] / -raw[i])
    delta = raw * scale * 0.9
    direct = action(moved(rho, delta), L) - action(rho, L)
    tol = REL_RECOMPUTE * max(1.0, abs(action(rho, L)))
    assert score(rho, L, delta) == pytest.approx(direct, abs=tol)


@given(w=small_weights)
@settings(max_examples=60, deadline=None)
def test_restrict_composes(w):
    g = grid_1d(range(8))
    rho = measure(g, w)
    big = mask(g, {"x0", "x1", "x2", "x3", "x4"})
    small = mask(g, {"x1", "x3"})
    assert restrict(restrict(rho, big), small) == restrict(rho, small)


def _reference_lhat(space, L, by_id, x):
    """int L(x, .) d rho, summed over the ids of rho."""
    i = space.index[x]
    return math.fsum(L.matrix[i, space.index[y]] * w for y, w in by_id.items())


def _reference_pair_sum(space, L, a, b):
    """Double sum of L(x, y) a(x) b(y) over the ids of a and b."""
    return math.fsum(L.matrix[space.index[x], space.index[y]] * ax * by
                     for x, ax in a.items() for y, by in b.items())


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_array_measure_matches_per_id_reference(data):
    coords = data.draw(st.lists(st.integers(-20, 20), min_size=1, max_size=12, unique=True))
    g = grid_1d(coords)
    if data.draw(st.booleans()):
        L = make_kernel("exponential", {"amplitude": 1.0,
                                        "sigma": data.draw(st.floats(0.3, 5.0))}, g)
    else:
        L = make_kernel("tent", {"amplitude": 2.0, "range": data.draw(st.floats(0.5, 6.0))}, g)
    by_id = data.draw(st.dictionaries(st.sampled_from(g.ids),
                                      st.floats(1e-3, 5.0) | st.just(0.0)))
    rho = measure(g, by_id)
    scale = max(1.0, sum(by_id.values())) ** 2

    assert rho.total() == math.fsum(by_id.values())
    K = data.draw(st.sets(st.sampled_from(g.ids)))
    assert restrict(rho, mask(g, K)).total() == math.fsum(by_id.get(x, 0.0) for x in K)
    assert action(rho, L) == pytest.approx(_reference_pair_sum(g, L, by_id, by_id),
                                           rel=1e-12, abs=1e-12 * scale)
    lhat = averaged_kernel(rho, L)
    for x in g.ids:
        assert lhat[g.index[x]] == pytest.approx(_reference_lhat(g, L, by_id, x),
                                                 rel=1e-12, abs=1e-12 * scale)

    # move a share of each drawn source's weight to a drawn target
    moves = data.draw(st.lists(st.tuples(st.sampled_from(g.ids), st.sampled_from(g.ids),
                                         st.floats(0.0, 1.0)), max_size=6))
    delta = {}
    for src, dst, share in moves:
        step = share * by_id.get(src, 0.0) / len(moves)
        delta[src] = delta.get(src, 0.0) - step
        delta[dst] = delta.get(dst, 0.0) + step
    reference = (2.0 * math.fsum(d * _reference_lhat(g, L, by_id, x) for x, d in delta.items())
                 + _reference_pair_sum(g, L, delta, delta))
    assert score(rho, L, dense(g, delta)) == pytest.approx(reference, rel=1e-10,
                                                           abs=1e-12 * scale)


def _outcome(fn, *args):
    """The error class ``fn`` raises, or None."""
    try:
        fn(*args)
    except (InputError, VolumeConstraintError, PositivityError) as err:
        return type(err)
    return None


def _reference_rule(rho, pts, d):
    """The error class of the balance and positivity rules for one row, or None."""
    if abs(math.fsum(d)) > 1e-12:
        return VolumeConstraintError
    if (rho.weights[pts] + d < -1e-12).any():
        return PositivityError
    return None


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_row_rules_and_scores_match_the_one_variation_path(data):
    # each row alone against the rules and a recomputed action, then the rows
    # as one batch against each row alone
    g = grid_1d(range(8))
    L = make_kernel("exponential", {"amplitude": 1.0, "sigma": 2.0}, g)
    rho = measure(g, data.draw(small_weights))
    lhat = averaged_kernel(rho, L)
    tol = REL_RECOMPUTE * max(1.0, action(rho, L))
    rows, scores = [], []
    for _ in range(data.draw(st.integers(1, 5))):
        pts = np.array(data.draw(st.lists(st.integers(0, 7), min_size=3, max_size=3,
                                          unique=True)))
        d = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2)))
        if data.draw(st.booleans()):  # most rows balance to zero exactly
            d = np.append(d, -d.sum())
        else:
            d = np.append(d, data.draw(st.floats(-1.0, 1.0)))
        rows.append((pts, d))
        one = _outcome(check_variations, rho, pts[None], d[None])
        assert one == _reference_rule(rho, pts, d)
        if one is None:
            scores.append(action_differences(lhat, L, pts[None], d[None])[0])
            dense_delta = np.zeros(len(g))
            dense_delta[pts] = d
            direct = action(moved(rho, dense_delta), L) - action(rho, L)
            assert scores[-1] == pytest.approx(direct, abs=tol)
    points = np.array([p for p, _ in rows])
    deltas = np.array([d for _, d in rows])
    batch = _outcome(check_variations, rho, points, deltas)
    assert (batch is None) == (len(scores) == len(rows))
    if batch is None:
        assert action_differences(lhat, L, points, deltas) == pytest.approx(scores, rel=1e-12,
                                                                            abs=1e-15)
