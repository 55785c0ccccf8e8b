"""Discrete measures, variations and the quadratic action."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvp import (
    DiscreteMeasure,
    InputError,
    PositivityError,
    VolumeConstraintError,
    action,
    action_difference,
    apply_variation,
    averaged_kernel,
    grid_1d,
    make_kernel,
    make_variation,
    measure_from_dict,
    measure_to_dict,
    restrict,
)

ATOL = 1e-12
REL_RECOMPUTE = 1e-10


def two_point_setup(offdiag=0.0):
    g = grid_1d(range(2))
    L = make_kernel("matrix", {"matrix": [[1.0, offdiag], [offdiag, 1.0]]}, g)
    rho = DiscreteMeasure({"x0": 0.5, "x1": 0.5}, g.key)
    return g, L, rho


def test_measure_prunes_dust():
    g = grid_1d(range(2))
    rho = DiscreteMeasure({"x0": 1.0, "x1": 1e-13}, g.key)
    assert rho.support == frozenset({"x0"})
    assert rho.weight("x1") == 0.0


def test_measure_rejects_negative_weights():
    g = grid_1d(range(2))
    with pytest.raises(InputError):
        DiscreteMeasure({"x0": 1.0, "x1": -1e-6}, g.key)


def test_measure_total_and_mass():
    g = grid_1d(range(3))
    rho = DiscreteMeasure({"x0": 1.0, "x1": 2.0, "x2": 3.0}, g.key)
    assert rho.total() == pytest.approx(6.0, abs=ATOL)
    assert rho.mass({"x0", "x2"}) == pytest.approx(4.0, abs=ATOL)
    assert rho.mass(()) == 0.0


def test_measure_equality_ignores_dust():
    g = grid_1d(range(2))
    a = DiscreteMeasure({"x0": 1.0}, g.key)
    b = DiscreteMeasure({"x0": 1.0, "x1": 0.0}, g.key)
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
    var = make_variation(rho, {"x0": 0.1, "x1": -0.1})
    # linear term cancels, quadratic term is 2 t^2
    assert action_difference(rho, var, L) == pytest.approx(0.02, abs=ATOL)


def test_zero_variation_gives_zero():
    _, L, rho = two_point_setup(offdiag=0.3)
    var = make_variation(rho, {})
    assert action_difference(rho, var, L) == 0.0


def test_variation_requires_balance():
    _, _, rho = two_point_setup()
    with pytest.raises(VolumeConstraintError):
        make_variation(rho, {"x0": 0.1})


def test_variation_requires_positivity():
    _, _, rho = two_point_setup()
    with pytest.raises(PositivityError):
        make_variation(rho, {"x0": -0.6, "x1": 0.6})


def test_apply_variation_moves_mass():
    g, L, rho = two_point_setup()
    var = make_variation(rho, {"x0": -0.25, "x1": 0.25})
    out = apply_variation(var)
    assert out.weight("x0") == pytest.approx(0.25, abs=ATOL)
    assert out.weight("x1") == pytest.approx(0.75, abs=ATOL)
    assert out.total() == pytest.approx(rho.total(), abs=ATOL)


def test_restrict_examples():
    g = grid_1d(range(3))
    rho = DiscreteMeasure({"x0": 1.0, "x1": 2.0, "x2": 3.0}, g.key)
    sub = restrict(rho, {"x0", "x2"})
    assert sub.weight("x0") == 1.0 and sub.weight("x2") == 3.0 and sub.weight("x1") == 0.0
    assert restrict(rho, {"x0", "x1", "x2"}) == rho
    assert restrict(rho, set()).total() == 0.0


def test_measure_dict_round_trip():
    g = grid_1d(range(3))
    rho = DiscreteMeasure({"x0": 0.25, "x2": 0.75}, g.key)
    back = measure_from_dict(measure_to_dict(rho))
    assert back == rho


small_weights = st.dictionaries(
    st.sampled_from([f"x{i}" for i in range(8)]),
    st.floats(0.0, 5.0, allow_nan=False),
    min_size=1, max_size=8,
)


@given(w=small_weights)
@settings(max_examples=80, deadline=None)
def test_action_scales_quadratically(w):
    g = grid_1d(range(8))
    L = make_kernel("exponential", {"amplitude": 1.0, "sigma": 1.0}, g)
    rho = DiscreteMeasure(w, g.key)
    doubled = DiscreteMeasure({k: 2.0 * v for k, v in w.items()}, g.key)
    assert action(doubled, L) == pytest.approx(4.0 * action(rho, L), rel=1e-12, abs=1e-12)


@given(w=small_weights, seed=st.integers(0, 10 ** 6))
@settings(max_examples=200, deadline=None)
def test_action_difference_matches_recompute(w, seed):
    g = grid_1d(range(8))
    L = make_kernel("exponential", {"amplitude": 1.0, "sigma": 2.0}, g)
    rho = DiscreteMeasure(w, g.key)
    rng = np.random.default_rng(seed)
    ids = list(g.ids)
    raw = rng.uniform(-1.0, 1.0, size=len(ids))
    raw -= raw.mean()
    # shrink until the shifted weights stay nonnegative
    scale = 1.0
    for i, x in enumerate(ids):
        if raw[i] < 0 and rho.weight(x) < -raw[i] * scale:
            scale = min(scale, rho.weight(x) / -raw[i])
    delta = {x: raw[i] * scale * 0.9 for i, x in enumerate(ids)}
    var = make_variation(rho, delta)
    direct = action(apply_variation(var), L) - action(rho, L)
    tol = REL_RECOMPUTE * max(1.0, abs(action(rho, L)))
    assert action_difference(rho, var, L) == pytest.approx(direct, abs=tol)


@given(w=small_weights)
@settings(max_examples=60, deadline=None)
def test_restrict_composes(w):
    g = grid_1d(range(8))
    rho = DiscreteMeasure(w, g.key)
    big = {"x0", "x1", "x2", "x3", "x4"}
    small = {"x1", "x3"}
    assert restrict(restrict(rho, big), small) == restrict(rho, small)
