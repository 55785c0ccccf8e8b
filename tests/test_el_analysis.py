"""Stationarity reports, boundedness conditions and variation sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cvp
from cvp import (
    CompactProblem,
    DiscreteMeasure,
    InputError,
    VariationSampler,
    action,
    action_difference,
    check_sufficient_conditions,
    exp_profile,
    gamma_lower_bound,
    grid_1d,
    make_kernel,
    make_variation,
    minimize_on_compact,
    nontriviality_check,
    rescale,
    stage_ell,
    verify_el,
)

ATOL = 1e-12
EL_TOL = 1e-8


def dense(space, by_id):
    """Weights given by point id, as a vector in space order."""
    w = np.zeros(len(space))
    for pid, v in by_id.items():
        w[space.index[pid]] = v
    return w


def scaled_two_point():
    g = grid_1d([0.0, 0.5])
    L = make_kernel("matrix", {"matrix": [[1.0, 0.5], [0.5, 1.0]]}, g)
    sol = minimize_on_compact(CompactProblem(ids=g.ids, matrix=L.matrix))
    return g, L, rescale(sol, g, np.ones(2, dtype=bool), L)


def test_ell_two_point_scaled():
    _, L, st_ = scaled_two_point()
    assert stage_ell(st_.measure, L) == pytest.approx([0.0, 0.0], abs=ATOL)


def test_verify_el_identity_limit(identity_run):
    grid, tent, run = identity_run
    rep = verify_el(run.stages[-1].measure, tent, run.window, tol=EL_TOL)
    assert rep.passed
    assert rep.max_abs_on_support <= EL_TOL
    assert rep.inf_ell >= -EL_TOL


def test_verify_el_flags_tampering(identity_run):
    grid, tent, run = identity_run
    rho = run.stages[-1].measure
    bad = rho.weights.copy()
    window = np.flatnonzero(run.window)
    bad[window[len(window) // 2]] *= 2.0
    rep = verify_el(DiscreteMeasure(grid, bad), tent, run.window)
    assert not rep.passed
    assert rep.max_abs_on_support > 0.5


def test_el_report_serializes(identity_run):
    grid, tent, run = identity_run
    rep = verify_el(run.stages[-1].measure, tent, run.window)
    d = rep.to_dict()
    assert d["passed"] is True
    assert isinstance(d["inf_ell"], float)


def test_sufficient_conditions_integer_grid(int_grid6, tent_identity):
    rep = check_sufficient_conditions(tent_identity, int_grid6, delta_cover=1.0)
    assert rep["holds"]
    assert rep["condition_a"]["c"] == 1.0
    assert rep["condition_b"]["sup"] == 1.0
    assert rep["condition_c"]["N"] == 1
    assert rep["implied_bound"] == pytest.approx(2.0, abs=ATOL)


def test_sufficient_conditions_fail_on_quarter_grid(quarter_grid):
    tent = make_kernel("tent", {"amplitude": 1.0, "range": 1.0}, quarter_grid)
    rep = check_sufficient_conditions(tent, quarter_grid, delta_cover=1.0)
    assert not rep["holds"]
    assert rep["condition_a"]["holds"] and rep["condition_b"]["holds"]
    w = rep["condition_c"]["witness"]
    # the tent reaches c/2 inside the one-point effective range
    assert w is not None and w["value"] <= w["threshold"]
    assert rep["implied_bound"] is None


def test_nontriviality_identity_run(identity_run):
    grid, tent, run = identity_run
    rep = nontriviality_check(run, tent, grid)
    assert rep["passed"] and rep["limit_nonzero"]
    for e in rep["entries"]:
        assert e["c_x"] == 1.0
        assert e["mass"] >= 1.0 - 1e-9


def test_nontriviality_two_point_scaled():
    g, L, st_ = scaled_two_point()
    run = cvp.ExhaustionRun(stages=(st_,), limit=st_.measure,
                            window=np.ones(2, dtype=bool), diagnostics={})
    rep = nontriviality_check(run, L, g)
    assert rep["passed"]
    e = rep["entries"][0]
    assert e["c_x"] == 1.0
    assert e["mass"] == pytest.approx(4.0 / 3.0, abs=1e-9)


def test_gamma_bound_identity_run(identity_run):
    grid, tent, run = identity_run
    prof = exp_profile(9.0, 1.0, delta=1.0, c=1.0)
    rep = gamma_lower_bound(run.stages[-1].measure, tent, grid, prof, 0.5, run.window)
    assert rep["passed"] and not rep["refused"]
    assert rep["gamma"] == 0.5
    assert all(e["mass"] >= 0.5 for e in rep["entries"])


def test_gamma_bound_refuses_without_stationarity(identity_run):
    grid, tent, run = identity_run
    prof = exp_profile(9.0, 1.0, delta=1.0, c=1.0)
    bad = run.stages[-1].measure.weights.copy()
    bad[np.flatnonzero(run.window)[0]] = 5.0
    rep = gamma_lower_bound(DiscreteMeasure(grid, bad), tent, grid, prof, 0.5, run.window)
    assert rep["refused"] and not rep["passed"]


def test_gamma_bound_validates_eps(identity_run):
    grid, tent, run = identity_run
    prof = exp_profile(9.0, 1.0, delta=1.0, c=1.0)
    with pytest.raises(InputError):
        gamma_lower_bound(run.stages[-1].measure, tent, grid, prof, 1.0, run.window)


def test_sampled_variations_recompute_exactly(identity_run):
    grid, tent, run = identity_run
    rho = run.stages[-1].measure
    sampler = VariationSampler(window=run.window, seed=3)
    rep = cvp.test_minimality(rho, tent, sampler, trials=50)
    assert rep["evaluated"] == 50
    var = make_variation(rho, dense(grid, rep["worst"]["delta"]))
    direct = action(cvp.apply_variation(var), tent) - action(rho, tent)
    assert rep["worst"]["delta_action"] == pytest.approx(direct, abs=1e-9)
    assert rep["worst"]["delta_action"] == rep["min_delta_S"]


def test_minimizer_survives_sampling(identity_run):
    grid, tent, run = identity_run
    rho = run.stages[-1].measure
    sampler = VariationSampler(window=run.window, seed=0)
    rep = cvp.test_minimality(rho, tent, sampler, trials=2000)
    assert rep["passed"]
    assert rep["min_delta_S"] >= -EL_TOL
    assert rep["failures"] == []


def test_corrupted_weights_yield_witness(identity_run):
    grid, tent, run = identity_run
    rho = run.stages[-1].measure
    bad = rho.weights.copy()
    window = np.flatnonzero(run.window)
    bad[window[len(window) // 2]] *= 2.0
    corrupted = DiscreteMeasure(grid, bad)
    sampler = VariationSampler(window=run.window, seed=0)
    rep = cvp.test_minimality(corrupted, tent, sampler, trials=1000)
    assert not rep["passed"]
    assert rep["min_delta_S"] < -EL_TOL
    assert rep["failures"]


def test_large_steps_stay_balanced(identity_run):
    # seed 140 draws a two-point Dirichlet difference of ~1e-4 and scales it
    # by t ~ 1e4, which lifted its rounding imbalance to -6e-12, beyond the
    # balance tolerance of make_variation
    grid, tent, run = identity_run
    sampler = VariationSampler(window=run.window, seed=140)
    rep = cvp.test_minimality(run.stages[-1].measure, tent, sampler, trials=1000)
    assert rep["passed"]
    assert rep["evaluated"] + rep["skipped"] == 1000
    assert abs(math.fsum(rep["worst"]["delta"].values())) <= 1e-15


def test_max_step_caps_displacement(identity_run):
    grid, tent, run = identity_run
    rho = run.stages[-1].measure
    sampler = VariationSampler(window=run.window, seed=5, max_step=1e-3)
    rep = cvp.test_minimality(rho, tent, sampler, trials=200)
    assert rep["passed"]
    for e in (rep["worst"],):
        assert max(abs(v) for v in e["delta"].values()) <= 1e-3 + ATOL


def test_exit_codes_are_distinct():
    codes = (cvp.EXIT_OK, cvp.EXIT_EL_FAILED, cvp.EXIT_MINIMALITY, cvp.EXIT_CONDITION)
    assert codes == (0, 2, 3, 4)


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_small_variations_never_go_negative(seed):
    # stationary point of a convex action: sampled steps stay nonnegative
    g = grid_1d(range(6))
    L = make_kernel("exponential", {"amplitude": 1.0, "sigma": 2.0}, g)
    sol = minimize_on_compact(CompactProblem(ids=g.ids, matrix=L.matrix))
    st_ = rescale(sol, g, np.ones(6, dtype=bool), L)
    sampler = VariationSampler(window=np.ones(6, dtype=bool), seed=seed, max_step=1e-3)
    rep = cvp.test_minimality(st_.measure, L, sampler, trials=20)
    assert rep["min_delta_S"] >= -EL_TOL
