"""Stationarity reports, boundedness conditions and variation sampling."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import cvp
from cvp import el_analysis
from cvp import (
    CompactProblem,
    DiscreteMeasure,
    InputError,
    VariationSampler,
    action,
    averaged_kernel,
    check_sufficient_conditions,
    exp_profile,
    gamma_lower_bound,
    grid_1d,
    make_kernel,
    minimize_on_compact,
    nontriviality_check,
    rescale,
    stage_ell,
    verify_el,
)
from cvp.measure import action_differences, check_variations

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
    delta = dense(grid, rep["worst"]["delta"])
    pts = np.flatnonzero(delta)
    check_variations(rho, pts[None], delta[pts][None])
    direct = action(DiscreteMeasure(grid, rho.weights + delta), tent) - action(rho, tent)
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


class _ConstructedDraws:
    """A generator stub: the least integer of each range, fixed exponentials, u = 0."""

    def __init__(self, exponentials):
        self.exponentials = np.asarray(exponentials, float)

    def integers(self, low, high=None, size=None):
        return np.full(size, low if high is not None else 0)

    def standard_exponential(self, size):
        return self.exponentials.reshape(size)

    def uniform(self, size):
        return np.zeros(size)


def test_large_steps_stay_balanced():
    # two points of weight 2 and Dirichlet draws that differ by ~1e-4: the step
    # scale t is ~2.4e4, which lifts the draws' rounding imbalance past the
    # balance tolerance of check_variations unless the largest step absorbs it
    e = [[[1.0, 1.0003003]], [[1.0, 1.0]]]
    base = np.array([2.0, 2.0])
    raw = np.sort(np.divide(e[0][0], sum(e[0][0])) - np.divide(e[1][0], sum(e[1][0])))
    t = 0.9 * (base[0] / -raw[0])
    assert abs(math.fsum(t * raw)) > 1e-12
    pick, steps, sizes = el_analysis._draw_variations(_ConstructedDraws(e), base, 2, 1)
    assert sizes.tolist() == [2] and sorted(pick[0].tolist()) == [0, 1]
    assert abs(math.fsum(steps[0])) <= 1e-15
    g = grid_1d(range(2))
    check_variations(DiscreteMeasure(g, base), pick, steps)  # raises if unbalanced


@st.composite
def sampler_inputs(draw):
    n = draw(st.integers(2, 12))
    window = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    assume(window.sum() >= 2)
    weights = np.array(draw(st.lists(st.just(0.0) | st.floats(1e-3, 5.0),
                                     min_size=n, max_size=n)))
    return n, window, weights, draw(st.integers(2, 8)), draw(st.integers(0, 10 ** 6))


@given(inputs=sampler_inputs())
@settings(max_examples=60, deadline=None)
def test_drawn_rows_follow_the_sampler_rules(inputs):
    n, window, weights, support_cap, seed = inputs
    g = grid_1d(range(n))
    L = make_kernel("exponential", {"amplitude": 1.0, "sigma": 2.0}, g)
    rho = DiscreteMeasure(g, weights)
    window_idx = np.flatnonzero(window)
    cap = min(support_cap, len(window_idx))
    base = rho.weights[window_idx]
    pick, steps, sizes = el_analysis._draw_variations(np.random.default_rng(seed), base, cap, 64)
    ds = action_differences(averaged_kernel(rho, L), L, window_idx[pick], steps)
    for row, step, m, d in zip(pick, steps, sizes, ds):
        assert 2 <= m <= cap
        assert (step[m:] == 0).all()
        row, step = row[:m], step[:m]
        assert len(set(row.tolist())) == m and (row < len(window_idx)).all()
        assert abs(math.fsum(step)) <= 1e-15 * np.abs(step).max()
        assert (base[row] + step >= 0).all()
        # negative steps sit on the row's heaviest weights
        assert base[row][step < 0].min() >= base[row][step >= 0].max(initial=0.0)
        check_variations(rho, window_idx[row][None], step[None])
        delta = np.zeros(n)
        delta[window_idx[row]] = step
        direct = action(DiscreteMeasure(g, rho.weights + delta), L) - action(rho, L)
        assert d == pytest.approx(direct, abs=1e-10 * max(1.0, action(rho, L)))


def test_chunk_support_sizes_are_uniform():
    cap, rows = 6, el_analysis._CHUNK
    base = np.linspace(0.5, 1.5, 10)  # no massless point, so no trial is skipped
    _, _, sizes = el_analysis._draw_variations(np.random.default_rng(11), base, cap, rows)
    assert len(sizes) == rows
    p = 1.0 / (cap - 1)
    sigma = math.sqrt(rows * p * (1.0 - p))
    counts = np.bincount(sizes, minlength=cap + 1)
    assert counts[:2].sum() == 0
    assert (np.abs(counts[2:] - rows * p) <= 5.0 * sigma).all()


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
    sampler = VariationSampler(window=np.ones(6, dtype=bool), seed=seed)
    rep = cvp.test_minimality(st_.measure, L, sampler, trials=20)
    assert rep["min_delta_S"] >= -EL_TOL


@pytest.mark.parametrize("cap", [0, 1, -3])
def test_support_cap_below_two_is_refused(cap):
    match = f"support_cap must be an integer of at least 2, got {cap}$"
    with pytest.raises(InputError, match=match):
        VariationSampler(window=np.ones(4, dtype=bool), support_cap=cap)
