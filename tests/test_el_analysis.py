"""Stationarity reports, boundedness conditions, window minimality and its
sampled reference."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import cvp
from cvp import el_analysis
from cvp import (
    DiscreteMeasure,
    InputError,
    MetricSpace,
    RunOptions,
    action,
    averaged_kernel,
    build_exhaustion,
    check_sufficient_conditions,
    closed_ball,
    exp_profile,
    gamma_lower_bound,
    global_sup,
    grid_1d,
    make_kernel,
    nontriviality_check,
    restrict,
    run_exhaustion,
    stage_ell,
    tail_index,
    verify_el,
)
from cvp.measure import action_differences, check_variations
from cvp.reports import canonical_json

import minimality_reference as reference

ATOL = 1e-12
EL_TOL = 1e-8


def dense(space, by_id):
    """Weights given by point id, as a vector in space order."""
    w = np.zeros(len(space))
    for pid, v in by_id.items():
        w[space.index[pid]] = v
    return w


def whole_space_stage(g, L):
    """The stage of a one-stage run over the whole grid, rescaled by the run."""
    exh = build_exhaustion(g, 0, (float(g.dist[0].max()),))
    return run_exhaustion(g, L, exh, RunOptions(window_layer=0.0)).stages[0]


def scaled_two_point():
    g = grid_1d([0.0, 0.5])
    L = make_kernel("matrix", {"matrix": [[1.0, 0.5], [0.5, 1.0]]}, g)
    return g, L, whole_space_stage(g, L)


def test_ell_two_point_scaled():
    _, L, st_ = scaled_two_point()
    assert stage_ell(st_.measure, L) == pytest.approx([0.0, 0.0], abs=ATOL)


def test_verify_el_identity_limit(identity_run):
    grid, tent, run = identity_run
    rep = verify_el(run.stages[-1].measure, tent, run.window, tol=EL_TOL)
    assert rep["passed"]
    assert rep["max_abs_on_support"] <= EL_TOL
    assert rep["inf_ell"] >= -EL_TOL


def test_verify_el_flags_tampering(identity_run):
    grid, tent, run = identity_run
    rho = run.stages[-1].measure
    bad = rho.weights.copy()
    window = np.flatnonzero(run.window)
    bad[window[len(window) // 2]] *= 2.0
    rep = verify_el(DiscreteMeasure(grid, bad), tent, run.window)
    assert not rep["passed"]
    assert rep["max_abs_on_support"] > 0.5


def test_el_report_serializes(identity_run):
    grid, tent, run = identity_run
    rep = verify_el(run.stages[-1].measure, tent, run.window)
    assert rep["passed"] is True
    assert isinstance(rep["inf_ell"], float)


def test_sufficient_conditions_integer_grid(int_grid6, tent_identity):
    rep = check_sufficient_conditions(tent_identity, int_grid6, delta_cover=1.0)
    assert rep["holds"]
    assert rep["condition_a"]["c"] == 1.0
    assert rep["condition_b"]["sup"] == 1.0
    assert rep["condition_c"]["N"] == 1
    assert rep["implied_bound"] == pytest.approx(2.0, abs=ATOL)


def test_sufficient_conditions_refuse_nan_cover_radius():
    # 0.8 within distance 2 and a unit diagonal: conditions hold, with N 3 at delta 1
    g = grid_1d(range(21))
    matrix = np.where(g.dist <= 2.0, 0.8, 0.0)
    np.fill_diagonal(matrix, 1.0)
    k = make_kernel("matrix", {"matrix": matrix.tolist()}, g)
    rep = check_sufficient_conditions(k, g, delta_cover=1.0)
    assert rep["holds"] and rep["condition_c"]["N"] == 3
    with pytest.raises(InputError, match="cover radius"):
        check_sufficient_conditions(k, g, delta_cover=float("nan"))


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
    rep = nontriviality_check(run.stages[-1].measure, tent, run.window)
    assert rep["passed"] and rep["limit_nonzero"]
    for e in rep["entries"]:
        assert e["c_x"] == 1.0
        assert e["mass"] >= 1.0 - 1e-9


def test_nontriviality_two_point_scaled():
    g, L, st_ = scaled_two_point()
    rep = nontriviality_check(st_.measure, L, np.ones(2, dtype=bool))
    assert rep["passed"]
    e = rep["entries"][0]
    assert e["c_x"] == 1.0
    assert e["mass"] == pytest.approx(4.0 / 3.0, abs=1e-9)


def test_gamma_bound_identity_run(identity_run):
    grid, tent, run = identity_run
    prof = exp_profile(9.0, 1.0, delta=1.0, c=1.0)
    rep = gamma_lower_bound(run.stages[-1].measure, tent, prof, 0.5, run.window)
    assert rep["passed"] and not rep["refused"]
    assert rep["gamma"] == 0.5
    assert all(e["mass"] >= 0.5 for e in rep["entries"])


def test_gamma_bound_refuses_without_stationarity(identity_run):
    grid, tent, run = identity_run
    prof = exp_profile(9.0, 1.0, delta=1.0, c=1.0)
    bad = run.stages[-1].measure.weights.copy()
    bad[np.flatnonzero(run.window)[0]] = 5.0
    rep = gamma_lower_bound(DiscreteMeasure(grid, bad), tent, prof, 0.5, run.window)
    assert rep["refused"] and not rep["passed"]


def _reference_gamma(rho, L, space, profile, eps, window, tol=1e-8):
    """``gamma_lower_bound`` past its stationarity test, as one ``closed_ball``
    and one sum per window point: the reference."""
    n0 = tail_index(profile, eps)
    gamma = (1.0 - eps) / global_sup(L)
    entries, passed = [], True
    for xi in np.flatnonzero(window):
        ball = closed_ball(space, xi, float(n0))
        mass = math.fsum(rho.weights[ball])
        ok = mass >= gamma - tol
        passed = passed and ok
        entries.append({"x": space.ids[xi], "ball_size": int(ball.sum()), "mass": mass,
                        "ok": ok})
    return {"passed": bool(passed), "refused": False, "gamma": gamma, "N0": n0,
            "sup": global_sup(L), "entries": entries}


# any measure is stationary at an infinite tolerance, so the mass test runs on it
_STATIONARY = math.inf


@given(cells=st.lists(st.integers(0, 12), min_size=1, max_size=30), data=st.data())
@settings(max_examples=150, deadline=None)
def test_gamma_bound_matches_its_reference(cells, data):
    # points in the same cell coincide, at distance -0.0 when drawn so; cells are
    # 0.5 apart and N0 is an integer of 2 to 8, so balls often end on tied points
    n = len(cells)
    x = np.array(cells, dtype=float) * 0.5
    d = np.abs(x[:, None] - x[None, :])
    d[(d == 0) & ~np.eye(n, dtype=bool) & data.draw(st.booleans())] = -0.0
    space = MetricSpace(ids=tuple(f"p{i}" for i in range(n)), dist=d)
    L = make_kernel("tent", {"range": data.draw(st.sampled_from([0.5, 1.0, 3.0]))}, space)
    rho = DiscreteMeasure(space, data.draw(st.lists(
        st.sampled_from([0.0, 0.1, 1.0 / 3.0, 1.0, 2.5]), min_size=n, max_size=n)))
    if data.draw(st.booleans()):  # a one-point window
        window = np.eye(1, n, data.draw(st.integers(0, n - 1)), dtype=bool)[0]
    else:
        window = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    profile = exp_profile(data.draw(st.sampled_from([0.01, 0.5, 3.0, 20.0])), 1.0,
                          delta=1.0, c=1.0)
    eps = data.draw(st.sampled_from([0.1, 0.3, 0.9]))
    if not window.any():  # stationarity on an empty window is undefined
        with pytest.raises(InputError, match="nonempty window"):
            gamma_lower_bound(rho, L, profile, eps, window, el_tol=_STATIONARY)
        return
    got = gamma_lower_bound(rho, L, profile, eps, window, el_tol=_STATIONARY)
    assert canonical_json(got) == canonical_json(
        _reference_gamma(rho, L, space, profile, eps, window))


def test_gamma_ball_ends_on_points_at_distance_n0():
    g = grid_1d([0, 1, 2, 2, 3, 4, 6])
    L = make_kernel("tent", {"range": 1.0}, g)
    rho = DiscreteMeasure(g, [1.0] * 7)
    profile = exp_profile(0.01, 1.0, delta=1.0, c=1.0)
    window = np.array([False, False, True, True, False, False, True])
    rep = gamma_lower_bound(rho, L, profile, 0.9, window, el_tol=_STATIONARY)
    assert rep["N0"] == 2
    assert [e["ball_size"] for e in rep["entries"]] == [6, 6, 2]
    assert canonical_json(rep) == canonical_json(_reference_gamma(rho, L, g, profile, 0.9,
                                                                  window))


def test_gamma_bound_validates_eps(identity_run):
    grid, tent, run = identity_run
    prof = exp_profile(9.0, 1.0, delta=1.0, c=1.0)
    with pytest.raises(InputError):
        gamma_lower_bound(run.stages[-1].measure, tent, prof, 1.0, run.window)


def test_sampled_variations_recompute_exactly(identity_run):
    grid, tent, run = identity_run
    rho = run.stages[-1].measure
    sampler = reference.VariationSampler(window=run.window, seed=3)
    rep = reference.test_minimality(rho, tent, sampler, trials=50)
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
    sampler = reference.VariationSampler(window=run.window, seed=0)
    rep = reference.test_minimality(rho, tent, sampler, trials=2000)
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
    sampler = reference.VariationSampler(window=run.window, seed=0)
    rep = reference.test_minimality(corrupted, tent, sampler, trials=1000)
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
    pick, steps, sizes = reference._draw_variations(_ConstructedDraws(e), base, 2, 1)
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
    pick, steps, sizes = reference._draw_variations(np.random.default_rng(seed), base, cap, 64)
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
    cap, rows = 6, reference._CHUNK
    base = np.linspace(0.5, 1.5, 10)  # no massless point, so no trial is skipped
    _, _, sizes = reference._draw_variations(np.random.default_rng(11), base, cap, rows)
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
    st_ = whole_space_stage(g, L)
    sampler = reference.VariationSampler(window=np.ones(6, dtype=bool), seed=seed)
    rep = reference.test_minimality(st_.measure, L, sampler, trials=20)
    assert rep["min_delta_S"] >= -EL_TOL


@pytest.mark.parametrize("cap", [0, 1, -3])
def test_support_cap_below_two_is_refused(cap):
    match = f"support_cap must be an integer of at least 2, got {cap}$"
    with pytest.raises(InputError, match=match):
        reference.VariationSampler(window=np.ones(4, dtype=bool), support_cap=cap)


def _certified(report):
    return report["certificate"] == "exact" and report["passed"]


def test_minimizer_is_proved_on_its_window(identity_run):
    grid, tent, run = identity_run
    rho = run.stages[-1].measure
    rep = el_analysis.prove_minimality(rho, tent, run.window)
    assert _certified(rep)
    assert -1e-10 <= rep["bound"] <= 0.0 and type(rep["bound"]) is float
    assert rep["window_mass"] == pytest.approx(rho.weights[run.window].sum())
    assert rep["tol"] == el_analysis._FAIL_TOL


def test_corrupted_weights_fail_the_window_qp(identity_run):
    # the window form stays positive definite; the first-order bound fails,
    # and the window QP finds the descent
    grid, tent, run = identity_run
    bad = run.stages[-1].measure.weights.copy()
    bad[np.flatnonzero(run.window)[3]] *= 2.0
    rep = el_analysis.prove_minimality(DiscreteMeasure(grid, bad), tent, run.window)
    assert rep["certificate"] == "window_qp" and not rep["passed"]
    assert rep["why_not_exact"].startswith("the first-order bound")
    assert rep["certified_global"]
    assert rep["min_delta_S"] == rep["witness"]["delta_action"] < -EL_TOL


def test_one_point_window_passes_with_a_reason(identity_run):
    grid, tent, run = identity_run
    window = np.zeros(len(grid), dtype=bool)
    window[grid.index["g0"]] = True
    rho = run.stages[-1].measure
    rep = el_analysis.prove_minimality(rho, tent, window)
    assert rep == {"certificate": "window_qp", "passed": True, "min_delta_S": 0.0,
                   "window_mass": float(rho.weights[grid.index["g0"]]),
                   "reason": "a window of fewer than 2 points has no nonzero "
                             "balanced variation",
                   "tol": el_analysis._FAIL_TOL}


@pytest.mark.parametrize("eps,proved", [(1e-15, False), (1e-6, True)])
def test_curvature_below_the_rounding_margin_is_not_proved(eps, proved):
    # L = 11' + eps I: the balanced curvature is eps (Z'Z), positive, but at
    # eps = 1e-15 below what forming and factoring the form can resolve
    g = grid_1d(range(3))
    L = make_kernel("matrix", {"matrix": (np.ones((3, 3)) + eps * np.eye(3)).tolist()}, g)
    rho = DiscreteMeasure(g, np.full(3, 1.0 / (1.0 + eps / 3.0) / 3.0))
    rep = el_analysis.prove_minimality(rho, L, np.ones(3, dtype=bool))
    assert _certified(rep) == proved
    if not proved:
        assert "not proved positive semidefinite" in rep["why_not_exact"]
        assert rep["certificate"] == "window_qp" and rep["passed"]


def _exact_bound(rho, L, window):
    """The first-order bound -2 sum_W rho_x (ell_x - min_W ell) of the stored
    weights, in exact rationals."""
    sup = np.flatnonzero(rho.weights)
    w = [Fraction(v) for v in rho.weights[sup].tolist()]
    ell = {x: sum(Fraction(Lxy) * v for Lxy, v in zip(L.matrix[x, sup].tolist(), w)) - 1
           for x in np.flatnonzero(window).tolist()}
    m = min(ell.values())
    return -2 * sum(Fraction(float(rho.weights[x])) * (e - m) for x, e in ell.items())


@given(n=st.integers(3, 12), kind=st.sampled_from(["exponential", "truncated_gaussian"]),
       sigma=st.floats(0.3, 3.0), seed=st.integers(0, 2 ** 16))
@settings(max_examples=100, deadline=None)
def test_proof_bound_holds_for_the_stored_weights(n, kind, sigma, seed):
    # the reported bound allows for the rounding of ell, so it never exceeds
    # the bound of the stored weights computed without rounding
    g = grid_1d(range(n))
    params = {"sigma": sigma} if kind == "exponential" else {"sigma": sigma, "range": 2.0}
    L = make_kernel(kind, params, g)
    rho = whole_space_stage(g, L).measure
    window = np.random.default_rng(seed).random(n) < 0.7
    window[:2] = True
    rep = el_analysis.prove_minimality(rho, L, window)
    if _certified(rep):
        assert Fraction(rep["bound"]) <= _exact_bound(rho, L, window)


@given(n=st.integers(3, 12), kind=st.sampled_from(["exponential", "truncated_gaussian"]),
       sigma=st.floats(0.3, 3.0), seed=st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_proof_bounds_every_sampled_trial(n, kind, sigma, seed):
    g = grid_1d(range(n))
    params = {"sigma": sigma} if kind == "exponential" else {"sigma": sigma, "range": 2.0}
    L = make_kernel(kind, params, g)
    rho = whole_space_stage(g, L).measure
    window = np.ones(n, dtype=bool)
    rep = el_analysis.prove_minimality(rho, L, window)
    if _certified(rep):
        sampler = reference.VariationSampler(window=window, support_cap=n, seed=seed)
        trials = reference.test_minimality(rho, L, sampler, trials=2000)
        scale = max(1.0, float(L.matrix.max()) * rho.total() ** 2)
        assert trials["min_delta_S"] >= rep["bound"] - 1e-12 * scale
    doubled = rho.weights.copy()
    doubled[np.argmax(doubled)] *= 2.0
    assert not _certified(el_analysis.prove_minimality(DiscreteMeasure(g, doubled), L, window))


def _exact_action_change(rho, L, delta):
    """(rho + delta)'L(rho + delta) - rho'L rho of the stored floats, in exact rationals."""
    pts = np.flatnonzero((rho.weights != 0) | (delta != 0))
    w = [Fraction(v) for v in rho.weights[pts].tolist()]
    d = [Fraction(v) for v in delta[pts].tolist()]
    rows = L.matrix[np.ix_(pts, pts)].tolist()
    return sum(Fraction(Lij) * (2 * w[i] * d[j] + d[i] * d[j])
               for i, row in enumerate(rows) for j, Lij in enumerate(row))


@given(n=st.integers(3, 12), kind=st.sampled_from(["exponential", "truncated_gaussian"]),
       sigma=st.floats(0.3, 3.0), seed=st.integers(0, 2 ** 16), doubled=st.booleans())
@settings(max_examples=40, deadline=None)
def test_window_qp_is_never_beaten_by_sampling(n, kind, sigma, seed, doubled):
    # the windows of test_proof_bounds_every_sampled_trial, cut to a random
    # subset so that weight outside the window enters the QP
    g = grid_1d(range(n))
    params = {"sigma": sigma} if kind == "exponential" else {"sigma": sigma, "range": 2.0}
    L = make_kernel(kind, params, g)
    weights = whole_space_stage(g, L).measure.weights.copy()
    if doubled:
        weights[np.argmax(weights)] *= 2.0
    rho = DiscreteMeasure(g, weights)
    window = np.random.default_rng(seed).random(n) < 0.7
    window[:2] = True
    qp = el_analysis._window_qp(rho, L, window, averaged_kernel(rho, L), "not tried")
    sampler = reference.VariationSampler(window=window, support_cap=n, seed=seed)
    sampled = reference.test_minimality(rho, L, sampler, trials=2000)
    scale = max(1.0, float(L.matrix.max()) * rho.total() ** 2)
    assert qp["min_delta_S"] <= sampled["min_delta_S"] + 1e-12 * scale
    if sampled["failures"]:
        assert not qp["passed"]
    if not qp["passed"]:
        delta = dense(g, qp["witness"]["delta"])
        pts = np.flatnonzero(delta)
        check_variations(rho, pts[None], delta[pts][None])
        exact = _exact_action_change(rho, L, delta)
        # relative 1e-12, and the rounding of the float score 2 delta.lhat +
        # delta'L delta, which a witness just past -tol does not dwarf
        size = float(np.abs(delta).sum())
        rounding = 1e-14 * size * (2.0 * float(averaged_kernel(rho, L).max())
                                   + float(L.matrix.max()) * size)
        assert abs(Fraction(qp["witness"]["delta_action"]) - exact) <= (abs(exact) * 1e-12
                                                                         + rounding)


def _reference_nontriviality(rho, L, window, tol=1e-8):
    """``nontriviality_check`` as one Python pass per probe: the reference."""
    space = rho.space
    probes = window if window.any() else rho.support
    entries, passed = [], True
    for xi in np.flatnonzero(probes):
        row = L.matrix[xi]
        reach = row > 0.0
        c_x = 1.0 / float(row.max())
        mass = math.fsum(rho.weights[reach])
        ok = mass >= c_x - tol
        passed = passed and ok
        entries.append({"probe": space.ids[xi], "range_size": int(reach.sum()), "c_x": c_x,
                        "mass": mass, "ok": ok})
    total = restrict(rho, window).total()
    return {"passed": bool(passed and total > 0.0), "limit_total": total,
            "limit_nonzero": total > 0.0, "entries": entries}


@st.composite
def kernel_runs(draw):
    """A nonnegative symmetric kernel with zeros on a 1-D grid with repeated
    points, a measure of random weights there, and a random window."""
    n = draw(st.integers(1, 9))
    space = grid_1d([draw(st.integers(0, 5)) * 0.5 for _ in range(n)])
    m = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.7]),
                               min_size=n * n, max_size=n * n))).reshape(n, n)
    m = np.triu(m) + np.triu(m, 1).T
    np.fill_diagonal(m, draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
    L = make_kernel("matrix", {"matrix": m.tolist()}, space)
    weights = draw(st.lists(st.sampled_from([0.0, 0.1, 1.0 / 3.0, 0.7, 1.0, 2.5]),
                            min_size=n, max_size=n))
    rho = DiscreteMeasure(space, weights)
    window = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return L, rho, window


@given(case=kernel_runs())
@settings(max_examples=150, deadline=None)
def test_nontriviality_matches_its_reference(case):
    L, rho, window = case
    got = nontriviality_check(rho, L, window)
    assert canonical_json(got) == canonical_json(_reference_nontriviality(rho, L, window))


@given(n=st.integers(1, 70), rows=st.integers(0, 40), distinct=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1), fill=st.sampled_from([0.0, 0.3, 0.9, 1.0]))
@settings(max_examples=150, deadline=None)
def test_ball_masses_equal_the_fsum_of_each_row_bit_for_bit(n, rows, distinct, seed, fill):
    rng = np.random.default_rng(seed)
    # few distinct rows, drawn again and again, or every row its own
    pool = rng.random((distinct, n)) < fill
    balls = pool[rng.integers(0, distinct, rows)] if distinct < 6 else rng.random((rows, n)) < fill
    if rows:
        balls[rng.integers(0, rows)] = False  # an empty ball
    weights = rng.random(n) * 10.0 ** rng.integers(-300, 300, n)
    masses, sizes = el_analysis._ball_masses(weights, balls)
    assert [m.hex() for m in masses] == [math.fsum(weights[row]).hex() for row in balls]
    assert sizes == balls.sum(axis=1).tolist()


@pytest.mark.parametrize("rows", ["distinct", "repeated", "empty"])
def test_ball_masses_of_distinct_repeated_and_empty_rows(rows):
    # the balls of one radius on a grid differ row by row; the full ranges of a
    # kernel without a range repeat one row; empty rows sum to 0.0
    space = grid_1d([float(i) for i in range(61)])
    balls = {"distinct": closed_ball(space, np.arange(61), 7.0),
             "repeated": np.ones((40, 61), dtype=bool),
             "empty": np.zeros((5, 61), dtype=bool)}[rows]
    weights = np.random.default_rng(61).random(61) * 10.0 ** np.arange(-30, 31)
    masses, sizes = el_analysis._ball_masses(weights, balls)
    assert [m.hex() for m in masses] == [math.fsum(weights[row]).hex() for row in balls]
    assert sizes == balls.sum(axis=1).tolist()


@given(n=st.integers(2, 60), sigma=st.sampled_from([0.5, 1.0, 4.0]), data=st.data())
@settings(max_examples=60, deadline=None)
def test_nontriviality_with_one_shared_range_matches_its_reference(n, sigma, data):
    """A dense exponential kernel has no compact range: every probe's effective
    range is the whole space, and one sum serves all probes."""
    space = grid_1d([float(i) for i in range(n)])
    L = make_kernel("exponential", {"amplitude": 1.0, "sigma": sigma}, space)
    assert (L.matrix > 0.0).all()
    rho = DiscreteMeasure(space, data.draw(st.lists(
        st.floats(0.0, 3.0), min_size=n, max_size=n)))
    window = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    got = nontriviality_check(rho, L, window)
    assert {e["range_size"] for e in got["entries"]} <= {n}
    assert canonical_json(got) == canonical_json(_reference_nontriviality(rho, L, window))
