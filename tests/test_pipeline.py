"""Exhaustion runs: rescaling, windows, stabilization and mass bounds."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvp import (
    CompactProblem,
    DegenerateStageError,
    InputError,
    RunOptions,
    build_exhaustion,
    check_ell_convergence,
    check_support_approximation,
    exp_profile,
    grid_1d,
    local_mass_bound_check,
    make_kernel,
    minimize_on_compact,
    rescale,
    run_exhaustion,
    stage_ell,
    tail_mass,
    window_points,
)

ATOL = 1e-12
STAGE_TOL = 1e-9


def test_rescale_identity_three_point():
    g = grid_1d(range(3))
    tent = make_kernel("tent", {"amplitude": 1.0, "range": 1.0}, g)
    sol = minimize_on_compact(CompactProblem(ids=g.ids, matrix=np.eye(3)))
    st_ = rescale(sol, g, np.ones(3, dtype=bool), tent)
    assert st_.scale == pytest.approx(3.0, abs=ATOL)
    assert st_.measure.weights == pytest.approx([1.0] * 3, abs=ATOL)
    assert np.allclose(stage_ell(st_.measure, tent), 0.0, atol=ATOL)


def test_rescale_two_point_coupled():
    g = grid_1d([0.0, 0.5])
    L = make_kernel("matrix", {"matrix": [[1.0, 0.5], [0.5, 1.0]]}, g)
    sol = minimize_on_compact(CompactProblem(ids=g.ids, matrix=L.matrix))
    st_ = rescale(sol, g, np.ones(2, dtype=bool), L)
    assert st_.scale == pytest.approx(4.0 / 3.0, abs=ATOL)
    assert st_.s_unscaled == pytest.approx(0.75, abs=ATOL)
    assert np.allclose(stage_ell(st_.measure, L), 0.0, atol=ATOL)


def test_rescale_refuses_vanishing_action():
    g = grid_1d(range(1))
    sol = minimize_on_compact(CompactProblem(ids=g.ids, matrix=np.array([[1e-13]])))
    with pytest.raises(DegenerateStageError):
        rescale(sol, g, np.ones(1, dtype=bool))


def test_identity_grid_run_frozen_values(identity_run):
    grid, tent, run = identity_run
    assert run.diagnostics["lambda_series"] == pytest.approx([11.0, 21.0, 41.0], abs=1e-9)
    assert run.window.sum() == 19
    assert run.diagnostics["stabilized"]
    assert run.diagnostics["window_layer"] == 1.0
    assert run.diagnostics["degenerate_stages"] == []
    assert sorted(run.diagnostics["discrepancies"]) == ["0,1", "0,2", "1,2"]
    limit = run.limit.weights
    assert limit[limit > 0] == pytest.approx([1.0] * run.limit.support.sum(), abs=1e-9)


def test_single_stage_limit_is_unrestricted():
    g = grid_1d(range(4))
    tent = make_kernel("tent", {"amplitude": 1.0, "range": 1.0}, g)
    exh = build_exhaustion(g, 0, (3,))
    run = run_exhaustion(g, tent, exh)
    assert run.window.all()
    assert run.limit == run.stages[-1].measure
    assert run.diagnostics["stab_gap"] == 0.0


def test_constant_block_flagged_degenerate():
    g = grid_1d(range(3))
    L = make_kernel("matrix", {"matrix": [[1.0] * 3] * 3, "range": 5.0}, g)
    exh = build_exhaustion(g, 0, (2,))
    run = run_exhaustion(g, L, exh)
    assert run.diagnostics["degenerate_stages"] == [0]
    assert run.stages[0].scale == pytest.approx(1.0, abs=ATOL)


def test_explicit_layer_overrides_declared_range():
    g = grid_1d(range(-12, 13), prefix="g")
    tent = make_kernel("tent", {"amplitude": 1.0, "range": 1.0}, g)
    exh = build_exhaustion(g, 12, (5, 10))
    run = run_exhaustion(g, tent, exh, RunOptions(window_layer=3.0))
    assert run.diagnostics["window_layer"] == 3.0
    assert run.window.sum() == 5  # radius-5 stage shrunk by 3 on each side


def test_profile_policy_sets_layer_from_tail_index():
    g = grid_1d(range(0, 21))
    expk = cvp_exp = make_kernel("exponential", {"amplitude": 1.0, "sigma": 1.0}, g)
    prof = exp_profile(1.0, 1.0, delta=1.0, c=1.0)
    exh = build_exhaustion(g, 10, (6, 10))
    run = run_exhaustion(g, expk, exh, RunOptions(profile=prof, eps=0.3))
    assert run.diagnostics["window_layer"] == 4.0


def test_window_policy_required_for_unbounded_kernel():
    g = grid_1d(range(6))
    expk = make_kernel("exponential", {"amplitude": 1.0, "sigma": 1.0}, g)
    exh = build_exhaustion(g, 0, (2, 5))
    with pytest.raises(InputError):
        run_exhaustion(g, expk, exh)


def test_kernel_space_mismatch_rejected():
    g = grid_1d(range(3))
    other = grid_1d(range(4))
    tent = make_kernel("tent", {"amplitude": 1.0, "range": 1.0}, other)
    exh = build_exhaustion(g, 0, (2,))
    with pytest.raises(InputError):
        run_exhaustion(g, tent, exh)


def test_mass_bound_identity_run(identity_run):
    grid, tent, run = identity_run
    rep = local_mass_bound_check(run.stages[-1], grid, tent,
                                 probes=(25, 20, 30), radius=0.5)
    assert rep["passed"]
    for e in rep["entries"]:
        assert e["ball_size"] == 1
        assert e["mass"] == pytest.approx(1.0, abs=1e-9)
        assert e["bound"] == 2.0


def test_mass_bound_shrinks_through_realized_radii(identity_run):
    grid, tent, run = identity_run
    rep = local_mass_bound_check(run.stages[-1], grid, tent, probes=(25,), radius=1.0)
    e = rep["entries"][0]
    # the 1-ball contains a zero of the kernel, so the radius collapses
    assert e["shrunk"] and e["radius"] == 0.0 and e["ok"]


def test_support_approximation_identity_run(identity_run):
    grid, _, run = identity_run
    rep = check_support_approximation(run, grid)
    assert rep["passed"] and not rep["vacuous"]
    first = run.stages[0].measure.support
    for e in rep["entries"]:
        assert e["distances"][-1] == 0.0
        if first[grid.index[e["point"]]]:
            assert max(e["distances"]) == 0.0


def test_ell_convergence_identity_run(identity_run):
    grid, tent, run = identity_run
    rep = check_ell_convergence(run, tent, run.window, grid)
    assert rep["passed"]
    # window points outside the first stage see a gap of 1 there; it must
    # drain to zero and the final stage must be flat across neighbors
    assert rep["modulus_per_stage"][-1] <= 1e-9
    for e in rep["entries"]:
        assert e["gaps"][-1] <= 1e-9
        assert all(b <= a + 1e-12 for a, b in zip(e["gaps"], e["gaps"][1:]))


def test_tail_mass_compact_kernel_vanishes(identity_run):
    grid, tent, run = identity_run
    rho = run.stages[-1].measure
    assert tail_mass(rho, tent, grid, 25, 1.0) == 0.0
    # at R=0 the neighbors still contribute nothing: tent dies at distance 1
    assert tail_mass(rho, tent, grid, 25, 0.0) == 0.0


def test_tail_mass_decreases_in_radius():
    g = grid_1d(range(0, 21))
    expk = make_kernel("exponential", {"amplitude": 1.0, "sigma": 1.0}, g)
    prof = exp_profile(1.0, 1.0, delta=1.0, c=1.0)
    exh = build_exhaustion(g, 10, (6, 10))
    run = run_exhaustion(g, expk, exh, RunOptions(profile=prof, eps=0.3))
    rho = run.stages[-1].measure
    vals = [tail_mass(rho, expk, g, 10, float(r)) for r in range(0, 6)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert vals[0] > 0


def test_window_points_shrink_with_layer():
    g = grid_1d(range(0, 11))
    stage = np.arange(11) < 8
    sizes = [int(window_points(g, stage, float(r)).sum()) for r in range(4)]
    assert sizes == sorted(sizes, reverse=True)


@given(radii=st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True))
@settings(max_examples=30, deadline=None)
def test_identity_family_scales_equal_stage_sizes(radii):
    g = grid_1d(range(-12, 13), prefix="g")
    tent = make_kernel("tent", {"amplitude": 1.0, "range": 1.0}, g)
    exh = build_exhaustion(g, 12, tuple(sorted(radii)))
    run = run_exhaustion(g, tent, exh)
    for s, stage in zip(run.diagnostics["lambda_series"], exh.stages):
        assert s == pytest.approx(stage.sum(), abs=1e-8)
    limit = run.limit.weights
    assert limit[limit > 0] == pytest.approx([1.0] * run.limit.support.sum(), abs=1e-8)
