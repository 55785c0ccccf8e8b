"""Exhaustion runs: rescaling, windows, stabilization and mass bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvp import (
    CompactSolution,
    DegenerateStageError,
    DiscreteMeasure,
    InputError,
    KKTResiduals,
    MetricSpace,
    RunOptions,
    SolverFailure,
    build_exhaustion,
    check_ell_convergence,
    check_support_approximation,
    exp_profile,
    grid_1d,
    local_mass_bound_check,
    make_kernel,
    run_exhaustion,
    stage_ell,
    tail_mass,
    window_points,
)
from cvp import pipeline
from cvp.reports import canonical_json

ATOL = 1e-12
STAGE_TOL = 1e-9


def _whole_space_stage(space, L, **options):
    """The stage of a one-stage run over the whole space, rescaled by the run."""
    exh = build_exhaustion(space, 0, (float(space.dist[0].max()),))
    return run_exhaustion(space, L, exh, RunOptions(**options)).stages[0]


def test_rescale_identity_three_point():
    g = grid_1d(range(3))
    tent = make_kernel("tent", {"amplitude": 1.0, "range": 1.0}, g)
    st_ = _whole_space_stage(g, tent)
    assert st_.scale == pytest.approx(3.0, abs=ATOL)
    assert st_.measure.weights == pytest.approx([1.0] * 3, abs=ATOL)
    assert np.allclose(stage_ell(st_.measure, tent), 0.0, atol=ATOL)


def test_rescale_two_point_coupled():
    g = grid_1d([0.0, 0.5])
    L = make_kernel("matrix", {"matrix": [[1.0, 0.5], [0.5, 1.0]]}, g)
    st_ = _whole_space_stage(g, L, window_layer=0.0)
    assert st_.scale == pytest.approx(4.0 / 3.0, abs=ATOL)
    assert st_.s_unscaled == pytest.approx(0.75, abs=ATOL)
    assert np.allclose(stage_ell(st_.measure, L), 0.0, atol=ATOL)


def test_rescale_refuses_vanishing_action():
    g = grid_1d(range(1))
    L = make_kernel("matrix", {"matrix": [[1e-13]]}, g)
    with pytest.raises(DegenerateStageError):
        _whole_space_stage(g, L, window_layer=0.0)


def test_run_refuses_a_stage_off_rescaled_stationarity(monkeypatch):
    # weights 3/4, 1/4 on an identity block: s = 5/8, and the rescaled
    # averaged kernel minus 1 is 0.2 and -0.6
    g = grid_1d(range(2))
    tent = make_kernel("tent", {"amplitude": 1.0, "range": 1.0}, g)
    off = CompactSolution(weights=np.array([0.75, 0.25]),
                          kkt=KKTResiduals(0.0, 0.0, 0.625), certified_global=True)
    monkeypatch.setattr(pipeline, "minimize_on_compact", lambda *a, **k: off)
    with pytest.raises(SolverFailure, match="stage 0: rescaled stationarity residual "
                                            "too large") as exc:
        run_exhaustion(g, tent, build_exhaustion(g, 0, (1,)))
    assert exc.value.best_weights.tolist() == [0.75, 0.25]
    assert exc.value.residuals.s_param == pytest.approx(0.625, abs=ATOL)


def test_undetermined_window_is_refused_before_any_stage_is_solved(monkeypatch):
    g = grid_1d(range(2))
    L = make_kernel("matrix", {"matrix": [[1.0, 0.0], [0.0, 1.0]]}, g)
    monkeypatch.setattr(pipeline, "minimize_on_compact", None)
    with pytest.raises(InputError, match="window policy undetermined"):
        run_exhaustion(g, L, build_exhaustion(g, 0, (1,)))


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


def _reference_mass_bound(stage, space, L, probes, radius, tol=1e-8):
    """``local_mass_bound_check`` with its candidate radii from a Python set: the reference."""
    entries, passed = [], True
    for xi in probes:
        diag = float(L.matrix[xi, xi])
        bound = 2.0 / diag
        row = space.dist[xi]
        candidates = sorted({float(r) for r in row if r <= radius + 1e-12}, reverse=True)
        used = None
        for r in candidates:
            ball = np.flatnonzero(row <= r + 1e-12)
            if float(L.matrix[np.ix_(ball, ball)].min()) >= diag / 2.0:
                used = r
                break
        if used is None:
            entries.append({"probe": space.ids[xi], "requested_radius": radius, "skipped": True})
            continue
        mass = math.fsum(stage.measure.weights[ball])
        ok = mass <= bound + tol
        passed = passed and ok
        entries.append({"probe": space.ids[xi], "requested_radius": radius, "radius": used,
                        "shrunk": used < radius - 1e-12, "ball_size": len(ball),
                        "mass": mass, "bound": bound, "ok": ok, "skipped": False})
    return {"passed": passed, "entries": entries}


@given(cells=st.lists(st.integers(0, 4), min_size=1, max_size=48), data=st.data())
@settings(max_examples=150, deadline=None)
def test_mass_bound_matches_its_reference(cells, data):
    # points in the same cell coincide; some of their distances are -0.0, which
    # the report writes as -0 when it is the first zero of the probe's row (a
    # sort of rows longer than 16 is not stable, so it may put the other zero first)
    n = len(cells)
    x = np.array(cells, dtype=float) * 0.5
    d = np.abs(x[:, None] - x[None, :])
    same = (d == 0) & ~np.eye(n, dtype=bool) & data.draw(
        st.sampled_from([True, True, False]).map(lambda b: np.full((n, n), b)))
    d[same] = -0.0
    space = MetricSpace(ids=tuple(f"p{i}" for i in range(n)), dist=d)
    kind = data.draw(st.sampled_from(["tent", "truncated_gaussian"]))
    # a range of 4 keeps L above L(x, x)/2 on most balls: the largest passes unshrunk
    params = {"range": data.draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))}
    if kind == "truncated_gaussian":
        params["sigma"] = data.draw(st.sampled_from([0.3, 0.8, 2.0]))
    L = make_kernel(kind, params, space)
    weights = data.draw(st.lists(st.sampled_from([0.0, 0.2, 1.0 / 3.0, 1.0, 2.5]),
                                 min_size=n, max_size=n))
    stage = type("Stage", (), {"measure": DiscreteMeasure(space, weights)})()
    probes = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    # cells are 0.5 apart, so most radii are realized distances, tied on both sides
    radius = data.draw(st.sampled_from([-1.0, 0.0, 0.5, 0.75, 1.0, 1.5, 3.0]))
    got = local_mass_bound_check(stage, space, L, probes, radius)
    assert canonical_json(got) == canonical_json(
        _reference_mass_bound(stage, space, L, probes, radius))


def test_mass_bound_unshrunk_and_tied_balls_match_the_reference():
    # points 0.5 apart, with a double at 1.0: around 1.0 the distances 0.5 and
    # 1.0 are each realized twice, and 0 by the double (as -0.0)
    x = np.array([0.0, 0.5, 1.0, 1.0, 1.5, 2.0, 3.0])
    d = np.abs(x[:, None] - x[None, :])
    d[2, 3] = d[3, 2] = -0.0
    space = MetricSpace(ids=tuple(f"p{i}" for i in range(len(x))), dist=d)
    stage = type("Stage", (), {"measure": DiscreteMeasure(space, [0.5, 0.0, 1.0, 0.2, 0.0,
                                                                  0.3, 1.0])})()
    for reach, probes, radius, shrunk, size in (
            (4.0, (2, 3), 1.0, False, 6), (4.0, (2,), 0.5, False, 4),
            (4.0, (2,), 2.0, True, 6), (4.0, (6,), 3.0, True, 5),
            (0.8, (2, 3), 1.0, True, 2)):
        L = make_kernel("tent", {"range": reach}, space)
        got = local_mass_bound_check(stage, space, L, probes, radius)
        assert canonical_json(got) == canonical_json(
            _reference_mass_bound(stage, space, L, probes, radius))
        for e in got["entries"]:
            assert (e["shrunk"], e["ball_size"]) == (shrunk, size)
    # the row of p3 has -0.0 at p2 before its own 0.0, and the radius keeps that sign
    assert '"radius": -0,' in canonical_json(got)
