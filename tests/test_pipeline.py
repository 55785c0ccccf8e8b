"""Exhaustion runs: rescaling, windows, stabilization and mass bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvp import (
    CompactProblem,
    CompactSolution,
    DiscreteMeasure,
    InputError,
    KKTResiduals,
    MetricSpace,
    RunOptions,
    SolverFailure,
    SolverOptions,
    action,
    averaged_kernel,
    build_exhaustion,
    check_sufficient_conditions,
    exp_profile,
    gamma_lower_bound,
    grid_1d,
    local_mass_bound_check,
    make_kernel,
    minimize_on_compact,
    nontriviality_check,
    run_exhaustion,
    stage_ell,
    tail_mass,
    verify_compact_range,
    verify_entropy_decay,
    window_points,
)
from cvp import pipeline, simplex_solver
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
    with pytest.raises(InputError, match="too small to rescale"):
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


def test_stage_draws_are_seeded_from_the_run_seed_and_the_stage_index(monkeypatch):
    # neither block of the 33-point quarter grid is positive definite, so each
    # stage draws its Dirichlet starts, from the seed SeedSequence([seed, n])
    # derives for stage n, and also starts from the previous stage's minimizer.
    # Every start ends at the same minimum here, so the starts are compared too
    starts = []
    lockstep = simplex_solver._lockstep

    def recorded(Lb, block_starts, *args):
        starts.append(np.array(block_starts))
        return lockstep(Lb, block_starts, *args)

    monkeypatch.setattr(simplex_solver, "_lockstep", recorded)
    grid = grid_1d([i * 0.25 for i in range(33)], prefix="q")
    L = make_kernel("truncated_gaussian", {"amplitude": 1.0, "sigma": 0.8, "range": 2.0},
                    grid)
    exh = build_exhaustion(grid, grid.index["q16"], (2.0, 4.0))
    seed = 3
    run = run_exhaustion(grid, L, exh, RunOptions(solver=SolverOptions(seed=seed)))
    run_starts = starts[:]
    assert len(run_starts) == len(exh.stages) == 2
    for n, stage in enumerate(exh.stages):
        idx = np.flatnonzero(stage)
        block = L.matrix[np.ix_(idx, idx)]
        assert np.linalg.eigvalsh(block)[0] < 0
        stage_seed = int(np.random.SeedSequence([seed, n]).generate_state(1)[0])
        problem = CompactProblem(ids=tuple(grid.ids[i] for i in idx), matrix=block,
                                 options=SolverOptions(seed=stage_seed))
        warm = [run.stages[n - 1].weights[idx]] if n else []
        solution = minimize_on_compact(problem, extra_starts=warm)
        assert starts[-1].tobytes() == run_starts[n].tobytes()
        expected = np.where(solution.weights > 0, solution.weights, 0.0)
        assert run.stages[n].weights[idx].tobytes() == expected.tobytes()


def _solved_blocks(monkeypatch):
    """Record the kernel block of every stage the run hands the solver."""
    blocks = []
    solve = pipeline.minimize_on_compact

    def recorded(problem, **kwargs):
        blocks.append(problem.matrix)
        return solve(problem, **kwargs)

    monkeypatch.setattr(pipeline, "minimize_on_compact", recorded)
    return blocks


def _grid_2d(n):
    return MetricSpace(ids=tuple(f"p{x}_{y}" for x in range(n) for y in range(n)),
                       coords=[[x, y] for x in range(n) for y in range(n)])


@pytest.mark.parametrize("space, center, radii", [
    (grid_1d(range(21)), 10, (3, 6, 10)),
    (_grid_2d(5), 12, (1, 2, 3)),
], ids=["one-run-1d", "scattered-2d"])
def test_stage_blocks_are_contiguous_copies_of_the_gather(monkeypatch, space, center, radii):
    L = make_kernel("exponential", {"amplitude": 1.0, "sigma": 1.0}, space)
    exh = build_exhaustion(space, center, radii)
    blocks = _solved_blocks(monkeypatch)
    run_exhaustion(space, L, exh, RunOptions(window_layer=1.0))
    assert len(blocks) == len(exh.stages)
    scattered = 0
    for stage, block in zip(exh.stages, blocks):
        idx = np.flatnonzero(stage)
        scattered += idx[-1] - idx[0] + 1 > len(idx)
        assert block.flags.c_contiguous and not block.flags.writeable
        assert block.tobytes() == L.matrix[np.ix_(idx, idx)].tobytes()
    # the 2-D stages but the whole grid are scattered, the 1-D ones never
    assert scattered == (len(exh.stages) - 1 if space.coords.shape[1] == 2 else 0)


def test_solve_writes_the_bytes_of_the_validated_gather(tmp_path, monkeypatch):
    # with every stage block gathered by np.ix_ and validated as a
    # CompactProblem, and each CSV's ell recomputed from its weights, as
    # before each block was cut once, cvp solve writes the same bytes
    from cvp import cli
    from test_readme import _example

    config = tmp_path / "config.json"
    config.write_text(_example("json", "### Config"))

    def solve(out):
        assert cli.main(["solve", "--config", str(config), "--out", str(out)]) == 0
        return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

    cut = solve(tmp_path / "cut")
    loaded = cli.load_config(str(config))

    def gathered(L, stage):
        idx = np.flatnonzero(stage)
        block = L.matrix[np.ix_(idx, idx)]
        spread = float(block.max() - block.min())
        return idx, block, spread <= pipeline._CONST_BLOCK_TOL * max(1.0, float(block.max()))

    def recomputed(path, header, ids, ell, weights):
        rho = DiscreteMeasure(loaded.space, weights)
        write_csv(path, header, ids, stage_ell(rho, loaded.kernel).tolist(), weights)

    write_csv = cli.write_csv
    monkeypatch.setattr(pipeline, "_stage_block", gathered)
    monkeypatch.setattr(pipeline, "_block_problem", lambda ids, block, options: CompactProblem(
        ids=ids, matrix=block, options=options))
    monkeypatch.setattr(cli, "write_csv", recomputed)
    assert len(cut) == 4 and solve(tmp_path / "gathered") == cut


# The stage blocks of the three benchmark workloads, at their sizes: the
# unit tent on the integer grid, the unit exponential kernel (window layer 4,
# as its profile sets it) and the 49-point quarter-grid truncated Gaussian.
_BENCH_SHAPED = {
    "tent-401": (grid_1d(range(-200, 201), prefix="g"), "tent",
                 {"amplitude": 1.0, "range": 1.0}, 200, (50, 100, 200), {}),
    "exp-161": (grid_1d(range(161)), "exponential", {"amplitude": 1.0, "sigma": 1.0}, 80,
                (40, 60, 80), {"window_layer": 4.0}),
    "q49": (grid_1d([i * 0.25 for i in range(49)], prefix="q"), "truncated_gaussian",
            {"amplitude": 1.0, "sigma": 0.8, "range": 2.0}, 24, (3.0, 6.0),
            {"solver": SolverOptions(seed=49)}),
}


@pytest.mark.parametrize("name", list(_BENCH_SHAPED))
def test_solver_residuals_are_those_recomputed_from_the_weights(name):
    # a solved stage states the solver's KKT residuals; run_from_weights, as
    # verify, recomputes them from the weights on the stage block: the same
    space, kind, params, center, radii, options = _BENCH_SHAPED[name]
    L = make_kernel(kind, params, space)
    exh = build_exhaustion(space, center, radii)
    run = run_exhaustion(space, L, exh, RunOptions(**options))
    again = pipeline.run_from_weights(space, L, exh, RunOptions(**options),
                                      [s.weights for s in run.stages],
                                      [s.certified_global for s in run.stages])
    for solved, rebuilt in zip(run.stages, again.stages, strict=True):
        idx = np.flatnonzero(solved.stage)
        assert solved.kkt == rebuilt.kkt
        assert solved.kkt == simplex_solver._residuals(L.matrix[np.ix_(idx, idx)],
                                                       solved.weights[idx])
        # the stage's ell is the one the run checked and cvp solve writes
        assert solved.ell.tobytes() == stage_ell(solved.measure, L).tobytes()
        assert not solved.ell.flags.writeable and rebuilt.ell is None


def test_identity_grid_run_frozen_values(identity_run):
    grid, tent, run = identity_run
    assert [s.scale for s in run.stages] == pytest.approx([11.0, 21.0, 41.0], abs=1e-9)
    assert run.window.sum() == 19
    assert run.diagnostics["stabilized"]
    assert run.diagnostics["window_layer"] == 1.0
    assert not any(s.degenerate for s in run.stages)
    assert sorted(run.diagnostics) == ["discrepancies", "stab_gap", "stab_tol", "stabilized",
                                       "window_layer"]
    # the last stage is not compared with itself
    assert sorted(run.diagnostics["discrepancies"]) == ["0,1"]
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
    assert run.diagnostics["discrepancies"] == {}


def test_constant_block_flagged_degenerate():
    g = grid_1d(range(3))
    L = make_kernel("matrix", {"matrix": [[1.0] * 3] * 3, "range": 5.0}, g)
    exh = build_exhaustion(g, 0, (2,))
    run = run_exhaustion(g, L, exh)
    assert run.stages[0].degenerate
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
    # g's size and ids at another spacing: the content keys differ
    h = grid_1d([0.0, 0.5, 1.0])
    exh = build_exhaustion(g, 0, (2,))
    rho = DiscreteMeasure(g, [1.0, 0.0, 0.0])
    window = np.ones(3, dtype=bool)
    profile = exp_profile(1.0, 1.0, delta=1.0, c=1.0)
    # every entry point refuses a kernel and a measure or space of another space
    for space in (other, h):
        tent = make_kernel("tent", {"amplitude": 1.0, "range": 1.0}, space)
        for call in (lambda: run_exhaustion(g, tent, exh),
                     lambda: averaged_kernel(rho, tent),
                     lambda: action(rho, tent),
                     lambda: tail_mass(rho, tent, 0, 1.0),
                     lambda: nontriviality_check(rho, tent, window),
                     lambda: local_mass_bound_check(rho, tent, [0], 1.0),
                     lambda: gamma_lower_bound(rho, tent, profile, 0.5, window),
                     lambda: check_sufficient_conditions(tent, g, 1.0),
                     lambda: verify_compact_range(tent, g, exh),
                     lambda: verify_entropy_decay(tent, g, profile)):
            with pytest.raises(InputError, match="must be built on the same space"):
                call()


def test_mass_bound_identity_run(identity_run):
    grid, tent, run = identity_run
    rep = local_mass_bound_check(run.stages[-1].measure, tent,
                                 probes=(25, 20, 30), radius=0.5)
    assert rep["passed"]
    for e in rep["entries"]:
        assert e["ball_size"] == 1
        assert e["mass"] == pytest.approx(1.0, abs=1e-9)
        assert e["bound"] == 2.0


def test_mass_bound_shrinks_through_realized_radii(identity_run):
    grid, tent, run = identity_run
    rep = local_mass_bound_check(run.stages[-1].measure, tent, probes=(25,), radius=1.0)
    e = rep["entries"][0]
    # the 1-ball contains a zero of the kernel, so the radius collapses
    assert rep["requested_radius"] == 1.0 and e["radius"] == 0.0 and e["ok"]


def test_mass_bound_refuses_a_probe_that_is_not_a_point_index(identity_run):
    # an array pass would read a probe of -1 as the last point
    grid, tent, run = identity_run
    for probe in (-1, len(grid), 2.0):
        with pytest.raises(InputError, match="is not in 0.."):
            local_mass_bound_check(run.stages[-1].measure, tent, [probe], radius=1.0)


def test_tail_mass_compact_kernel_vanishes(identity_run):
    grid, tent, run = identity_run
    rho = run.stages[-1].measure
    assert tail_mass(rho, tent, 25, 1.0) == 0.0
    # at R=0 the neighbors still contribute nothing: tent dies at distance 1
    assert tail_mass(rho, tent, 25, 0.0) == 0.0


def test_tail_mass_decreases_in_radius():
    g = grid_1d(range(0, 21))
    expk = make_kernel("exponential", {"amplitude": 1.0, "sigma": 1.0}, g)
    prof = exp_profile(1.0, 1.0, delta=1.0, c=1.0)
    exh = build_exhaustion(g, 10, (6, 10))
    run = run_exhaustion(g, expk, exh, RunOptions(profile=prof, eps=0.3))
    rho = run.stages[-1].measure
    vals = [tail_mass(rho, expk, 10, float(r)) for r in range(0, 6)]
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
    for s, stage in zip(run.stages, exh.stages):
        assert s.scale == pytest.approx(stage.sum(), abs=1e-8)
    limit = run.limit.weights
    assert limit[limit > 0] == pytest.approx([1.0] * run.limit.support.sum(), abs=1e-8)


def _reference_mass_bound(rho, L, probes, radius, tol=1e-8):
    """``local_mass_bound_check`` with its candidate radii from a Python set: the reference."""
    space = rho.space
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
            entries.append({"probe": space.ids[xi], "skipped": True})
            continue
        mass = math.fsum(rho.weights[ball])
        ok = mass <= bound + tol
        passed = passed and ok
        entries.append({"probe": space.ids[xi], "radius": used, "ball_size": len(ball),
                        "mass": mass, "bound": bound, "ok": ok})
    return {"passed": passed, "requested_radius": radius, "entries": entries}


@given(cells=st.lists(st.integers(0, 4), min_size=1, max_size=48), data=st.data())
@settings(max_examples=150, deadline=None)
def test_mass_bound_matches_its_reference(cells, data):
    # points in the same cell coincide; some of their distances are -0.0, which
    # the report writes as -0 when it is the first zero of the probe's row
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
    rho = DiscreteMeasure(space, weights)
    probes = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    # cells are 0.5 apart, so most radii are realized distances, tied on both sides
    radius = data.draw(st.sampled_from([-1.0, 0.0, 0.5, 0.75, 1.0, 1.5, 3.0]))
    got = local_mass_bound_check(rho, L, probes, radius)
    assert canonical_json(got) == canonical_json(_reference_mass_bound(rho, L, probes, radius))


def test_mass_bound_unshrunk_and_tied_balls_match_the_reference():
    # points 0.5 apart, with a double at 1.0: around 1.0 the distances 0.5 and
    # 1.0 are each realized twice, and 0 by the double (as -0.0)
    x = np.array([0.0, 0.5, 1.0, 1.0, 1.5, 2.0, 3.0])
    d = np.abs(x[:, None] - x[None, :])
    d[2, 3] = d[3, 2] = -0.0
    space = MetricSpace(ids=tuple(f"p{i}" for i in range(len(x))), dist=d)
    measure = DiscreteMeasure(space, [0.5, 0.0, 1.0, 0.2, 0.0, 0.3, 1.0])
    # a and b coincide, and L(a, b) is below L(a, a)/2: every ball around a holds
    # both, so no ball is validated and the probe is skipped; c is checked alone
    pair = MetricSpace(ids=("a", "b", "c"), dist=[[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    cases = [(DiscreteMeasure(pair, [1, 1, 1]),
              make_kernel("matrix", {"matrix": [[1, 0.2, 0], [0.2, 1, 0], [0, 0, 1]]}, pair),
              (0, 2), 1.0, None)]
    cases += [(measure, make_kernel("tent", {"range": reach}, space), probes, radius,
               (shrunk, size))
              for reach, probes, radius, shrunk, size in (
                  (4.0, (2, 3), 1.0, False, 6), (4.0, (2,), 0.5, False, 4),
                  (4.0, (2,), 2.0, True, 6), (4.0, (6,), 3.0, True, 5),
                  (0.8, (2, 3), 1.0, True, 2))]
    for measure, L, probes, radius, expected in cases:
        got = local_mass_bound_check(measure, L, probes, radius)
        assert canonical_json(got) == canonical_json(
            _reference_mass_bound(measure, L, probes, radius))
        if expected is None:
            assert got["entries"] == [
                {"probe": "a", "skipped": True},
                {"probe": "c", "radius": 0.0, "ball_size": 1, "mass": 1.0, "bound": 2.0,
                 "ok": True}]
        else:
            for e in got["entries"]:
                assert (e["radius"] < radius, e["ball_size"]) == expected
    # the row of p3 has -0.0 at p2 before its own 0.0, and the radius keeps that sign
    assert '"radius": -0\n' in canonical_json(got)
