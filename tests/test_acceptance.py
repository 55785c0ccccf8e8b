"""Acceptance gate for the solver and its certificates.

Each test covers one advertised guarantee and prints a single
``[PASS]``/``[FAIL]`` line (run with ``pytest -s`` to see them live).
Tolerances here are contractual; do not loosen them to make a run green.
"""

import hashlib
import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from cvp import (
    CompactProblem,
    DiscreteMeasure,
    RunOptions,
    SolverOptions,
    brute_force_minimizer,
    build_exhaustion,
    check_sufficient_conditions,
    diagonal_infimum,
    exp_profile,
    gamma_lower_bound,
    grid_1d,
    local_mass_bound_check,
    make_kernel,
    minimize_on_compact,
    nontriviality_check,
    run_exhaustion,
    scaled_exp_profile,
    tail_index,
    tail_mass,
    verify_compact_range,
    verify_el,
    verify_entropy_decay,
)
from cvp.cli import main
from minimality_reference import VariationSampler, test_minimality

KKT_TOL = 1e-8
STAGE_TOL = 1e-7
SCALE_TOL = 1e-12
MASS_TOL = 1e-8
FLAT_WEIGHT_TOL = 1e-9
WINDOW_EL_TOL = 1e-8
STAB_TOL = 1e-6
DECAY_EL_TOL = 1e-4
VARIATION_TOL = 1e-8
NONTRIV_TOL = 1e-8


def _gate(ok: bool, label: str) -> None:
    print(("[PASS] " if ok else "[FAIL] ") + label)
    assert ok, label


def _build(space, L, center, radii, **run_kwargs):
    exhaustion = build_exhaustion(space, space.index[center], radii)
    t0 = time.perf_counter()
    run = run_exhaustion(space, L, exhaustion, RunOptions(**run_kwargs))
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(space=space, L=L, exhaustion=exhaustion, run=run,
                           elapsed=elapsed)


@pytest.fixture(scope="module")
def identity_run():
    space = grid_1d(range(-50, 51), prefix="g")
    L = make_kernel("tent", {"amplitude": 1.0, "range": 1.0}, space)
    return _build(space, L, "g50", (10, 20, 50))


@pytest.fixture(scope="module")
def exp_run():
    space = grid_1d(range(0, 41))
    L = make_kernel("exponential", {"amplitude": 1.0, "sigma": 1.0}, space)
    return _build(space, L, "x20", (10, 15, 20),
                  profile=exp_profile(1.0, 1.0, delta=1.0, c=1.0), eps=0.3)


@pytest.fixture(scope="module")
def gauss_run():
    space = grid_1d(range(-30, 31), prefix="q")
    L = make_kernel("truncated_gaussian",
                    {"amplitude": 1.0, "sigma": 0.8, "range": 2.0}, space)
    return _build(space, L, "q30", (10, 18, 28), window_layer=10.0)


@pytest.fixture(scope="module")
def wide_exp_run():
    space = grid_1d(range(0, 41))
    L = make_kernel("exponential", {"amplitude": 1.0, "sigma": 3.0}, space)
    return _build(space, L, "x20", (10, 20), window_layer=4.0)


@pytest.fixture(scope="module")
def all_runs(identity_run, exp_run, gauss_run, wide_exp_run):
    return [identity_run, exp_run, gauss_run, wide_exp_run]


@pytest.fixture(scope="module")
def oracle_sweep():
    rng = np.random.default_rng(20260815)
    records = []
    t0 = time.perf_counter()
    for trial in range(200):
        n = int(rng.integers(1, 9))
        m = rng.uniform(size=(n, n))
        m = (m + m.T) / 2.0
        np.fill_diagonal(m, rng.uniform(0.1, 1.0, size=n))
        problem = CompactProblem(tuple(f"p{i}" for i in range(n)), m,
                                 options=SolverOptions(seed=trial))
        records.append((minimize_on_compact(problem), brute_force_minimizer(problem)))
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(records=records, elapsed=elapsed)


def test_solver_matches_exhaustive_oracle(oracle_sweep):
    records = oracle_sweep.records
    within = sum(abs(sol.value - oracle.value) <= 1e-6 for sol, oracle in records)
    never_below = all(sol.value >= oracle.value - 1e-9 for sol, oracle in records)
    ok = (within >= 0.95 * len(records) and never_below
          and oracle_sweep.elapsed <= 60.0)
    _gate(ok, f"multi-start solver matches the oracle on {within}/{len(records)} "
              f"random kernels in {oracle_sweep.elapsed:.1f}s, never below it")


def test_certified_solutions_satisfy_stationarity(oracle_sweep):
    certified = [sol for sol, _ in oracle_sweep.records if sol.certified_global]
    ok = bool(certified) and all(
        sol.kkt.on_support_max <= KKT_TOL and sol.kkt.min_over_k >= -KKT_TOL
        for sol in certified)
    _gate(ok, f"all {len(certified)} certified solutions have on-support "
              f"residual <= {KKT_TOL} and off-support slack >= -{KKT_TOL}")


def test_every_stage_is_normalized(all_runs):
    worst_ell = 0.0
    worst_scale = 0.0
    stages = 0
    for ns in all_runs:
        for stage in ns.run.stages:
            stages += 1
            rep = verify_el(stage.measure, ns.L, stage.stage, tol=STAGE_TOL)
            worst_ell = max(worst_ell, abs(rep.inf_ell), rep.max_abs_on_support)
            worst_scale = max(worst_scale, abs(stage.scale * stage.s_unscaled - 1.0))
    ok = worst_ell <= STAGE_TOL and worst_scale <= SCALE_TOL
    _gate(ok, f"all {stages} stages normalized: max residual {worst_ell:.1e} "
              f"<= {STAGE_TOL}, scale defect {worst_scale:.1e} <= {SCALE_TOL}")


def test_local_mass_bound_on_random_probes(all_runs):
    pool = [(ns, stage) for ns in all_runs for stage in ns.run.stages]
    rng = np.random.default_rng(4050)
    entries = []
    for _ in range(50):
        ns, stage = pool[int(rng.integers(len(pool)))]
        points = np.flatnonzero(stage.stage)
        x = points[int(rng.integers(len(points)))]
        rep = local_mass_bound_check(stage, ns.space, ns.L, [x], radius=1.0,
                                     tol=MASS_TOL)
        entries.extend(rep["entries"])
    violations = [e for e in entries if e.get("skipped") or not e["ok"]]
    _gate(len(entries) == 50 and not violations,
          f"ball mass <= 2/L(x,x) on {len(entries)}/50 random probes, "
          f"{len(violations)} violations")


def test_identity_family_reaches_flat_limit(identity_run):
    run = identity_run.run
    sizes = [int(s.stage.sum()) for s in run.stages]
    on_support = run.limit.weights[run.limit.weights > 0]
    flat = all(abs(w - 1.0) <= FLAT_WEIGHT_TOL for w in on_support)
    rep = verify_el(run.stages[-1].measure, identity_run.L, run.window,
                    tol=WINDOW_EL_TOL)
    ok = (sizes == [21, 41, 101] and flat and run.limit.total() > 0
          and rep.passed and identity_run.elapsed <= 10.0)
    _gate(ok, f"unit-range tent on integer grids {sizes}: limit weights 1 "
              f"to {FLAT_WEIGHT_TOL}, window residual {rep.max_abs_on_support:.1e}, "
              f"{identity_run.elapsed:.2f}s")


def test_compact_range_windows_stabilize(identity_run, gauss_run):
    gaps = {}
    ok = True
    for ns in (identity_run, gauss_run):
        premise = verify_compact_range(ns.L, ns.space, ns.exhaustion)["holds"]
        gap = ns.run.diagnostics["stab_gap"]
        gaps[ns.L.kind] = gap
        ok = ok and premise and gap <= STAB_TOL
    _gate(ok, "compact-range runs stabilize on the window: "
              + ", ".join(f"{k} gap {v:.1e}" for k, v in gaps.items()))


def test_entropy_decay_suite(exp_run):
    space, L, run = exp_run.space, exp_run.L, exp_run.run
    c = diagonal_infimum(L)
    majorant = scaled_exp_profile(2.0 * (1.0 + 2.0 / c), 2.0, 1.0, delta=1.0, c=c)
    cert = verify_entropy_decay(L, space, majorant)
    envelope = exp_profile(1.0, 1.0, delta=1.0, c=c)
    n0 = tail_index(envelope, 0.3)
    rho = run.stages[-1].measure
    tails = [tail_mass(rho, L, space, x, 3.0) for x in np.flatnonzero(run.window)]
    rep = verify_el(rho, L, run.window, tol=DECAY_EL_TOL)
    ok = (cert["holds"] and n0 == 4
          and run.diagnostics["window_layer"] == 4.0
          and max(tails) < 0.3 and rep.passed)
    _gate(ok, f"exponential kernel decays in entropy: tail index {n0}, "
              f"max tail mass {max(tails):.3f} < 0.3, window residual "
              f"{rep.max_abs_on_support:.1e}")


def test_sampled_variations_never_improve(identity_run, exp_run, gauss_run):
    worst = float("inf")
    trials_each = 10_000
    for ns in (identity_run, exp_run, gauss_run):
        window = ns.run.window
        rho = ns.run.stages[-1].measure
        res = test_minimality(rho, ns.L, VariationSampler(window=window, seed=7),
                              trials=trials_each)
        worst = min(worst, res["min_delta_S"])
        assert not res["failures"]
    _gate(worst >= -VARIATION_TOL,
          f"min action change over 3x{trials_each} sampled variations "
          f"is {worst:.1e} >= -{VARIATION_TOL}")


def test_corrupted_weights_yield_witness(identity_run):
    space, L, run = identity_run.space, identity_run.L, identity_run.run
    bad = run.stages[-1].measure.weights.copy()
    bad[space.index["g50"]] *= 2.0
    rho_bad = DiscreteMeasure(space, bad)
    window = run.window
    res = test_minimality(rho_bad, L, VariationSampler(window=window, seed=7),
                          trials=1000)
    found = bool(res["failures"])
    _gate(found and res["min_delta_S"] < -VARIATION_TOL,
          f"doubled interior weight exposed within 1000 trials "
          f"(min action change {res['min_delta_S']:.1e})")


def test_limits_are_nontrivial_with_gamma_bound(all_runs, identity_run, exp_run):
    ok = True
    for ns in all_runs:
        rep = nontriviality_check(ns.run, ns.L, ns.space, tol=NONTRIV_TOL)
        ok = ok and rep["passed"] and rep["limit_total"] > 0.0
    profiles = {
        id(identity_run): exp_profile(9.0, 1.0, delta=1.0, c=1.0),
        id(exp_run): exp_profile(1.0, 1.0, delta=1.0, c=1.0),
    }
    gammas = []
    for ns in (identity_run, exp_run):
        window = ns.run.window
        rep = gamma_lower_bound(ns.run.stages[-1].measure, ns.L, ns.space,
                                profiles[id(ns)], eps=0.5, window=window,
                                tol=NONTRIV_TOL)
        gammas.append(rep)
        ok = ok and rep["passed"] and not rep["refused"]
    _gate(ok, "limits keep mass: range masses >= c_x and epsilon-ball masses "
              + ", ".join(f">= {g['gamma']:.2f} (N0={g['N0']})" for g in gammas))


def test_boundedness_conditions_checker():
    g6 = grid_1d(range(0, 6))
    tent6 = make_kernel("tent", {"amplitude": 1.0, "range": 1.0}, g6)
    rep = check_sufficient_conditions(tent6, g6, delta_cover=1.0)
    quarter = grid_1d([i * 0.25 for i in range(9)], prefix="t")
    tentq = make_kernel("tent", {"amplitude": 1.0, "range": 1.0}, quarter)
    repq = check_sufficient_conditions(tentq, quarter, delta_cover=1.0)
    ok = (rep["holds"] and rep["condition_c"]["N"] == 1
          and rep["implied_bound"] == pytest.approx(2.0)
          and not repq["holds"]
          and repq["condition_a"]["holds"] and repq["condition_b"]["holds"]
          and not repq["condition_c"]["holds"]
          and repq["condition_c"]["witness"] is not None)
    _gate(ok, "boundedness checker: integer tent passes with N=1, "
              "quarter grid fails the range-floor condition")


def test_solve_reports_are_deterministic(tmp_path):
    points = [{"id": f"g{i}", "coords": [float(i)]} for i in range(-12, 13)]
    cfg = {
        "space": {"points": points, "metric": "euclidean"},
        "kernel": {"kind": "tent", "amplitude": 1.0, "range": 1.0},
        "exhaustion": {"center": "g12", "radii": [4, 8, 12]},
        "seed": 3,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    digests = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
        digests.append(hashlib.sha256((out / "run.json").read_bytes()).hexdigest())
    _gate(digests[0] == digests[1],
          f"identical config and seed reproduce report sha256 {digests[0][:12]}")
