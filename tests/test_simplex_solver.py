"""Per-compact quadratic minimization: multi-start solver and oracle."""

import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvp import (
    CompactProblem,
    InputError,
    SolverFailure,
    SolverOptions,
    brute_force_minimizer,
    build_exhaustion,
    grid_1d,
    make_kernel,
    minimize_on_compact,
    run_exhaustion,
)
from cvp import simplex_solver
from cvp.simplex_solver import (
    _CERT_REL,
    CompactSolution,
    _Lanes,
    _bordered_inverse,
    _dnn_bound,
    _lockstep,
    _positive_solutions,
    _residuals,
    _solve_support,
)

import solver_reference

ATOL = 1e-12
KKT_TOL = 1e-8


def problem(matrix, ids=None, **opts):
    m = np.asarray(matrix, float)
    if ids is None:
        ids = tuple(f"p{i}" for i in range(m.shape[0]))
    return CompactProblem(ids=ids, matrix=m, options=SolverOptions(**opts))


def test_two_point_identity():
    sol = minimize_on_compact(problem(np.eye(2)))
    assert np.allclose(sol.weights, [0.5, 0.5], atol=ATOL)
    assert sol.value == pytest.approx(0.5, abs=ATOL)


def test_two_point_coupled():
    sol = minimize_on_compact(problem([[1.0, 0.5], [0.5, 1.0]]))
    assert np.allclose(sol.weights, [0.5, 0.5], atol=ATOL)
    assert sol.value == pytest.approx(0.75, abs=ATOL)
    r = sol.kkt
    assert r.on_support_max <= ATOL
    assert r.min_over_k >= -ATOL


def test_single_point_shortcut():
    # a one-point block is positive definite: its one start, the vertex, is
    # certified by convexity
    for x in (0.37, 1.0, 2.5, 2.5e-7, 1e6):
        sol = minimize_on_compact(problem([[x]], ids=("a",)))
        assert sol.weights.tolist() == [1.0]
        assert sol.value == x
        assert sol.kkt == _residuals(np.array([[x]]), np.ones(1))
        assert sol.certified_global


def test_oracle_identity_three():
    sol = brute_force_minimizer(problem(np.eye(3)))
    assert np.allclose(sol.weights, [1 / 3] * 3, atol=ATOL)
    assert sol.value == pytest.approx(1 / 3, abs=ATOL)
    assert sol.certified_global


def test_oracle_keeps_vertex_candidates():
    # {b} alone fails off-support stationarity yet wins by value against {a};
    # the two-point support beats both
    sol = brute_force_minimizer(problem([[2.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(sol.weights, [1 / 3, 2 / 3], atol=ATOL)
    assert sol.value == pytest.approx(2 / 3, abs=ATOL)


def test_oracle_tie_break_is_lexicographic():
    sol = brute_force_minimizer(problem(np.ones((3, 3)), ids=("a", "b", "c")))
    assert sol.weights.tolist() == [1.0, 0.0, 0.0]
    assert sol.value == pytest.approx(1.0, abs=ATOL)


def _per_subset_oracle(p):
    """The slow reference of ``brute_force_minimizer``: one bordered solve per
    support subset, in bitmask order, keeping every candidate."""
    Lb = p.matrix
    k = len(p.ids)
    off_slack = 1e-10 * max(1.0, float(np.abs(Lb).max()))
    cands = []
    for mask in range(1, 1 << k):
        S = [i for i in range(k) if mask >> i & 1]
        w = np.zeros(k)
        if len(S) == 1:
            w[S[0]] = 1.0
            cands.append((float(Lb[S[0], S[0]]), tuple(S), w))
            continue
        sol = _solve_support(Lb, S)
        if sol is None or sol[0].min() <= 1e-14:
            continue
        w[S] = sol[0]
        w /= w.sum()
        g = Lb @ w
        s = float(w @ g)
        off = np.ones(k, dtype=bool)
        off[S] = False
        if off.any() and float(g[off].min()) < s - off_slack:
            continue
        cands.append((s, tuple(S), w))
    best_val = min(c[0] for c in cands)
    window = simplex_solver._TIE_REL * max(1.0, abs(best_val))
    tied = sorted((c for c in cands if c[0] <= best_val + window), key=lambda c: c[1])
    w = tied[0][2]
    return CompactSolution(weights=w, kkt=_residuals(Lb, w), certified_global=True)


def _assert_same_oracle(got, ref):
    assert np.array_equal(got.weights, ref.weights)
    assert got.kkt == ref.kkt and got.value == ref.value and got.certified_global


@st.composite
def oracle_blocks(draw):
    """1-9 point blocks: random, all ones, rounded to 0.1 (ties) or with a
    duplicated point (singular bordered systems)."""
    k = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["random", "ones", "rounded", "duplicate"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.uniform(0.0, 1.0, (k, k))
    M = (A + A.T) / 2
    np.fill_diagonal(M, rng.uniform(0.1, 1.2, k))
    if kind == "ones":
        M = np.ones((k, k))
    elif kind == "rounded":
        M = np.round(M, 1)
        np.fill_diagonal(M, np.maximum(np.diag(M), 0.1))
    elif kind == "duplicate" and k > 1:
        i, j = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        M[j], M[:, j] = M[i], M[:, i]
    return M


@given(M=oracle_blocks())
@settings(max_examples=200, deadline=None)
def test_chunked_oracle_equals_the_per_subset_loop(M):
    p = problem(M)
    _assert_same_oracle(brute_force_minimizer(p), _per_subset_oracle(p))


def test_oracle_at_the_cap_equals_the_per_subset_loop():
    rng = np.random.default_rng(16)
    A = rng.uniform(0.0, 1.0, (simplex_solver.ORACLE_CAP,) * 2)
    M = (A + A.T) / 2
    np.fill_diagonal(M, rng.uniform(0.2, 1.2, len(M)))
    assert np.linalg.eigvalsh(M)[0] < 0
    p = problem(M)
    _assert_same_oracle(brute_force_minimizer(p), _per_subset_oracle(p))


def test_singular_chunk_falls_back_to_row_solves(monkeypatch):
    M = _indefinite_six()
    calls = []
    solve = simplex_solver._solve_support
    monkeypatch.setattr(simplex_solver, "_solve_support",
                        lambda Lb, S: calls.append(set(S.tolist())) or solve(Lb, S))
    brute_force_minimizer(problem(M))
    assert not calls  # no singular system: every chunk is solved as one stack
    M[4], M[:, 4] = M[1], M[:, 1]  # point 4 duplicates point 1
    p = problem(M)
    got = brute_force_minimizer(p)
    assert any({1, 4} <= S for S in calls)
    monkeypatch.undo()
    _assert_same_oracle(got, _per_subset_oracle(p))


def test_oracle_rejects_large_problems():
    with pytest.raises(InputError, match="capped at 16 points, got 17"):
        brute_force_minimizer(problem(np.eye(17)))


def test_kkt_residuals_exact_minimizer():
    p = problem(np.eye(2))
    r = _residuals(p.matrix, np.array([0.5, 0.5]))
    assert (r.on_support_max, r.min_over_k, r.s_param) == (0.0, 0.0, 0.5)


def test_kkt_residuals_perturbed_weights():
    p = problem(np.eye(2))
    r = _residuals(p.matrix, np.array([0.6, 0.4]))
    assert r.s_param == pytest.approx(0.52, abs=ATOL)
    assert r.on_support_max == pytest.approx(0.12, abs=ATOL)
    assert r.min_over_k == pytest.approx(-0.12, abs=ATOL)


def test_kkt_residuals_vertex_not_minimal():
    p = problem([[1.0, 0.5], [0.5, 1.0]])
    r = _residuals(p.matrix, np.array([1.0, 0.0]))
    assert r.min_over_k == pytest.approx(-0.5, abs=ATOL)


def test_solver_certifies_against_oracle(monkeypatch):
    # not positive definite (eigenvalues 3 and -1), so convexity cannot certify it
    calls = []

    def oracle(p):
        calls.append(p)
        return brute_force_minimizer(p)

    monkeypatch.setattr(simplex_solver, "brute_force_minimizer", oracle)
    sol = minimize_on_compact(problem([[1.0, 2.0], [2.0, 1.0]]))
    assert len(calls) == 1
    assert sol.certified_global
    assert sol.value == pytest.approx(1.0, abs=1e-10)


def _indefinite_six():
    rng = np.random.default_rng(5)
    A = rng.uniform(0, 1, (6, 6))
    M = (A + A.T) / 2
    np.fill_diagonal(M, rng.uniform(0.5, 1.5, 6))
    return M


def test_unreachable_tolerance_raises_with_best():
    with pytest.raises(SolverFailure) as exc:
        minimize_on_compact(problem(_indefinite_six(), tol=1e-300))
    err = exc.value
    assert (f"19 starts tried, 0 hit the iteration cap of {simplex_solver._MAX_ITER}, "
            "19 ended above the tolerance") in str(err)
    assert err.best_weights is not None
    assert err.best_value is not None
    assert err.residuals.on_support_max < 1e-8


def test_iteration_cap_fails_the_start(monkeypatch):
    monkeypatch.setattr(simplex_solver, "_MAX_ITER", 1)
    with pytest.raises(SolverFailure) as exc:
        minimize_on_compact(problem(_indefinite_six()))
    err = exc.value
    assert ("19 starts tried, 19 hit the iteration cap of 1, 0 ended above the tolerance"
            in str(err))
    assert err.best_weights is None and err.residuals is None


def _count_starts(mp):
    """Record the starts of every ``_lockstep`` run of the solver."""
    starts = []
    lockstep = simplex_solver._lockstep

    def counted(Lb, batch, *args):
        starts.extend(np.array(w0) for w0 in batch)
        return lockstep(Lb, batch, *args)

    mp.setattr(simplex_solver, "_lockstep", counted)
    return starts


def _actions_of(actions, start):
    """The actions one start of a ``_lockstep`` run took, pass by pass."""
    return [float(v[lanes == start][0]) for lanes, v in actions if (lanes == start).any()]


def _no_oracle(problem):
    raise AssertionError("the oracle ran on a positive definite block")


def _kernel_block(kind, params, coords):
    grid = grid_1d(coords)
    return problem(make_kernel(kind, params, grid).matrix, ids=grid.ids)


@pytest.mark.parametrize("p", [
    _kernel_block("tent", {"amplitude": 1.0, "range": 1.0}, range(401)),
    _kernel_block("exponential", {"amplitude": 1.0, "sigma": 1.0}, range(20)),
    _kernel_block("exponential", {"amplitude": 1.0, "sigma": 2.0}, range(6)),
], ids=["tent-401", "exp-20", "exp-6"])
def test_positive_definite_block_takes_one_start_and_convexity(monkeypatch, p):
    starts = _count_starts(monkeypatch)
    monkeypatch.setattr(simplex_solver, "brute_force_minimizer", _no_oracle)
    k = len(p.ids)
    sol = minimize_on_compact(p, extra_starts=[np.eye(k)[0]])
    assert len(starts) == 1 and np.array_equal(starts[0], np.full(k, 1.0 / k))
    assert sol.certified_global
    assert sol.kkt.on_support_max <= KKT_TOL and sol.kkt.min_over_k >= -KKT_TOL


def test_indefinite_block_takes_every_start_and_the_oracle(monkeypatch):
    starts = _count_starts(monkeypatch)
    oracle_calls = []
    oracle = simplex_solver.brute_force_minimizer
    monkeypatch.setattr(simplex_solver, "brute_force_minimizer",
                        lambda p: oracle_calls.append(p) or oracle(p))
    sol = minimize_on_compact(problem(_indefinite_six()))
    assert len(starts) == 19 and len(oracle_calls) == 1
    assert sol.certified_global


def _nineteen_start_loop(p):
    """The weights chosen by the solver's loop when it also ran the first
    vertex a second time, as the minimum-diagonal vertex of a constant diagonal."""
    Lb, k, opts = p.matrix, len(p.ids), p.options
    rng = np.random.default_rng(np.random.SeedSequence([opts.seed, k]))
    starts = [np.full(k, 1.0 / k), np.eye(k)[0], np.eye(k)[0],
              *(rng.dirichlet(np.ones(k)) for _ in range(simplex_solver._RESTARTS))]
    atol = 1e-12 * max(1.0, float(np.abs(Lb).max()))
    accepted = []
    for w in _lockstep(Lb, starts, atol)[0]:
        kkt = _residuals(Lb, w)
        if kkt.on_support_max <= opts.tol and kkt.min_over_k >= -opts.tol:
            accepted.append((kkt.s_param, tuple(np.flatnonzero(w > 0).tolist()), w))
    return simplex_solver._select_best(accepted)[2]


@pytest.mark.parametrize("seed", [0, 49])
def test_constant_diagonal_runs_the_first_vertex_once(monkeypatch, seed):
    # a quarter-grid truncated Gaussian block: indefinite, with a constant diagonal
    p = _kernel_block("truncated_gaussian", {"amplitude": 1.0, "sigma": 0.8, "range": 2.0},
                      [i * 0.25 for i in range(25)])
    p = problem(p.matrix, seed=seed)
    assert np.ptp(np.diag(p.matrix)) == 0 and np.linalg.eigvalsh(p.matrix)[0] < 0
    starts = _count_starts(monkeypatch)
    sol = minimize_on_compact(p)
    assert len(starts) == 18
    assert sum(np.array_equal(s, np.eye(25)[0]) for s in starts) == 1
    assert np.array_equal(sol.weights, _nineteen_start_loop(p))


@given(points=st.lists(st.integers(0, 200), min_size=2, max_size=12, unique=True),
       sigma=st.floats(0.5, 2.0))
@settings(max_examples=40, deadline=None)
def test_convexity_certificate_agrees_with_the_oracle(points, sigma):
    # the exponential kernel is positive definite on distinct points
    p = _kernel_block("exponential", {"amplitude": 1.0, "sigma": sigma},
                      [0.05 * x for x in points])
    with pytest.MonkeyPatch.context() as mp:
        starts = _count_starts(mp)
        mp.setattr(simplex_solver, "brute_force_minimizer", _no_oracle)
        sol = minimize_on_compact(p)
    assert len(starts) == 1 and sol.certified_global
    assert sol.value == pytest.approx(brute_force_minimizer(p).value, rel=1e-9, abs=0)


@pytest.mark.parametrize("seed", [1555, 3799])
def test_oracle_certificate_fails_where_the_starts_miss(seed):
    # indefinite blocks on which none of the 19 starts reaches the global minimum
    p = problem(random_instance(seed), seed=seed)
    sol = minimize_on_compact(p)
    oracle = brute_force_minimizer(p).value
    assert sol.value > oracle + _CERT_REL
    assert not sol.certified_global
    # the DNN bound refuses the starts' value too, and certifies the oracle's
    window = 0.5 * _CERT_REL * max(1.0, abs(sol.value))
    assert sol.value - _dnn_bound(p.matrix, sol.value) > window
    assert oracle - _dnn_bound(p.matrix, oracle) <= window


def random_instance(seed, kmax=8):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, kmax + 1))
    A = rng.uniform(0.0, 1.0, (k, k))
    M = (A + A.T) / 2
    np.fill_diagonal(M, rng.uniform(0.2, 1.2, k))
    return M


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_solution_is_a_probability_vector(seed):
    M = random_instance(seed)
    sol = minimize_on_compact(problem(M, seed=seed))
    assert abs(sol.weights.sum() - 1.0) <= ATOL
    assert (sol.weights >= 0).all()
    # the value really is the attained action
    assert sol.value == pytest.approx(float(sol.weights @ M @ sol.weights), abs=ATOL)


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_solver_never_beats_the_oracle(seed):
    p = problem(random_instance(seed), seed=seed)
    sol = minimize_on_compact(p)
    oracle = brute_force_minimizer(p).value
    assert sol.value >= oracle - 1e-9
    # the starts may miss the global minimum, but then it is reported uncertified
    assert sol.certified_global == (sol.value <= oracle + _CERT_REL * max(1.0, abs(oracle)))


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_certified_solutions_satisfy_stationarity(seed):
    p = problem(random_instance(seed), seed=seed)
    r = minimize_on_compact(p).kkt
    assert r.on_support_max <= KKT_TOL
    assert r.min_over_k >= -KKT_TOL


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_every_start_descends_to_a_kkt_point(seed):
    # indefinite blocks: small diagonals against off-diagonal entries up to 1
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 11))
    A = rng.uniform(0.0, 1.0, (k, k))
    M = (A + A.T) / 2
    np.fill_diagonal(M, rng.uniform(0.05, 1.2, k))
    scale = max(1.0, float(M.max()))
    oracle = brute_force_minimizer(problem(M)).value
    starts = [np.full(k, 1.0 / k), *np.eye(k), *rng.dirichlet(np.ones(k), size=4)]
    ends, _, actions = _lockstep(M, starts, 1e-12 * scale)
    for q, w in enumerate(ends):
        r = _residuals(M, w)
        assert r.on_support_max <= 1e-12 * scale and r.min_over_k >= -1e-12 * scale
        assert r.s_param >= oracle - 1e-12 * scale
        assert (np.diff(_actions_of(actions, q)) <= 1e-15 * scale).all()


def test_quarter_gauss_33_block_solves():
    # L_SS has three negative eigenvalues on the optimal support: an add/drop
    # loop that block-adds violated points with no ratio test cycles here
    p = _kernel_block("truncated_gaussian", {"amplitude": 1.0, "sigma": 0.8, "range": 2.0},
                      [i * 0.25 for i in range(33)])
    sol = minimize_on_compact(p)
    assert sol.kkt.on_support_max <= 1e-12 and sol.kkt.min_over_k >= -1e-12
    assert sol.value == pytest.approx(0.151531003960607, abs=1e-12)


_QUARTER = ("truncated_gaussian", {"amplitude": 1.0, "sigma": 0.8, "range": 2.0})


def test_quarter_gauss_121_stages_solve():
    # the 61- and 121-point stages of the 0.25 grid: the longest active-set
    # runs of the quarter-grid blocks, about 150 iterations a start
    grid = grid_1d([i * 0.25 for i in range(121)])
    L = make_kernel(*_QUARTER, grid)
    run = run_exhaustion(grid, L, build_exhaustion(grid, 60, (7.5, 15.0)))
    inner, outer = run.stages
    assert (inner.stage.sum(), outer.stage.sum()) == (61, 121)
    assert inner.s_unscaled == pytest.approx(0.0866730842223228, abs=1e-12)
    assert outer.s_unscaled == pytest.approx(0.0452079606616394, abs=1e-12)
    assert outer.measure.support.sum() == 46
    for stage in run.stages:
        assert stage.kkt.on_support_max <= 1e-12 and stage.kkt.min_over_k >= -1e-12


@pytest.mark.parametrize("n", [13, 15])
def test_quarter_blocks_are_certified_by_the_dnn_bound(monkeypatch, n):
    # indefinite quarter-grid blocks at or above _DNN_MIN: the bound certifies
    # them alone, and the solution is the one certified by the oracle
    p = _kernel_block(*_QUARTER, [i * 0.25 for i in range(n)])
    assert np.linalg.eigvalsh(p.matrix)[0] < 0 and n >= simplex_solver._DNN_MIN
    calls = []
    oracle = simplex_solver.brute_force_minimizer
    monkeypatch.setattr(simplex_solver, "brute_force_minimizer",
                        lambda q: calls.append(q) or oracle(q))
    sol = minimize_on_compact(p)
    assert sol.certified_global and not calls
    monkeypatch.setattr(simplex_solver, "_dnn_bound", lambda Lb, s: -np.inf)
    ref = minimize_on_compact(p)
    assert len(calls) == 1 and ref.certified_global
    assert np.array_equal(sol.weights, ref.weights) and sol.kkt == ref.kkt


def _count_factorizations(mp):
    """Count the fresh bordered solves and inverses of the solver."""
    counts = {"solves": 0, "inverses": 0}
    solve, inverse = simplex_solver._solve_support, simplex_solver._bordered_inverse

    def counted(key, f):
        def call(*args):
            counts[key] += 1
            return f(*args)
        return call

    mp.setattr(simplex_solver, "_solve_support", counted("solves", solve))
    mp.setattr(simplex_solver, "_bordered_inverse", counted("inverses", inverse))
    return counts


def test_quarter_start_updates_the_inverse(monkeypatch):
    # the first Dirichlet start of the 121-point block: each of its supports
    # differs from the last by one point, and the inverse follows them
    p = _kernel_block(*_QUARTER, [i * 0.25 for i in range(121)])
    w0 = np.random.default_rng(np.random.SeedSequence([0, 121])).dirichlet(np.ones(121))
    counts = _count_factorizations(monkeypatch)
    (w,), (iterations,), _ = _lockstep(p.matrix, [w0], 1e-12)
    assert iterations > 100
    # an inverse at the first change of support and after each drift, a solve
    # for the first target, after each drift and for the final weights
    assert counts["inverses"] <= 3 and counts["solves"] <= 4
    r = _residuals(p.matrix, w)
    assert r.on_support_max <= 1e-12 and r.min_over_k >= -1e-12


def test_quarter_lanes_end_as_each_start_alone(monkeypatch):
    # on the 121-point block the 18 starts run as one batch; each ends as it
    # does in a batch of its own, to the last bit and in as many iterations,
    # and the solution is the one of the per-start path
    p = _kernel_block(*_QUARTER, [i * 0.25 for i in range(121)])
    with pytest.MonkeyPatch.context() as mp:
        counts = _count_factorizations(mp)
        starts = _count_starts(mp)
        sol = minimize_on_compact(p)
    assert len(starts) == 18
    ends, iterations, actions = _lockstep(p.matrix, starts, 1e-12)
    for q, w0 in enumerate(starts):
        (alone,), (steps,), alone_actions = _lockstep(p.matrix, [w0], 1e-12)
        assert alone.tobytes() == ends[q].tobytes() and steps == iterations[q]
        assert _actions_of(actions, q) == _actions_of(alone_actions, 0)
    ref = solver_reference.minimize_on_compact(p)
    assert np.array_equal(sol.weights, ref.weights) and sol.kkt == ref.kkt
    # the dense starts downdate one inverse of the full support: 38 inverses
    # were formed when each formed its own on 120 points
    assert counts["inverses"] < 38


@pytest.mark.parametrize("p, choleskys, solves", [
    # the tent block is the identity, certified by diagonal dominance, and
    # its uniform start is exactly stationary: it takes no solve. The
    # exponential one is not dominant (row sums near 2.16 against 1) and is
    # factored, and its start moves, so its first solve gives the final weights
    pytest.param(_kernel_block("tent", {"amplitude": 1.0, "range": 1.0}, range(401)), 0, 0,
                 id="tent-401"),
    pytest.param(_kernel_block("exponential", {"amplitude": 1.0, "sigma": 1.0}, range(161)),
                 1, 1, id="exp-161"),
])
def test_positive_definite_start_forms_no_inverse(monkeypatch, p, choleskys, solves):
    counts = _count_factorizations(monkeypatch)
    factored, lapack = [], []
    cholesky, solve = np.linalg.cholesky, np.linalg.solve
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(a) or cholesky(a))
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: lapack.append(a) or solve(a, b))
    sol = minimize_on_compact(p)
    assert len(factored) == choleskys and len(lapack) == solves
    # the start never leaves the full support
    assert counts["inverses"] == 0 and counts["solves"] == solves
    assert sol.certified_global and (sol.weights > 0).all()
    final = simplex_solver._final_weights
    monkeypatch.setattr(simplex_solver, "_final_weights",
                        lambda Lb, w, g, solved: final(Lb, w, None, {}))
    resolved = minimize_on_compact(p)  # the final support solved again: the same bits
    assert resolved.weights.tobytes() == sol.weights.tobytes() and resolved.kkt == sol.kkt


@st.composite
def _stationary_blocks(draw):
    """A positive definite block whose uniform start is its minimizer in exact
    arithmetic: c I, kron(I_m, B) with B = [[a, b], [b, a]] and 0 <= b <=
    0.9 a, or the unit tent on an integer grid of drawn size, the identity."""
    kind = draw(st.sampled_from(["scaled", "pairs", "tent"]))
    c = 10.0 ** draw(st.floats(-3.0, 3.0))
    if kind == "scaled":
        return c * np.eye(draw(st.integers(1, 300)))
    if kind == "pairs":
        b = c * draw(st.floats(0.0, 0.9))
        return np.kron(np.eye(draw(st.integers(1, 150))), [[c, b], [b, c]])
    return _kernel_block("tent", {"amplitude": 1.0, "range": 1.0},
                         range(draw(st.integers(1, 401)))).matrix


def _kkt_error(r):
    return max(r.on_support_max, -r.min_over_k)


@given(M=_stationary_blocks())
@settings(max_examples=60, deadline=None)
def test_an_exactly_stationary_start_takes_no_solve(M):
    # the uniform start stops where it began. Where L w is constant to the
    # last bit, as on c I and the tent always, its weights are returned
    # without a solve; on a kron block the two products of a row may round
    # in either order under a fused multiply-add (about one block in seven),
    # and the one solve is made. Unsolved, the weights are uniform and within
    # (k + 1) eps of 1/k, where the LU path's are off by up to 5e4 eps on
    # these blocks, and the KKT residuals are no worse than the LU path's
    # beyond the rounding of s = w'Lw, a k-term dot product
    k = len(M)
    g = simplex_solver._rowprod(M, np.full((1, k), 1.0 / k))[0]  # as the lane forms it
    exact = g.min() == g.max()
    assert exact or np.count_nonzero(M) > k
    with pytest.MonkeyPatch.context() as mp:
        counts = _count_factorizations(mp)
        sol = minimize_on_compact(problem(M))
        assert counts == {"solves": 0 if exact else 1, "inverses": 0}
        final = simplex_solver._final_weights
        mp.setattr(simplex_solver, "_final_weights",
                   lambda Lb, w, g, solved: final(Lb, w, None, {}))
        lu = minimize_on_compact(problem(M))
    assert sol.certified_global and lu.certified_global
    if not exact:
        assert sol.weights.tobytes() == lu.weights.tobytes() and sol.kkt == lu.kkt
        return
    w = sol.weights
    eps = np.finfo(float).eps
    assert (w == w[0]).all() and abs(w[0] * k - 1.0) <= (k + 1) * eps
    assert _kkt_error(sol.kkt) <= max(_kkt_error(lu.kkt), k * eps * sol.value)


def test_a_start_stationary_within_the_tolerance_is_solved(monkeypatch):
    # the identity with one off-diagonal pair at 1e-15: L w of the uniform
    # start is 1e-15 / k higher at the pair, within the stopping tolerance
    # but not to the last bit, so the start stops where it began and its
    # final weights are solved
    k = 101
    M = np.eye(k)
    M[3, 7] = M[7, 3] = 1e-15
    counts = _count_factorizations(monkeypatch)
    (w,), (steps,), _ = _lockstep(M, [np.full(k, 1.0 / k)], 1e-12)
    assert steps == 1 and counts == {"solves": 1, "inverses": 0}
    t = _solve_support(M, np.arange(k))[0]
    assert w.tobytes() == (t / t.sum()).tobytes()


def _margin_block(k, rng, ulps, margin=None):
    """A nonnegative symmetric block whose every row sum lies within ``ulps``
    (per row, in ulps of the diagonal) of (2 - margin eps) times the
    diagonal: by default the bound of ``_dominant``, margin 2(k+1)^2, and at
    margin 0 where strict dominance ends. Off the diagonal, entries spread
    over six decades, so the diagonal does too."""
    M = rng.uniform(0.0, 1.0, (k, k)) * 10.0 ** rng.uniform(-3.0, 3.0, (k, k))
    M = (M + M.T) / 2
    np.fill_diagonal(M, 0.0)
    if margin is None:
        margin = 2 * (k + 1) ** 2
    d = M.sum(axis=1) / (1.0 - margin * np.finfo(float).eps)
    np.fill_diagonal(M, d + ulps * np.spacing(d))
    return M


@st.composite
def _dominance_blocks(draw):
    """Blocks strictly diagonally dominant; near the bound of ``_dominant``,
    near the end of strict dominance or anywhere between, to within a few
    ulps; or not dominant (some still positive definite)."""
    k = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["dominant", "margin", "tie", "between", "not dominant"]))
    if kind in ("margin", "tie", "between"):
        margin = {"margin": None, "tie": 0,
                  "between": draw(st.integers(0, 2 * (k + 1) ** 2))}[kind]
        # one offset for every row, or one per row
        ulps = draw(st.one_of(st.integers(-8, 8), st.just(rng.integers(-8, 9, k))))
        return _margin_block(k, rng, ulps, margin)
    M = _margin_block(k, rng, 0)
    low, high = (1.0 + 1e-9, 3.0) if kind == "dominant" else (0.2, 1.0)
    np.fill_diagonal(M, np.diag(M) * rng.uniform(low, high, k))
    return M


def _exactly_dominant(M) -> bool:
    """Whether every off-diagonal row sum is below (1 - 2k(k+1)u) times the
    diagonal in rational arithmetic, u = 2^-53: the margin ``_dominant``
    claims, which puts the block within Demmel's condition for Cholesky."""
    k = len(M)
    c = Fraction(2 * k * (k + 1), 2 ** 53)
    return all(sum(map(Fraction, row[:i] + row[i + 1:])) < (1 - c) * Fraction(row[i])
               for i, row in enumerate(M.tolist()))


@given(M=_dominance_blocks())
@settings(max_examples=400, deadline=None)
def test_dominance_passes_only_blocks_that_cholesky_factors(M):
    if simplex_solver._dominant(M):
        assert _exactly_dominant(M)
        np.linalg.cholesky(M)  # raises LinAlgError on a block it cannot factor


def test_margin_blocks_fall_on_both_sides_of_the_dominance_test():
    rng = np.random.default_rng(0)
    for k in (2, 12, 50):
        passed = [simplex_solver._dominant(_margin_block(k, rng, ulps))
                  for ulps in (-8, 8) for _ in range(10)]
        assert any(passed) and not all(passed)


def _solve_outcome(p):
    try:
        sol = minimize_on_compact(p)
    except SolverFailure as exc:
        return str(exc)
    return sol.weights.tobytes(), sol.kkt, sol.certified_global


@given(M=_dominance_blocks())
@settings(max_examples=60, deadline=None)
def test_dominance_solves_as_the_factorization_alone(M):
    p = problem(M)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex_solver, "_dominant", lambda Lb: False)
        reference = _solve_outcome(p)
    assert _solve_outcome(p) == reference


def _bordered(Lb, sup):
    A = np.zeros((len(sup) + 1,) * 2)
    A[0, 1:] = A[1:, 0] = 1.0
    A[1:, 1:] = Lb[np.ix_(sup, sup)]
    return A


def _block(kind, k, rng):
    """A block of ``k`` points of ``kind`` drawn from ``rng``: indefinite,
    indefinite with a duplicated point or with a constant diagonal, a low-rank
    Gram matrix plus 1e-9 I, or the quarter-grid truncated Gaussian on random
    points."""
    if kind == "low-rank":
        B = rng.uniform(0.0, 1.0, (k, int(rng.integers(1, k + 1))))
        return B @ B.T + 1e-9 * np.eye(k)
    if kind == "gaussian":
        return _kernel_block(*_QUARTER, np.sort(rng.uniform(0.0, 0.25 * k, k))).matrix
    A = rng.uniform(0.0, 1.0, (k, k))
    M = (A + A.T) / 2
    np.fill_diagonal(M, rng.uniform(0.05, 1.2, k))
    if kind == "duplicate":
        i, j = rng.choice(k, 2, replace=False)
        M[j], M[:, j] = M[i], M[:, i]
    elif kind == "constant-diagonal":
        np.fill_diagonal(M, rng.uniform(0.05, 1.2))
    return M


@st.composite
def random_blocks(draw, kinds, kmax=40, kmin=2):
    """A block of ``kmin`` to ``kmax`` points of one of ``kinds`` (``_block``),
    and the generator that drew it."""
    k = draw(st.integers(kmin, kmax))
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return _block(kind, k, rng), rng


@pytest.mark.parametrize("M, w", [
    # the ratio test ties between mirror points 1 and 2
    ([[4, 4, 4, 8], [4, 3, 6, 4], [4, 6, 3, 4], [8, 4, 4, 4]], [0, 0, 1, 0]),
    # the most violated point ties between mirror points 0 and 4
    ([[6, 6, 3, 6, 8], [6, 5, 4, 6, 6], [3, 4, 6, 4, 3], [6, 6, 4, 5, 6], [8, 6, 3, 6, 6]],
     [0.5, 0, 0.5, 0, 0]),
], ids=["drop", "add"])
def test_exact_ties_go_to_the_lowest_index(M, w):
    # mirror-symmetric blocks from the uniform start tie exactly, and the
    # lane takes the lowest point index, as the per-start path does
    M = np.array(M, dtype=float)
    w0 = np.full(len(M), 1.0 / len(M))
    (got,), _, _ = _lockstep(M, [w0], 1e-12)
    ref, _ = solver_reference._active_set(M, w0, 1e-12)
    assert np.allclose(got, w, atol=1e-12) and np.array_equal(got, ref)


def _matrix(inv, lane):
    """A lane's inverse in ``_Lanes`` with its pending terms added in."""
    V = inv.terms[lane]
    return inv.base[inv.slot[lane]] + (V.T * inv.coef[lane]) @ V


@given(case=random_blocks(["indefinite", "duplicate", "low-rank"]))
@settings(max_examples=150, deadline=None)
def test_bordered_inverse_follows_adds_and_drops(case):
    _follows_adds_and_drops(*case)


@pytest.mark.parametrize("seed, k", [(1918, 21), (5671, 33)])
def test_bordered_inverse_follows_twin_blocks(seed, k):
    # blocks with one twin pair on which a lane holding both twins read a
    # target past the bound from a fresh solve: on that singular support
    # neither is unique. A later twin never joins a support, as in _lockstep
    rng = np.random.default_rng(seed)
    _follows_adds_and_drops(_block("duplicate", k, rng), rng)


def _follows_adds_and_drops(M, rng):
    # each lane's inverse agrees with a fresh solve to rounding amplified by
    # the worst conditioning met since it was last formed, or it is formed
    # afresh; the rows and columns of points off its support stay exactly 0.
    # Three lanes change their supports at once, the adds and the drops each
    # as one update, and a later twin never joins, as in _lockstep. 2 x _FOLD
    # + 8 updates fold the pending terms into the matrices, unless one keeps
    # being formed afresh
    k = len(M)
    n = 3
    on = rng.random((n, k)) < 0.5
    on[np.arange(n), rng.integers(k, size=n)] = True
    on, later = simplex_solver._fold_twins(M, on)
    on = on > 0
    if np.count_nonzero(~later) < 2:  # one distinct point: no add or drop
        return
    inv = _Lanes(M, on / on.sum(axis=1, keepdims=True))
    for lane in range(n):
        sup = np.flatnonzero(on[lane])
        inv.form(lane, sup, _bordered_inverse(M, sup))
    cond = [np.linalg.cond(_bordered(M, np.flatnonzero(row))) for row in on]
    for _ in range(2 * simplex_solver._FOLD + 8):
        j = np.empty(n, dtype=np.intp)
        for lane, row in enumerate(on):
            sup = np.flatnonzero(row)
            if len(sup) > 1 and (len(sup) == np.count_nonzero(~later) or rng.random() < 0.5):
                j[lane] = rng.choice(sup)
            else:
                j[lane] = rng.choice(np.flatnonzero(~row & ~later))
        joined = ~on[np.arange(n), j]
        on[np.arange(n), j] = joined
        for group in (joined, ~joined):
            if group.any():
                inv.update(np.flatnonzero(group), j[group], bool(joined[group][0]))
        col = inv.column0() if inv.has.any() else None
        for lane in range(n):
            sup = np.flatnonzero(on[lane])
            c = np.linalg.cond(_bordered(M, sup))
            formed = not inv.has[lane] or inv.count[lane] == 0
            cond[lane] = c if formed else max(cond[lane], c)
            if not inv.has[lane]:
                continue
            P = _matrix(inv, lane)
            off = 1 + np.flatnonzero(~on[lane])
            assert not P[off].any() and not P[:, off].any() and not col[lane, off].any()
            ref = _solve_support(M, sup)
            if formed or ref is None:
                continue
            target, mult = col[lane, 1:][sup], -col[lane, 0]
            err = max(float(np.abs(target - ref[0]).max()), abs(mult - ref[1]))
            scale = max(1.0, float(np.abs(ref[0]).max()), abs(ref[1]))
            assert err <= 1e-13 * cond[lane] ** 2 * scale


# a duplicated point gives its weight to its first twin, which alone joins a support
@given(case=random_blocks(["indefinite", "duplicate", "low-rank", "gaussian"]))
@settings(max_examples=60, deadline=None)
def test_active_set_ends_where_solving_every_step_ends(case):
    # the reference solves every target afresh, as the method did before it
    # kept the bordered inverse
    M, rng = case
    k = len(M)
    scale = max(1.0, float(np.abs(M).max()))
    starts = [np.full(k, 1.0 / k), np.eye(k)[0], *rng.dirichlet(np.ones(k), 2)]
    ends, _, _ = _lockstep(M, starts, 1e-12 * scale)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex_solver, "_bordered_inverse", lambda Lb, sup: None)
        refs, _, _ = _lockstep(M, starts, 1e-12 * scale)
    for w, ref in zip(ends, refs):
        assert w is not None and np.array_equal(w, ref)


@pytest.mark.parametrize("n, seed", [(25, 0), (33, 0), (49, 49), (121, 0)])
def test_quarter_blocks_end_where_solving_every_step_ends(n, seed):
    # the benchmark's quarter-grid blocks, the 49-point one at its solver
    # seed: the updated inverse gives the solution of fresh solves, bit for bit
    p = problem(_kernel_block(*_QUARTER, [i * 0.25 for i in range(n)]).matrix, seed=seed)
    sol = minimize_on_compact(p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex_solver, "_bordered_inverse", lambda Lb, sup: None)
        ref = minimize_on_compact(p)
    assert sol.weights.tobytes() == ref.weights.tobytes() and sol.kkt == ref.kkt


@given(case=random_blocks(["indefinite", "constant-diagonal", "duplicate", "low-rank",
                           "gaussian"]))
@settings(max_examples=100, deadline=None)
def test_shared_cache_is_exact(case):
    # the lanes of a batch share curvature directions, direct solves and the
    # full support's bordered inverse, and take their products and
    # reductions row by row: each lane ends as it does alone, in a batch of
    # its own, to the last bit and after the same iterations and actions
    M, rng = case
    k = len(M)
    atol = 1e-12 * max(1.0, float(np.abs(M).max()))
    starts = [np.full(k, 1.0 / k), np.eye(k)[0], *rng.dirichlet(np.ones(k), 6)]
    ends, iterations, actions = _lockstep(M, starts, atol)
    for q, w0 in enumerate(starts):
        (alone,), (steps,), alone_actions = _lockstep(M, [w0], atol)
        assert alone is not None and ends[q] is not None
        assert alone.tobytes() == ends[q].tobytes() and steps == iterations[q]
        assert _actions_of(actions, q) == _actions_of(alone_actions, 0)


def _twin_block(seed):
    """A block of 8 to 40 points with one exact twin pair, drawn from ``seed``
    as ``_block`` draws a duplicate one, and its uniform, first-vertex and six
    Dirichlet starts."""
    rng = np.random.default_rng(seed)
    M = _block("duplicate", int(rng.integers(8, 41)), rng)
    k = len(M)
    return M, [np.full(k, 1.0 / k), np.eye(k)[0], *rng.dirichlet(np.ones(k), 6)]


@pytest.mark.parametrize("seed, twins", [(2770, (1, 8)), (453, (2, 5))])
def test_every_lane_ends_on_a_twin_block(seed, twins):
    # the twins' kernel rows are equal. A lane whose support held both solved
    # a singular bordered system, whose target was rounding along their
    # difference, and re-added and dropped one point with steps of length 0
    # until the cap: the uniform lane of the 16-point block and lane 4 of the
    # 32-point one. Each lane ends, with no weight on the later twin, as the
    # per-start path ends, to the last bit
    M, starts = _twin_block(seed)
    i, j = twins
    assert np.array_equal(M[i], M[j]) and np.linalg.eigvalsh(M)[0] < 0
    atol = 1e-12 * max(1.0, float(np.abs(M).max()))
    ends, iterations, _ = _lockstep(M, starts, atol)
    for w0, w, steps in zip(starts, ends, iterations):
        ref, _ = solver_reference._active_set(M, w0, atol)
        assert w is not None and steps <= 2 * len(M) and w[j] == 0.0
        assert w.tobytes() == ref.tobytes()
    sol = minimize_on_compact(problem(M))
    assert sol.kkt.on_support_max <= atol and sol.kkt.min_over_k >= -atol


@st.composite
def twin_blocks(draw):
    """An indefinite block of 3 to 40 points (``_block``) in which one to three
    points take another's kernel row, and the generator that drew it."""
    k = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    M = _block("indefinite", k, rng)
    for _ in range(draw(st.integers(1, 3))):
        i, j = rng.choice(k, 2, replace=False)
        M[j], M[:, j] = M[i], M[:, i]
    return M, rng


@given(case=twin_blocks())
@settings(max_examples=60, deadline=None)
def test_lanes_end_on_twin_blocks(case):
    # the Dirichlet starts begin on the full support, every twin on it: each
    # lane ends far below the cap at a KKT point, with no weight on a later
    # twin, and its action never rises
    M, rng = case
    k = len(M)
    later = simplex_solver._fold_twins(M, np.ones(k))[1]
    assert later.any()
    scale = max(1.0, float(np.abs(M).max()))
    starts = [np.full(k, 1.0 / k), *rng.dirichlet(np.ones(k), 6)]
    ends, iterations, actions = _lockstep(M, starts, 1e-12 * scale)
    for q, (w, steps) in enumerate(zip(ends, iterations)):
        assert w is not None and steps <= 5 * k and not w[later].any()
        r = _residuals(M, w)
        assert r.on_support_max <= 1e-12 * scale and r.min_over_k >= -1e-12 * scale
        assert (np.diff(_actions_of(actions, q)) <= 1e-15 * scale).all()


def test_convex_tent_block_from_the_uniform_start():
    p = _kernel_block("tent", {"amplitude": 1.0, "range": 2.0}, [i * 0.25 for i in range(101)])
    assert np.linalg.eigvalsh(p.matrix)[0] > 0
    (w,), _, actions = _lockstep(p.matrix, [np.full(101, 1.0 / 101)], 1e-12)
    r = _residuals(p.matrix, w)
    assert r.on_support_max <= 1e-12 and r.min_over_k >= -1e-12
    assert (np.diff(_actions_of(actions, 0)) <= 1e-15).all()
    assert r.s_param == pytest.approx(minimize_on_compact(p).value, abs=1e-12)


_x = np.linspace(0.0, 1.0, 12)
_ties = np.ones((10, 10))
_ties[:5, :5] = 2.0
_low_rank = np.random.default_rng(3).uniform(0.0, 1.0, (12, 3))


@pytest.mark.parametrize("M", [
    np.full((6, 6), 0.7),
    _ties,
    np.kron([[1.0, 0.3], [0.3, 1.0]], np.ones((4, 4))),
    _low_rank @ _low_rank.T + 1e-9 * np.eye(12),
    np.exp(-(_x[:, None] - _x[None, :]) ** 2 / 2.0),
], ids=["constant", "tied-blocks", "duplicate-points", "low-rank", "wide-gaussian"])
def test_singular_blocks_descend_to_a_kkt_point(M):
    # singular bordered systems take null directions
    k = len(M)
    oracle = brute_force_minimizer(problem(M)).value
    starts = [np.full(k, 1.0 / k), *np.eye(k), *np.random.default_rng(0).dirichlet(np.ones(k), 4)]
    ends, _, actions = _lockstep(M, starts, 1e-12)
    for q, w in enumerate(ends):
        r = _residuals(M, w)
        assert r.on_support_max <= 1e-12 and r.min_over_k >= -1e-12
        assert r.s_param >= oracle - 1e-12
        assert (np.diff(_actions_of(actions, q)) <= 1e-15).all()


def test_quarter_stages_decompose_each_support_once(monkeypatch):
    # every start of a block that is not positive definite asks for the
    # curvature of the block's full support, and many reach supports that an
    # earlier start reached: each support's balanced form is decomposed once
    supports, eighs = [], []
    curvature, eigh = simplex_solver._curvature, np.linalg.eigh

    def recorded(Lb, sup):
        supports.append((len(Lb), tuple(sup.tolist())))
        return curvature(Lb, sup)

    def counted(A, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "cvp.simplex_solver":
            eighs.append(len(A))
        return eigh(A, *args, **kwargs)

    monkeypatch.setattr(simplex_solver, "_curvature", recorded)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    grid = grid_1d([i * 0.25 for i in range(121)])
    L = make_kernel(*_QUARTER, grid)
    run = run_exhaustion(grid, L, build_exhaustion(grid, 60, (7.5, 15.0)))
    inner, outer = run.stages
    assert inner.s_unscaled == pytest.approx(0.0866730842223228, abs=1e-12)
    assert outer.s_unscaled == pytest.approx(0.0452079606616394, abs=1e-12)
    assert outer.measure.support.sum() == 46
    # both blocks ask for the curvature of their full support
    assert {(61, 61), (121, 121)} <= {(k, len(sup)) for k, sup in supports}
    assert len(eighs) == len(supports) == len(set(supports))


def _exact_value(M, w):
    """The action of ``w`` scaled to sum to 1, in rational arithmetic: at
    least the least value over the simplex, with no rounding."""
    w = [Fraction(x) for x in w]
    total = sum(w) ** 2
    return sum(Fraction(M[i, j]) * w[i] * w[j]
               for i in range(len(w)) for j in range(len(w))) / total


@given(case=random_blocks(["indefinite", "low-rank", "constant-diagonal", "gaussian"],
                          kmax=12),
       shift=st.floats(1e-3, 1e-1))
@settings(max_examples=40, deadline=None)
def test_dnn_bound_is_a_lower_bound(case, shift):
    # a bound above the exact action of the oracle's weights is unsound. Above
    # the minimum the relaxation is tight to rounding on many blocks, which
    # the bound's margin must cover; a bound that certifies implies the oracle
    M, _ = case
    p = problem(M)
    oracle = brute_force_minimizer(p)
    top = _exact_value(M, oracle.weights)
    s = minimize_on_compact(p).value
    for t in (s, s + shift, s - shift):
        bound = _dnn_bound(M, t)
        assert bound <= top
        if t - bound <= 0.5 * _CERT_REL * max(1.0, abs(t)):
            assert t <= oracle.value + _CERT_REL * max(1.0, abs(oracle.value))


@pytest.mark.parametrize("n", [25, 33])
@given(shift=st.floats(1e-3, 1e-1))
@settings(max_examples=5, deadline=None)
def test_dnn_bound_stays_below_quarter_blocks(n, shift):
    # past ORACLE_CAP the exact action of the solver's weights stands in for
    # the oracle's: the least action lies at or below it, and so must the bound
    M = _kernel_block(*_QUARTER, [i * 0.25 for i in range(n)]).matrix
    _dnn_bound_stays_below_the_solver(M, shift)


@given(case=random_blocks(["indefinite", "low-rank", "constant-diagonal", "gaussian"],
                          kmin=simplex_solver.ORACLE_CAP + 1, kmax=40),
       shift=st.floats(1e-3, 1e-1))
@settings(max_examples=25, deadline=None)
def test_dnn_bound_stays_below_the_solver_past_the_oracle_cap(case, shift):
    _dnn_bound_stays_below_the_solver(case[0], shift)


def _dnn_bound_stays_below_the_solver(M, shift):
    sol = minimize_on_compact(problem(M))
    top = _exact_value(M, sol.weights)
    for t in (sol.value, sol.value + shift, sol.value - shift):
        assert _dnn_bound(M, t) <= top


def _memoized_oracle(mp):
    """Let the oracle solve each problem once, whichever path asks."""
    seen = {}
    oracle = simplex_solver.brute_force_minimizer

    def once(p):
        if id(p) not in seen:
            seen[id(p)] = (p, oracle(p))
        return seen[id(p)][1]

    mp.setattr(simplex_solver, "brute_force_minimizer", once)


@pytest.mark.parametrize("kind", ["indefinite", "gaussian", "duplicate", "low-rank",
                                  "constant-diagonal"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_lockstep_solver_matches_the_per_start_path(kind, data):
    # the starts run as one batch end where they end run one after another,
    # each with its own inverse and the ends of earlier starts: the same
    # weights, residuals and certificate, with a warm start among them
    M, rng = data.draw(random_blocks([kind], kmax=24))
    p = problem(M, seed=int(rng.integers(1000)))
    extra = [rng.dirichlet(np.ones(len(M)))]
    with pytest.MonkeyPatch.context() as mp:
        _memoized_oracle(mp)
        sol = minimize_on_compact(p, extra)
        ref = solver_reference.minimize_on_compact(p, extra)
    assert sol.weights.tobytes() == ref.weights.tobytes()
    assert sol.kkt == ref.kkt and sol.certified_global == ref.certified_global


def _quarter_starts(n, seed=0):
    """The ``n``-point quarter-grid block at solver seed ``seed`` and the
    starts the solver gives it."""
    p = problem(_kernel_block(*_QUARTER, [i * 0.25 for i in range(n)]).matrix, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        starts = _count_starts(mp)
        minimize_on_compact(p)
    return p, starts


def test_a_lane_out_of_iterations_fails_alone(monkeypatch):
    # with the cap at the median run, the lanes that need more iterations
    # fail and the others end as they do uncapped; the failure names them
    p, starts = _quarter_starts(25)
    ends, iterations, _ = _lockstep(p.matrix, starts, 1e-12)
    cap = int(np.median(iterations))
    over = sum(it > cap for it in iterations)
    assert 0 < over < len(starts)
    monkeypatch.setattr(simplex_solver, "_MAX_ITER", cap)
    capped, capped_iterations, _ = _lockstep(p.matrix, starts, 1e-12)
    for w, it, w_cap, it_cap in zip(ends, iterations, capped, capped_iterations):
        if it > cap:
            assert w_cap is None and it_cap == cap
        else:
            assert w_cap.tobytes() == w.tobytes() and it_cap == it
    with pytest.raises(SolverFailure) as exc:
        minimize_on_compact(problem(p.matrix, tol=1e-300))
    assert (f"18 starts tried, {over} hit the iteration cap of {cap}, {18 - over} ended "
            "above the tolerance") in str(exc.value)


def test_a_lane_above_the_tolerance_fails_alone():
    # the 49-point block's starts end at several minima, mirror images among
    # them with different residuals: with the tolerance under the residual
    # of the chosen solution, the lanes above it fail and the solution is
    # the best of the others
    p, starts = _quarter_starts(49, seed=49)
    ends, _, _ = _lockstep(p.matrix, starts, 1e-12)

    def residual(w):
        r = _residuals(p.matrix, w)
        return max(r.on_support_max, -r.min_over_k)

    chosen = minimize_on_compact(p).weights
    tol = max(r for r in map(residual, ends) if r < residual(chosen))
    kept = [(_residuals(p.matrix, w).s_param, tuple(np.flatnonzero(w > 0).tolist()), w)
            for w in ends if residual(w) <= tol]
    assert 0 < len(kept) < len(ends)
    sol = minimize_on_compact(problem(p.matrix, tol=tol, seed=49))
    assert sol.weights.tobytes() == simplex_solver._select_best(kept)[2].tobytes()
    assert sol.weights.tobytes() != chosen.tobytes()


def _unscaled_solve(Lb, S):
    """The bordered system [[L_SS, -1], [1', 0]] (w, s) = (0, 1), solved with
    a border of ones: weights and multiplier."""
    m = len(S)
    A = np.zeros((m + 1, m + 1))
    A[:m, :m] = Lb[np.ix_(S, S)]
    A[:m, m] = -1.0
    A[m, :m] = 1.0
    b = np.zeros(m + 1)
    b[m] = 1.0
    sol = np.linalg.solve(A, b)
    return sol[:m], float(sol[m])


def _unscaled_inverse(Lb, S):
    """The inverse of the bordered matrix [[0, 1'], [1, L_SS]], formed with a
    border of ones."""
    m = len(S)
    A = np.zeros((m + 1, m + 1))
    A[1:, 1:] = Lb[np.ix_(S, S)]
    A[0, 1:] = A[1:, 0] = 1.0
    return np.linalg.inv(A)


@pytest.mark.parametrize("c, M", [(0.001, np.eye(383)), (0.08, np.eye(383)),
                                  (0.2, np.kron(np.eye(150), [[1.0, 0.5], [0.5, 1.0]]))],
                         ids=["0.001I", "0.08I", "kron"])
def test_a_block_below_1_inverts_as_its_unit_multiple(c, M):
    # the iterations read their targets from column 0 of the bordered inverse,
    # (-s, w); formed with a border of ones, w of 0.001 I at 383 points lies
    # 2.6 times as far from 1/k as w of I, 2.0 times at 0.08 I and 2.9 times
    # on the kron block: scaled like the block, it is about as close
    k = len(M)

    def off(Lb):
        Q = _bordered_inverse(Lb, np.arange(k))
        return np.abs(Q[1:, 0] - 1.0 / k).max()

    assert off(c * M) <= 1.5 * off(M)


@pytest.mark.parametrize("Lb", [c * np.eye(383) for c in (0.001, 0.08, 0.5)]
                         + [np.kron(np.eye(150), [[0.2, 0.1], [0.1, 0.2]])],
                         ids=["0.001I", "0.08I", "0.5I", "kron"])
def test_a_block_below_1_solves_to_a_few_ulps(Lb):
    # with a border of ones partial pivoting takes the border row on these
    # blocks and the weights lie hundreds to thousands of eps/k from 1/k;
    # scaled by the block's largest entry they lie within a few
    k = len(Lb)
    eps = np.finfo(float).eps
    w, s = _solve_support(Lb, np.arange(k))
    assert np.abs(w / w.sum() - 1.0 / k).max() <= 4 * eps / k
    # L w = s on the support, s = w'Lw for weights summing to 1
    assert s == pytest.approx(float(Lb[0].sum()) / k, rel=1e-14)
    # the oracle's stack scales each system by its own block: on supports of
    # whole 2 x 2 blocks (16 points, the oracle's cap, and 14) the weights are
    # uniform too
    for m in (16, 14):
        S = np.array([np.arange(m), np.arange(16 - m, 16)])
        rows, weights = _positive_solutions(Lb, S)
        assert np.array_equal(rows, S)
        assert np.abs(weights / weights.sum(axis=1)[:, None] - 1.0 / m).max() <= 4 * eps / m


@given(k=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["random", "exponential"]))
@settings(max_examples=60, deadline=None)
def test_a_block_whose_largest_entry_is_1_solves_unscaled(k, seed, kind):
    # every principal block of a unit-amplitude kernel has its diagonal, and
    # so its largest entry, at 1.0: there the scaled system is the unscaled
    # one, and its bits are too
    rng = np.random.default_rng(seed)
    if kind == "random":
        A = rng.uniform(0.0, 1.0, (k, k))
        M = (A + A.T) / 2
        np.fill_diagonal(M, 1.0)
    else:
        x = np.sort(rng.uniform(0.0, 10.0, k))
        M = np.exp(-np.abs(x[:, None] - x[None, :]))
    S = np.sort(rng.choice(k, int(rng.integers(1, k + 1)), replace=False))
    assert M[np.ix_(S, S)].max() == 1.0
    try:
        ref = _unscaled_solve(M, S)
    except np.linalg.LinAlgError:
        assert _solve_support(M, S) is None
        return
    w, s = _solve_support(M, S)
    assert w.tobytes() == ref[0].tobytes() and s == ref[1]
    Q = _bordered_inverse(M, S)
    assert Q is not None and Q.tobytes() == _unscaled_inverse(M, S).tobytes()
    if len(S) > 1:
        stack = np.array([S, S])
        rows, weights = _positive_solutions(M, stack)
        keep = ref[0].min() > 1e-14 and np.isfinite(ref[0]).all()
        assert len(rows) == (2 if keep else 0)
        for wS in weights:
            assert wS.tobytes() == ref[0].tobytes()
