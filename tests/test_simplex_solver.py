"""Per-compact quadratic minimization: multi-start solver and oracle."""

import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvp import (
    CompactProblem,
    SizeError,
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
    _BlockCache,
    _active_set,
    _bordered_inverse,
    _dnn_bound,
    _reborder,
    _residuals,
    _solve_support,
)

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
    assert sol.s_param == pytest.approx(0.5, abs=ATOL)


def test_two_point_coupled():
    sol = minimize_on_compact(problem([[1.0, 0.5], [0.5, 1.0]]))
    assert np.allclose(sol.weights, [0.5, 0.5], atol=ATOL)
    assert sol.value == pytest.approx(0.75, abs=ATOL)
    r = sol.kkt
    assert r.on_support_max <= ATOL
    assert r.min_over_k >= -ATOL


def test_single_point_shortcut():
    sol = minimize_on_compact(problem([[2.5]], ids=("a",)))
    assert sol.weights[0] == 1.0
    assert sol.value == 2.5
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
    with pytest.raises(SizeError):
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
    """Record the start of every ``_active_set`` run of the solver."""
    starts = []
    active_set = simplex_solver._active_set

    def counted(Lb, w0, *args):
        starts.append(np.array(w0))
        return active_set(Lb, w0, *args)

    mp.setattr(simplex_solver, "_active_set", counted)
    return starts


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
    for w0 in starts:
        w, _ = _active_set(Lb, w0, atol)
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
    sol = minimize_on_compact(problem(random_instance(seed), seed=seed))
    assert abs(sol.weights.sum() - 1.0) <= ATOL
    assert (sol.weights >= 0).all()
    # s parameter really is the attained value
    assert sol.s_param == pytest.approx(sol.value, abs=ATOL)


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
    for w0 in starts:
        w, values = _active_set(M, w0, 1e-12 * scale)
        r = _residuals(M, w)
        assert r.on_support_max <= 1e-12 * scale and r.min_over_k >= -1e-12 * scale
        assert r.s_param >= oracle - 1e-12 * scale
        assert (np.diff(values) <= 1e-15 * scale).all()


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
    w, values = _active_set(p.matrix, w0, 1e-12)
    assert len(values) > 100
    # an inverse at the first change of support and after each drift, a solve
    # for the first target, after each drift and for the final weights
    assert counts["inverses"] <= 3 and counts["solves"] <= 4
    r = _residuals(p.matrix, w)
    assert r.on_support_max <= 1e-12 and r.min_over_k >= -1e-12


def _record_starts(mp, fresh):
    """Record the number of actions each ``_active_set`` run of the solver
    lists; with ``fresh``, each run gets a cache of its own."""
    lengths = []
    active_set = simplex_solver._active_set

    def recorded(Lb, w0, atol, convex, cache):
        w, values = active_set(Lb, w0, atol, convex, _BlockCache() if fresh else cache)
        lengths.append(len(values))
        return w, values

    mp.setattr(simplex_solver, "_active_set", recorded)
    return lengths


def test_quarter_starts_take_earlier_ends(monkeypatch):
    # on the 121-point block many starts reach the target of a support where
    # an earlier start stood: they return that start's weights, and the
    # solution is the one of starts that each run on a fresh cache
    p = _kernel_block(*_QUARTER, [i * 0.25 for i in range(121)])
    with pytest.MonkeyPatch.context() as mp:
        counts = _count_factorizations(mp)
        shared = _record_starts(mp, fresh=False)
        sol = minimize_on_compact(p)
    with pytest.MonkeyPatch.context() as mp:
        alone = _record_starts(mp, fresh=True)
        ref = minimize_on_compact(p)
    assert np.array_equal(sol.weights, ref.weights) and sol.kkt == ref.kkt
    assert len(shared) == len(alone) == 18
    assert all(a <= b for a, b in zip(shared, alone))
    assert sum(a < b for a, b in zip(shared, alone)) >= 1
    # the dense starts downdate one inverse of the full support: 38 inverses
    # were formed when each formed its own on 120 points
    assert counts["inverses"] < 38


@pytest.mark.parametrize("p", [
    _kernel_block("tent", {"amplitude": 1.0, "range": 1.0}, range(401)),
    _kernel_block("exponential", {"amplitude": 1.0, "sigma": 1.0}, range(161)),
], ids=["tent-401", "exp-161"])
def test_positive_definite_start_forms_no_inverse(monkeypatch, p):
    counts = _count_factorizations(monkeypatch)
    sol = minimize_on_compact(p)
    assert counts["inverses"] == 0 and counts["solves"] <= 2
    assert sol.certified_global and (sol.weights > 0).all()


def _bordered(Lb, sup):
    A = np.zeros((len(sup) + 1,) * 2)
    A[0, 1:] = A[1:, 0] = 1.0
    A[1:, 1:] = Lb[np.ix_(sup, sup)]
    return A


@st.composite
def random_blocks(draw, kinds, kmax=40):
    """A block of 2 to ``kmax`` points of one of ``kinds``, and the generator
    that drew it: indefinite, indefinite with a duplicated point or with a
    constant diagonal, a low-rank Gram matrix plus 1e-9 I, or the
    quarter-grid truncated Gaussian on random points."""
    k = draw(st.integers(2, kmax))
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "low-rank":
        B = rng.uniform(0.0, 1.0, (k, int(rng.integers(1, k + 1))))
        return B @ B.T + 1e-9 * np.eye(k), rng
    if kind == "gaussian":
        return _kernel_block(*_QUARTER, np.sort(rng.uniform(0.0, 0.25 * k, k))).matrix, rng
    A = rng.uniform(0.0, 1.0, (k, k))
    M = (A + A.T) / 2
    np.fill_diagonal(M, rng.uniform(0.05, 1.2, k))
    if kind == "duplicate":
        i, j = rng.choice(k, 2, replace=False)
        M[j], M[:, j] = M[i], M[:, i]
    elif kind == "constant-diagonal":
        np.fill_diagonal(M, rng.uniform(0.05, 1.2))
    return M, rng


@given(case=random_blocks(["indefinite", "duplicate", "low-rank"]))
@settings(max_examples=150, deadline=None)
def test_bordered_inverse_follows_adds_and_drops(case):
    # each update agrees with a fresh solve to rounding amplified by the worst
    # conditioning met since the inverse was last formed, or it is formed afresh
    M, rng = case
    on = rng.random(len(M)) < 0.5
    on[rng.integers(len(M))] = True
    inv = _bordered_inverse(M, np.flatnonzero(on))
    cond = np.linalg.cond(_bordered(M, np.flatnonzero(on)))
    formed = []
    form = simplex_solver._bordered_inverse
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex_solver, "_bordered_inverse",
                   lambda Lb, sup: formed.append(1) or form(Lb, sup))
        for _ in range(30):
            sup = np.flatnonzero(on)
            if len(sup) > 1 and (len(sup) == len(M) or rng.random() < 0.5):
                j = int(rng.choice(sup))
            else:
                j = int(rng.choice(np.flatnonzero(~on)))
            on[j] = not on[j]
            n = len(formed)
            inv = _reborder(inv, M, on, j)
            sup = np.flatnonzero(on)
            c = np.linalg.cond(_bordered(M, sup))
            cond = c if len(formed) > n else max(cond, c)
            if inv is None:
                continue
            P, rows = inv
            assert sorted(rows.tolist()) == sup.tolist()
            ref = _solve_support(M, sup)
            if len(formed) > n or ref is None:
                continue
            err = max(float(np.abs(P[1:, 0][np.argsort(rows)] - ref[0]).max()),
                      abs(-P[0, 0] - ref[1]))
            assert err <= 1e-13 * cond ** 2 * max(1.0, float(np.abs(ref[0]).max()), abs(ref[1]))


# exact duplicates are left out: their minimizers split weight between the
# twins in any proportion, and rounding picks one
@given(case=random_blocks(["indefinite", "low-rank", "gaussian"]))
@settings(max_examples=60, deadline=None)
def test_active_set_ends_where_solving_every_step_ends(case):
    # the reference solves every target afresh, as the method did before it
    # kept the bordered inverse
    M, rng = case
    k = len(M)
    scale = max(1.0, float(np.abs(M).max()))
    for w0 in [np.full(k, 1.0 / k), np.eye(k)[0], *rng.dirichlet(np.ones(k), 2)]:
        w, _ = _active_set(M, w0, 1e-12 * scale)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simplex_solver, "_bordered_inverse", lambda Lb, sup: None)
            ref, _ = _active_set(M, w0, 1e-12 * scale)
        assert w is not None and np.array_equal(w, ref)


# exact duplicates are left out for the reason above
@given(case=random_blocks(["indefinite", "constant-diagonal", "low-rank", "gaussian"]))
@settings(max_examples=100, deadline=None)
def test_shared_cache_is_exact(case):
    # the starts of a block share curvature directions, the full support's
    # bordered inverse and each other's ends: each start ends as it does
    # alone, with a fresh cache, to the last bit. One that takes an earlier
    # start's end stops there, so it lists a prefix of the actions
    M, rng = case
    k = len(M)
    atol = 1e-12 * max(1.0, float(np.abs(M).max()))
    shared = _BlockCache()
    for w0 in [np.full(k, 1.0 / k), np.eye(k)[0], *rng.dirichlet(np.ones(k), 6)]:
        w, values = _active_set(M, w0, atol, False, shared)
        alone, alone_values = _active_set(M, w0, atol, False, _BlockCache())
        assert np.array_equal(w, alone)
        assert 0 < len(values) <= len(alone_values)
        assert np.array_equal(values, alone_values[:len(values)])


def test_convex_tent_block_from_the_uniform_start():
    p = _kernel_block("tent", {"amplitude": 1.0, "range": 2.0}, [i * 0.25 for i in range(101)])
    assert np.linalg.eigvalsh(p.matrix)[0] > 0
    w, values = _active_set(p.matrix, np.full(101, 1.0 / 101), 1e-12)
    r = _residuals(p.matrix, w)
    assert r.on_support_max <= 1e-12 and r.min_over_k >= -1e-12
    assert (np.diff(values) <= 1e-15).all()
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
    for w0 in starts:
        w, values = _active_set(M, w0, 1e-12)
        r = _residuals(M, w)
        assert r.on_support_max <= 1e-12 and r.min_over_k >= -1e-12
        assert r.s_param >= oracle - 1e-12
        assert (np.diff(values) <= 1e-15).all()


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
