"""Per-compact quadratic minimization: multi-start solver and oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvp import (
    CompactProblem,
    SizeError,
    SolverFailure,
    SolverOptions,
    brute_force_minimizer,
    grid_1d,
    make_kernel,
    minimize_on_compact,
)
from cvp import simplex_solver
from cvp.simplex_solver import _active_set, _residuals

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


def test_solver_certifies_against_oracle():
    sol = minimize_on_compact(problem([[2.0, 0.0], [0.0, 1.0]]))
    assert sol.certified_global
    assert sol.value == pytest.approx(2 / 3, abs=1e-10)


def _indefinite_six():
    rng = np.random.default_rng(5)
    A = rng.uniform(0, 1, (6, 6))
    M = (A + A.T) / 2
    np.fill_diagonal(M, rng.uniform(0.5, 1.5, 6))
    return M


def test_unreachable_tolerance_raises_with_best():
    with pytest.raises(SolverFailure) as exc:
        minimize_on_compact(problem(_indefinite_six(), tol=1e-300, restarts=2, certify=False))
    err = exc.value
    assert (f"5 starts tried, 0 hit the iteration cap of {simplex_solver._MAX_ITER}, "
            "5 ended above the tolerance") in str(err)
    assert err.best_weights is not None
    assert err.best_value is not None
    assert err.residuals.on_support_max < 1e-8


def test_iteration_cap_fails_the_start(monkeypatch):
    monkeypatch.setattr(simplex_solver, "_MAX_ITER", 1)
    with pytest.raises(SolverFailure) as exc:
        minimize_on_compact(problem(_indefinite_six(), restarts=2, certify=False))
    err = exc.value
    assert ("5 starts tried, 5 hit the iteration cap of 1, 0 ended above the tolerance"
            in str(err))
    assert err.best_weights is None and err.residuals is None


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
    sol = minimize_on_compact(problem(random_instance(seed), seed=seed, certify=False))
    assert abs(sol.weights.sum() - 1.0) <= ATOL
    assert (sol.weights >= 0).all()
    # s parameter really is the attained value
    assert sol.s_param == pytest.approx(sol.value, abs=ATOL)


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_solver_never_beats_the_oracle(seed):
    p = problem(random_instance(seed), seed=seed, certify=False)
    sol = minimize_on_compact(p)
    oracle = brute_force_minimizer(p)
    assert sol.value >= oracle.value - 1e-9
    assert sol.value <= oracle.value + 1e-6


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


def _block(kind, params, n):
    grid = grid_1d([i * 0.25 for i in range(n)], prefix="q")
    return problem(make_kernel(kind, params, grid).matrix, ids=grid.ids)


def test_quarter_gauss_33_block_solves():
    # L_SS has three negative eigenvalues on the optimal support: an add/drop
    # loop that block-adds violated points with no ratio test cycles here
    p = _block("truncated_gaussian", {"amplitude": 1.0, "sigma": 0.8, "range": 2.0}, 33)
    sol = minimize_on_compact(p)
    assert sol.kkt.on_support_max <= 1e-12 and sol.kkt.min_over_k >= -1e-12
    assert sol.value == pytest.approx(0.151531003960607, abs=1e-12)


def test_convex_tent_block_from_the_uniform_start():
    p = _block("tent", {"amplitude": 1.0, "range": 2.0}, 101)
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
    # singular bordered systems take null directions; near-singular ones
    # wear out the updated inverse, which must then be refactored
    k = len(M)
    oracle = brute_force_minimizer(problem(M)).value
    starts = [np.full(k, 1.0 / k), *np.eye(k), *np.random.default_rng(0).dirichlet(np.ones(k), 4)]
    for w0 in starts:
        w, values = _active_set(M, w0, 1e-12)
        r = _residuals(M, w)
        assert r.on_support_max <= 1e-12 and r.min_over_k >= -1e-12
        assert r.s_param >= oracle - 1e-12
        assert (np.diff(values) <= 1e-15).all()


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_bordered_inverse_updates_match_refactoring(seed):
    # the error of the updated inverse grows with the square of the worst
    # condition number met since it was last formed from scratch
    rng = np.random.default_rng(seed)
    k = int(rng.integers(3, 13))
    A = rng.uniform(0.0, 1.0, (k, k))
    M = (A + A.T) / 2
    order = [int(i) for i in rng.permutation(k)]
    S, rest = order[:1], order[1:]
    P, Q = np.empty((k + 1, k + 1)), np.empty((k + 1, k + 1))
    assert simplex_solver._bordered_inverse(P, M, np.array(S))
    worst_cond = 1.0
    for _ in range(20):
        if rest and (len(S) < 2 or rng.random() < 0.6):
            S.append(rest.pop())
            ok = simplex_solver._border(P, M, np.array(S), 1.0)
        else:
            p = int(rng.integers(len(S)))
            ok = simplex_solver._unborder(P, len(S) + 1, p + 1, 1.0)
            rest.append(S[p])
            S[p] = S[-1]
            S.pop()
        n = len(S) + 1
        if not simplex_solver._bordered_inverse(Q, M, np.array(S)):
            break
        B = np.zeros((n, n))
        B[0, 1:] = B[1:, 0] = 1.0
        B[1:, 1:] = M[np.ix_(S, S)]
        worst_cond = max(worst_cond, np.linalg.cond(B))
        if not ok:  # a near-zero pivot: refactor, as the solver does
            P[:n, :n] = Q[:n, :n]
            worst_cond = np.linalg.cond(B)
            continue
        assert np.abs(B @ P[:n, :n] - np.eye(n)).max() <= 1e-14 * worst_cond ** 2


def test_border_refuses_a_coincident_point():
    M = np.kron([[1.0, 0.3], [0.3, 1.0]], np.ones((2, 2)))  # points 0 and 1 coincide
    P = np.empty((5, 5))
    assert simplex_solver._bordered_inverse(P, M, np.array([0, 2]))
    assert not simplex_solver._border(P, M, np.array([0, 2, 1]), 1.0)
