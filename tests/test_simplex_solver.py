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
    kkt_residuals,
    minimize_on_compact,
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
    r = kkt_residuals(sol, problem([[1.0, 0.5], [0.5, 1.0]]))
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
    r = kkt_residuals(np.array([0.5, 0.5]), p)
    assert (r.on_support_max, r.min_over_k, r.s_param) == (0.0, 0.0, 0.5)


def test_kkt_residuals_perturbed_weights():
    p = problem(np.eye(2))
    r = kkt_residuals(np.array([0.6, 0.4]), p)
    assert r.s_param == pytest.approx(0.52, abs=ATOL)
    assert r.on_support_max == pytest.approx(0.12, abs=ATOL)
    assert r.min_over_k == pytest.approx(-0.12, abs=ATOL)


def test_kkt_residuals_vertex_not_minimal():
    p = problem([[1.0, 0.5], [0.5, 1.0]])
    r = kkt_residuals(np.array([1.0, 0.0]), p)
    assert r.min_over_k == pytest.approx(-0.5, abs=ATOL)


def test_solver_certifies_against_oracle():
    sol = minimize_on_compact(problem([[2.0, 0.0], [0.0, 1.0]]))
    assert sol.certified_global
    assert sol.value == pytest.approx(2 / 3, abs=1e-10)


def test_unreachable_tolerance_raises_with_best():
    rng = np.random.default_rng(5)
    A = rng.uniform(0, 1, (6, 6))
    M = (A + A.T) / 2
    np.fill_diagonal(M, rng.uniform(0.5, 1.5, 6))
    with pytest.raises(SolverFailure) as exc:
        minimize_on_compact(problem(M, tol=1e-300, restarts=2, certify=False))
    err = exc.value
    assert err.best_weights is not None
    assert err.best_value is not None
    assert err.residuals.on_support_max < 1e-8


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
    sol = minimize_on_compact(p)
    r = kkt_residuals(sol, p)
    assert r.on_support_max <= KKT_TOL
    assert r.min_over_k >= -KKT_TOL
