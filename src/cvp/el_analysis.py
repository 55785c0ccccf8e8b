"""Certificates around the stationarity equations of a candidate limit.

All checks evaluate a full measure (typically the final scaled stage of a
run) and assert on a certified window, a point mask; reports name points by id.
Minimality on the window W is decided by ``prove_minimality``: one Cholesky
factorization shows that no balanced variation there lowers the action by
more than ``_FAIL_TOL``, or else the causal variational principle on W, the
measures that agree with the candidate off W and give W its mass, is solved
as one simplex QP whose minimizer is the witness of a failure.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InputError
from .lagrangian import DecayProfile, Lagrangian, diagonal_infimum, global_sup, tail_index
from .measure import (DiscreteMeasure, action_differences, averaged_kernel,
                      check_variations)
from .simplex_solver import CompactProblem, _balanced_form, minimize_on_compact
from .space import (MetricSpace, as_index, as_mask, closed_ball, greedy_cover_counts,
                    same_space)

EXIT_OK = 0
EXIT_EL_FAILED = 2
EXIT_MINIMALITY = 3
EXIT_CONDITION = 4

# An action drop beyond this is a minimality failure.
_FAIL_TOL = 1e-8

# The unit roundoff of a float.
_UNIT = float(np.finfo(float).eps) / 2


def verify_el(rho: DiscreteMeasure, L: Lagrangian, window, tol: float = 1e-6) -> dict:
    """Stationarity on a window mask: ell vanishes on the support, >= 0 elsewhere.

    Reports the window and the support on it by id, ``ell_values`` by id, the
    least ell (``inf_ell``, at ``argmin``), ``max_abs_on_support``, ``tol`` and
    ``passed``."""
    space = rho.space
    idx = np.flatnonzero(as_mask(window, len(space), "EL window"))
    if not idx.size:
        raise InputError("verify_el needs a nonempty window")
    window = [space.ids[i] for i in idx]
    values = averaged_kernel(rho, L)[idx] - 1.0
    on_support = rho.weights[idx] > 0
    support = tuple(itertools.compress(window, on_support))
    max_on = float(np.abs(values[on_support]).max(initial=0.0))
    pos = int(np.argmin(values))
    inf_ell = float(values[pos])
    passed = max_on <= tol and inf_ell >= -tol
    return {"window": tuple(window), "support": support,
            "ell_values": dict(zip(window, values.tolist())),
            "inf_ell": inf_ell, "argmin": window[pos],
            "max_abs_on_support": max_on, "tol": tol, "passed": passed}


def check_sufficient_conditions(L: Lagrangian, space: MetricSpace,
                                delta_cover: float) -> dict:
    """Discrete form of the boundedness conditions.

    (a) positive diagonal infimum c; (b) finite kernel sup; (c) every
    single-point effective range K_x stays above c/2 for L(x, .) and is
    covered by a uniform number N of delta_cover-balls trimmed to K_x.
    The implied bound on the averaged kernel is 2 * sup * N / c.
    """
    if not delta_cover > 0:
        raise InputError(f"cover radius delta_cover must be positive, got {delta_cover!r}")
    same_space(space.key, L.space_key)
    c = diagonal_infimum(L)
    sup = global_sup(L)
    cond_a = c > 0.0
    cond_b = math.isfinite(sup)
    positive = L.matrix > 0.0
    low = positive & (L.matrix <= c / 2.0)
    bad_rows = np.nonzero(low.any(axis=1))[0]
    cond_c = not bad_rows.size
    witness = None
    n_max = None
    if cond_c:
        n_max = int(greedy_cover_counts(space, positive, delta_cover).max())
    else:
        i = int(bad_rows[0])
        j = int(np.argmax(low[i]))
        witness = {"x": space.ids[i], "y": space.ids[j],
                   "value": float(L.matrix[i, j]), "threshold": c / 2.0}
    holds = bool(cond_a and cond_b and cond_c)
    return {
        "holds": holds,
        "condition_a": {"holds": bool(cond_a), "c": c},
        "condition_b": {"holds": bool(cond_b), "sup": sup},
        "condition_c": {"holds": bool(cond_c), "N": n_max,
                        "witness": witness, "delta_cover": delta_cover},
        "implied_bound": (2.0 * sup * n_max / c) if holds else None,
    }


def _ball_masses(weights: np.ndarray, balls: np.ndarray) -> tuple[list[float], list[int]]:
    """The ``math.fsum`` of ``weights`` over each row of the (P, n) point mask
    ``balls``, exact in any order of the points, and the row's point count."""
    # the weights in the balls, row p's at in_ball[bounds[p]:bounds[p + 1]]
    at, cols = np.divmod(np.flatnonzero(balls), balls.shape[1])
    bounds = np.searchsorted(at, np.arange(len(balls) + 1)).tolist()
    in_ball = weights[cols].tolist()
    return ([math.fsum(in_ball[lo:hi]) for lo, hi in zip(bounds, bounds[1:])],
            np.diff(bounds).tolist())


def nontriviality_check(rho: DiscreteMeasure, L: Lagrangian, window,
                        tol: float = 1e-8) -> dict:
    """Mass of rho on each single-point effective range against 1/sup L(x, .).

    The probes are the points of the window mask, or rho's support when the
    window is empty; the check also demands a nonzero limit, rho's mass on
    the window (``limit_total``).
    """
    same_space(rho.space.key, L.space_key)
    window = as_mask(window, len(rho.space), "nontriviality window")
    probes = np.flatnonzero(window if window.any() else rho.support)
    rows = L.matrix[probes]
    c_xs = (1.0 / rows.max(axis=1)).tolist()
    # the effective range of {x}: where L(x, .) is positive
    masses, sizes = _ball_masses(rho.weights, rows > 0.0)
    entries = []
    passed = True
    for xi, size, c_x, mass in zip(probes.tolist(), sizes, c_xs, masses):
        ok = mass >= c_x - tol
        passed = passed and ok
        entries.append({"probe": rho.space.ids[xi], "range_size": size, "c_x": c_x,
                        "mass": mass, "ok": ok})
    total = math.fsum(rho.weights[window])
    nonzero = total > 0.0
    return {"passed": bool(passed and nonzero), "limit_total": total,
            "limit_nonzero": nonzero, "entries": entries}


def gamma_lower_bound(rho: DiscreteMeasure, L: Lagrangian, profile: DecayProfile,
                      eps: float, window, tol: float = 1e-8, el_tol: float = 1e-6) -> dict:
    """Mass of rho on the epsilon-effective ball against gamma = (1 - eps)/sup L.

    Refuses (with a notice) unless stationarity holds on the window mask
    (``verify_el`` at ``el_tol``).
    The balls of radius N0 around the window points, in rho's space, are one
    ``closed_ball`` mask, one row per point, weighed by ``_ball_masses``.
    """
    if not 0.0 < eps < 1.0:
        raise InputError("gamma bound needs eps in (0, 1)")
    if not verify_el(rho, L, window, el_tol)["passed"]:
        return {"passed": False, "refused": True,
                "reason": "stationarity does not hold on the window"}
    n0 = tail_index(profile, eps)
    cbound = global_sup(L)
    gamma = (1.0 - eps) / cbound
    space = rho.space
    probes = np.flatnonzero(as_mask(window, len(space), "gamma window"))
    masses, sizes = _ball_masses(rho.weights, closed_ball(space, probes, float(n0)))
    entries = []
    passed = True
    for xi, size, mass in zip(probes.tolist(), sizes, masses):
        ok = mass >= gamma - tol
        passed = passed and ok
        entries.append({"x": space.ids[xi], "ball_size": size, "mass": mass, "ok": ok})
    return {"passed": bool(passed), "refused": False, "gamma": gamma, "N0": n0,
            "sup": cbound, "entries": entries}


def local_mass_bound_check(rho: DiscreteMeasure, L: Lagrangian, probes, radius: float,
                           tol: float = 1e-8) -> dict:
    """Mass of rho on validated balls at the probe indices against the 2/L(x,x) bound.

    A ball around x is validated when L(y, z) >= L(x, x)/2 for every pair
    inside it. Its radius is the largest distance from x realized in the
    space, at most ``radius``, whose closed ball (to 1e-12) is validated; a
    probe with none is ``skipped``. All probes are taken in one array pass.
    Each probe's distance row is ordered nearest first, ties by point index,
    so its balls are leading blocks of that order, and a running minimum over
    the ordered kernel rows gives the least entry of each block. The blocks
    are nested, so those that pass are the ones before the first that fails.
    """
    space = rho.space
    same_space(space.key, L.space_key)
    # an index of -1 would wrap around in the gathers below
    probes = as_index(probes, len(space)) if len(probes) else np.zeros(0, dtype=int)
    rows = space.dist[probes]
    diag = L.matrix[probes, probes]
    # the points of the largest candidate ball, within 1e-12 of the farthest
    # distance up to radius, lead each row of ``order`` and ``d``
    top = np.where(rows <= radius + 1e-12, rows, -np.inf).max(axis=1, initial=-np.inf)
    m = int(np.count_nonzero(rows <= top[:, None] + 1e-12, axis=1).max(initial=0))
    order = np.argsort(rows, axis=1, kind="stable")[:, :m]
    d = np.take_along_axis(rows, order, axis=1)
    # the number of leading points whose block has no entry below L(x, x)/2
    passing = np.zeros(len(probes), dtype=int)
    least = np.full(len(probes), np.inf)
    for j in range(m):
        least = np.minimum(least, L.matrix[order[:, j, None], order[:, :j + 1]].min(axis=1))
        holds = least >= diag / 2.0
        if not holds.any():
            break
        passing += holds
    # a ball passes when it ends before the first point whose block fails; the
    # candidate radii are the first distance of each run of equal ones (so a 0.0
    # and a -0.0 give the one of the lower point index)
    fails_at = np.take_along_axis(np.c_[d, np.full(len(probes), np.inf)], passing[:, None], 1)
    fits = (d <= radius + 1e-12) & (d + 1e-12 < fails_at)
    fits[:, 1:] &= d[:, 1:] != d[:, :-1]
    used = np.where(fits, d, -np.inf).max(axis=1, initial=-np.inf)
    masses, sizes = _ball_masses(rho.weights, rows <= used[:, None] + 1e-12)
    entries = []
    passed = True
    for xi, r, size, mass, bound in zip(probes.tolist(), used.tolist(), sizes, masses,
                                        (2.0 / diag).tolist()):
        if not size:  # no ball is validated
            entries.append({"probe": space.ids[xi], "skipped": True})
            continue
        ok = mass <= bound + tol
        passed = passed and ok
        entries.append({"probe": space.ids[xi], "radius": r, "ball_size": size,
                        "mass": mass, "bound": bound, "ok": ok})
    return {"passed": passed, "requested_radius": radius, "entries": entries}


def _gamma(n: int) -> float:
    """n u / (1 - n u): the relative error bound of n float roundings (Higham)."""
    return n * _UNIT / (1.0 - n * _UNIT)


def prove_minimality(rho: DiscreteMeasure, L: Lagrangian, window) -> dict:
    """Minimality under every balanced variation on a window mask W.

    Let ell = ``averaged_kernel`` - 1 on W and m = min_W ell. A balanced delta
    on W with rho + delta >= 0 changes the action by 2 delta.ell + delta'L_WW delta,
    and delta.ell = sum delta_x (ell_x - m) >= -sum rho_x (ell_x - m), since
    delta_x >= -rho_x and ell_x >= m. So when the curvature form
    H = Z'L_WW Z (``_balanced_form``) is positive semidefinite, every such
    delta, of any size, has Delta S >= bound = -2 sum_W rho_x (ell_x - m).

    One Cholesky factorization of H - tau I proves H >= 0: tau covers the
    rounding of forming H and the factorization's backward error (Demmel's
    bound, as in Rump 2006, *Verification of positive definiteness*, BIT 46),
    both doubled. ``bound`` reads each ell_x as ell_x + a_x and m as the
    least ell_x - a_x, with a_x an allowance for the rounding of ell_x, so it
    holds for the stored weights in exact arithmetic. When the factorization
    succeeds and ``bound`` is at least -``_FAIL_TOL``, the check passes with
    ``certificate`` "exact", ``bound``, ``window_mass`` and ``tol``.

    Otherwise the least action over the window is solved for directly, by
    ``_window_qp``, and ``why_not_exact`` says why the proof did not apply.
    A window of fewer than 2 points has no nonzero balanced variation, and
    passes with a ``reason``.
    """
    inside = as_mask(window, len(rho.space), "minimality window")
    idx = np.flatnonzero(inside)
    if len(idx) < 2:
        return _no_variation("a window of fewer than 2 points has no nonzero "
                             "balanced variation", math.fsum(rho.weights[idx]))
    lhat = averaged_kernel(rho, L)
    H = _balanced_form(L.matrix, idx)
    n = len(H)
    # Demmel's backward error of the factorization, then the rounding of
    # forming H: each entry is off by at most gamma_3 times 4 sup L, and the
    # 2-norm of an n x n error is at most n times its largest entry
    chol = _gamma(n + 1) / (1.0 - _gamma(n + 1)) * float(np.abs(np.diagonal(H)).sum())
    formed = 4.0 * n * _gamma(3) * global_sup(L)
    H.flat[::n + 1] -= 2.0 * (chol + formed + n * n * np.finfo(float).smallest_subnormal)
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return _window_qp(rho, L, inside, lhat, "the window's curvature form is not "
                                                "proved positive semidefinite")
    # ell_x is off by at most gamma_{k+1} (lhat_x + 1), lhat_x being a sum of
    # at most k nonnegative products; the allowance also covers the rounding
    # of the bound's own steps, doubled
    k = int(np.count_nonzero(rho.weights))
    slack = 4.0 * _gamma(k + 3) * (lhat[idx] + 1.0)
    ell = lhat[idx] - 1.0
    floor = float((ell - slack).min())
    w = rho.weights[idx]
    bound = -2.0 * (1.0 + _gamma(4)) * math.fsum(w * (ell + slack - floor))
    if bound < -_FAIL_TOL:
        return _window_qp(rho, L, inside, lhat,
                          f"the first-order bound {bound:.6g} is below -{_FAIL_TOL:g}")
    return {"certificate": "exact", "passed": True, "bound": bound,
            "window_mass": math.fsum(w), "tol": _FAIL_TOL}


def _no_variation(reason: str, mass: float) -> dict:
    return {"certificate": "window_qp", "passed": True, "min_delta_S": 0.0,
            "window_mass": mass, "reason": reason, "tol": _FAIL_TOL}


def _window_qp(rho: DiscreteMeasure, L: Lagrangian, inside: np.ndarray, lhat: np.ndarray,
               why_not_exact: str) -> dict:
    """The least action over the measures that agree with rho off the window
    W and give W its mass m_W: the causal variational principle on W.

    With b = L_{W,out} rho_out and w = m_W v, the action is m_W^2 v'Mv plus a
    constant, M = L_WW + (b1' + 1b')/m_W, a standard QP on the simplex that
    ``minimize_on_compact`` solves and, where it can, certifies
    (``certified_global``). Its minimizer gives delta = m_W v - rho_W, whose
    largest entry absorbs the rounding of its total; the check passes when
    ``min_delta_S``, delta's action change from ``action_differences``, is at
    least -``_FAIL_TOL``, and otherwise reports delta as the ``witness``. A
    window of zero mass admits no nonzero variation and passes with a ``reason``.
    """
    idx = np.flatnonzero(inside)
    w = rho.weights[idx]
    mass = math.fsum(w)
    if mass == 0:
        return _no_variation("a window of zero mass has no nonzero balanced variation "
                             "that keeps the weights nonnegative", mass)
    out = np.flatnonzero(~inside & (rho.weights > 0))
    b = L.matrix[np.ix_(idx, out)] @ rho.weights[out]
    M = L.matrix[np.ix_(idx, idx)] + (b[:, None] + b[None, :]) / mass
    ids = rho.space.ids
    solution = minimize_on_compact(CompactProblem(tuple(ids[i] for i in idx), M))
    delta = mass * solution.weights - w
    delta[np.argmax(delta)] -= math.fsum(delta)
    check_variations(rho, idx[None], delta[None])
    ds = float(action_differences(lhat, L, idx[None], delta[None])[0])
    result = {"certificate": "window_qp", "passed": ds >= -_FAIL_TOL, "min_delta_S": ds,
              "certified_global": solution.certified_global,
              "why_not_exact": why_not_exact, "window_mass": mass, "tol": _FAIL_TOL}
    if not result["passed"]:
        moved = np.flatnonzero(delta)
        result["witness"] = _trial_record(ids, idx[moved], delta[moved], ds)
    return result


def _trial_record(ids, points: np.ndarray, steps: np.ndarray, delta_action) -> dict:
    """A variation as reported: its step at each point id, and its action change."""
    return {"delta": {ids[p]: step for p, step in zip(points.tolist(), steps.tolist())},
            "delta_action": float(delta_action)}
