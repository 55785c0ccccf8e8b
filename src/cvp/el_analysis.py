"""Certificates around the stationarity equations of a candidate limit.

All checks evaluate a full measure (typically the final scaled stage of a
run) and assert on a certified window, a point mask; reports name points by id.
Minimality is proved on the window where ``prove_minimality`` applies: one
Cholesky factorization shows that no balanced variation there lowers the
action by more than ``_FAIL_TOL``, or an eigenvector of the support's
curvature is an exact witness that one does. Elsewhere ``test_minimality``
samples variations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InputError
from .lagrangian import DecayProfile, Lagrangian, diagonal_infimum, global_sup, tail_index
from .measure import (DiscreteMeasure, action_differences, averaged_kernel,
                      check_variations)
from .pipeline import ExhaustionRun
from .simplex_solver import _balanced_form, _curvature
from .space import MetricSpace, as_mask, closed_ball, greedy_cover_counts

EXIT_OK = 0
EXIT_EL_FAILED = 2
EXIT_MINIMALITY = 3
EXIT_CONDITION = 4

_MAX_FAILURES = 10

# Minimality trials are drawn, checked and scored this many at a time.
_CHUNK = 1024

# A sampled step is this fraction of the largest positivity-preserving one at most.
_STEP_SAFETY = 0.9

# An action drop beyond this is a minimality failure.
_FAIL_TOL = 1e-8

# The unit roundoff of a float.
_UNIT = float(np.finfo(float).eps) / 2


@dataclass(frozen=True)
class ELReport:
    window: tuple[str, ...]
    support: tuple[str, ...]
    ell_values: dict[str, float]
    inf_ell: float
    argmin: str
    max_abs_on_support: float
    tol: float
    passed: bool

    def to_dict(self) -> dict:
        """The fields by name; the report encoder reads the containers as they are,
        so they are shared, not deep-copied as ``dataclasses.asdict`` would."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def verify_el(rho: DiscreteMeasure, L: Lagrangian, window, tol: float = 1e-6) -> ELReport:
    """Stationarity on a window mask: ell vanishes on the support, >= 0 elsewhere."""
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
    return ELReport(window=tuple(window), support=support,
                    ell_values=dict(zip(window, values.tolist())),
                    inf_ell=inf_ell, argmin=window[pos],
                    max_abs_on_support=max_on, tol=tol, passed=passed)


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
    if space.key != L.space_key:
        raise InputError("kernel was built on a different space")
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


def nontriviality_check(run: ExhaustionRun, L: Lagrangian, space: MetricSpace,
                        tol: float = 1e-8) -> dict:
    """Mass of each single-point effective range against 1/sup L(x, .).

    Evaluates the full final-stage measure; also demands a nonzero limit.
    """
    if not run.stages:
        return {"passed": False, "reason": "run has no stages", "entries": []}
    rho = run.stages[-1].measure
    probes = np.flatnonzero(run.window if run.window.any() else rho.support)
    # the effective range of {x}: where L(x, .) is positive
    rows = L.matrix[probes]
    reach = rows > 0.0
    c_xs = (1.0 / rows.max(axis=1)).tolist()
    sizes = reach.sum(axis=1).tolist()
    # the weights in the probes' ranges, probe p's at in_range[bounds[p]:bounds[p + 1]]
    at, cols = np.nonzero(reach)
    bounds = np.searchsorted(at, np.arange(len(probes) + 1)).tolist()
    in_range = rho.weights[cols].tolist()
    entries = []
    passed = True
    for p, xi in enumerate(probes.tolist()):
        mass = math.fsum(in_range[bounds[p]:bounds[p + 1]])
        ok = mass >= c_xs[p] - tol
        passed = passed and ok
        entries.append({"probe": space.ids[xi], "range_size": sizes[p], "c_x": c_xs[p],
                        "mass": mass, "ok": ok})
    total = run.limit.total()
    nonzero = total > 0.0
    return {"passed": bool(passed and nonzero), "limit_total": total,
            "limit_nonzero": nonzero, "entries": entries}


def gamma_lower_bound(rho: DiscreteMeasure, L: Lagrangian, space: MetricSpace,
                      profile: DecayProfile, eps: float, window,
                      tol: float = 1e-8, el_report: ELReport | None = None) -> dict:
    """Mass of the epsilon-effective ball against gamma = (1 - eps)/sup L.

    Refuses (with a notice) unless stationarity holds on the window mask.
    The balls of radius N0 around the window points are one ``closed_ball``
    mask, one row per point, and each row's mass is one ``math.fsum`` over
    its slice of the mask's nonzero columns.
    """
    if not 0.0 < eps < 1.0:
        raise InputError("gamma bound needs eps in (0, 1)")
    if el_report is None:
        el_report = verify_el(rho, L, window)
    if not el_report.passed:
        return {"passed": False, "refused": True,
                "reason": "stationarity does not hold on the window"}
    n0 = tail_index(profile, eps)
    cbound = global_sup(L)
    gamma = (1.0 - eps) / cbound
    probes = np.flatnonzero(as_mask(window, len(space), "gamma window"))
    # the weights in the probes' balls, probe p's at in_ball[bounds[p]:bounds[p + 1]]
    at, cols = np.nonzero(closed_ball(space, probes, float(n0)))
    bounds = np.searchsorted(at, np.arange(len(probes) + 1)).tolist()
    in_ball = rho.weights[cols].tolist()
    entries = []
    passed = True
    for p, xi in enumerate(probes.tolist()):
        lo, hi = bounds[p], bounds[p + 1]
        mass = math.fsum(in_ball[lo:hi])
        ok = mass >= gamma - tol
        passed = passed and ok
        entries.append({"x": space.ids[xi], "ball_size": hi - lo, "mass": mass, "ok": ok})
    return {"passed": bool(passed), "refused": False, "gamma": gamma, "N0": n0,
            "sup": cbound, "entries": entries}


def _gamma(n: int) -> float:
    """n u / (1 - n u): the relative error bound of n float roundings (Higham)."""
    return n * _UNIT / (1.0 - n * _UNIT)


def prove_minimality(rho: DiscreteMeasure, L: Lagrangian, window) -> dict:
    """Exact minimality under every balanced variation on a window mask W.

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

    When the factorization fails and the curvature form of the support in W
    has a negative eigenvalue, its eigenvector, signed so that the first-order
    term is at most 0 and scaled to ``_STEP_SAFETY`` times the largest
    positivity-preserving step, is scored with ``action_differences``; if the
    action drops by more than ``_FAIL_TOL`` it is the ``witness`` of a failed
    "exact" check. In every other case the result has ``certificate``
    "sampled" and ``why_sampled``, for ``test_minimality`` to decide.
    """
    idx = np.flatnonzero(as_mask(window, len(rho.space), "minimality window"))
    if len(idx) < 2:
        return _unproved("a window of fewer than 2 points has no nonzero balanced variation")
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
        return _curvature_witness(rho, L, idx, lhat)
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
        return _unproved(f"the first-order bound {bound:.6g} is below -{_FAIL_TOL:g}")
    return {"certificate": "exact", "passed": True, "bound": bound,
            "window_mass": math.fsum(w), "tol": _FAIL_TOL}


def _unproved(reason: str) -> dict:
    return {"certificate": "sampled", "why_sampled": reason}


def _curvature_witness(rho: DiscreteMeasure, L: Lagrangian, idx: np.ndarray,
                       lhat: np.ndarray) -> dict:
    """The exact failure of ``prove_minimality`` along the support's most
    negative curvature, or why there is none."""
    reason = "the window's curvature form is not proved positive semidefinite"
    sup = idx[rho.weights[idx] > 0]
    if len(sup) < 2:
        return _unproved(reason)
    vals, dirs = _curvature(L.matrix, sup)
    if vals[0] >= 0:
        return _unproved(f"{reason}, and the support's has no negative eigenvalue")
    d = dirs[:, 0] - dirs[:, 0].mean()
    if d @ lhat[sup] > 0:
        d = -d
    shrink = d < 0
    step = _STEP_SAFETY * float((rho.weights[sup][shrink] / -d[shrink]).min()) * d
    step[np.argmax(step)] -= math.fsum(step)  # balanced exactly
    points, deltas = sup[None, :], step[None, :]
    check_variations(rho, points, deltas)
    ds = float(action_differences(lhat, L, points, deltas)[0])
    if ds >= -_FAIL_TOL:
        return _unproved(f"{reason}; along the support's negative curvature "
                         f"{vals[0]:.6g} the action drops by only {-ds:.6g}")
    return {"certificate": "exact", "passed": False, "curvature": float(vals[0]),
            "witness": _trial_record(rho.space.ids, sup, step, ds), "tol": _FAIL_TOL}


@dataclass
class VariationSampler:
    """Balanced positivity-preserving variation draws inside a window mask.

    Support sizes are uniform on [2, support_cap]; signed masses come from a
    difference of two symmetric Dirichlet draws, scaled by a uniform fraction
    of 0.9 times the largest positivity-preserving step (the fraction varies
    the step length so both first-order and curvature-sized moves get
    sampled). Negative components are paired with the heaviest base weights
    so the step never collapses at a massless point. Trials are drawn in
    array chunks from this distribution, so at a given seed the sampled
    variations, and the values of a minimality report, differ from those of
    versions that drew one trial at a time.
    """

    window: np.ndarray
    support_cap: int = 6
    seed: int = 0

    def __post_init__(self):
        # a nonzero balanced variation moves at least two points
        cap = self.support_cap
        if not isinstance(cap, (int, np.integer)) or cap < 2:
            raise InputError(f"support_cap must be an integer of at least 2, got {cap!r:.60}")


def test_minimality(rho: DiscreteMeasure, L: Lagrangian, sampler: VariationSampler,
                    trials: int) -> dict:
    """Sampled second-order check that no balanced variation lowers the action.

    Trials run ``_CHUNK`` at a time: each chunk is drawn, checked against the
    rules of ``check_variations`` and scored with ``action_differences``.
    ``worst`` is the first trial of least action change and ``failures`` the
    first failing ones, in trial order. On a window of fewer than 2 points
    the only balanced variation is 0, so every trial is skipped and the check
    passes with a ``reason``.
    """
    if trials < 1:
        raise InputError("trials must be a positive integer")
    window_idx = np.flatnonzero(as_mask(sampler.window, len(rho.space), "sampler window"))
    if len(window_idx) < 2:
        return {"trials": trials, "evaluated": 0, "skipped": trials, "min_delta_S": 0.0,
                "worst": None, "failures": [], "passed": True,
                "reason": "a window of fewer than 2 points has no nonzero balanced variation"}
    cap = min(sampler.support_cap, len(window_idx))
    rng = np.random.default_rng(np.random.SeedSequence([sampler.seed]))
    base = rho.weights[window_idx]
    lhat = averaged_kernel(rho, L)
    ids = rho.space.ids
    min_delta = math.inf
    worst = None
    evaluated = 0
    failures = []
    for start in range(0, trials, _CHUNK):
        pick, steps, sizes = _draw_variations(rng, base, cap, min(_CHUNK, trials - start))
        points = window_idx[pick]
        check_variations(rho, points, steps)
        ds = action_differences(lhat, L, points, steps)
        evaluated += len(ds)
        if len(ds) and ds.min() < min_delta:
            i = int(np.argmin(ds))
            min_delta = float(ds[i])
            worst = _trial_record(ids, points[i, :sizes[i]], steps[i, :sizes[i]], ds[i])
        for i in np.flatnonzero(ds < -_FAIL_TOL)[:_MAX_FAILURES - len(failures)]:
            failures.append(_trial_record(ids, points[i, :sizes[i]], steps[i, :sizes[i]],
                                          ds[i]))
    return {"trials": trials, "evaluated": evaluated, "skipped": trials - evaluated,
            "min_delta_S": (0.0 if evaluated == 0 else min_delta),
            "worst": worst, "failures": failures, "passed": not failures}


def _trial_record(ids, points: np.ndarray, steps: np.ndarray, delta_action) -> dict:
    """A trial as reported: its step at each point id, and its action change."""
    return {"delta": {ids[p]: step for p, step in zip(points.tolist(), steps.tolist())},
            "delta_action": float(delta_action)}


def _draw_variations(rng: np.random.Generator, base: np.ndarray, cap: int, rows: int):
    """Draw ``rows`` trials of ``VariationSampler`` and drop the skipped ones.

    A trial is skipped when it has no negative mass or its largest
    positivity-preserving step is 0 (a negative mass on a massless point) or
    not finite, or its step underflows to 0. Returns, per kept trial, its
    window positions (heaviest base weight first, ties in draw order), its
    signed steps there (most negative first; 0 past the trial's size m, which
    ends the row) and its size m.
    """
    sizes = rng.integers(2, cap + 1, size=rows)
    pick = np.empty((rows, cap), dtype=np.intp)
    for j in range(cap):  # draw the col-th point not yet picked: distinct points
        col = rng.integers(len(base) - j, size=rows)
        for prev in np.sort(pick[:, :j], axis=1).T:
            col += col >= prev
        pick[:, j] = col
    used = np.arange(cap) < sizes[:, None]
    # two symmetric Dirichlet(1) draws on the first m slots: normalized exponentials
    e = np.where(used, rng.standard_exponential((2, rows, cap)), 0.0)
    raw = e[0] / e[0].sum(axis=1, keepdims=True) - e[1] / e[1].sum(axis=1, keepdims=True)
    # the most negative masses go to the heaviest base weights; unused slots last
    raw = np.sort(np.where(used, raw, np.inf), axis=1)
    order = np.argsort(np.where(used, -base[pick], np.inf), axis=1, kind="stable")
    pick = np.take_along_axis(pick, order, axis=1)
    neg = raw < 0
    ratio = np.full(raw.shape, np.inf)
    ratio[neg] = base[pick[neg]] / -raw[neg]
    t_max = ratio.min(axis=1)
    t = _STEP_SAFETY * t_max * (1.0 - rng.uniform(size=rows))
    keep = np.isfinite(t_max) & (t_max > 0) & (t > 0)
    pick, sizes, used = pick[keep], sizes[keep], used[keep]
    steps = t[keep, None] * np.where(used, raw[keep], 0.0)
    # t can reach ~1e4, lifting the draws' ~1e-16 imbalance past the balance
    # tolerance of check_variations: the largest step absorbs it
    last = (np.arange(len(sizes)), sizes - 1)
    steps[last] -= np.fromiter(map(math.fsum, steps.tolist()), float, len(steps))
    return pick, steps, sizes


test_minimality.__test__ = False  # keep pytest from collecting the public name
