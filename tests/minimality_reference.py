"""The sampled minimality check that the window QP of ``prove_minimality`` is
checked against, and that the acceptance gates run; and ``prove_minimality``
with its Cholesky proof alone, which the dominance route is checked against."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cvp import DiscreteMeasure, InputError, Lagrangian, global_sup
from cvp.el_analysis import _FAIL_TOL, _gamma, _no_variation, _trial_record, _window_qp
from cvp.measure import action_differences, averaged_kernel, check_variations
from cvp.simplex_solver import _balanced_form
from cvp.space import as_mask

_MAX_FAILURES = 10

# Minimality trials are drawn, checked and scored this many at a time.
_CHUNK = 1024

# A sampled step is this fraction of the largest positivity-preserving one at most.
_STEP_SAFETY = 0.9


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


def prove_minimality_by_cholesky(rho: DiscreteMeasure, L: Lagrangian, window) -> dict:
    """``prove_minimality`` as it was before the dominance route: every window
    forms the curvature form H and factors H - tau I."""
    inside = as_mask(window, len(rho.space), "minimality window")
    idx = np.flatnonzero(inside)
    if len(idx) < 2:
        return _no_variation("a window of fewer than 2 points has no nonzero "
                             "balanced variation", math.fsum(rho.weights[idx]))
    lhat = averaged_kernel(rho, L)
    H = _balanced_form(L.matrix, idx)
    n = len(H)
    chol = _gamma(n + 1) / (1.0 - _gamma(n + 1)) * float(np.abs(np.diagonal(H)).sum())
    formed = 4.0 * n * _gamma(3) * global_sup(L)
    H.flat[::n + 1] -= 2.0 * (chol + formed + n * n * np.finfo(float).smallest_subnormal)
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return _window_qp(rho, L, inside, lhat, "the window's curvature form is not "
                                                "proved positive semidefinite")
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
