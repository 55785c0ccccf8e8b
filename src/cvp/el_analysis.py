"""Certificates around the stationarity equations of a candidate limit.

All checks evaluate a full measure (typically the final scaled stage of a
run) and assert on a certified window, a point mask; reports name points by id.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InputError
from .lagrangian import DecayProfile, Lagrangian, diagonal_infimum, global_sup, tail_index
from .measure import (DiscreteMeasure, action_difference, averaged_kernel,
                      make_variation)
from .pipeline import ExhaustionRun
from .space import MetricSpace, as_mask, closed_ball, greedy_cover_counts

EXIT_OK = 0
EXIT_EL_FAILED = 2
EXIT_MINIMALITY = 3
EXIT_CONDITION = 4

_MAX_FAILURES = 10

# A sampled step is this fraction of the largest positivity-preserving one at most.
_STEP_SAFETY = 0.9

# An action drop beyond this is a minimality failure.
_FAIL_TOL = 1e-8


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
        return asdict(self)


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
    if delta_cover <= 0:
        raise InputError("delta_cover must be positive")
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
    probes = run.window if run.window.any() else rho.support
    entries = []
    passed = True
    for xi in np.flatnonzero(probes):
        # the effective range of {x}: where L(x, .) is positive
        row = L.matrix[xi]
        reach = row > 0.0
        c_x = 1.0 / float(row.max())
        mass = math.fsum(rho.weights[reach])
        ok = mass >= c_x - tol
        passed = passed and ok
        entries.append({"probe": space.ids[xi], "range_size": int(reach.sum()), "c_x": c_x,
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
    entries = []
    passed = True
    for xi in np.flatnonzero(as_mask(window, len(space), "gamma window")):
        ball = closed_ball(space, xi, float(n0))
        mass = math.fsum(rho.weights[ball])
        ok = mass >= gamma - tol
        passed = passed and ok
        entries.append({"x": space.ids[xi], "ball_size": int(ball.sum()), "mass": mass, "ok": ok})
    return {"passed": bool(passed), "refused": False, "gamma": gamma, "N0": n0,
            "sup": cbound, "entries": entries}


@dataclass
class VariationSampler:
    """Balanced positivity-preserving variation draws inside a window mask.

    Support sizes are uniform on [2, support_cap]; signed masses come from a
    difference of two symmetric Dirichlet draws, scaled by a uniform fraction
    of 0.9 times the largest positivity-preserving step (the fraction varies
    the step length so both first-order and curvature-sized moves get
    sampled). Negative components are paired with the heaviest base weights
    so the step never collapses at a massless point.
    """

    window: np.ndarray
    support_cap: int = 6
    seed: int = 0


def test_minimality(rho: DiscreteMeasure, L: Lagrangian, sampler: VariationSampler,
                    trials: int) -> dict:
    """Sampled second-order check that no balanced variation lowers the action.

    On a window of fewer than 2 points the only balanced variation is 0, so
    every trial is skipped and the check passes with a ``reason``.
    """
    if trials < 1:
        raise InputError("trials must be a positive integer")
    window_idx = np.flatnonzero(as_mask(sampler.window, len(rho.space), "sampler window"))
    if len(window_idx) < 2:
        return {"trials": trials, "evaluated": 0, "skipped": trials, "min_delta_S": 0.0,
                "worst": None, "failures": [], "passed": True,
                "reason": "a window of fewer than 2 points has no nonzero balanced variation"}
    cap = max(2, min(sampler.support_cap, len(window_idx)))
    rng = np.random.default_rng(np.random.SeedSequence([sampler.seed]))
    base = rho.weights[window_idx]
    min_delta = math.inf
    worst = None
    evaluated = 0
    skipped = 0
    failures = []
    for _ in range(trials):
        m = int(rng.integers(2, cap + 1))
        pick = rng.choice(len(window_idx), size=m, replace=False)
        raw = rng.dirichlet(np.ones(m)) - rng.dirichlet(np.ones(m))
        order_pts = pick[np.argsort(-base[pick], kind="stable")]
        order_raw = np.sort(raw)
        neg = order_raw < 0
        t_max = math.inf
        for pos, r in zip(order_pts, order_raw):
            if r < 0:
                w = base[pos]
                t_max = min(t_max, w / -r)
        if not neg.any() or t_max <= 0 or not math.isfinite(t_max):
            skipped += 1
            continue
        t = _STEP_SAFETY * t_max * (1.0 - float(rng.uniform()))
        if t <= 0:
            skipped += 1
            continue
        steps = [float(t * r) for r in order_raw]
        # t can reach ~1e4, lifting the draws' ~1e-16 imbalance past the
        # balance tolerance of make_variation: the largest step absorbs it.
        steps[-1] -= math.fsum(steps)
        delta = np.zeros(len(rho.weights))
        delta[window_idx[order_pts]] = steps
        ds = action_difference(rho, make_variation(rho, delta), L)
        evaluated += 1
        record = {"delta": {rho.space.ids[window_idx[pos]]: step
                            for pos, step in zip(order_pts, steps)},
                  "delta_action": ds}
        if ds < min_delta:
            min_delta = ds
            worst = record
        if ds < -_FAIL_TOL and len(failures) < _MAX_FAILURES:
            failures.append(record)
    return {"trials": trials, "evaluated": evaluated, "skipped": skipped,
            "min_delta_S": (0.0 if evaluated == 0 else min_delta),
            "worst": worst, "failures": failures, "passed": not failures}


test_minimality.__test__ = False  # keep pytest from collecting the public name
