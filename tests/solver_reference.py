"""The per-start reference of the lockstep active-set method: the starts of a
block run one after another, each with its own bordered inverse
(``_PointInverse``), and share a ``_BlockCache`` that holds the ends of
earlier starts. The solver's ``_lockstep`` run is checked against it."""

import numpy as np

from cvp import SolverFailure
from cvp import simplex_solver as ss
from cvp.simplex_solver import (
    _DRIFT_ATOL,
    _FOLD,
    _PIVOT_REL,
    CompactSolution,
    _curvature,
    _residuals,
    _select_best,
)


def _bordered_inverse(Lb: np.ndarray, sup: np.ndarray):
    """The solver's ``_bordered_inverse`` of the ascending ``sup`` in point
    coordinates, a (k + 1)-square matrix: row and column 0 are the border,
    1 + x those of point x, and those of points off ``sup`` are 0. None when
    the matrix is singular."""
    Q = ss._bordered_inverse(Lb, sup)
    if Q is None or len(sup) == len(Lb):
        return Q
    at = np.concatenate(([0], sup + 1))
    P = np.zeros((len(Lb) + 1,) * 2)
    P[np.ix_(at, at)] = Q
    return P


class _PointInverse:
    """A start's bordered inverse in point coordinates (``_bordered_inverse``),
    kept as ``base`` plus the pending rank-one terms sum_i coef_i v_i v_i'.
    Both an add and a drop of a point are one such term; a row is read with
    the pending terms applied, and every ``_FOLD`` of them are added into
    ``base`` with one product."""

    __slots__ = ("base", "terms", "coef", "count")

    def __init__(self, base: np.ndarray):
        self.base = base
        self.terms = np.empty((_FOLD, len(base)))
        self.coef = np.empty(_FOLD)
        self.count = 0

    def row(self, r: int) -> np.ndarray:
        """Row ``r`` of the inverse, a new array."""
        t = self.count
        V = self.terms[:t]
        return self.base[r] + (self.coef[:t] * V[:, r]) @ V

    def _push(self, v: np.ndarray, coef: float) -> None:
        if self.count == _FOLD:
            self.base += (self.terms.T * self.coef) @ self.terms
            self.count = 0
        self.terms[self.count] = v
        self.coef[self.count] = coef
        self.count += 1

    def add(self, Lb: np.ndarray, j: int) -> bool:
        """Point ``j`` joins the support: with u = P (1, L_j), the term
        u u' / sigma, where u_j is set to -1 and sigma = L_jj - (1, L_j) u is
        the Schur complement of j. False, and nothing changed, when |sigma|
        <= ``_PIVOT_REL`` L_jj."""
        b = np.empty(len(self.base))
        b[0] = 1.0
        b[1:] = Lb[j]
        t = self.count
        V = self.terms[:t]
        u = self.base @ b + (self.coef[:t] * (V @ b)) @ V
        sigma = float(Lb[j, j] - b @ u)
        if not abs(sigma) > _PIVOT_REL * Lb[j, j]:
            return False
        u[1 + j] = -1.0
        self._push(u, 1.0 / sigma)
        return True

    def drop(self, Lb: np.ndarray, j: int) -> bool:
        """Point ``j`` leaves the support: with its row c, the term -c c' / c_j,
        after which row and column 1 + j are set to exactly 0. False, and
        nothing changed, when |c_j| L_jj <= ``_PIVOT_REL`` (c_j is 1 / sigma)."""
        r = 1 + j
        c = self.row(r)
        pivot = float(c[r])
        if not abs(pivot) * Lb[j, j] > _PIVOT_REL:
            return False
        c[r] = 0.0
        self.base[r] = 0.0
        self.base[:, r] = 0.0
        self.terms[:self.count, r] = 0.0
        self._push(c, -1.0 / pivot)
        return True


def _reborder(inv: _PointInverse | None, Lb: np.ndarray, on: np.ndarray,
              j: int) -> _PointInverse | None:
    """``inv`` of the support, updated in place after point ``j`` joined it,
    or left it when ``on[j]`` is False. It is formed afresh on the support of
    ``on`` when ``inv`` is None or the new matrix is near singular
    (``_PIVOT_REL``); None when that matrix is singular."""
    if inv is not None and (inv.add(Lb, j) if on[j] else inv.drop(Lb, j)):
        return inv
    P = _bordered_inverse(Lb, on.nonzero()[0])
    return None if P is None else _PointInverse(P)


class _BlockCache:
    """What the starts of one block share. ``curvature`` maps a support to its
    ``_negative_curvature``; ``ends`` maps a support on which a start stood at
    the stationary point of a solved target to the weights that start
    returned; ``full_inverse`` gives each start its own ``_PointInverse`` on a
    copy of the full support's bordered inverse, one matrix formed once."""

    def __init__(self):
        self.curvature: dict[bytes, np.ndarray | None] = {}
        self.ends: dict[bytes, np.ndarray] = {}
        self._full = None
        self._formed = False

    def full_inverse(self, Lb: np.ndarray) -> _PointInverse | None:
        """A ``_PointInverse`` on a copy of the ``_bordered_inverse`` of every
        point of the block, which is formed at the first ask; None when the
        matrix is singular."""
        if not self._formed:
            self._full = _bordered_inverse(Lb, np.arange(len(Lb)))
            self._formed = True
        return None if self._full is None else _PointInverse(self._full.copy())


def _negative_curvature(Lb: np.ndarray, sup: np.ndarray, atol: float,
                        curvature: dict) -> np.ndarray | None:
    """The balanced direction on ``sup`` of most negative curvature, or None
    when there is none beyond ``atol``. ``curvature`` keeps the answer by
    support, so the starts of a block decompose each support once; the
    direction is handed out as a copy, which the caller may shift."""
    key = sup.tobytes()
    if key not in curvature:
        d = None
        if len(sup) >= 2:
            vals, dirs = _curvature(Lb, sup)
            if vals[0] < -atol:
                d = dirs[:, 0].copy()  # not a view that keeps every eigenvector
        curvature[key] = d
    d = curvature[key]
    return None if d is None else d.copy()


def _active_set(Lb: np.ndarray, w0: np.ndarray, atol: float, convex: bool = False,
                cache: _BlockCache | None = None):
    """Primal active-set descent with a ratio test from the feasible ``w0``.

    The support S starts as that of ``w0``, whose weight on a later twin
    moves onto its first twin (``ss._fold_twins``); a later twin never joins
    S, whose bordered matrix would be singular. At a point that is not
    stationary on S, the step goes toward the target, the stationary point
    of the action on S (the bordered system [[0, 1'], [1, L_SS]]): fully
    when the action is convex along the way and no weight hits zero first,
    else to the boundary in the descending sign, dropping the point the
    ratio test hits (lowest index on ties). At a stationary point it adds
    the single most violated off-support point (lowest index on ties), or
    stops when none is violated by more than ``atol``. Unless the block is
    ``convex`` (positive definite), a stationary point where the action
    curves downward on S is a saddle: the step then follows that curvature
    to the boundary, the longer way of the two (the slope there is
    rounding), as does the first step of a start whose support has it,
    downhill.

    A start's first target is solved directly. Its first change of S forms
    the bordered inverse in point coordinates (``_PointInverse``), which each
    later add or drop updates by one rank-one term (``_reborder``) and whose
    column 0 gives the target; unless the block is ``convex``, a drop from
    the full support updates a copy of the cache's full inverse instead. A
    target off stationarity on S by more than ``_DRIFT_ATOL`` stopping
    tolerances (seen in L d) is solved directly, and the next change of S
    forms the inverse afresh. The final weights are solved directly on the
    final support, by reusing the last direct solve when it was on that
    support (as when a convex start never leaves its first support), except
    on the first iteration: a start that stops there, with g constant on S
    to the last bit, returns w normalized (``_final_weights``). The
    averaged kernel g = L w is formed once and carried along each step a d
    as g + a L d, with the L d that the step needs anyway.

    The starts of one block share ``cache`` (None gives a fresh one). Each
    reads the same curvature directions it would compute alone. A full or
    zero step to a target leaves w at the one stationary point of S's affine
    hull, so in exact arithmetic the rest of the start depends on S alone: a
    start that returns maps each such S it met to its final weights, and a
    later start that stands at the target of a mapped S returns a copy of
    that start's weights.

    Returns the weights, or None when ``_MAX_ITER`` iterations pass, and the
    action at every iterate, which never rises (an iterate whose target is
    solved again after drifting is listed twice). A start that takes an
    earlier start's end returns the actions up to there, a prefix of those it
    would list alone.
    """
    k = Lb.shape[0]
    w, later = ss._fold_twins(Lb, w0)  # a later twin never joins the support
    on = w > 0
    values = []
    at_target = False
    inv = None  # the _PointInverse of S, from the first change of support
    step = np.zeros(k)  # d scattered by sup, zeroed after use
    g = Lb @ w  # carried along each step as g += a L d
    if cache is None:
        cache = _BlockCache()
    reached = []  # the supports S where w stood at a solved target
    direct = None  # (S as bytes, its _solve_support) of the last direct solve
    for _ in range(ss._MAX_ITER):
        sup = on.nonzero()[0]
        s = float(w @ g)
        values.append(s)
        gs = g[sup]
        t = d = None
        saddle = False
        if at_target or (gs.max() - s <= atol and s - gs.min() <= atol):
            i = int(np.where(on | later, np.inf, g).argmin())
            if not on[i] and g[i] < s - atol:
                on[i] = True
                inv = _reborder(inv, Lb, on, i)
                at_target = False
                continue
            # a KKT point: stop there unless it is a saddle on its support
            d = None if convex else _negative_curvature(Lb, sup, atol, cache.curvature)
            if d is None:
                w = _final_weights(Lb, w, g if len(values) == 1 else None, direct)
                break
            saddle = True
        elif len(values) == 1 and not convex:
            # the first step follows downward curvature, so that each start
            # descends its own way rather than toward a shared saddle
            d = _negative_curvature(Lb, sup, atol, cache.curvature)
        if d is None:
            if inv is None:
                sol = ss._solve_support(Lb, sup)
                direct = sup.tobytes(), sol
            else:  # column 0 of the inverse is (-s, w) in point coordinates
                col = inv.row(0)
                sol = col[1:][sup], -float(col[0])
            if sol is None:  # a singular system: a direction of zero curvature
                vals, dirs = _curvature(Lb, sup)
                d = dirs[:, int(np.argmin(np.abs(vals)))]
            else:
                t = sol[0]
                d = t - w[sup]
        # exactly balanced, or a long step would leave the simplex, by the sum
        # of d scattered over all k points, as _lockstep sums a row
        step[sup] = d
        d -= step.sum() / len(d)
        step[sup] = d
        Ld = Lb @ step
        slope = float(g @ step)  # the action along d: s + 2 a slope + a^2 curv
        curv = float(step @ Ld)
        step[sup] = 0.0
        if inv is not None and t is not None and not (
                np.abs(gs + Ld[sup] - sol[1]).max() <= _DRIFT_ATOL * atol):
            inv = None  # L(w + d) is not flat on S (or NaN): the updates drifted
            continue
        ws = w[sup]
        if saddle:  # the longer way to the boundary, which descends further
            flip = (ws[d > 0] / d[d > 0]).min() > (ws[d < 0] / -d[d < 0]).min()
        else:  # descend
            flip = slope > 0
        if flip:
            d, slope = -d, -slope
        # the minimum along d: the target (a = 1) when curv > 0; none along a
        # curvature direction, where the action is linear or curves down
        reach = -slope / curv if t is not None and curv > 0 else np.inf
        shrink = (d < 0).nonzero()[0]
        if len(shrink):  # else a balanced d that is 0: w is the target
            ratios = ws[shrink] / -d[shrink]
            i = int(ratios.argmin())  # the lowest point index on ties
            ratio = float(ratios[i])
            a, j = (reach, None) if reach <= ratio else (ratio, int(sup[shrink[i]]))
            w[sup] = np.maximum(ws + a * d, 0.0)
            g += (-a if flip else a) * Ld  # Ld is L of the unflipped d
            if j is not None:
                w[j] = 0.0
                on[j] = False
                if inv is None and len(sup) == k and not convex:
                    inv = cache.full_inverse(Lb)
                inv = _reborder(inv, Lb, on, j)
                at_target = False
                continue
        # d led to a target (a curvature direction is not 0 and never
        # reaches), and w stands at the stationary point of S's affine hull
        at_target = True
        key = sup.tobytes()
        if key in cache.ends:
            w = cache.ends[key].copy()
            break
        reached.append(key)
    else:  # the start fails, and maps nothing
        return None, values
    cache.ends.update(dict.fromkeys(reached, w))
    return w, values


def _final_weights(Lb: np.ndarray, w: np.ndarray, g=None, direct=None) -> np.ndarray:
    """The weights solved directly on the support S of ``w``; ``w`` itself,
    normalized, when that system is singular, or when ``g`` is given and
    constant on S to the last bit. Only a start that stops on its first
    iteration gives ``g``, its L w: the solver's rule, which a later end
    never takes. ``direct`` is an earlier (support as bytes,
    ``_solve_support``) pair; on that support it is reused, not solved again."""
    S = np.flatnonzero(w > 0)
    if g is not None and g[S].min() == g[S].max():
        return w / w.sum()
    if direct is not None and direct[0] == S.tobytes():
        sol = direct[1]
    else:
        sol = ss._solve_support(Lb, S)
    if sol is None:
        return w / w.sum()
    out = np.zeros(len(w))
    out[S] = np.clip(sol[0], 0.0, None)
    return out / out.sum()


def minimize_on_compact(problem, extra_starts=()) -> CompactSolution:
    """``cvp.minimize_on_compact`` with the starts run one after another by
    ``_active_set``, sharing one ``_BlockCache``: the same starts, selection
    and certification."""
    opts = problem.options
    Lb = problem.matrix
    k = len(problem.ids)
    if k == 1:
        w = np.ones(1)
        return CompactSolution(weights=w, kkt=_residuals(Lb, w), certified_global=True)
    try:
        np.linalg.cholesky(Lb)
        convex = True
    except np.linalg.LinAlgError:
        convex = False
    starts = [np.full(k, 1.0 / k)]
    if not convex:
        for i in (0, int(np.argmin(np.diag(Lb)))):
            ss._queue(starts, np.eye(1, k, i)[0])
        for extra in extra_starts:
            v = np.clip(np.asarray(extra, float), 0.0, None)
            if v.shape == (k,) and v.sum() > 0:
                ss._queue(starts, v / v.sum())
        rng = np.random.default_rng(np.random.SeedSequence([opts.seed, k]))
        for _ in range(ss._RESTARTS):
            starts.append(rng.dirichlet(np.ones(k)))
    atol = 1e-12 * max(1.0, float(np.abs(Lb).max()))
    accepted = []
    best_any = None
    capped = above = 0
    cache = _BlockCache()
    for w0 in starts:
        w, _ = _active_set(Lb, w0, atol, convex, cache)
        if w is None:
            capped += 1
            continue
        kkt = _residuals(Lb, w)
        val = kkt.s_param
        if best_any is None or val < best_any[0]:
            best_any = (val, w, kkt)
        if kkt.on_support_max <= opts.tol and kkt.min_over_k >= -opts.tol:
            accepted.append((val, tuple(int(i) for i in np.nonzero(w > 0)[0]), w))
        else:
            above += 1
    if not accepted:
        val, w, kkt = best_any or (None, None, None)
        raise SolverFailure(
            f"no start reached KKT tolerance {opts.tol}: {len(starts)} starts tried, "
            f"{capped} hit the iteration cap of {ss._MAX_ITER}, {above} ended above "
            f"the tolerance",
            best_weights=w, best_value=val, residuals=kkt)
    val, _, w = _select_best(accepted)
    certified = convex
    if not convex and k <= ss.ORACLE_CAP:
        certified = (k >= ss._DNN_MIN and val - ss._dnn_bound(Lb, val)
                     <= 0.5 * ss._CERT_REL * max(1.0, abs(val)))
        if not certified:
            oracle = ss.brute_force_minimizer(problem)
            certified = val <= oracle.value + ss._CERT_REL * max(1.0, abs(oracle.value))
    return CompactSolution(weights=w, kkt=_residuals(Lb, w), certified_global=certified)
