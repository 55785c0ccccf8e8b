"""Minimization of the quadratic action over the probability simplex.

Two independent routes are provided. ``minimize_on_compact`` runs a primal
active-set method with a ratio test (Nocedal & Wright, *Numerical
Optimization*, Alg. 16.3; Bomze 1998 for the standard quadratic program).
Every step stays on the simplex and never raises the action, so the method
cannot cycle except on exact ties, which the lowest point index breaks; a
start that runs ``_MAX_ITER`` iterations fails. Consecutive supports differ
by one point, so from a start's first change of support on, the inverse of
its bordered matrix is kept in point coordinates (``_PointInverse``), where
an add and a drop are each one rank-one term, folded into the matrix in
blocks of ``_FOLD``; it is formed afresh after a near-singular update or a
target that has drifted from stationarity. On a positive definite block the
program is strictly convex and one start finds its global minimum; any other
block gets several starts, which share a cache (``_BlockCache``): the
direction of most negative curvature of each support they meet, so each
support is decomposed once per block; the bordered inverse of the full
support, formed once, a copy of which each start's first drop from it
updates; and the ends of
earlier starts, so a start that steps onto the stationary point of a
support where an earlier start stood returns that start's weights, with the
actions up to there, a prefix of those it would list alone.
Such a block of at most ``ORACLE_CAP`` points is certified by ``_dnn_bound``,
a lower bound from the doubly nonnegative dual, when the bound meets the
solver's value, and otherwise by ``brute_force_minimizer``, which enumerates
every support subset and backs ``cvp oracle``. The solver never adopts the
oracle's weights, only compares values to set the certification flag.

Stationarity convention: with value s = w'Lw, the averaged kernel Lw equals s
on the support and is >= s off the support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations, islice

import numpy as np

from .errors import InputError, SizeError, SolverFailure
from .space import symmetric_matrix

# Hard cap for the enumeration oracle.
ORACLE_CAP = 16

# The oracle certifies a value within this relative window of its own.
_CERT_REL = 1e-6

# Blocks of at least this many points try ``_dnn_bound`` before the oracle.
# Mean times on 12 random indefinite blocks of each size k (2 cores, one BLAS
# thread), oracle against bound plus the oracle where it does not certify:
# k = 10: 5.6 against 8.3 ms; 11: 10.4 against 8.9 ms; 13: 32 against 11 ms.
_DNN_MIN = 11

# Cap on the ADMM iterations of ``_dnn_bound``.
_DNN_ITER = 400

# Cells of the stacked bordered systems the oracle solves at a time, so a
# chunk holds about 128 KB whatever the support size.
_CHUNK_CELLS = 1 << 14

# Dirichlet restarts of a block that is not positive definite.
_RESTARTS = 16

# Two candidates tie when their values agree to this relative window.
_TIE_REL = 1e-12

# Cap on the active-set iterations of one start; a start that reaches it fails.
_MAX_ITER = 10_000

# The bordered inverse is formed afresh when the Schur complement sigma of the
# point j that joins has |sigma| <= _PIVOT_REL L_jj, or that of the point that
# leaves has |sigma| >= L_jj / _PIVOT_REL: the new matrix is near singular.
_PIVOT_REL = 1e-10

# A target read from the updated bordered inverse must be stationary on its
# support to this many stopping tolerances; past it, it is solved afresh.
_DRIFT_ATOL = 1e3

# Rank-one updates of a bordered inverse wait as vectors, and every this many
# are added into its matrix with one product (``_PointInverse``).
_FOLD = 16


@dataclass
class SolverOptions:
    tol: float = 1e-8
    seed: int = 0


@dataclass(frozen=True)
class KKTResiduals:
    on_support_max: float
    min_over_k: float
    s_param: float


@dataclass(frozen=True)
class CompactProblem:
    ids: tuple[str, ...]
    matrix: np.ndarray
    options: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        ids = tuple(str(i) for i in self.ids)
        if not ids:
            raise InputError("a compact problem needs at least one point")
        m = symmetric_matrix(self.matrix, len(ids), "kernel block", InputError)
        if np.any(np.diag(m) <= 0):
            raise InputError("kernel block needs a strictly positive diagonal")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class CompactSolution:
    weights: np.ndarray
    kkt: KKTResiduals
    certified_global: bool

    @property
    def value(self) -> float:
        return self.kkt.s_param

    @property
    def s_param(self) -> float:
        return self.kkt.s_param


def _residuals(Lb: np.ndarray, w: np.ndarray) -> KKTResiduals:
    g = Lb @ w
    s = float(w @ g)
    supp = w > 0
    on = float(np.abs(g[supp] - s).max()) if supp.any() else 0.0
    return KKTResiduals(on_support_max=on, min_over_k=float((g - s).min()), s_param=s)


def _solve_support(Lb: np.ndarray, S: np.ndarray | list[int]):
    """Weights and multiplier on a fixed support of ascending indices:
    L_SS w = s, sum w = 1."""
    m = len(S)
    A = np.zeros((m + 1, m + 1))
    # the whole block needs no gather; below about 200 points the two-step
    # gather of a subset is 2-3x faster than np.ix_
    A[:m, :m] = Lb if m == len(Lb) else Lb[S][:, S]
    A[:m, m] = -1.0
    A[m, :m] = 1.0
    b = np.zeros(m + 1)
    b[m] = 1.0
    try:
        sol = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(sol)):
        return None
    return sol[:m], float(sol[m])


def _bordered_inverse(Lb: np.ndarray, sup: np.ndarray):
    """The inverse of the bordered matrix [[0, 1'], [1, L_SS]] of the ascending
    ``sup`` in point coordinates, a (k + 1)-square matrix: row and column 0
    are the border, 1 + x those of point x, and those of points off ``sup``
    are 0. None when the matrix is singular. Column 0 is (-s, w) of
    ``_solve_support`` with w scattered by point."""
    m = len(sup)
    A = np.zeros((m + 1, m + 1))
    A[0, 1:] = A[1:, 0] = 1.0
    A[1:, 1:] = Lb if m == len(Lb) else Lb[sup][:, sup]
    try:
        Q = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(Q).all():
        return None
    if m == len(Lb):
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


def _balanced_form(Lb: np.ndarray, sup: np.ndarray) -> np.ndarray:
    """Z'L_SS Z with Z = [I; -1']: the action's curvature along the balanced
    directions on ``sup`` (of at least 2 points) in the basis of their first
    len(sup) - 1 entries; any basis has the same inertia. It is singular
    exactly when the bordered matrix is."""
    n = len(sup) - 1
    edge = Lb[sup[:n], sup[n]]
    return Lb[np.ix_(sup[:n], sup[:n])] - edge[:, None] - edge[None, :] + Lb[sup[n], sup[n]]


def _curvature(Lb: np.ndarray, sup: np.ndarray):
    """The eigenvalues of ``_balanced_form`` on ``sup``, ascending, and the
    directions Z y of their eigenvectors y, as columns."""
    vals, vecs = np.linalg.eigh(_balanced_form(Lb, sup))
    return vals, np.vstack([vecs, -vecs.sum(axis=0)])


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

    The support S starts as that of ``w0``. At a point that is not stationary
    on S, the step goes toward the target, the stationary point of the
    action on S (the bordered system [[0, 1'], [1, L_SS]]): fully when the
    action is convex along the way and no weight hits zero first, else to
    the boundary in the descending sign, dropping the point the ratio test
    hits (lowest index on ties). At a stationary point it adds the single
    most violated off-support point (lowest index on ties), or stops when
    none is violated by more than ``atol``. Unless the block is ``convex``
    (positive definite), a stationary point where the action curves downward
    on S is a saddle: the step then follows that curvature to the boundary,
    the longer way of the two (the slope there is rounding), as does the
    first step of a start whose support has it, downhill.

    A start's first target is solved directly. Its first change of S forms
    the bordered inverse in point coordinates (``_PointInverse``), which each
    later add or drop updates by one rank-one term (``_reborder``) and whose
    column 0 gives the target; unless the block is ``convex``, a drop from
    the full support updates a copy of the cache's full inverse instead. A
    target off stationarity on S by more than ``_DRIFT_ATOL`` stopping
    tolerances (seen in L d) is solved directly, and the next change of S
    forms the inverse afresh. The final weights are solved directly on the
    final support, by reusing the last direct solve when it was on that
    support (as when a convex start never leaves its first support). The
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
    w = np.array(w0, dtype=float)
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
    for _ in range(_MAX_ITER):
        sup = on.nonzero()[0]
        s = float(w @ g)
        values.append(s)
        gs = g[sup]
        t = d = None
        saddle = False
        if at_target or (gs.max() - s <= atol and s - gs.min() <= atol):
            i = int(np.where(on, np.inf, g).argmin())
            if not on[i] and g[i] < s - atol:
                on[i] = True
                inv = _reborder(inv, Lb, on, i)
                at_target = False
                continue
            # a KKT point: stop there unless it is a saddle on its support
            d = None if convex else _negative_curvature(Lb, sup, atol, cache.curvature)
            if d is None:
                w = _final_weights(Lb, w, direct)
                break
            saddle = True
        elif len(values) == 1 and not convex:
            # the first step follows downward curvature, so that each start
            # descends its own way rather than toward a shared saddle
            d = _negative_curvature(Lb, sup, atol, cache.curvature)
        if d is None:
            if inv is None:
                sol = _solve_support(Lb, sup)
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
        d -= d.sum() / len(d)  # exactly balanced, or a long step would leave the simplex
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


def _final_weights(Lb: np.ndarray, w: np.ndarray, direct=None) -> np.ndarray:
    """The weights solved directly on the support of ``w``; ``w`` itself when
    that system is singular. ``direct`` is an earlier (support as bytes,
    ``_solve_support``) pair; on that support it is reused, not solved again."""
    S = np.flatnonzero(w > 0)
    if direct is not None and direct[0] == S.tobytes():
        sol = direct[1]
    else:
        sol = _solve_support(Lb, S)
    if sol is None:
        return w / w.sum()
    out = np.zeros(len(w))
    out[S] = np.clip(sol[0], 0.0, None)
    return out / out.sum()


def _tied(cands: list[tuple[float, tuple[int, ...], np.ndarray]]):
    """The candidates whose values lie within the tie window of the least."""
    best_val = min(c[0] for c in cands)
    window = _TIE_REL * max(1.0, abs(best_val))
    return [c for c in cands if c[0] <= best_val + window]


def _select_best(cands: list[tuple[float, tuple[int, ...], np.ndarray]]):
    # lexicographic support tie-break, point order; the first on equal supports
    return min(_tied(cands), key=lambda c: c[1])


def _queue(starts: list[np.ndarray], w0: np.ndarray) -> None:
    """Append the start ``w0`` unless an equal one is queued: it would end at
    the same point."""
    if not any(np.array_equal(w0, s) for s in starts):
        starts.append(w0)


def minimize_on_compact(problem: CompactProblem, extra_starts=()) -> CompactSolution:
    """Best stationary point found over all starts.

    A positive definite block (its Cholesky factorization succeeds) makes the
    program strictly convex, so its one KKT point is the global minimum: it
    gets the uniform start alone and is certified by convexity. Any other
    block starts from the uniform point, the first vertex, the
    minimum-diagonal vertex, caller-supplied warm starts and ``_RESTARTS``
    Dirichlet draws, each running ``_active_set``; a start equal to one
    already queued (the minimum-diagonal vertex of a constant diagonal is the
    first vertex) is not run again. The starts share one ``_BlockCache``
    for the call (``_active_set``): each support's balanced form is
    decomposed once, the full support's bordered inverse is formed once, and
    a start that reaches the stationary point of a support where an earlier
    start stood returns that start's weights, as it would have ended alone.
    Such a block of at most ``ORACLE_CAP`` points is
    certified when its value is within half ``_CERT_REL`` of ``_dnn_bound``
    (from ``_DNN_MIN`` points on) or else within ``_CERT_REL`` of the
    oracle's: the bound lies below the oracle's value, so the flag is the
    one the oracle alone would set. Raises
    ``SolverFailure`` when no start reaches the KKT tolerance, naming how many
    starts hit the iteration cap and how many ended above the tolerance.
    """
    opts = problem.options
    Lb = problem.matrix
    k = len(problem.ids)
    if k == 1:
        w = np.ones(1)
        return CompactSolution(weights=w, kkt=_residuals(Lb, w), certified_global=True)
    try:  # on a positive definite block every KKT point is the minimum
        np.linalg.cholesky(Lb)
        convex = True
    except np.linalg.LinAlgError:
        convex = False
    starts: list[np.ndarray] = [np.full(k, 1.0 / k)]
    if not convex:
        for i in (0, int(np.argmin(np.diag(Lb)))):
            _queue(starts, np.eye(1, k, i)[0])
        for extra in extra_starts:
            v = np.clip(np.asarray(extra, float), 0.0, None)
            if v.shape == (k,) and v.sum() > 0:
                _queue(starts, v / v.sum())
        rng = np.random.default_rng(np.random.SeedSequence([opts.seed, k]))
        for _ in range(_RESTARTS):
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
            supp = tuple(int(i) for i in np.nonzero(w > 0)[0])
            accepted.append((val, supp, w))
        else:
            above += 1
    if not accepted:
        val, w, kkt = best_any or (None, None, None)
        raise SolverFailure(
            f"no start reached KKT tolerance {opts.tol}: {len(starts)} starts tried, "
            f"{capped} hit the iteration cap of {_MAX_ITER}, {above} ended above "
            f"the tolerance",
            best_weights=w, best_value=val,
            residuals=kkt)
    val, _, w = _select_best(accepted)
    kkt = _residuals(Lb, w)
    certified = convex
    if not convex and k <= ORACLE_CAP:
        # the bound lies below the oracle's value, so a value within half the
        # window of it passes the oracle's test too; the oracle decides the rest
        certified = (k >= _DNN_MIN and val - _dnn_bound(Lb, val)
                     <= 0.5 * _CERT_REL * max(1.0, abs(val)))
        if not certified:
            oracle = brute_force_minimizer(problem)
            certified = val <= oracle.value + _CERT_REL * max(1.0, abs(oracle.value))
    return CompactSolution(weights=w, kkt=kkt, certified_global=certified)


def _dnn_bound(Lb: np.ndarray, s: float) -> float:
    """A lower bound on the least w'Lw over the simplex from the doubly
    nonnegative dual (Bomze & de Klerk 2002; Burer 2009): for symmetric
    N >= 0, every X >= 0 with X psd and sum(X) = 1, ww' among them, has
    <L, X> >= s + min(0, lambda_min(M)) with M = L - N - s 11'.

    N is read from the scaled multiplier U of a consensus ADMM on min <L, X>
    over such X, split as X psd, Z >= 0 with sum(Z) = 1, and X = Z, from
    Z = 11'/k^2: X is the psd part of Z - U - L/rho, Z the projection of
    X + U, and U gains X - Z. Every 10 iterations N = max(0, -(rho U + s))
    gives a bound, less a margin for the rounding of M and of its least
    eigenvalue; the greatest is returned once within half ``_CERT_REL`` of
    s, or after ``_DNN_ITER`` iterations."""
    k = len(Lb)
    rho = max(1.0, float(np.abs(Lb).max()))
    Lr = Lb / rho
    Z = np.full((k, k), 1.0 / k ** 2)
    U = np.zeros((k, k))
    ranks = np.arange(1, k * k + 1)
    best = -np.inf
    for it in range(1, _DNN_ITER + 1):
        lam, V = np.linalg.eigh(Z - U - Lr)
        V = V[:, lam > 0]
        X = (V * lam[lam > 0]) @ V.T
        v = (X + U).ravel()
        # onto {Z >= 0, sum(Z) = 1}: the shift that keeps the r largest entries
        u = -np.sort(-v)
        css = np.cumsum(u) - 1.0
        r = np.count_nonzero(u * ranks > css)
        Z = np.maximum(v - css[r - 1] / r, 0.0).reshape(k, k)
        U += X - Z
        if it % 10 == 0:
            N = np.maximum(-(rho * U + s), 0.0)
            N = np.maximum(N, N.T)
            # forming M rounds an entry by at most eps (|L| + N + |s|), and
            # eigvalsh is backward stable to a small multiple of k eps ||M||
            scale = float((np.abs(Lb) + N + abs(s)).sum(axis=1).max())
            margin = 4 * k * np.finfo(float).eps * scale
            best = max(best, s + min(0.0, float(np.linalg.eigvalsh(Lb - N - s)[0]) - margin))
            if s - best <= 0.5 * _CERT_REL * max(1.0, abs(s)):
                break
    return best


def brute_force_minimizer(problem: CompactProblem) -> CompactSolution:
    """Global minimum by support enumeration (|K| <= ``ORACLE_CAP``).

    It certifies the blocks of ``minimize_on_compact`` that are not positive
    definite and that ``_dnn_bound`` leaves open, and backs ``cvp oracle``.
    Every simplex vertex is a candidate unconditionally. The supports of each
    size m >= 2 are enumerated lazily in lexicographic order, in chunks of at
    most ``_CHUNK_CELLS`` cells: a chunk's bordered systems are stacked and
    solved in one call, or one by one when any of them is singular, and
    singular systems are skipped. A support whose
    solved weights stay positive and meet the off-support condition is a
    candidate. Only the least candidates within the tie window are kept as
    the enumeration runs; the lexicographically first support among them
    wins. Each candidate value is a genuine feasible action value, so the
    minimum never undershoots.
    """
    Lb = problem.matrix
    k = len(problem.ids)
    if k > ORACLE_CAP:
        raise SizeError(f"brute force is capped at {ORACLE_CAP} points, got {k}")
    scale = max(1.0, float(np.abs(Lb).max()))
    off_slack = 1e-10 * scale
    vertices = []
    for i in range(k):
        w = np.zeros(k)
        w[i] = 1.0
        vertices.append((float(Lb[i, i]), (i,), w))
    best = _tied(vertices)
    for m in range(2, k + 1):
        supports = combinations(range(k), m)
        rows = max(1, _CHUNK_CELLS // (m + 1) ** 2)
        while True:
            S = np.fromiter(chain.from_iterable(islice(supports, rows)), np.intp).reshape(-1, m)
            if not len(S):
                break
            cands = []
            for row, wS in zip(*_positive_solutions(Lb, S)):
                w = np.zeros(k)
                w[row] = wS
                w /= w.sum()
                g = Lb @ w
                s = float(w @ g)
                off = np.ones(k, dtype=bool)
                off[row] = False
                if off.any() and float(g[off].min()) < s - off_slack:
                    continue
                cands.append((s, tuple(row.tolist()), w))
            if cands:
                best = _tied(best + cands)
    w = _select_best(best)[2]
    return CompactSolution(weights=w, kkt=_residuals(Lb, w), certified_global=True)


def _positive_solutions(Lb: np.ndarray, S: np.ndarray):
    """The rows of ``S`` (supports of m ascending indices) whose bordered
    system ``_solve_support`` solves with every weight above 1e-14, and those
    weights. The systems are solved as one stack; when one of them is singular
    the stack fails as a whole and each is solved on its own instead.
    """
    C, m = S.shape
    A = np.empty((C, m + 1, m + 1))
    A[:, :m, :m] = Lb[S[:, :, None], S[:, None, :]]
    A[:, :m, m] = -1.0
    A[:, m, :m] = 1.0
    A[:, m, m] = 0.0
    b = np.zeros((C, m + 1, 1))  # a stack of columns: numpy reads a 2-D b as one matrix
    b[:, m] = 1.0
    try:
        sol = np.linalg.solve(A, b)[:, :, 0]
    except np.linalg.LinAlgError:
        sol = np.full((C, m + 1), np.nan)  # a singular system stays NaN and is dropped
        for i, row in enumerate(S):
            one = _solve_support(Lb, row)
            if one is not None:
                sol[i, :m], sol[i, m] = one
    keep = np.isfinite(sol).all(axis=1) & (sol[:, :m].min(axis=1) > 1e-14)
    return S[keep], sol[keep, :m]
