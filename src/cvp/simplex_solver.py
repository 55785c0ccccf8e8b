"""Minimization of the quadratic action over the probability simplex.

Two independent routes are provided. ``minimize_on_compact`` runs a primal
active-set method with a ratio test (Nocedal & Wright, *Numerical
Optimization*, Alg. 16.3; Bomze 1998 for the standard quadratic program) from
several starts. Every step stays on the simplex and never raises the action,
so the method cannot cycle except on exact ties, which the lowest point index
breaks; a start that runs ``_MAX_ITER`` iterations fails. The inverse of the
bordered support system is updated in O(m^2) per added or dropped point.
``brute_force_minimizer`` enumerates every support subset and is the test
oracle; the solver never adopts its weights, only compares values to set the
certification flag.

Stationarity convention: with value s = w'Lw, the averaged kernel Lw equals s
on the support and is >= s off the support.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, SizeError, SolverFailure

# Hard cap for the enumeration oracle.
ORACLE_CAP = 16

# Two candidates tie when their values agree to this relative window.
_TIE_REL = 1e-12

# Cap on the active-set iterations of one start; a start that reaches it fails.
_MAX_ITER = 10_000

# A Schur pivot this small, relative to the block scale, forces the bordered
# inverse to be refactored from scratch.
_PIVOT_REL = 1e-10

# The averaged kernel at a target read from the updated inverse must be flat
# on the support to this share of the block scale; past it, the inverse has
# lost accuracy to its updates and is refactored.
_DRIFT_REL = 1e-9

# Rows per block of an in-place rank-one update of the bordered inverse.
_ROWS = 64


@dataclass
class SolverOptions:
    tol: float = 1e-8
    restarts: int = 16
    seed: int = 0
    certify: bool = True


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
        m = np.asarray(self.matrix, dtype=float)
        n = len(ids)
        if m.shape != (n, n):
            raise InputError(f"kernel block must be {n}x{n}, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InputError("kernel block must be finite")
        if np.any(m < 0):
            raise InputError("kernel block must be nonnegative")
        if not np.allclose(m, m.T, rtol=0, atol=1e-12):
            raise InputError("kernel block must be symmetric")
        if np.any(np.diag(m) <= 0):
            raise InputError("kernel block needs a strictly positive diagonal")
        m = (m + m.T) / 2.0
        m.setflags(write=False)
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


def _solve_support(Lb: np.ndarray, S: np.ndarray | list[int],
                   work: np.ndarray | None = None):
    """Weights and multiplier on a fixed support: L_SS w = s, sum w = 1.

    The system is assembled in the memory of ``work`` when given.
    """
    m = len(S)
    if work is None:
        A = np.zeros((m + 1, m + 1))
    else:
        A = work.reshape(-1)[:(m + 1) ** 2].reshape(m + 1, m + 1)
        A[m, m] = 0.0
    A[:m, :m] = Lb[np.ix_(S, S)]
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


def _bordered_inverse(P: np.ndarray, Lb: np.ndarray, sup: np.ndarray) -> bool:
    """Write the inverse of the bordered matrix [[0, 1'], [1, L_SS]] of ``sup``
    into the leading block of ``P`` from scratch, point ``sup[j]`` at row
    j + 1; False when the matrix is singular."""
    n = len(sup) + 1
    B = P[:n, :n]
    B[0, 0] = 0.0
    B[0, 1:] = B[1:, 0] = 1.0
    B[1:, 1:] = Lb[np.ix_(sup, sup)]
    try:
        B[:] = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(B).all())


def _rank1(P: np.ndarray, n: int, u: np.ndarray, c: float) -> None:
    """``P[:n, :n] += c u u'`` in place, a block of rows at a time."""
    v = c * u
    for r in range(0, n, _ROWS):
        rows = slice(r, min(r + _ROWS, n))
        P[rows, :n] += np.multiply.outer(u[rows], v)


def _border(P: np.ndarray, Lb: np.ndarray, sup: np.ndarray, scale: float) -> bool:
    """Extend the inverse in ``P`` from the bordered matrix of ``sup[:-1]`` to
    that of ``sup`` (Schur complement). False, with ``P`` spoiled, on a
    near-zero pivot."""
    n = len(sup)
    i = sup[-1]
    b = np.empty(n)
    b[0] = 1.0
    b[1:] = Lb[sup[:-1], i]
    u = P[:n, :n] @ b
    sigma = float(Lb[i, i]) - float(b @ u)
    if abs(sigma) <= _PIVOT_REL * scale:
        return False
    _rank1(P, n, u, 1.0 / sigma)
    P[:n, n] = P[n, :n] = -u / sigma
    P[n, n] = 1.0 / sigma
    return True


def _unborder(P: np.ndarray, n: int, p: int, scale: float) -> bool:
    """Remove row and column ``p`` from the matrix whose inverse is ``P[:n, :n]``;
    the last row and column take their place. False, with ``P`` spoiled, on a
    near-zero pivot."""
    last = n - 1
    P[[p, last], :n] = P[[last, p], :n]
    P[:n, [p, last]] = P[:n, [last, p]]
    pivot = P[last, last]
    if abs(pivot) * scale <= _PIVOT_REL:
        return False
    _rank1(P, last, P[:last, last], -1.0 / pivot)
    return True


def _curvature(P: np.ndarray, Lb: np.ndarray, sup: np.ndarray):
    """The curvature of the action along balanced directions on ``sup``: the
    eigenvalues of Z'L_SS Z with Z = [I; -1'] (any basis has the same
    inertia), and the directions Z y of their eigenvectors y, as columns.
    It is singular exactly when the bordered matrix is. ``P`` is overwritten.
    """
    n = len(sup) - 1
    H = P.reshape(-1)[:n * n].reshape(n, n)
    H[:] = Lb[np.ix_(sup[:n], sup[:n])]
    edge = Lb[sup[:n], sup[n]]
    H -= edge[:, None]
    H -= edge[None, :]
    H += Lb[sup[n], sup[n]]
    vals, vecs = np.linalg.eigh(H)
    return vals, np.vstack([vecs, -vecs.sum(axis=0)])


def _negative_curvature(P: np.ndarray, Lb: np.ndarray, sup: np.ndarray,
                        atol: float) -> np.ndarray | None:
    """The balanced direction on ``sup`` of most negative curvature, or None
    when there is none beyond ``atol``. ``P`` is overwritten."""
    if len(sup) < 2:
        return None
    vals, dirs = _curvature(P, Lb, sup)
    return dirs[:, 0] if vals[0] < -atol else None


def _active_set(Lb: np.ndarray, w0: np.ndarray, atol: float, convex: bool = False):
    """Primal active-set descent with a ratio test from the feasible ``w0``.

    The support S starts as that of ``w0``. At a point that is not stationary
    on S, the step goes toward the target, the stationary point of the
    action on S (the bordered system [[0, 1'], [1, L_SS]]): fully when the
    action is convex along the way and no weight hits zero first, else to the
    boundary in the descending sign, dropping the point the ratio test hits.
    At a stationary point it adds the single most violated off-support point
    (lowest index on ties), or stops when none is violated by more than
    ``atol``. Unless the block is ``convex`` (positive definite), a stationary
    point where the action curves downward on S is a saddle: the step then
    follows that curvature to the boundary, as does the first step of a start
    whose support has it. The final weights are solved afresh on the final
    support.

    The inverse of the bordered matrix is formed at the first add or drop,
    then updated in place, and formed again after a near-zero pivot or when
    the target it gives is no longer stationary (``_DRIFT_REL``); until it is
    formed, the target comes from a direct solve. Returns the weights, or
    None when ``_MAX_ITER`` iterations pass, and the action at every
    iterate, which never rises.
    """
    k = Lb.shape[0]
    scale = max(1.0, float(np.abs(Lb).max()))
    w = np.array(w0, dtype=float)
    on = w > 0
    S = np.empty(k, dtype=np.intp)  # the support, in bordered-matrix row order
    m = int(on.sum())
    S[:m] = np.flatnonzero(on)
    P = np.empty((k + 1, k + 1))  # leading (m + 1)^2 block: the bordered inverse
    ok = False  # whether P holds the inverse for S
    values = []
    at_target = False
    for _ in range(_MAX_ITER):
        sup = S[:m]
        g = Lb @ w
        s = float(w @ g)
        values.append(s)
        t = d = None
        if at_target or float(np.abs(g[sup] - s).max()) <= atol:
            i = int(np.argmin(np.where(on, np.inf, g)))
            if not on[i] and g[i] < s - atol:
                S[m] = i
                m += 1
                on[i] = True
                ok = _border(P, Lb, S[:m], scale) if ok else _bordered_inverse(P, Lb, S[:m])
                at_target = False
                continue
            # a KKT point: stop there unless it is a saddle on its support
            d = None if convex else _negative_curvature(P, Lb, sup, atol)
            if d is None:
                return _final_weights(Lb, w, P), values
            ok = False
        elif len(values) == 1 and not convex:
            # the first step follows downward curvature, so that each start
            # descends its own way rather than toward a shared saddle
            d = _negative_curvature(P, Lb, sup, atol)
        if d is None:
            if ok:
                t = P[1:m + 1, 0]
            else:
                sol = _solve_support(Lb, sup, P)
                t = None if sol is None else sol[0]
            if t is None:  # a singular system: a direction of zero curvature
                vals, dirs = _curvature(P, Lb, sup)
                d = dirs[:, int(np.argmin(np.abs(vals)))]
            else:
                d = t - w[sup]
        d -= d.mean()  # exactly balanced, or a long step would leave the simplex
        full = np.zeros(k)
        full[sup] = d
        Ld = Lb @ full
        if ok and np.ptp(g[sup] + Ld[sup]) > _DRIFT_REL * scale:
            ok = False  # the updates lost the target's stationarity: refactor
            continue
        slope = float(g @ full)  # the action along d: s + 2 a slope + a^2 curv
        curv = float(full @ Ld)
        if slope > 0:  # descend
            d, slope = -d, -slope
        # the minimum along d: the target (a = 1) when curv > 0; none along a
        # curvature direction, where the action is linear or curves down
        reach = -slope / curv if t is not None and curv > 0 else np.inf
        ws = w[sup]
        shrink = d < 0
        if not shrink.any():  # a balanced d that is 0: w is the target
            at_target = True
            continue
        ratios = np.full(m, np.inf)
        ratios[shrink] = ws[shrink] / -d[shrink]
        ratio = float(ratios.min())
        if reach <= ratio:
            w[sup] = np.maximum(ws + reach * d, 0.0)
            at_target = True
            continue
        w[sup] = np.maximum(ws + ratio * d, 0.0)
        hit = np.flatnonzero(ratios == ratio)
        p = int(hit[np.argmin(sup[hit])])  # lowest point index on ties
        j = int(sup[p])
        w[j] = 0.0
        on[j] = False
        at_target = False
        ok = ok and _unborder(P, m + 1, p + 1, scale)
        S[p] = S[m - 1]
        m -= 1
        ok = ok or _bordered_inverse(P, Lb, S[:m])
    return None, values


def _final_weights(Lb: np.ndarray, w: np.ndarray, work: np.ndarray) -> np.ndarray:
    """The weights solved directly on the support of ``w``; ``w`` itself when
    that system is singular."""
    S = np.flatnonzero(w > 0)
    sol = _solve_support(Lb, S, work)
    if sol is None:
        return w / w.sum()
    out = np.zeros(len(w))
    out[S] = np.clip(sol[0], 0.0, None)
    return out / out.sum()


def _select_best(cands: list[tuple[float, tuple[int, ...], np.ndarray]]):
    best_val = min(c[0] for c in cands)
    window = _TIE_REL * max(1.0, abs(best_val))
    tied = [c for c in cands if c[0] <= best_val + window]
    tied.sort(key=lambda c: c[1])  # lexicographic support tie-break, point order
    return tied[0]


def minimize_on_compact(problem: CompactProblem, extra_starts=()) -> CompactSolution:
    """Best stationary point found over all starts.

    Starts: uniform, first vertex, minimum-diagonal vertex, caller-supplied
    warm starts, then Dirichlet restarts; each runs ``_active_set``. Raises
    ``SolverFailure`` when no start reaches the KKT tolerance, naming how many
    starts hit the iteration cap and how many ended above the tolerance.
    """
    opts = problem.options
    Lb = problem.matrix
    k = len(problem.ids)
    if k == 1:
        w = np.ones(1)
        return CompactSolution(weights=w, kkt=_residuals(Lb, w), certified_global=True)
    starts: list[np.ndarray] = [np.full(k, 1.0 / k)]
    e0 = np.zeros(k)
    e0[0] = 1.0
    starts.append(e0)
    emin = np.zeros(k)
    emin[int(np.argmin(np.diag(Lb)))] = 1.0
    starts.append(emin)
    for extra in extra_starts:
        v = np.clip(np.asarray(extra, float), 0.0, None)
        if v.shape == (k,) and v.sum() > 0:
            starts.append(v / v.sum())
    rng = np.random.default_rng(np.random.SeedSequence([opts.seed, k]))
    for _ in range(max(0, opts.restarts)):
        starts.append(rng.dirichlet(np.ones(k)))

    atol = 1e-12 * max(1.0, float(np.abs(Lb).max()))
    try:  # on a positive definite block every KKT point is the minimum
        np.linalg.cholesky(Lb)
        convex = True
    except np.linalg.LinAlgError:
        convex = False
    accepted = []
    best_any = None
    capped = above = 0
    for w0 in starts:
        w, _ = _active_set(Lb, w0, atol, convex)
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
    certified = False
    if opts.certify and k <= ORACLE_CAP:
        oracle = brute_force_minimizer(problem)
        certified = val <= oracle.value + 1e-6 * max(1.0, abs(oracle.value))
    return CompactSolution(weights=w, kkt=kkt, certified_global=certified)


def brute_force_minimizer(problem: CompactProblem) -> CompactSolution:
    """Global minimum by support enumeration (test oracle, |K| <= 16).

    Supports whose solved weights stay positive and meet the off-support
    condition are candidates; every simplex vertex is kept unconditionally;
    singular support systems are skipped and counted. Each candidate value is
    a genuine feasible action value, so the minimum never undershoots.
    """
    Lb = problem.matrix
    k = len(problem.ids)
    if k > ORACLE_CAP:
        raise SizeError(f"brute force is capped at {ORACLE_CAP} points, got {k}")
    scale = max(1.0, float(np.abs(Lb).max()))
    off_slack = 1e-10 * scale
    cands: list[tuple[float, tuple[int, ...], np.ndarray]] = []
    for mask in range(1, 1 << k):
        S = [i for i in range(k) if mask >> i & 1]
        w = np.zeros(k)
        if len(S) == 1:
            w[S[0]] = 1.0
            cands.append((float(Lb[S[0], S[0]]), tuple(S), w))
            continue
        sol = _solve_support(Lb, S)
        if sol is None:
            continue
        wS, _ = sol
        if wS.min() <= 1e-14:
            continue
        w[S] = wS
        w /= w.sum()
        g = Lb @ w
        s = float(w @ g)
        off = np.ones(k, dtype=bool)
        off[S] = False
        if off.any() and float(g[off].min()) < s - off_slack:
            continue
        cands.append((s, tuple(S), w))
    val, _, w = _select_best(cands)
    return CompactSolution(weights=w, kkt=_residuals(Lb, w), certified_global=True)
