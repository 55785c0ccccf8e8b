"""Minimization of the quadratic action over the probability simplex.

Two independent routes are provided. ``minimize_on_compact`` runs a primal
active-set method with a ratio test (Nocedal & Wright, *Numerical
Optimization*, Alg. 16.3; Bomze 1998 for the standard quadratic program).
Every step stays on the simplex and never raises the action, so the method
cannot cycle except on exact ties, which the lowest point index breaks; a
start that runs ``_MAX_ITER`` iterations fails. On a positive definite block
the program is strictly convex and one start finds its global minimum; any
other block gets several starts. ``brute_force_minimizer`` enumerates every
support subset: it certifies every block of at most ``ORACLE_CAP`` points
that is not positive definite, and backs ``cvp oracle``. The solver never
adopts its weights, only compares values to set the certification flag.

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

# Cells of the stacked bordered systems the oracle solves at a time, so a
# chunk holds about 128 KB whatever the support size.
_CHUNK_CELLS = 1 << 14

# Dirichlet restarts of a block that is not positive definite.
_RESTARTS = 16

# Two candidates tie when their values agree to this relative window.
_TIE_REL = 1e-12

# Cap on the active-set iterations of one start; a start that reaches it fails.
_MAX_ITER = 10_000


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


def _negative_curvature(Lb: np.ndarray, sup: np.ndarray, atol: float) -> np.ndarray | None:
    """The balanced direction on ``sup`` of most negative curvature, or None
    when there is none beyond ``atol``."""
    if len(sup) < 2:
        return None
    vals, dirs = _curvature(Lb, sup)
    return dirs[:, 0] if vals[0] < -atol else None


def _active_set(Lb: np.ndarray, w0: np.ndarray, atol: float, convex: bool = False):
    """Primal active-set descent with a ratio test from the feasible ``w0``.

    The support S starts as that of ``w0``. At a point that is not stationary
    on S, the step goes toward the target, the stationary point of the
    action on S (the bordered system [[0, 1'], [1, L_SS]], solved afresh):
    fully when the action is convex along the way and no weight hits zero
    first, else to the boundary in the descending sign, dropping the point
    the ratio test hits (lowest index on ties). At a stationary point it adds
    the single most violated off-support point (lowest index on ties), or
    stops when none is violated by more than ``atol``. Unless the block is
    ``convex`` (positive definite), a stationary point where the action
    curves downward on S is a saddle: the step then follows that curvature to
    the boundary, as does the first step of a start whose support has it.
    The final weights are solved afresh on the final support.

    Returns the weights, or None when ``_MAX_ITER`` iterations pass, and the
    action at every iterate, which never rises.
    """
    k = Lb.shape[0]
    w = np.array(w0, dtype=float)
    on = w > 0
    values = []
    at_target = False
    for _ in range(_MAX_ITER):
        sup = np.flatnonzero(on)
        g = Lb @ w
        s = float(w @ g)
        values.append(s)
        t = d = None
        if at_target or float(np.abs(g[sup] - s).max()) <= atol:
            i = int(np.argmin(np.where(on, np.inf, g)))
            if not on[i] and g[i] < s - atol:
                on[i] = True
                at_target = False
                continue
            # a KKT point: stop there unless it is a saddle on its support
            d = None if convex else _negative_curvature(Lb, sup, atol)
            if d is None:
                return _final_weights(Lb, w), values
        elif len(values) == 1 and not convex:
            # the first step follows downward curvature, so that each start
            # descends its own way rather than toward a shared saddle
            d = _negative_curvature(Lb, sup, atol)
        if d is None:
            sol = _solve_support(Lb, sup)
            if sol is None:  # a singular system: a direction of zero curvature
                vals, dirs = _curvature(Lb, sup)
                d = dirs[:, int(np.argmin(np.abs(vals)))]
            else:
                t = sol[0]
                d = t - w[sup]
        d -= d.mean()  # exactly balanced, or a long step would leave the simplex
        full = np.zeros(k)
        full[sup] = d
        Ld = Lb @ full
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
        ratios = np.full(len(sup), np.inf)
        ratios[shrink] = ws[shrink] / -d[shrink]
        ratio = float(ratios.min())
        if reach <= ratio:
            w[sup] = np.maximum(ws + reach * d, 0.0)
            at_target = True
            continue
        w[sup] = np.maximum(ws + ratio * d, 0.0)
        j = int(sup[np.flatnonzero(ratios == ratio)[0]])  # lowest point index on ties
        w[j] = 0.0
        on[j] = False
        at_target = False
    return None, values


def _final_weights(Lb: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The weights solved directly on the support of ``w``; ``w`` itself when
    that system is singular."""
    S = np.flatnonzero(w > 0)
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
    first vertex) is not run again. Such a block is certified when it has at
    most ``ORACLE_CAP`` points and the oracle's value agrees. Raises
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
    certified = convex
    if not convex and k <= ORACLE_CAP:
        oracle = brute_force_minimizer(problem)
        certified = val <= oracle.value + 1e-6 * max(1.0, abs(oracle.value))
    return CompactSolution(weights=w, kkt=kkt, certified_global=certified)


def brute_force_minimizer(problem: CompactProblem) -> CompactSolution:
    """Global minimum by support enumeration (|K| <= ``ORACLE_CAP``).

    It certifies every block of ``minimize_on_compact`` that is not positive
    definite and backs ``cvp oracle``. Every simplex vertex is a candidate
    unconditionally. The supports of each size m >= 2 are enumerated lazily in
    lexicographic order, in chunks of at most ``_CHUNK_CELLS`` cells: a chunk's
    bordered systems are stacked and solved in one call, or one by one when
    any of them is singular, and singular systems are skipped. A support whose
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
