"""Minimization of the quadratic action over the probability simplex.

Two independent routes are provided. ``minimize_on_compact`` runs a primal
active-set method with a ratio test (Nocedal & Wright, *Numerical
Optimization*, Alg. 16.3; Bomze 1998 for the standard quadratic program).
Every step stays on the simplex and never raises the action; a step of
length zero leaves it level, so only ``_MAX_ITER`` bounds a start in
general, and a start that reaches it fails. Of exact twins, points with
equal kernel rows, only the first joins a support (``_fold_twins``): a
support holding two is singular, and its solved target, rounding along their
difference, can hold a start at steps of length zero until the cap. On a
positive definite block the program is strictly convex and one start finds
its global minimum (``_dominant`` certifies a strictly diagonally dominant
block in O(k^2), and the Cholesky factorization any other); any other block
gets several starts, run in lockstep as one batch (``_lockstep``, state in
``_Lanes``), each ending as it would alone, to the last bit. A block that is
not positive definite and has at most ``ORACLE_CAP`` points is certified by
``_dnn_bound``, a lower bound from the doubly nonnegative dual, when the
bound meets the solver's value, and otherwise by ``brute_force_minimizer``,
which enumerates every support subset and backs ``cvp oracle``. The solver never adopts the oracle's
weights, only compares values to set the certification flag.

Stationarity convention: with value s = w'Lw, the averaged kernel Lw equals s
on the support and is >= s off the support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import chain, combinations, islice

import numpy as np

from .errors import InputError, SolverFailure
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

# Machine epsilon and the least normal float, for the margin of ``_dominant``.
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

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
# are added into its matrix with one product (``_Lanes``).
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
    """A standard quadratic program: minimize w'Mw over the simplex on ``ids``.

    Construction validates ``matrix`` as ``symmetric_matrix`` does (finite,
    nonnegative, symmetric, then made exactly so) with a strictly positive
    diagonal, and keeps a read-only copy. ``_block_problem`` makes one from a
    block cut from a kernel that was validated when its ``Lagrangian`` was
    built, without a second pass.
    """

    ids: tuple[str, ...]
    matrix: np.ndarray
    options: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        ids = tuple(str(i) for i in self.ids)
        if not ids:
            raise InputError("a compact problem needs at least one point")
        m = symmetric_matrix(self.matrix, len(ids), "kernel block")
        if np.any(np.diag(m) <= 0):
            raise InputError("kernel block needs a strictly positive diagonal")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "matrix", m)


def _block_problem(ids: tuple[str, ...], block: np.ndarray,
                   options: SolverOptions) -> CompactProblem:
    """The problem on a principal block of a validated kernel matrix, taken
    as it is: such a block is exactly symmetric, nonnegative, finite and
    positive on its diagonal already. The block is made read-only."""
    block.setflags(write=False)
    problem = object.__new__(CompactProblem)
    for name, value in (("ids", ids), ("matrix", block), ("options", options)):
        object.__setattr__(problem, name, value)
    return problem


@dataclass(frozen=True)
class CompactSolution:
    weights: np.ndarray
    kkt: KKTResiduals
    certified_global: bool

    @property
    def value(self) -> float:
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
    ``sup``, in its own coordinates: row and column 0 are the border, 1 + i
    those of sup[i]. None when the matrix is singular. Column 0 is (-s, w) of
    ``_solve_support``."""
    m = len(sup)
    A = np.zeros((m + 1, m + 1))
    A[0, 1:] = A[1:, 0] = 1.0
    A[1:, 1:] = Lb if m == len(Lb) else Lb[sup][:, sup]
    try:
        Q = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        return None
    return Q if np.isfinite(Q).all() else None


def _rowdot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row by row a @ b, each by the BLAS dot that one row alone takes."""
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


# Row-wise reductions, without ndarray's Python-level wrappers.
_rowmax = partial(np.maximum.reduce, axis=1)
_rowsum = partial(np.add.reduce, axis=1)


def _rowprod(Lb: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Row by row Lb @ x, each by the BLAS gemv that one row alone takes."""
    return np.matmul(Lb, X[:, :, None])[:, :, 0]


class _Lanes:
    """The lanes of a ``_lockstep`` batch, a row of each array a lane: its
    ``start``, weights ``W``, ``G`` = L W, support (``on`` 1 and ``pen`` inf
    there, both 0 off it), ``at_target``, iterations ``used`` and bordered
    inverse in point coordinates, 0 off the support: row and column 0 are the
    border, 1 + x those of point x. Lane l's, when ``has[l]``, is
    ``base[slot[l]]`` plus the rank-one terms sum_t coef[l, t] v v',
    v = terms[l, t], each an add or a drop. Reads apply all ``_FOLD`` slots,
    those unused being 0, as the lane alone would; full slots are added into
    the matrix before the next term. ``keep`` filters all but ``Lb`` and the
    stack ``base``, which the first inverse formed allocates."""

    _ROWS = ("start", "W", "G", "on", "pen", "at_target", "used", "has", "slot", "terms",
             "coef", "count")

    def __init__(self, Lb: np.ndarray, starts):
        self.Lb = Lb
        self.W, later = _fold_twins(Lb, starts)
        n, k = self.W.shape
        self.start = np.arange(n)
        self.on = np.where(self.W > 0, 1.0, 0.0)
        # a later twin never joins a support: its bordered matrix would be singular
        self.pen = np.where((self.W > 0) | later, np.inf, 0.0)
        self.G = _rowprod(Lb, self.W)
        self.at_target = np.zeros(n, dtype=bool)
        self.used = np.zeros(n, dtype=np.intp)
        self.has = np.zeros(n, dtype=bool)
        self.slot = np.arange(n)
        self.base = None
        self.terms = np.zeros((n, _FOLD, k + 1))
        self.coef = np.zeros((n, _FOLD))
        self.count = np.zeros(n, dtype=np.intp)

    def keep(self, live: np.ndarray) -> None:
        """Keep the lanes of the rows ``live``, in their order."""
        for name in self._ROWS:
            setattr(self, name, getattr(self, name)[live])

    def form(self, l: int, sup: np.ndarray, Q: np.ndarray | None = None) -> None:
        """Lane ``l``'s inverse is ``Q``, else formed afresh, on its support
        ``sup`` (``_bordered_inverse``); it has none when that is singular."""
        if Q is None:
            Q = _bordered_inverse(self.Lb, sup)
        self.has[l] = Q is not None
        if Q is None:
            return
        k1 = len(self.Lb) + 1
        if self.base is None:
            self.slot = np.arange(len(self.slot))
            self.base = np.zeros((len(self.slot), k1, k1))
        P = self.base[self.slot[l]]
        if len(Q) == k1:
            P[:] = Q
        else:
            P[:] = 0.0
            at = np.concatenate(([0], sup + 1))
            P[np.ix_(at, at)] = Q
        self.terms[l] = 0.0
        self.coef[l] = 0.0
        self.count[l] = 0

    def column0(self) -> np.ndarray:
        """Column 0 of each lane's inverse, (-s, w) of its target."""
        V = self.terms
        c = self.coef * V[:, :, 0]
        return self.base[self.slot, 0] + np.matmul(c[:, None, :], V)[:, 0]

    def update(self, rows: np.ndarray, j: np.ndarray, joined: bool) -> None:
        """Point ``j[i]`` joins the support of lane ``rows[i]``, or leaves it:
        its inverse takes one term (``_add``, ``_drop``), or is formed afresh
        on the new support when it has none or the new matrix is near singular
        (``_PIVOT_REL``)."""
        self.on[rows, j] = 1.0 if joined else 0.0
        self.pen[rows, j] = np.inf if joined else 0.0
        has = self.has[rows]
        if np.count_nonzero(has) < len(rows):
            for l in rows[~has]:
                self.form(l, self.on[l].nonzero()[0])
            rows, j = rows[has], j[has]
        if len(rows):
            v, pivot, ok = (self._add if joined else self._drop)(rows, j)
            if np.count_nonzero(ok) < len(rows):
                for l in rows[~ok]:
                    self.form(l, self.on[l].nonzero()[0])
                rows, v, pivot = rows[ok], v[ok], pivot[ok]
            self._push(rows, v, (1.0 if joined else -1.0) / pivot)

    def _push(self, rows: np.ndarray, v: np.ndarray, coef: np.ndarray) -> None:
        t = self.count[rows]
        full = t == _FOLD
        if np.count_nonzero(full):
            for l in rows[full]:
                V = self.terms[l]
                self.base[self.slot[l]] += (V.T * self.coef[l]) @ V
                V[:] = 0.0
                self.coef[l] = 0.0
            t[full] = 0
        self.terms[rows, t] = v
        self.coef[rows, t] = coef
        self.count[rows] = t + 1

    def _add(self, rows: np.ndarray, j: np.ndarray):
        """Point j joins: with u = P (1, L_j), the term u u' / sigma, where u_j
        is set to -1 and sigma = L_jj - (1, L_j) u is the Schur complement of
        j. Returns u, sigma and whether |sigma| > ``_PIVOT_REL`` L_jj."""
        Lb = self.Lb
        m = len(rows)
        b = np.empty((m, Lb.shape[0] + 1))
        b[:, 0] = 1.0
        b[:, 1:] = Lb[j]
        V = self.terms[rows]
        h = self.coef[rows] * np.matmul(V, b[:, :, None])[:, :, 0]
        u = np.empty_like(b)
        for i, l in enumerate(self.slot[rows].tolist()):
            np.matmul(self.base[l], b[i], out=u[i])
        u += np.matmul(h[:, None, :], V)[:, 0]
        Ljj = Lb[j, j]
        sigma = Ljj - _rowdot(b, u)
        u[np.arange(m), 1 + j] = -1.0
        return u, sigma, np.abs(sigma) > _PIVOT_REL * Ljj

    def _drop(self, rows: np.ndarray, j: np.ndarray):
        """Point j leaves: with its row c, the term -c c' / c_j, after which
        row and column 1 + j are set to exactly 0. Returns c, c_j and whether
        |c_j| L_jj > ``_PIVOT_REL`` (c_j is 1 / sigma)."""
        at = np.arange(len(rows))
        r = 1 + j
        V = self.terms[rows]
        s = self.slot[rows]
        c = self.base[s, r] + np.matmul((self.coef[rows] * V[at, :, r])[:, None, :], V)[:, 0]
        pivot = c[at, r]
        c[at, r] = 0.0
        self.base[s, r] = 0.0
        self.base[s, :, r] = 0.0
        self.terms[rows, :, r] = 0.0
        return c, pivot, np.abs(pivot) * self.Lb[j, j] > _PIVOT_REL


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


def _negative_curvature(Lb: np.ndarray, sup: np.ndarray, atol: float,
                        curvature: dict) -> np.ndarray | None:
    """The balanced direction on ``sup`` of most negative curvature, or None
    when there is none beyond ``atol``. ``curvature`` keeps the answer by
    support, so the lanes of a batch decompose each support once; they share
    the direction and copy it before changing it."""
    key = sup.tobytes()
    if key not in curvature:
        d = None
        if len(sup) >= 2:
            vals, dirs = _curvature(Lb, sup)
            if vals[0] < -atol:
                d = dirs[:, 0].copy()  # not a view that keeps every eigenvector
        curvature[key] = d
    return curvature[key]


def _fold_twins(Lb: np.ndarray, w):
    """``w`` (one vector, or one a row) with each point's weight moved onto
    its first twin, the least index whose kernel row equals its own, and
    which points are later twins. Twins i and j have L_ij = L_jj, which
    screens the points."""
    w = np.array(w, dtype=float)
    later = np.zeros(len(Lb), dtype=bool)
    eq = Lb == np.diag(Lb)
    if np.count_nonzero(eq) > len(Lb):
        first: dict[bytes, int] = {}
        for j in np.flatnonzero(np.count_nonzero(eq, axis=0) > 1).tolist():
            i = first.setdefault((Lb[j] + 0.0).tobytes(), j)  # + 0.0 makes -0.0 0.0
            if i != j:
                w[..., i] += w[..., j]
                w[..., j] = 0.0
                later[j] = True
    return w, later


def _lockstep(Lb: np.ndarray, starts, atol: float, convex: bool = False):
    """Primal active-set descent with a ratio test from each feasible start,
    all starts ("lanes") in lockstep: a pass moves every lane one step.

    Off stationarity on its support S a lane steps toward the target, the
    stationary point on S (the bordered system [[0, 1'], [1, L_SS]]): fully
    when the action is convex along the way and no weight hits zero first,
    else to the boundary in the descending sign, dropping the point the ratio
    test hits. At a stationary point it adds the most violated point and
    steps in the same pass, or stops when none is violated by more than
    ``atol``; ties go to the lowest index. Unless the block is ``convex``, a
    saddle, where the action curves downward on S, is left along that
    curvature the longer way to the boundary, and so is a first support with
    it, downhill. An add and a step each count as one of ``_MAX_ITER``
    iterations. g = L w is carried along each step d as g + a L d. A lane's
    first target is solved directly, later ones read from its bordered
    inverse, formed at its first change of S (from the full support, a copy
    of its inverse, formed once) and again after a target drifts off
    stationarity by ``_DRIFT_ATOL`` tolerances, which is solved directly.
    Each support is solved and decomposed once. The lanes' state is one
    record (``_Lanes``), which a stopped lane leaves. Of exact twins only
    the first joins a support, and a start's weight on the others moves onto
    it (``_fold_twins``). Every product and reduction is taken row by row,
    so each lane ends as it would alone, to the last bit.

    Returns each start's weights, None when it ran out of iterations; its
    iterations, a stop at a KKT point counting one; and a (starts, actions)
    pair a pass, the actions never rising along a start.
    """
    lanes = _Lanes(Lb, starts)
    n, k = lanes.W.shape
    ends: list[np.ndarray | None] = [None] * n
    iterations = [0] * n
    actions = []
    solved: dict[bytes, tuple | None] = {}  # _solve_support by support
    curvature: dict[bytes, np.ndarray | None] = {}  # _negative_curvature by support
    full = []  # the full support's bordered inverse, once formed
    while True:
        W, G, on, start = lanes.W, lanes.G, lanes.on, lanes.start
        s = _rowdot(W, G)
        actions.append((start, s))
        # max |g - s| on S: the larger of max g - s and s - min g, rounded alike
        stationary = lanes.at_target | (_rowmax(np.abs(G - s[:, None]) * on) <= atol)
        at = (stationary & (lanes.used < _MAX_ITER)).nonzero()[0]
        dirs = {}  # the starts that step along a curvature direction, and it
        stop = []  # the rows that leave: at a KKT point or out of iterations
        if len(at):
            cand = G[at] + lanes.pen[at]
            i = cand.argmin(axis=1)
            add = cand[np.arange(len(at)), i] < s[at] - atol
            a_l = at[add]
            if len(a_l):
                lanes.used[a_l] += 1
                lanes.update(a_l, i[add], True)
            for l in at[~add].tolist():
                # a KKT point: stop there unless it is a saddle on its support
                d = None if convex else _negative_curvature(Lb, on[l].nonzero()[0], atol,
                                                             curvature)
                if d is None:
                    stop.append(l)
                    ends[start[l]] = _final_weights(Lb, W[l], solved)
                else:
                    dirs[start[l]] = d
        saddles = len(dirs)  # the saddles are the first entries of dirs
        if len(actions) == 1 and not convex:
            # the first step follows downward curvature, so that each start
            # descends its own way rather than toward a shared saddle
            for l in (~stationary).nonzero()[0].tolist():
                d = _negative_curvature(Lb, on[l].nonzero()[0], atol, curvature)
                if d is not None:
                    dirs[start[l]] = d
        stop += (lanes.used == _MAX_ITER).nonzero()[0].tolist()
        if stop:
            for l in stop:
                iterations[start[l]] = int(lanes.used[l]) + (ends[start[l]] is not None)
            if len(stop) == len(start):
                break
            lanes.keep(np.delete(np.arange(len(start)), stop))
            W, G, on = lanes.W, lanes.G, lanes.on
        # every lane steps: along its direction in dirs, or toward its target
        n = len(W)
        read = lanes.has.copy()
        target = ~read
        rows = np.searchsorted(lanes.start, list(dirs))  # those of dirs, in its order
        read[rows] = target[rows] = False
        D = np.zeros((n, k))
        mult = np.zeros(n)  # the target's multiplier, L w on S there
        for l in target.nonzero()[0].tolist():
            sup = on[l].nonzero()[0]
            sol = _solved(Lb, sup, solved)
            if sol is None:  # a singular system: a direction of zero curvature
                vals, vecs = _curvature(Lb, sup)
                D[l, sup] = vecs[:, int(np.argmin(np.abs(vals)))]
                target[l] = False
            else:
                mult[l] = sol[1]
                D[l, sup] = sol[0] - W[l, sup]
        for l, d in zip(rows.tolist(), dirs.values()):
            D[l, on[l] > 0] = d
        reads = np.count_nonzero(read)
        if reads:  # column 0 of the inverse is (-s, w) in point coordinates
            col = lanes.column0()
            target |= read
            if reads == n:  # its entries off S are 0, as are w's
                mult, D = -col[:, 0], col[:, 1:] - W
            else:
                mult = np.where(read, -col[:, 0], mult)
                D = np.where(read[:, None], col[:, 1:] - W, D)
        # exactly balanced, or a long step would leave the simplex
        D -= (_rowsum(D) / _rowsum(on))[:, None] * on
        LD = _rowprod(Lb, D)
        slope = _rowdot(G, D)  # the action along d: s + 2 a slope + a^2 curv
        curv = _rowdot(D, LD)
        drift = read
        if reads:  # L(w + d) not flat on S (or NaN): the inverse's updates drifted
            drift = read & ~(_rowmax(np.abs(G + LD - mult[:, None]) * on) <= _DRIFT_ATOL * atol)
            if np.count_nonzero(drift):  # the lane stands still this pass
                lanes.has[drift] = target[drift] = False
                D[drift] = LD[drift] = 0.0
                slope[drift] = curv[drift] = 0.0
        flip = slope > 0  # descend
        if saddles:  # the longer way to the boundary, which descends further
            inf = np.full_like(D, np.inf)
            up = np.divide(W, D, out=inf.copy(), where=D > 0).min(axis=1)
            down = np.divide(W, -D, out=inf, where=D < 0).min(axis=1)
            flip[rows[:saddles]] = (up > down)[rows[:saddles]]
        sign = np.where(flip, -1.0, 1.0)
        D *= sign[:, None]
        slope *= sign
        # the minimum along d: the target (a = 1) when curv > 0; none along a
        # curvature direction, where the action is linear or curves down
        ahead = target & (curv > 0)
        reach = np.where(ahead, -slope / np.where(ahead, curv, 1.0), np.inf)
        # w / -d where d < 0; elsewhere inf / +0, which is inf
        rest = D >= 0
        ratios = np.where(rest, np.inf, W) / (0.0 - np.minimum(D, 0.0))
        j = ratios.argmin(axis=1)  # the lowest point index on ties
        ratio = ratios[np.arange(n), j]
        # no d < 0: a balanced d that is 0, and w is the target
        shrink = ~np.logical_and.reduce(rest, axis=1)
        hit = reach <= ratio
        a = np.where(shrink, np.where(hit, reach, ratio), 0.0)
        lanes.W = W = np.maximum(W + a[:, None] * D, 0.0)
        G += (sign * a)[:, None] * LD  # LD is L of the unflipped d
        drop = shrink & ~hit
        # d led to a target (a curvature direction is not 0 and never
        # reaches), and w stands at the stationary point of S's affine hull
        lanes.at_target = ~(drop | drift)
        lanes.used += 1
        d_l = drop.nonzero()[0]
        if len(d_l):
            j = j[d_l]
            if not convex:
                bare = d_l[~lanes.has[d_l]]
                for l in bare[on[bare].sum(axis=1) == k].tolist():
                    if not full:
                        full.append(_bordered_inverse(Lb, np.arange(k)))
                    if full[0] is not None:  # else formed afresh below
                        lanes.form(l, np.arange(k), full[0])
            W[d_l, j] = 0.0
            lanes.update(d_l, j, False)
    return ends, iterations, actions


def _solved(Lb: np.ndarray, S: np.ndarray, solved: dict):
    """``_solve_support`` on ``S``, kept in ``solved`` by support."""
    key = S.tobytes()
    if key not in solved:
        solved[key] = _solve_support(Lb, S)
    return solved[key]


def _final_weights(Lb: np.ndarray, w: np.ndarray, solved: dict) -> np.ndarray:
    """The weights solved directly on the support of ``w`` (``_solved``);
    ``w`` itself when that system is singular."""
    S = np.flatnonzero(w > 0)
    sol = _solved(Lb, S, solved)
    if sol is None:
        return w / w.sum()
    out = np.zeros(len(w))
    out[S] = np.maximum(sol[0], 0.0)  # np.clip(x, 0, None) calls this ufunc
    return out / out.sum()


def _tied(cands: list[tuple]):
    """The candidates whose values lie within the tie window of the least."""
    best_val = min(c[0] for c in cands)
    window = _TIE_REL * max(1.0, abs(best_val))
    return [c for c in cands if c[0] <= best_val + window]


def _select_best(cands: list[tuple]):
    # (value, support, weights, ...): lexicographic support tie-break, point
    # order; the first on equal supports
    return min(_tied(cands), key=lambda c: c[1])


def _queue(starts: list[np.ndarray], w0: np.ndarray) -> None:
    """Append the start ``w0`` unless an equal one is queued: it would end at
    the same point."""
    if not any(np.array_equal(w0, s) for s in starts):
        starts.append(w0)


def minimize_on_compact(problem: CompactProblem, extra_starts=(),
                        stage: int | None = None) -> CompactSolution:
    """Best stationary point found over all starts.

    A positive definite block makes the program strictly convex, so its one
    KKT point is the global minimum: it gets the uniform start alone and is
    certified by convexity. Convexity is decided first by ``_dominant``, a
    Gershgorin test of strict diagonal dominance in O(k^2) that passes only
    blocks the Cholesky factorization also accepts, and, where that test
    fails, by whether ``np.linalg.cholesky`` succeeds (``_factors``). Any other
    block starts from the uniform point, the first vertex, the
    minimum-diagonal vertex, caller-supplied warm starts and ``_RESTARTS``
    Dirichlet draws from ``SeedSequence([seed, k])``, where ``seed`` is the
    options' seed or, for stage ``stage`` of a run, the first word of
    ``SeedSequence([options.seed, stage])``; a start equal to one already
    queued (the minimum-diagonal vertex of a constant diagonal is the first
    vertex) is not run again. The starts run in lockstep as one batch
    (``_lockstep``). Such a block of at most ``ORACLE_CAP`` points is
    certified when its value is within half ``_CERT_REL`` of ``_dnn_bound``
    (from ``_DNN_MIN`` points on) or else within ``_CERT_REL`` of the
    oracle's: the bound lies below the oracle's value, so the flag is the one
    the oracle alone would set. Raises ``SolverFailure`` when no start reaches
    the KKT tolerance, naming how many starts hit the iteration cap and how
    many ended above the tolerance.
    """
    opts = problem.options
    Lb = problem.matrix
    k = len(problem.ids)
    # on a positive definite block every KKT point is the minimum
    convex = _dominant(Lb) or _factors(Lb)
    starts: list[np.ndarray] = [np.full(k, 1.0 / k)]
    if not convex:
        for i in (0, int(np.argmin(np.diag(Lb)))):
            _queue(starts, np.eye(1, k, i)[0])
        for extra in extra_starts:
            v = np.clip(np.asarray(extra, float), 0.0, None)
            if v.shape == (k,) and v.sum() > 0:
                _queue(starts, v / v.sum())
        # numpy.random is first imported here, so a run whose blocks are all
        # positive definite never pays for its import
        seed = opts.seed
        if stage is not None:
            seed = int(np.random.SeedSequence([seed, stage]).generate_state(1)[0])
        rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
        for _ in range(_RESTARTS):
            starts.append(rng.dirichlet(np.ones(k)))

    atol = 1e-12 * max(1.0, float(Lb.max()))  # Lb is nonnegative
    accepted = []
    best_any = None
    capped = above = 0
    ends, _, _ = _lockstep(Lb, starts, atol, convex)
    for w in ends:
        if w is None:
            capped += 1
            continue
        kkt = _residuals(Lb, w)
        val = kkt.s_param
        if best_any is None or val < best_any[0]:
            best_any = (val, w, kkt)
        if kkt.on_support_max <= opts.tol and kkt.min_over_k >= -opts.tol:
            supp = tuple(np.flatnonzero(w > 0).tolist())
            accepted.append((val, supp, w, kkt))
        else:
            above += 1
    if not accepted:
        val, w, kkt = best_any or (None, None, None)
        raise SolverFailure(
            f"no start reached KKT tolerance {opts.tol}: {len(starts)} starts tried, "
            f"{capped} hit the iteration cap of {_MAX_ITER}, {above} ended above "
            f"the tolerance",
            best_weights=w, best_value=val, residuals=kkt)
    val, _, w, kkt = _select_best(accepted)
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


def _dominant(Lb: np.ndarray) -> bool:
    """Whether the block, nonnegative and symmetric, is strictly diagonally
    dominant by a margin that rounding cannot fake: every row sum s_i,
    computed in any order, satisfies s_i < L_ii (2 - 2 (k+1)^2 eps).

    Such a block is positive definite by Gershgorin's theorem (Horn &
    Johnson, *Matrix Analysis*, 6.1.1), so the test decides convexity in
    O(k^2) where it passes. The margin is argued with u = eps/2. A computed
    sum of k nonnegative terms is at least (1 - gamma) times the exact one,
    gamma = (k-1)u / (1 - (k-1)u), and the product with the diagonal rounds
    once, up by at most u, since a normal L_ii keeps it normal. So a passing
    row has exact off-diagonal sum R_i < (1 - c) L_ii with c = 2k(k+1)u.
    With D the diagonal, D^-1 L has a unit diagonal, Gershgorin radii below
    1 - c and the eigenvalues of H = D^-1/2 L D^-1/2, so lambda_min(H) > c
    >= k gamma_(k+1) / (1 - gamma_(k+1)), and by Demmel's theorem (Higham,
    *Accuracy and Stability of Numerical Algorithms*, Thm 10.7)
    ``np.linalg.cholesky`` also succeeds on the block, barring underflow:
    the test never calls a block convex that the factorization would not. A
    block it does not pass goes to ``_factors``."""
    d = np.diagonal(Lb)
    k = len(d)
    if not d.min() >= _TINY:  # a subnormal product may round up by more than u
        return False
    factor = 2.0 - 2 * (k + 1) ** 2 * _EPS  # exact: a multiple of eps in [1, 2)
    return bool(np.all(factor * d > _rowsum(Lb)))


def _factors(Lb: np.ndarray) -> bool:
    """Whether ``np.linalg.cholesky`` factors the block: positive definite."""
    try:
        np.linalg.cholesky(Lb)
    except np.linalg.LinAlgError:
        return False
    return True


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
        raise InputError(f"brute force is capped at {ORACLE_CAP} points, got {k}")
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
