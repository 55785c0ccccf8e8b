"""Minimization of the quadratic action over the probability simplex.

Two independent routes are provided. ``minimize_on_compact`` runs away-step
Frank-Wolfe (exact line search for the quadratic) from several starts, then
polishes the discovered support by solving the equality KKT system with an
active-set add/drop loop. ``brute_force_minimizer`` enumerates every support
subset and is the test oracle; the solver never adopts its weights, only
compares values to set the certification flag.

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

# Cap on the Frank-Wolfe iterations of one start.
_FW_MAX_ITER = 100_000


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


def kkt_residuals(solution, problem: CompactProblem) -> KKTResiduals:
    """Residuals of the stationarity conditions for given weights."""
    w = solution.weights if isinstance(solution, CompactSolution) else np.asarray(solution, float)
    if w.shape != (len(problem.ids),):
        raise InputError("weights length does not match the problem")
    return _residuals(problem.matrix, w)


def _residuals(Lb: np.ndarray, w: np.ndarray) -> KKTResiduals:
    g = Lb @ w
    s = float(w @ g)
    supp = w > 0
    on = float(np.abs(g[supp] - s).max()) if supp.any() else 0.0
    return KKTResiduals(on_support_max=on, min_over_k=float((g - s).min()), s_param=s)


def _solve_support(Lb: np.ndarray, S: list[int]):
    """Weights and multiplier on a fixed support: L_SS w = s, sum w = 1."""
    m = len(S)
    A = np.zeros((m + 1, m + 1))
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


def _fw_budget(k: int) -> int:
    return min(max(60 * k, 200), _FW_MAX_ITER)


def _away_fw(Lb: np.ndarray, w0: np.ndarray, budget: int, gap_tol: float) -> np.ndarray:
    k = Lb.shape[0]
    if k == 1:
        return np.ones(1)
    w = np.clip(np.asarray(w0, float), 0.0, None)
    w /= w.sum()
    for _ in range(budget):
        Lw = Lb @ w
        g = 2.0 * Lw
        gw = float(g @ w)
        i_fw = int(np.argmin(g))
        fw_gap = gw - float(g[i_fw])
        supp = np.nonzero(w > 0)[0]
        i_aw = int(supp[np.argmax(g[supp])])
        aw_gap = float(g[i_aw]) - gw
        if max(fw_gap, aw_gap) <= gap_tol:
            break
        if fw_gap >= aw_gap:
            d = -w.copy()
            d[i_fw] += 1.0
            gamma_max, drop = 1.0, None
        else:
            if w[i_aw] >= 1.0:
                break  # single-vertex iterate, no away room
            d = w.copy()
            d[i_aw] -= 1.0
            gamma_max, drop = w[i_aw] / (1.0 - w[i_aw]), i_aw
        slope = float(g @ d)
        if slope >= -gap_tol * 1e-3:
            break
        curv = float(d @ Lb @ d)
        gamma = gamma_max if curv <= 0 else min(gamma_max, -slope / (2.0 * curv))
        if gamma <= 0:
            break
        w = w + gamma * d
        if drop is not None and gamma >= gamma_max * (1 - 1e-12):
            w[drop] = 0.0  # exact drop keeps the support crisp
        np.clip(w, 0.0, None, out=w)
        w /= w.sum()
    return w


def _polish(Lb: np.ndarray, support, atol: float, cap: int = 60):
    """Active-set refinement: solve on the support, drop negative weights,
    block-add violated off-support points."""
    k = Lb.shape[0]
    S = sorted(set(int(i) for i in support))
    if not S:
        return None
    for _ in range(cap):
        sol = _solve_support(Lb, S)
        if sol is None:
            return None
        wS, _ = sol
        if len(S) > 1 and wS.min() <= 0.0:
            S.pop(int(np.argmin(wS)))
            continue
        w = np.zeros(k)
        w[S] = np.clip(wS, 0.0, None)
        w /= w.sum()
        g = Lb @ w
        s = float(w @ g)
        off = np.ones(k, dtype=bool)
        off[S] = False
        bad = np.nonzero(off & (g < s - atol))[0]
        if bad.size:
            S = sorted(set(S) | {int(b) for b in bad})
            continue
        return w
    return None


def _select_best(cands: list[tuple[float, tuple[int, ...], np.ndarray]]):
    best_val = min(c[0] for c in cands)
    window = _TIE_REL * max(1.0, abs(best_val))
    tied = [c for c in cands if c[0] <= best_val + window]
    tied.sort(key=lambda c: c[1])  # lexicographic support tie-break, point order
    return tied[0]


def minimize_on_compact(problem: CompactProblem, extra_starts=()) -> CompactSolution:
    """Best stationary point found over all starts.

    Starts: uniform, first vertex, minimum-diagonal vertex, caller-supplied
    warm starts, then Dirichlet restarts. Each start receives a Frank-Wolfe
    budget of min(max(60k, 200), 100 000) iterations; the active-set polish
    supplies the final convergence. Raises ``SolverFailure`` when no start
    reaches the KKT tolerance.
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

    scale = max(1.0, float(np.abs(Lb).max()))
    gap_tol = 1e-11 * scale
    atol = 1e-12 * scale
    budget = _fw_budget(k)

    def run_start(w0: np.ndarray):
        out = []
        w_fw = _away_fw(Lb, w0, budget, gap_tol)
        out.append(w_fw)
        w_pol = _polish(Lb, np.nonzero(w_fw > 1e-12)[0], atol)
        if w_pol is not None:
            out.append(w_pol)
        return out

    accepted = []
    best_any = None
    for w0 in starts:
        for w in run_start(w0):
            kkt = _residuals(Lb, w)
            val = kkt.s_param
            if best_any is None or val < best_any[0]:
                best_any = (val, w, kkt)
            if kkt.on_support_max <= opts.tol and kkt.min_over_k >= -opts.tol:
                supp = tuple(int(i) for i in np.nonzero(w > 0)[0])
                accepted.append((val, supp, w))
    if not accepted:
        val, w, kkt = best_any
        raise SolverFailure(
            f"no start reached KKT tolerance {opts.tol}",
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
