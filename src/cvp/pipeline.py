"""Exhaustion pipeline: per-stage minimization, rescaling, limit assembly.

Each compact stage is solved on the simplex, rescaled so the stationarity
parameter becomes exactly 1, and extended by zero to the full space. The
certified window, a point mask, collects the points whose boundary layer
(kernel range or epsilon-effective range) lies inside the second-to-last
stage; the run's limit is the final scaled measure restricted to that
window. Analysis checks evaluate the full final-stage measure and assert on
the window, since the averaged kernel at a window point draws mass from the
boundary layer.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import InputError, SolverFailure
from .lagrangian import DecayProfile, Lagrangian, tail_index
from .measure import DiscreteMeasure, averaged_kernel, restrict
from .simplex_solver import (KKTResiduals, SolverOptions, _block_problem, _residuals,
                             minimize_on_compact)
from .space import Exhaustion, MetricSpace, as_index, as_mask, closed_ball, same_space

# A stage counts as degenerate when its kernel block is constant to this level.
_CONST_BLOCK_TOL = 1e-12

# Rescaling refuses stages whose action value sits at or below this.
_S_FLOOR = 1e-12

# A run is stabilized when its last two stages differ by at most this on the window.
_STAB_TOL = 1e-6


@dataclass
class RunOptions:
    solver: SolverOptions = field(default_factory=SolverOptions)
    window_layer: float | None = None
    profile: DecayProfile | None = None
    eps: float | None = None


@dataclass(frozen=True, eq=False)
class ScaledMinimizer:
    """One solved stage, rescaled so the averaged kernel is 1 on the support.

    ``stage`` is the stage's point mask. ``weights`` holds the stage
    minimizer's unscaled simplex weights in ``space.ids`` order, zero off its
    support; ``measure`` is derived from them as ``scale * weights``, with
    ``scale`` the inverse of the unscaled action value ``kkt.s_param``.
    Built with its ``kernel``, as ``run_exhaustion`` builds it, a stage also
    holds ``ell``, the ``stage_ell`` of its measure; otherwise ``ell`` is None.
    """

    stage_index: int
    stage: np.ndarray
    weights: np.ndarray
    kkt: KKTResiduals
    certified_global: bool
    space: MetricSpace
    degenerate: bool = False
    kernel: InitVar[Lagrangian | None] = None
    measure: DiscreteMeasure = field(init=False, repr=False)
    ell: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self, kernel):
        s = self.s_unscaled
        if not math.isfinite(s) or s <= _S_FLOOR:
            raise InputError(f"stage value {s} is too small to rescale")
        w = np.array(self.weights, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "stage", as_mask(self.stage, len(self.space), "stage"))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "measure", DiscreteMeasure(self.space, self.scale * w))
        if kernel is not None:
            ell = stage_ell(self.measure, kernel)
            ell.setflags(write=False)
            object.__setattr__(self, "ell", ell)

    @property
    def s_unscaled(self) -> float:
        return self.kkt.s_param

    @property
    def scale(self) -> float:
        return 1.0 / self.kkt.s_param


@dataclass(frozen=True, eq=False)
class ExhaustionRun:
    stages: tuple[ScaledMinimizer, ...]
    limit: DiscreteMeasure
    window: np.ndarray
    diagnostics: dict

    def __post_init__(self):
        object.__setattr__(self, "window", as_mask(self.window, len(self.limit.space), "window"))


def stage_ell(rho: DiscreteMeasure, L: Lagrangian) -> np.ndarray:
    """Averaged kernel minus 1, over every point of the kernel domain."""
    return averaged_kernel(rho, L) - 1.0


def window_points(space: MetricSpace, stage, layer: float) -> np.ndarray:
    """Mask of the points whose closed layer-ball lies inside the stage mask."""
    stage = as_mask(stage, len(space), "stage")
    balls = closed_ball(space, np.arange(len(space)), layer)
    return stage & ~(balls & ~stage).any(axis=1)


def resolve_window_layer(L: Lagrangian, options: RunOptions) -> float:
    if options.window_layer is not None:
        if options.window_layer < 0:
            raise InputError("window layer must be nonnegative")
        return float(options.window_layer)
    if options.profile is not None and options.eps is not None:
        return float(tail_index(options.profile, options.eps))
    if L.declared_range is not None:
        return float(L.declared_range)
    raise InputError("window policy undetermined: give a layer, a profile with "
                     "eps, or a kernel with a declared range")


def _stage_block(L: Lagrangian, stage: np.ndarray):
    """The point indices of a stage mask, its kernel block, and whether that
    block is constant (a degenerate stage).

    The block is a C-contiguous copy with the bits of
    ``L.matrix[np.ix_(idx, idx)]``: a stage that is one run of indices, as
    every stage of a 1-D grid is, is copied as a slice, and a scattered
    stage, as on 2-D spaces, is gathered. It is not validated again: the
    kernel matrix was, when its ``Lagrangian`` was built."""
    idx = np.flatnonzero(stage)
    lo, hi = int(idx[0]), int(idx[-1]) + 1
    if hi - lo == len(idx):
        block = L.matrix[lo:hi, lo:hi].copy()
    else:
        block = L.matrix[np.ix_(idx, idx)]
    spread = float(block.max() - block.min())
    return idx, block, spread <= _CONST_BLOCK_TOL * max(1.0, float(block.max()))


def run_exhaustion(space: MetricSpace, L: Lagrangian, exhaustion: Exhaustion,
                   options: RunOptions | None = None) -> ExhaustionRun:
    """Solve each stage's kernel block (``_stage_block``) as stage ``n`` of
    the run (a block that is not positive definite draws starts of its own
    and also starts from the previous stage's minimizer) and build the run
    from the minimizers as ``run_from_weights`` does, with the solver's KKT
    residuals and each stage's ``ell``.
    An undetermined window is refused before any stage is solved; a stage
    whose rescaled averaged kernel minus 1 exceeds 10*tol in size on its
    support, or is below -10*tol on its stage, raises ``SolverFailure``."""
    options = options or RunOptions()
    same_space(space.key, L.space_key)
    layer = resolve_window_layer(L, options)
    tol = 10.0 * options.solver.tol
    stages: list[ScaledMinimizer] = []
    for n, stage in enumerate(exhaustion.stages):
        idx, block, degenerate = _stage_block(L, stage)
        extra = [stages[-1].weights[idx]] if stages else []
        problem = _block_problem(tuple(space.ids[i] for i in idx.tolist()), block,
                                 options.solver)
        solution = minimize_on_compact(problem, extra_starts=extra, stage=n)
        weights = np.zeros(len(space))
        weights[idx] = np.where(solution.weights > 0, solution.weights, 0.0)
        scaled = ScaledMinimizer(stage_index=n, stage=stage, weights=weights,
                                 kkt=solution.kkt, certified_global=solution.certified_global,
                                 space=space, degenerate=degenerate, kernel=L)
        ell = scaled.ell
        max_on = float(np.abs(ell[scaled.measure.support]).max())
        min_stage = float(ell[stage].min())
        if max_on > tol or min_stage < -tol:
            raise SolverFailure(
                f"stage {n}: rescaled stationarity residual too large "
                f"(support {max_on:.3e}, stage floor {min_stage:.3e})",
                best_weights=solution.weights, best_value=solution.value,
                residuals=solution.kkt)
        stages.append(scaled)
    return _assemble(space, stages, layer)


def run_from_weights(space: MetricSpace, L: Lagrangian, exhaustion: Exhaustion,
                     options: RunOptions, weights, certified) -> ExhaustionRun:
    """The run of the exhaustion whose stages have these unscaled weights (one
    array per stage, in space order) and ``certified_global`` flags, built as
    ``run_exhaustion`` builds it (``_assemble``). Each stage's KKT residuals
    are recomputed by the solver's formula on its ``_stage_block``, never
    read from a report, and its degenerate flag comes from the block test.
    Nothing is revalidated, so a tampered stage reaches the checks."""
    same_space(space.key, L.space_key)
    layer = resolve_window_layer(L, options)
    if not len(weights) == len(certified) == len(exhaustion.stages):
        raise InputError(f"{len(exhaustion.stages)} stages need as many weight vectors "
                         f"and flags, got {len(weights)} and {len(certified)}")
    stages = []
    for n, (stage, w, cert) in enumerate(zip(exhaustion.stages, weights, certified)):
        idx, block, degenerate = _stage_block(L, stage)
        stages.append(ScaledMinimizer(stage_index=n, stage=stage, weights=w,
                                      kkt=_residuals(block, w[idx]), certified_global=cert,
                                      space=space, degenerate=degenerate))
    return _assemble(space, stages, layer)


def _assemble(space: MetricSpace, scaled: list[ScaledMinimizer],
              layer: float) -> ExhaustionRun:
    """The run of solved stages: the window of the second-to-last stage at
    ``layer`` (the last stage itself when there is one), the last stage's
    measure restricted to it, and the diagnostics: ``window_layer``, the
    largest weight gap of the last two stages on the window (``stab_gap``)
    against ``stab_tol``, whether it is within it (``stabilized``), and
    ``discrepancies``, keyed ``"m,n"``, the largest weight gap of stage n and
    the last stage on the window of stage m at ``layer``, for m < n < last."""
    last = scaled[-1]
    if len(scaled) == 1:
        window = last.stage
        stab_gap = 0.0
    else:
        window = window_points(space, scaled[-2].stage, layer)
        stab_gap = _max_gap(window, last.measure, scaled[-2].measure)
    limit = restrict(last.measure, window)

    discrepancies = {}
    for m in range(len(scaled) - 2):
        interior = window_points(space, scaled[m].stage, layer)
        for n in range(m + 1, len(scaled) - 1):
            discrepancies[f"{m},{n}"] = _max_gap(interior, scaled[n].measure,
                                                 last.measure)

    diagnostics = {
        "window_layer": layer,
        "stabilized": stab_gap <= _STAB_TOL,
        "stab_gap": stab_gap,
        "stab_tol": _STAB_TOL,
        "discrepancies": discrepancies,
    }
    return ExhaustionRun(stages=tuple(scaled), limit=limit, window=window,
                         diagnostics=diagnostics)


def _max_gap(points: np.ndarray, a: DiscreteMeasure, b: DiscreteMeasure) -> float:
    """Largest weight difference of two measures over a point mask (0 if empty)."""
    return float(np.abs(a.weights[points] - b.weights[points]).max(initial=0.0))


def tail_mass(rho: DiscreteMeasure, L: Lagrangian, x: int, R: float) -> float:
    """Kernel mass rho picks up beyond distance R, in rho's space, from point index x."""
    space = rho.space
    same_space(space.key, L.space_key)
    xi = as_index(x, len(space))
    far = space.dist[xi] > R
    return math.fsum(rho.weights[far] * L.matrix[xi, far])
