"""Weighted point measures, balanced variations, and the action functional.

Measures and variations are read-only vectors in ``space.ids`` order, the
order of a point-set mask, so restriction is ``np.where(mask, w, 0)``. Kernel
sums run over the nonzero entries in ascending index order, so a measure gives
the same bits however it was built; scalar sums use ``math.fsum`` (exact).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, PositivityError, VolumeConstraintError
from .lagrangian import Lagrangian
from .space import MetricSpace, as_mask

# Weights at or below this become 0 at construction time.
PRUNE_EPS = 1e-12

# Balance and positivity slack for signed variations.
_BALANCE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Nonnegative weights in ``space.ids`` order; dust (<= ``PRUNE_EPS``) becomes 0."""

    space: MetricSpace
    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        n = len(self.space)
        if w.shape != (n,):
            raise InputError(f"measure needs {n} weights in space order, got shape {w.shape}")
        bad = np.flatnonzero(~np.isfinite(w))
        if bad.size:
            raise InputError(f"weight at {self.space.ids[bad[0]]!r} is not finite")
        neg = np.flatnonzero(w < -PRUNE_EPS)
        if neg.size:
            raise InputError(f"negative weight {w[neg[0]]} at {self.space.ids[neg[0]]!r}")
        w[w <= PRUNE_EPS] = 0.0
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __eq__(self, other):
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return self is other or (self.space.key == other.space.key
                                 and np.array_equal(self.weights, other.weights))

    def total(self) -> float:
        return math.fsum(self.weights)

    @property
    def support(self) -> np.ndarray:
        """Mask of the points with positive weight."""
        return self.weights > 0


@dataclass(frozen=True, eq=False)
class SignedVariation:
    """A balanced signed perturbation of a base measure; see ``make_variation``."""

    base: DiscreteMeasure
    delta: np.ndarray


def make_variation(base: DiscreteMeasure, delta) -> SignedVariation:
    """Validate balance (total delta = 0) and positivity of base + delta."""
    d = np.array(delta, dtype=float)
    if d.shape != base.weights.shape:
        raise InputError(f"variation needs {len(base.weights)} entries in space order, "
                         f"got shape {d.shape}")
    moved = np.flatnonzero(d)
    bad = moved[~np.isfinite(d[moved])]
    if bad.size:
        raise InputError(f"variation at {base.space.ids[bad[0]]!r} is not finite")
    bal = math.fsum(d[moved])
    if abs(bal) > _BALANCE_TOL:
        raise VolumeConstraintError(f"variation total {bal} is not balanced to zero")
    after = base.weights[moved] + d[moved]
    low = np.flatnonzero(after < -_BALANCE_TOL)
    if low.size:
        raise PositivityError(f"variation drives weight at "
                              f"{base.space.ids[moved[low[0]]]!r} to {after[low[0]]}")
    d.setflags(write=False)
    return SignedVariation(base=base, delta=d)


def apply_variation(var: SignedVariation) -> DiscreteMeasure:
    return DiscreteMeasure(var.base.space, np.maximum(0.0, var.base.weights + var.delta))


def action(rho: DiscreteMeasure, L: Lagrangian) -> float:
    """Double integral of the kernel against rho x rho."""
    _check_compat(rho, L)
    s = np.flatnonzero(rho.weights)
    w = rho.weights[s]
    return float(w @ L.matrix[np.ix_(s, s)] @ w)


def averaged_kernel(rho: DiscreteMeasure, L: Lagrangian) -> np.ndarray:
    """Vector of integrals of L(x, .) against rho, over all kernel-domain points."""
    _check_compat(rho, L)
    s = np.flatnonzero(rho.weights)
    return L.matrix[:, s] @ rho.weights[s]


def action_difference(rho: DiscreteMeasure, var: SignedVariation, L: Lagrangian) -> float:
    """Action change under a balanced variation, via the symmetric collapse.

    Equals 2 * sum_x delta(x) * int L(x, .) drho + double sum of delta against
    delta; agrees with recomputing both actions directly.
    """
    if var.base != rho:
        raise InputError("variation was built on a different base measure")
    _check_compat(rho, L)
    t = np.flatnonzero(var.delta)
    d = var.delta[t]
    lhat = averaged_kernel(rho, L)[t]
    return float(2.0 * (d @ lhat) + d @ L.matrix[np.ix_(t, t)] @ d)


def restrict(rho: DiscreteMeasure, mask) -> DiscreteMeasure:
    """Restriction to a point set (a mask); an empty result is allowed."""
    keep = as_mask(mask, len(rho.space), "restriction set")
    return DiscreteMeasure(rho.space, np.where(keep, rho.weights, 0.0))


def measure_to_dict(rho: DiscreteMeasure) -> dict:
    return {"space": rho.space.key,
            "weights": {rho.space.ids[i]: float(rho.weights[i])
                        for i in np.flatnonzero(rho.weights)}}


def _check_compat(rho: DiscreteMeasure, L: Lagrangian) -> None:
    if rho.space.key != L.space_key:
        raise InputError("measure and kernel live on different spaces")
