"""Weighted point measures, balanced variations, and the action functional.

Measures are read-only weight vectors in ``space.ids`` order, the order of
a point-set mask, so restriction is ``np.where(mask, w, 0)``. Kernel
sums run over the nonzero entries in ascending index order, so a measure gives
the same bits however it was built; scalar sums use ``math.fsum`` (exact).
Balanced variations are rows of point indices and the signed steps at them,
checked by ``check_variations`` and scored by ``action_differences``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .lagrangian import Lagrangian
from .space import MetricSpace, as_mask, same_space

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


def check_variations(base: DiscreteMeasure, points: np.ndarray, deltas: np.ndarray) -> None:
    """Raise unless every row variation is finite, balanced and keeps base + delta >= 0.

    Row ``b`` moves the weight at ``points[b, i]`` by ``deltas[b, i]``; a row
    names each point once. Each row total is an exact ``math.fsum``.
    """
    ids = base.space.ids
    bad = np.argwhere(~np.isfinite(deltas))
    if bad.size:
        raise InputError(f"variation at {ids[points[tuple(bad[0])]]!r} is not finite")
    totals = np.fromiter(map(math.fsum, deltas.tolist()), float, len(deltas))
    off = np.flatnonzero(np.abs(totals) > _BALANCE_TOL)
    if off.size:
        raise InputError(f"variation total {totals[off[0]]} is not balanced to zero")
    after = base.weights[points] + deltas
    low = np.argwhere(after < -_BALANCE_TOL)
    if low.size:
        at = tuple(low[0])
        raise InputError(f"variation drives weight at {ids[points[at]]!r} to {after[at]}")


def action(rho: DiscreteMeasure, L: Lagrangian) -> float:
    """Double integral of the kernel against rho x rho."""
    same_space(rho.space.key, L.space_key)
    s = np.flatnonzero(rho.weights)
    w = rho.weights[s]
    return float(w @ L.matrix[np.ix_(s, s)] @ w)


def averaged_kernel(rho: DiscreteMeasure, L: Lagrangian) -> np.ndarray:
    """Vector of integrals of L(x, .) against rho, over all kernel-domain points."""
    same_space(rho.space.key, L.space_key)
    s = np.flatnonzero(rho.weights)
    return L.matrix[:, s] @ rho.weights[s]


def action_differences(lhat: np.ndarray, L: Lagrangian, points: np.ndarray,
                       deltas: np.ndarray) -> np.ndarray:
    """Action change of each row variation, via the symmetric collapse.

    Row ``b`` moves the weight at ``points[b, i]`` by ``deltas[b, i]`` (a
    padding entry has delta 0); ``lhat`` is ``averaged_kernel`` of the base.
    The change is 2 * delta . lhat + delta' L_PP delta, and L is read only at
    each row's points, one column of them at a time.
    """
    Ld = np.zeros(deltas.shape)
    for j in range(deltas.shape[1]):
        Ld += L.matrix[points, points[:, j, None]] * deltas[:, j, None]
    return 2.0 * np.einsum("bi,bi->b", deltas, lhat[points]) + np.einsum("bi,bi->b", deltas, Ld)


def restrict(rho: DiscreteMeasure, mask) -> DiscreteMeasure:
    """Restriction to a point set (a mask); an empty result is allowed."""
    keep = as_mask(mask, len(rho.space), "restriction set")
    return DiscreteMeasure(rho.space, np.where(keep, rho.weights, 0.0))


def measure_to_dict(rho: DiscreteMeasure) -> dict:
    return {"space": rho.space.key,
            "weights": {rho.space.ids[i]: float(rho.weights[i])
                        for i in np.flatnonzero(rho.weights)}}
