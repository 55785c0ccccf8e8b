"""Weighted point measures, balanced variations, and the action functional.

Scalar accumulations over id-keyed dicts use ``math.fsum`` (exact); vectorized
quadratic forms go through numpy's pairwise-summed ``dot``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import InputError, PositivityError, VolumeConstraintError
from .lagrangian import Lagrangian

# Weights at or below this are dropped at construction time.
PRUNE_EPS = 1e-12

# Balance and positivity slack for signed variations.
_BALANCE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Nonnegative weights on point ids; zero weights are pruned."""

    weights: dict[str, float]
    space_key: str

    def __post_init__(self):
        clean = {}
        for pid, w in self.weights.items():
            w = float(w)
            if not math.isfinite(w):
                raise InputError(f"weight at {pid!r} is not finite")
            if w < -PRUNE_EPS:
                raise InputError(f"negative weight {w} at {pid!r}")
            if w > PRUNE_EPS:
                clean[str(pid)] = w
        object.__setattr__(self, "weights", MappingProxyType(clean))

    def __eq__(self, other):
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return self.space_key == other.space_key and dict(self.weights) == dict(other.weights)

    def total(self) -> float:
        return math.fsum(self.weights.values())

    @property
    def support(self) -> frozenset[str]:
        return frozenset(self.weights)

    def weight(self, x: str) -> float:
        return self.weights.get(x, 0.0)

    def mass(self, K) -> float:
        return math.fsum(self.weights[x] for x in K if x in self.weights)


@dataclass(frozen=True)
class SignedVariation:
    """A balanced signed perturbation of a base measure."""

    base: DiscreteMeasure
    delta: dict[str, float]

    def __post_init__(self):
        object.__setattr__(self, "delta", MappingProxyType(dict(self.delta)))


def make_variation(base: DiscreteMeasure, delta: dict[str, float]) -> SignedVariation:
    """Validate balance (total delta = 0) and positivity of base + delta."""
    clean = {str(k): float(v) for k, v in delta.items()}
    for pid, v in clean.items():
        if not math.isfinite(v):
            raise InputError(f"variation at {pid!r} is not finite")
    bal = math.fsum(clean.values())
    if abs(bal) > _BALANCE_TOL:
        raise VolumeConstraintError(f"variation total {bal} is not balanced to zero")
    for pid, v in clean.items():
        if base.weight(pid) + v < -_BALANCE_TOL:
            raise PositivityError(
                f"variation drives weight at {pid!r} to {base.weight(pid) + v}")
    return SignedVariation(base=base, delta=clean)


def apply_variation(var: SignedVariation) -> DiscreteMeasure:
    out = dict(var.base.weights)
    for pid, v in var.delta.items():
        out[pid] = max(0.0, out.get(pid, 0.0) + v)
    return DiscreteMeasure(weights=out, space_key=var.base.space_key)


def action(rho: DiscreteMeasure, L: Lagrangian) -> float:
    """Double integral of the kernel against rho x rho."""
    _check_compat(rho, L)
    if not rho.weights:
        return 0.0
    idx = [L.at(x) for x in rho.weights]
    w = np.fromiter(rho.weights.values(), dtype=float, count=len(idx))
    block = L.matrix[np.ix_(idx, idx)]
    return float(w @ block @ w)


def averaged_kernel(rho: DiscreteMeasure, L: Lagrangian) -> np.ndarray:
    """Vector of integrals of L(x, .) against rho, over all kernel-domain points."""
    _check_compat(rho, L)
    out = np.zeros(len(L.ids))
    if rho.weights:
        idx = [L.at(x) for x in rho.weights]
        w = np.fromiter(rho.weights.values(), dtype=float, count=len(idx))
        out = L.matrix[:, idx] @ w
    return out


def action_difference(rho: DiscreteMeasure, var: SignedVariation, L: Lagrangian) -> float:
    """Action change under a balanced variation, via the symmetric collapse.

    Equals 2 * sum_x delta(x) * int L(x, .) drho + double sum of delta against
    delta; agrees with recomputing both actions directly.
    """
    if var.base != rho:
        raise InputError("variation was built on a different base measure")
    _check_compat(rho, L)
    if not var.delta:
        return 0.0
    ids = list(var.delta)
    dvec = np.fromiter(var.delta.values(), dtype=float, count=len(ids))
    idx = [L.at(x) for x in ids]
    lhat = averaged_kernel(rho, L)[idx]
    quad = L.matrix[np.ix_(idx, idx)]
    return float(2.0 * (dvec @ lhat) + dvec @ quad @ dvec)


def restrict(rho: DiscreteMeasure, K) -> DiscreteMeasure:
    """Restriction to a point set; an empty result is allowed."""
    K = set(K)
    return DiscreteMeasure(weights={k: v for k, v in rho.weights.items() if k in K},
                           space_key=rho.space_key)


def measure_from_dict(payload: dict) -> DiscreteMeasure:
    try:
        return DiscreteMeasure(weights={str(k): float(v)
                                        for k, v in payload["weights"].items()},
                               space_key=str(payload["space"]))
    except (KeyError, TypeError, AttributeError) as exc:
        raise InputError(f"malformed measure payload: {exc}") from None


def measure_to_dict(rho: DiscreteMeasure) -> dict:
    return {"space": rho.space_key,
            "weights": {k: float(v) for k, v in sorted(rho.weights.items())}}


def _check_compat(rho: DiscreteMeasure, L: Lagrangian) -> None:
    if rho.space_key != L.space_key:
        raise InputError("measure and kernel live on different spaces")
