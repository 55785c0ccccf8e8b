"""Interaction kernels and decay-in-entropy certificates.

A kernel is a symmetric nonnegative matrix over a point cloud with strictly
positive diagonal. Decay profiles majorize the kernel at large distance and
drive the tail index used for epsilon-effective ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InputError, as_number, known_keys, number_rows
from .space import (MetricSpace, as_mask, ball_cover_counts, closed_ball, same_space,
                    symmetric_matrix)

# The settings of each kernel kind and, under ``profile.params``, of each
# profile ``f``; a config section that gives any other key is refused.
_KERNEL_SETTINGS = {"tent": ("amplitude", "range"),
                    "truncated_gaussian": ("amplitude", "sigma", "range"),
                    "exponential": ("amplitude", "sigma"),
                    "matrix": ("matrix", "range")}
_KINDS = tuple(_KERNEL_SETTINGS)
_PROFILE_SETTINGS = {"exp": ("amplitude", "rate"), "poly": ("amplitude", "power"),
                     "scaled_exp": ("amplitude", "slope", "rate")}

# Witness cap for decay-certificate reports.
_MAX_WITNESSES = 10


@dataclass(frozen=True)
class Lagrangian:
    """Precomputed kernel matrix bound to a specific space, in ``space.ids`` order."""

    kind: str
    params: dict
    matrix: np.ndarray
    space_key: str
    declared_range: float | None = None

    def __post_init__(self):
        m = symmetric_matrix(self.matrix, None, "kernel matrix")
        if np.any(np.diag(m) <= 0):
            raise InputError("kernel diagonal must be strictly positive")
        object.__setattr__(self, "matrix", m)


def make_kernel(kind: str, params: dict, space: MetricSpace) -> Lagrangian:
    """Build a kernel of the given kind on ``space``.

    Kinds: ``tent`` (amplitude, range), ``truncated_gaussian`` (amplitude,
    sigma, range), ``exponential`` (amplitude, sigma), ``matrix`` (matrix, a
    list of rows of JSON numbers; optional range). A key of ``params`` that
    the kind does not take is refused.
    """
    if kind not in _KINDS:
        raise InputError(f"unknown kernel kind {kind!r}, expected one of {_KINDS}")
    known_keys(params, _KERNEL_SETTINGS[kind], "kernel.", f"{kind} kernel")

    def num(key: str, default: float | None = None) -> float:
        if default is None and key not in params:
            raise InputError(f"a {kind} kernel needs kernel.{key}")
        return as_number(params.get(key, default), f"kernel.{key}")

    d = space.dist
    declared: float | None = None
    if kind == "tent":
        a = num("amplitude", 1.0)
        r0 = num("range")
        if a <= 0 or r0 <= 0:
            raise InputError("tent kernel needs positive amplitude and range")
        # a * max(0, 1 - d / r0), computed in one buffer
        m = d / r0
        np.subtract(1.0, m, out=m)
        np.maximum(m, 0.0, out=m)
        m *= a
        declared = r0
    elif kind == "truncated_gaussian":
        a = num("amplitude", 1.0)
        sigma = num("sigma")
        r0 = num("range")
        if a <= 0 or sigma <= 0 or r0 <= 0:
            raise InputError(
                "truncated gaussian needs positive amplitude, sigma and range")
        # a * exp(-(d / sigma)^2) * [d <= r0], computed in one buffer
        m = d / sigma
        np.square(m, out=m)
        np.negative(m, out=m)
        np.exp(m, out=m)
        m *= a
        m *= d <= r0
        declared = r0
    elif kind == "exponential":
        a = num("amplitude", 1.0)
        sigma = num("sigma", 1.0)
        if a <= 0 or sigma <= 0:
            raise InputError("exponential kernel needs positive amplitude and sigma")
        # a * exp(-d / sigma), computed in one buffer
        m = -d
        m /= sigma
        np.exp(m, out=m)
        m *= a
    else:
        n = len(space)
        rows = number_rows(params.get("matrix"), "kernel.matrix")
        if len(rows) != n or any(len(row) != n for row in rows):
            raise InputError(f"kernel matrix must be {n}x{n}, got row lengths "
                             f"{[len(row) for row in rows]}")
        m = np.array(rows).reshape(n, n)
        declared = None if params.get("range") is None else num("range")
    return Lagrangian(kind=kind, params=dict(params), matrix=m, space_key=space.key,
                      declared_range=declared)


def kernel_from_spec(spec: dict, space: MetricSpace) -> Lagrangian:
    """The kernel of a config's ``kernel`` section, built by ``make_kernel``."""
    if not isinstance(spec, dict):
        raise InputError(f"kernel spec must be an object, got {spec!r:.60}")
    spec = dict(spec)
    try:
        kind = spec.pop("kind")
    except KeyError:
        raise InputError("kernel spec needs a 'kind' field") from None
    return make_kernel(kind, spec, space)


def diagonal_infimum(L: Lagrangian) -> float:
    """inf over x of L(x, x); strictly positive by construction."""
    return float(np.diag(L.matrix).min())


def global_sup(L: Lagrangian) -> float:
    """sup over pairs of L(x, y) (finite spaces are always bounded)."""
    return float(L.matrix.max())


def _effective_range(positive: np.ndarray, K, what: str) -> np.ndarray:
    """K' of the point set K, the smallest set with L(x, y) = 0 for every x in
    K and y outside it: the union of the rows of ``positive`` (the mask
    L > 0) at K. InputError if K is not a nonempty mask over those points."""
    K = as_mask(K, len(positive), what)
    if not K.any():
        raise InputError(f"the effective range of an empty {what} is undefined")
    return positive[K].any(axis=0)


def verify_compact_range(L: Lagrangian, space: MetricSpace, exhaustion) -> dict:
    """Check that every stage's effective range stays in a bounded thickening.

    With a declared finite range r0, the range of stage K must land inside the
    r0-thickening of K. Without one (exponential, bare matrices) the check
    demands the range add nothing beyond K itself. The masks ``L > 0`` and,
    with a declared range, of every point's closed r0-ball are built once,
    and each stage reads its K' (``_effective_range``) and its
    thickening as the union of the stage's rows.
    """
    same_space(L.space_key, space.key)
    positive = L.matrix > 0.0
    balls = None
    if L.declared_range is not None:
        balls = closed_ball(space, np.arange(len(space)), L.declared_range)
    per_stage = []
    holds = True
    for i, stage in enumerate(exhaustion.stages):
        kprime = _effective_range(positive, stage, "exhaustion stage")
        allowed = stage if balls is None else balls[stage].any(axis=0)
        contained = not (kprime & ~allowed).any()
        holds = holds and contained
        per_stage.append({"stage": i, "size": int(stage.sum()),
                          "range_size": int(kprime.sum()), "contained": contained})
    return {"holds": holds, "declared_range": L.declared_range, "stages": per_stage}


@dataclass(frozen=True)
class DecayProfile:
    """Decreasing integrable majorant f with entropy radius delta.

    ``c`` is the kernel's diagonal infimum and fixes ``coeff = 1 + 2/c``.
    ``tail(t)`` returns an upper bound on the integral of f over [t, inf).
    """

    kind: str
    params: dict
    delta: float
    c: float
    f: Callable[[float], float]
    tail: Callable[[float], float]
    coeff: float = field(init=False)

    def __post_init__(self):
        # each test is written so that NaN fails it
        if not self.delta > 0:
            raise InputError(f"profile.delta must be positive, got {self.delta!r}")
        if not self.c > 0:
            raise InputError(
                f"profile needs the kernel diagonal infimum c > 0, got {self.c!r}")
        object.__setattr__(self, "coeff", 1.0 + 2.0 / self.c)
        _check_decreasing(self.f)


def _check_decreasing(f) -> None:
    xs = np.linspace(0.0, 50.0, 201)
    vals = np.array([f(float(x)) for x in xs])
    if np.any(vals < -1e-15):
        raise InputError("profile f must be nonnegative")
    if np.any(np.diff(vals) > 1e-12 * max(1.0, float(vals.max(initial=0.0)))):
        raise InputError("profile f must be monotonically decreasing")


def exp_profile(amplitude: float, rate: float, delta: float, c: float) -> DecayProfile:
    if not amplitude >= 0:
        raise InputError(f"exponential profile needs amplitude >= 0, got {amplitude!r}")
    if not rate > 0:
        raise InputError(f"exponential profile needs rate > 0, got {rate!r}")

    def f(d: float) -> float:
        return amplitude * math.exp(-rate * d)

    def tail(t: float) -> float:
        return amplitude / rate * math.exp(-rate * max(t, 0.0))

    return DecayProfile(kind="exp", params={"amplitude": amplitude, "rate": rate},
                        delta=delta, c=c, f=f, tail=tail)


def poly_profile(amplitude: float, power: float, delta: float, c: float) -> DecayProfile:
    if not power > 1.0:
        raise InputError(f"polynomial profile with power {power!r} is not integrable")
    if not amplitude >= 0:
        raise InputError(f"polynomial profile needs amplitude >= 0, got {amplitude!r}")

    def f(d: float) -> float:
        return amplitude * (1.0 + d) ** (-power)

    def tail(t: float) -> float:
        return amplitude / (power - 1.0) * (1.0 + max(t, 0.0)) ** (1.0 - power)

    return DecayProfile(kind="poly", params={"amplitude": amplitude, "power": power},
                        delta=delta, c=c, f=f, tail=tail)


def scaled_exp_profile(amplitude: float, slope: float, rate: float, delta: float,
                       c: float) -> DecayProfile:
    """f(d) = amplitude * (d + slope) * exp(-rate * d), decreasing for slope*rate >= 1."""
    if not amplitude >= 0:
        raise InputError(
            f"scaled exponential profile needs amplitude >= 0, got {amplitude!r}")
    if not rate > 0:
        raise InputError(f"scaled exponential profile needs rate > 0, got {rate!r}")
    if not slope * rate >= 1.0:
        raise InputError("scaled exponential profile must be decreasing: it needs "
                         f"slope * rate >= 1, got slope {slope!r} and rate {rate!r}")

    def f(d: float) -> float:
        return amplitude * (d + slope) * math.exp(-rate * d)

    def tail(t: float) -> float:
        t = max(t, 0.0)
        # int_t^inf (d+slope) e^{-r d} dd = e^{-r t} (t + slope + 1/r) / r
        return amplitude * math.exp(-rate * t) * (t + slope + 1.0 / rate) / rate

    return DecayProfile(kind="scaled_exp",
                        params={"amplitude": amplitude, "slope": slope, "rate": rate},
                        delta=delta, c=c, f=f, tail=tail)


def profile_from_spec(spec: dict, c: float) -> DecayProfile:
    """The profile of a config's ``profile`` section; a key it, or its ``f``
    under ``params``, does not take is refused."""
    if not isinstance(spec, dict):
        raise InputError(f"profile spec must be an object, got {spec!r:.60}")
    known_keys(spec, ("f", "delta", "params"), "profile.", "profile")
    try:
        kind = spec["f"]
        delta = as_number(spec["delta"], "profile.delta")
    except KeyError as exc:
        raise InputError(f"profile spec missing field: {exc}") from None
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise InputError(f"profile.params must be an object, got {params!r:.60}")
    if not isinstance(kind, str) or kind not in _PROFILE_SETTINGS:
        raise InputError(f"unknown profile kind {kind!r}")
    known_keys(params, _PROFILE_SETTINGS[kind], "profile.params.", f"{kind} profile")

    def num(key: str, default: float) -> float:
        return as_number(params.get(key, default), f"profile.params.{key}")

    if kind == "exp":
        return exp_profile(num("amplitude", 1.0), num("rate", 1.0), delta, c)
    if kind == "poly":
        return poly_profile(num("amplitude", 1.0), num("power", 2.0), delta, c)
    return scaled_exp_profile(num("amplitude", 1.0), num("slope", 2.0),
                              num("rate", 1.0), delta, c)


def tail_index(profile: DecayProfile, eps: float, cap: int = 10 ** 6) -> int:
    """Smallest integer N0 > 1 whose tail integral from N0 - 1 is below eps/3."""
    if eps <= 0:
        raise InputError("tail index needs eps > 0")
    for n in range(2, cap + 1):
        if profile.tail(float(n - 1)) < eps / 3.0:
            return n
    raise InputError(f"tail never drops below {eps}/3 up to N0 = {cap}")


def _radius_bounds(L: Lagrangian, space: MetricSpace):
    """Largest passing closed radius and exact discrete sup, each the inf over points.

    For each x the admissible radii are those whose closed ball keeps
    L(x, .) >= c/2 everywhere; the sup over real radii equals the smallest
    realized distance carrying a failing point (open balls stop just short
    of it).
    """
    same_space(L.space_key, space.key)
    dist = space.dist
    d_fail = np.where(L.matrix < diagonal_infimum(L) / 2.0, dist, math.inf).min(axis=1)
    d_ok = np.where(dist < d_fail[:, None] - 1e-15, dist, 0.0).max(axis=1)
    return float(d_ok.min()), float(d_fail.min())


def verify_entropy_decay(L: Lagrangian, space: MetricSpace, profile: DecayProfile) -> dict:
    """Certificate for decay in entropy.

    (a) positive diagonal infimum, (b) entropy radius at least the profile's
    delta (checked against the exact discrete sup; the conservative
    closed-ball witness is reported alongside), (c) the
    kernel is majorized by f(d) / (coeff * E_x(d + 2, delta)) on all ordered
    pairs, with E_x the greedy cover count of ``ball_cover_counts`` and f
    evaluated once per distinct distance. At most 10 violating witnesses are
    reported, in row-major (x, y) order.
    """
    same_space(L.space_key, space.key)
    c = diagonal_infimum(L)
    cond_a = c > 0.0
    delta_closed, delta_sup = _radius_bounds(L, space)
    cond_b = delta_sup >= profile.delta - 1e-12
    n = len(space)
    off = ~np.eye(n, dtype=bool)
    dist = space.dist
    covers = ball_cover_counts(space, dist + 2.0, profile.delta)
    # the distances are exactly symmetric, so f is evaluated on the strict
    # upper triangle and mirrored into the lower one
    upper = np.triu_indices(n, 1)
    distances, which = np.unique(dist[upper], return_inverse=True)
    f_values = np.array([profile.f(float(d)) for d in distances], dtype=float)
    bound = np.zeros((n, n))
    bound[upper] = f_values[which]
    bound.T[upper] = bound[upper]
    bound[off] /= profile.coeff * covers[off]
    violated = off & (L.matrix > bound + 1e-12 * np.maximum(1.0, bound))
    rows, cols = np.nonzero(violated)
    witnesses = [{"x": space.ids[i], "y": space.ids[j], "value": float(L.matrix[i, j]),
                  "bound": float(bound[i, j]), "distance": float(dist[i, j])}
                 for i, j in zip(rows[:_MAX_WITNESSES], cols[:_MAX_WITNESSES])]
    checked = n * (n - 1)
    cond_c = not witnesses
    return {
        "holds": bool(cond_a and cond_b and cond_c),
        "condition_a": {"holds": bool(cond_a), "c": c},
        "condition_b": {"holds": bool(cond_b), "delta_closed": delta_closed,
                        "delta_sup": delta_sup, "delta_required": profile.delta},
        "condition_c": {"holds": bool(cond_c), "checked_pairs": checked},
        "witnesses": witnesses,
    }
