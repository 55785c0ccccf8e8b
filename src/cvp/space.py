"""Finite metric point clouds, metric balls, covering numbers, exhaustions."""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, DegenerateExhaustionError, InputError, SizeError

# Absorbs one ulp of distance roundoff in closed-ball comparisons.
_RADIUS_SLACK = 1e-12

# Full triangle-inequality validation up to this size, sampled beyond.
_FULL_TRIANGLE_CHECK = 256


@dataclass(frozen=True)
class MetricSpace:
    """A finite metric space given by point ids and a distance matrix.

    Immutable after construction; the distance matrix is marked read-only.
    ``key`` is a content fingerprint used to detect mismatched spaces when
    measures and kernels built on different spaces are mixed.
    """

    ids: tuple[str, ...]
    dist: np.ndarray
    coords: np.ndarray | None = None
    name: str = "space"
    index: dict[str, int] = field(init=False, repr=False, compare=False)
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = tuple(str(i) for i in self.ids)
        if len(ids) == 0:
            raise ConstructionError("a metric space needs at least one point")
        if len(set(ids)) != len(ids):
            raise ConstructionError("point ids must be unique")
        d = np.asarray(self.dist, dtype=float)
        n = len(ids)
        if d.shape != (n, n):
            raise ConstructionError(f"distance matrix must be {n}x{n}, got {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ConstructionError("distances must be finite")
        if np.any(d < 0):
            raise ConstructionError("distances must be nonnegative")
        if np.any(np.abs(np.diag(d)) > 0):
            raise ConstructionError("self-distances must be zero")
        if not np.allclose(d, d.T, rtol=0, atol=1e-12):
            raise ConstructionError("distance matrix must be symmetric")
        d = (d + d.T) / 2.0
        _check_triangle(d)
        d.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "dist", d)
        if self.coords is not None:
            c = np.asarray(self.coords, dtype=float)
            if c.ndim == 1:
                c = c[:, None]
            if c.shape[0] != n:
                raise ConstructionError("coords row count must match point count")
            c.setflags(write=False)
            object.__setattr__(self, "coords", c)
        object.__setattr__(self, "index", {p: i for i, p in enumerate(ids)})
        h = hashlib.sha256()
        h.update("\x1f".join(ids).encode())
        h.update(np.ascontiguousarray(d).tobytes())
        object.__setattr__(self, "key", h.hexdigest()[:16])

    def __len__(self) -> int:
        return len(self.ids)

    def d(self, x: str, y: str) -> float:
        return float(self.dist[self._at(x), self._at(y)])

    def diameter(self) -> float:
        return float(self.dist.max())

    def _at(self, x: str) -> int:
        try:
            return self.index[x]
        except KeyError:
            raise InputError(f"unknown point id {x!r}") from None


def _check_triangle(d: np.ndarray) -> None:
    n = d.shape[0]
    slack = 1e-9 * max(1.0, float(d.max(initial=0.0)))
    if n <= _FULL_TRIANGLE_CHECK:
        mids = range(n)
    else:
        mids = np.random.default_rng(0).choice(n, size=_FULL_TRIANGLE_CHECK, replace=False)
    for k in mids:
        if not np.all(d <= d[:, [k]] + d[[k], :] + slack):
            raise ConstructionError("triangle inequality violated")


def _ball_indices(space: MetricSpace, xi: int, r: float) -> np.ndarray:
    if r < 0:
        raise InputError("ball radius must be nonnegative")
    slack = _RADIUS_SLACK * max(1.0, r)
    return np.nonzero(space.dist[xi] <= r + slack)[0]


def closed_ball(space: MetricSpace, x: str, r: float) -> frozenset[str]:
    """Points within distance r of x (closed, always contains x)."""
    idx = _ball_indices(space, space._at(x), r)
    return frozenset(space.ids[i] for i in idx)


def greedy_cover(space: MetricSpace, x: str, r: float, delta: float) -> tuple[str, ...]:
    """Centers chosen by the greedy scan that covers the closed r-ball at x.

    Scans ball members in point order; the first uncovered member opens a
    delta-ball. The result is an upper bound witness for the covering number.
    """
    if delta <= 0:
        raise InputError("covering radius delta must be positive")
    members = _ball_indices(space, space._at(x), r)
    slack = _RADIUS_SLACK * max(1.0, delta)
    covered = np.zeros(len(members), dtype=bool)
    centers: list[str] = []
    for pos, m in enumerate(members):
        if covered[pos]:
            continue
        centers.append(space.ids[m])
        covered |= space.dist[m, members] <= delta + slack
    return tuple(centers)


def covering_number(space: MetricSpace, x: str, r: float, delta: float) -> int:
    """Greedy upper bound on the number of delta-balls covering the r-ball at x."""
    return len(greedy_cover(space, x, r, delta))


def exact_covering_number(space: MetricSpace, x: str, r: float, delta: float,
                          max_ball: int = 16) -> int:
    """Minimum number of delta-balls (centered at space points) covering the r-ball.

    Brute force over center subsets; refuses balls larger than ``max_ball``.
    """
    if delta <= 0:
        raise InputError("covering radius delta must be positive")
    members = _ball_indices(space, space._at(x), r)
    if len(members) > max_ball:
        raise SizeError(
            f"exact covering is capped at {max_ball}-point balls, got {len(members)}")
    target = frozenset(int(m) for m in members)
    slack = _RADIUS_SLACK * max(1.0, delta)
    patterns = set()
    for z in range(len(space)):
        pat = frozenset(int(m) for m in members if space.dist[z, m] <= delta + slack)
        if pat:
            patterns.add(pat)
    # Only maximal patterns can appear in some optimal cover.
    maximal = [p for p in patterns if not any(p < q for q in patterns)]
    upper = len(greedy_cover(space, x, r, delta))
    for k in range(1, upper):
        for combo in itertools.combinations(maximal, k):
            if frozenset().union(*combo) >= target:
                return k
    return upper


@dataclass(frozen=True)
class Exhaustion:
    """A strictly increasing chain of compact stages (point-id sets)."""

    stages: tuple[frozenset[str], ...]
    covers_all: bool
    center: str | None = None
    radii: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.stages:
            raise InputError("an exhaustion needs at least one stage")
        prev: frozenset[str] | None = None
        for stage in self.stages:
            if not stage:
                raise InputError("exhaustion stages must be nonempty")
            if prev is not None:
                if stage == prev:
                    raise DegenerateExhaustionError(
                        "consecutive stages are identical")
                if not prev < stage:
                    raise InputError("stages must be strictly nested")
            prev = stage


def build_exhaustion(space: MetricSpace, center: str, radii) -> Exhaustion:
    """Closed balls at ``center`` with strictly increasing radii."""
    radii = tuple(float(r) for r in radii)
    if not radii:
        raise InputError("need at least one radius")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise InputError("radii must be strictly increasing")
    stages = tuple(closed_ball(space, center, r) for r in radii)
    for a, b in zip(stages, stages[1:]):
        if a == b:
            raise DegenerateExhaustionError(
                f"radii {radii} yield identical consecutive stages")
    covers_all = len(stages[-1]) == len(space)
    return Exhaustion(stages=stages, covers_all=covers_all, center=center, radii=radii)


def grid_1d(values, prefix: str = "x", name: str = "grid") -> MetricSpace:
    """Euclidean metric space on a 1D coordinate list."""
    vals = np.asarray(list(values), dtype=float)
    ids = tuple(f"{prefix}{i}" for i in range(len(vals)))
    dist = np.abs(vals[:, None] - vals[None, :])
    return MetricSpace(ids=ids, dist=dist, coords=vals[:, None], name=name)


def space_from_dict(payload: dict) -> MetricSpace:
    """Build a space from its JSON form.

    ``{"points": [{"id": ..., "coords": [...]}, ...], "metric": "euclidean"}``
    or ``"metric": "explicit"`` with ``"distances"`` as the row-major strict
    upper triangle.
    """
    try:
        points = payload["points"]
        metric = payload["metric"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"space payload missing field: {exc}") from None
    if not points:
        raise InputError("space payload has no points")
    ids = tuple(str(p["id"]) for p in points)
    n = len(ids)
    coords = None
    if all("coords" in p for p in points):
        coords = np.asarray([p["coords"] for p in points], dtype=float)
    if metric == "euclidean":
        if coords is None:
            raise InputError("euclidean metric requires coords on every point")
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    elif metric == "explicit":
        tri = payload.get("distances")
        expected = n * (n - 1) // 2
        if tri is None or len(tri) != expected:
            raise InputError(
                f"explicit metric needs {expected} upper-triangular distances")
        dist = np.zeros((n, n))
        pos = 0
        for i in range(n):
            for j in range(i + 1, n):
                dist[i, j] = dist[j, i] = float(tri[pos])
                pos += 1
    else:
        raise InputError(f"unknown metric kind {metric!r}")
    return MetricSpace(ids=ids, dist=dist, coords=coords,
                       name=str(payload.get("name", "space")))


def space_to_dict(space: MetricSpace) -> dict:
    points = []
    for i, pid in enumerate(space.ids):
        entry: dict = {"id": pid}
        if space.coords is not None:
            entry["coords"] = [float(v) for v in space.coords[i]]
        points.append(entry)
    if space.coords is not None:
        return {"name": space.name, "points": points, "metric": "euclidean"}
    tri = []
    for i in range(len(space)):
        for j in range(i + 1, len(space)):
            tri.append(float(space.dist[i, j]))
    return {"name": space.name, "points": points, "metric": "explicit",
            "distances": tri}
