"""Finite metric point clouds, metric balls, covering numbers, exhaustions."""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConstructionError, DegenerateExhaustionError, InputError, SizeError,
                     as_number)

# Absorbs one ulp of distance roundoff in closed-ball comparisons.
_RADIUS_SLACK = 1e-12

# Cells of the temporaries that ball_cover_counts (balls x points) and the
# triangle checks (rows x points x dim, midpoints x points) build at a time,
# so they stay O(chunk * n), never O(n^3).
_CHUNK_CELLS = 1 << 18


@dataclass(frozen=True)
class MetricSpace:
    """A finite metric space given by point ids and a distance matrix.

    Immutable after construction; the distance matrix is marked read-only.
    Construction checks the triangle inequality exactly: a space whose
    ``dist`` matches the Euclidean distances of its own ``coords`` is
    certified from them in O(n^2 dim), and every other matrix is scanned
    through every midpoint in O(n^3). ``coords``, when given, must be finite.
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
        n = len(ids)
        d = symmetric_matrix(self.dist, n, "distance matrix", ConstructionError)
        if np.any(np.diag(d) > 0):
            raise ConstructionError("self-distances must be zero")
        c = None
        if self.coords is not None:
            c = np.array(self.coords, dtype=float)
            if c.ndim == 1:
                c = c[:, None]
            if c.ndim != 2 or c.shape[0] != n:
                raise ConstructionError(f"coords must be {n} rows of numbers, "
                                        f"got shape {c.shape}")
            if not np.all(np.isfinite(c)):
                raise ConstructionError("coords must be finite")
            c.setflags(write=False)
        _check_triangle(d, c)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "dist", d)
        object.__setattr__(self, "coords", c)
        object.__setattr__(self, "index", {p: i for i, p in enumerate(ids)})
        h = hashlib.sha256()
        h.update("\x1f".join(ids).encode())
        h.update(np.ascontiguousarray(d))
        object.__setattr__(self, "key", h.hexdigest()[:16])

    def __len__(self) -> int:
        return len(self.ids)


def _check_triangle(d: np.ndarray, coords: np.ndarray | None) -> None:
    """ConstructionError unless d_ij <= d_ik + d_kj + slack for all i, j, k,
    with ``slack = 1e-9 * max(1, max d)``.

    The Euclidean certificate: recompute e = ||x_i - x_j|| from ``coords``
    with the formula of ``space_from_dict``. Each difference of two doubles,
    each square, each addition and the square root rounds once relative to
    its value, so e_ij = N_ij (1 + t), |t| <= g = (dim + 2) eps, where N is
    the exact norm of the stored coordinates (squares that underflow move e
    by less than 1e-153 sqrt(dim), far below the slack). N satisfies the
    triangle inequality exactly. So if |d - e| <= slack/4 everywhere,
    d_ij <= N_ij (1 + g) + slack/4 <= (N_ik + N_kj)(1 + g) + slack/4
         <= d_ik + d_kj + 3 slack/4 + (d_ik + d_kj + slack/2) 2g / (1 - g),
    and the last term is below slack/4 when 4 g (2 max d + slack) <= slack/4,
    which holds up to about 10^5 dimensions. The bound is strictly inside
    what the midpoint scan accepts. Any other matrix (no coordinates, an
    explicit metric, coordinates that disagree with ``dist`` or overflow to
    inf) goes to the exact scan ``_midpoint_violation``.
    """
    dmax = float(d.max(initial=0.0))
    slack = 1e-9 * max(1.0, dmax)
    if coords is not None:
        g = (coords.shape[1] + 2) * np.finfo(float).eps
        if 4 * g * (2 * dmax + slack) <= slack / 4 and _euclidean_within(d, coords, slack / 4):
            return
    if _midpoint_violation(d, slack):
        raise ConstructionError("triangle inequality violated")


def _euclidean_within(d: np.ndarray, coords: np.ndarray, tol: float) -> bool:
    """Whether |d_ij - ||x_i - x_j||| <= tol for all i, j (false where e overflows).

    Rows go in chunks whose differences hold at most ``_CHUNK_CELLS`` cells.
    """
    n, dim = coords.shape
    step = max(1, _CHUNK_CELLS // (n * max(1, dim)))
    for lo in range(0, n, step):
        diff = coords[lo:lo + step, None, :] - coords[None, :, :]
        gap = np.einsum("ijk,ijk->ij", diff, diff)
        np.subtract(d[lo:lo + step], np.sqrt(gap, out=gap), out=gap)
        if not np.all(np.abs(gap, out=gap) <= tol):
            return False
    return True


def _midpoint_violation(d: np.ndarray, slack: float) -> bool:
    """Whether d_ij > min_k (d_ik + d_kj) + slack for some i, j: the exact
    triangle scan through every midpoint k, one min-plus row at a time.

    ``d`` is exactly symmetric, so row i checks the columns j >= i only.
    Midpoints go in blocks whose sums hold at most ``_CHUNK_CELLS`` cells.
    """
    n = d.shape[0]
    step = max(1, _CHUNK_CELLS // n)
    for i in range(n):
        via = np.full(n - i, np.inf)
        for k in range(0, n, step):
            np.minimum(via, (d[i, k:k + step, None] + d[k:k + step, i:]).min(axis=0), out=via)
        if np.any(d[i, i:] > via + slack):
            return True
    return False


def symmetric_matrix(value, n: int | None, what: str, error: type[Exception]) -> np.ndarray:
    """``value`` as a read-only float matrix, n x n (square when ``n`` is None),
    finite, nonnegative and symmetric to 1e-12, averaged with its transpose so
    that it is exactly symmetric; else ``error`` naming ``what``. The diagonal
    rule is the caller's."""
    m = np.asarray(value, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or n not in (None, m.shape[0]):
        size = "square" if n is None else f"{n}x{n}"
        raise error(f"{what} must be {size}, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise error(f"{what} must be finite")
    if np.any(m < 0):
        raise error(f"{what} must be nonnegative")
    # one buffer holds the gap and then the result: a freed full-size
    # temporary raises the allocator's mmap threshold and with it peak RSS
    out = m - m.T
    if not np.all(np.abs(out, out=out) <= 1e-12):
        raise error(f"{what} must be symmetric")
    np.add(m, m.T, out=out)
    out /= 2.0
    out.setflags(write=False)
    return out


def as_mask(mask, n: int, what: str = "point set") -> np.ndarray:
    """``mask`` as a read-only boolean vector over n points in ``MetricSpace.ids``
    order, the form of every point set (a point is an index; point ids appear
    only in configs and reports). InputError if it is not one."""
    m = np.array(mask)
    if m.dtype != bool or m.shape != (n,):
        raise InputError(f"{what} must be a boolean mask over {n} points, "
                         f"got a {m.dtype} array of shape {m.shape}")
    m.setflags(write=False)
    return m


def as_index(x, n: int):
    """``x`` as a point index (an int) or an index array over n points, else InputError."""
    idx = np.asarray(x)
    if idx.dtype.kind not in "iu" or np.any((idx < 0) | (idx >= n)):
        raise InputError(f"point index {x!r:.60} is not in 0..{n - 1}")
    return idx if idx.ndim else int(idx)


def closed_ball(space: MetricSpace, x, r: float) -> np.ndarray:
    """Mask of the points within distance r of point x (closed, contains x).

    ``x`` is a point index, or an index array for one mask row per point.
    """
    if r < 0:
        raise InputError("ball radius must be nonnegative")
    return space.dist[as_index(x, len(space))] <= r + _RADIUS_SLACK * max(1.0, r)


def greedy_cover(space: MetricSpace, x: int, r: float, delta: float) -> tuple[int, ...]:
    """Center indices chosen by the greedy scan that covers the closed r-ball at x.

    Scans ball members in point order; the first uncovered member opens a
    delta-ball. The result is an upper bound witness for the covering number.
    This is the per-point reference: the certificates count covers of many
    sets at once with ``greedy_cover_counts``, which makes the same scan.
    """
    if delta <= 0:
        raise InputError("covering radius delta must be positive")
    members = np.flatnonzero(closed_ball(space, x, r))
    slack = _RADIUS_SLACK * max(1.0, delta)
    covered = np.zeros(len(members), dtype=bool)
    centers: list[int] = []
    for pos, m in enumerate(members):
        if covered[pos]:
            continue
        centers.append(int(m))
        covered |= space.dist[m, members] <= delta + slack
    return tuple(centers)


def covering_number(space: MetricSpace, x: int, r: float, delta: float) -> int:
    """Greedy upper bound on the number of delta-balls covering the r-ball at x.

    Per-point reference for ``greedy_cover_counts``, which the certificates use.
    """
    return len(greedy_cover(space, x, r, delta))


def greedy_cover_counts(space: MetricSpace, masks: np.ndarray, delta: float) -> np.ndarray:
    """Greedy delta-cover center counts for P point sets at once.

    ``masks`` is a (P, n) boolean array, row p marking the members of set p.
    Points are scanned in index order, as in ``greedy_cover``: a member not yet
    covered opens a delta-ball. Each point holds a bitset over the P sets, bit
    s set while the point is an uncovered member of set s. When point p is
    scanned its bitset is final and marks the sets that open a ball at p;
    those bits are then cleared at its later delta-neighbours. The center
    count of set s is the number of points whose final bitset has bit s.
    """
    if delta <= 0:
        raise InputError("covering radius delta must be positive")
    masks = np.asarray(masks, dtype=bool)
    n = len(space)
    if masks.ndim != 2 or masks.shape[1] != n:
        raise InputError(f"cover masks must have shape (P, {n}), got {masks.shape}")
    slack = _RADIUS_SLACK * max(1.0, delta)
    # later delta-neighbours of point p: later[bounds[p]:bounds[p + 1]]
    at, later = np.nonzero(np.triu(space.dist <= delta + slack, k=1))
    bounds = np.searchsorted(at, np.arange(n + 1)).tolist()
    opens = np.packbits(masks.T, axis=1, bitorder="little")
    for p in range(n):
        if bounds[p] < bounds[p + 1]:
            opens[later[bounds[p]:bounds[p + 1]]] &= ~opens[p]
    return np.unpackbits(opens, axis=1, count=masks.shape[0],
                         bitorder="little").sum(axis=0, dtype=np.int64)


def ball_cover_counts(space: MetricSpace, radii: np.ndarray, delta: float) -> np.ndarray:
    """Greedy delta-cover counts of the closed balls B(x_i, radii[i, j]).

    ``radii`` has one row per point of the space. Closed balls at one center
    are nested, so a ball is fixed by its center and the number of points it
    holds; each distinct ball is covered once. Rows go to
    ``greedy_cover_counts`` in chunks whose ball masks hold at most
    ``_CHUNK_CELLS`` cells.
    """
    radii = np.asarray(radii, dtype=float)
    n = len(space)
    if radii.ndim != 2 or radii.shape[0] != n:
        raise InputError(f"ball radii must have {n} rows, got shape {radii.shape}")
    if np.any(radii < 0):
        raise InputError("ball radius must be nonnegative")
    per_row = radii.shape[1]
    limits = radii + _RADIUS_SLACK * np.maximum(1.0, radii)
    counts = np.empty(radii.shape, dtype=np.int64)
    step = max(1, _CHUNK_CELLS // (n * max(1, per_row)))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        balls = (space.dist[lo:hi, None, :] <= limits[lo:hi, :, None]).reshape(-1, n)
        keys = np.repeat(np.arange(hi - lo), per_row) * (n + 1) + balls.sum(axis=1)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        counts[lo:hi] = greedy_cover_counts(space, balls[first], delta)[inverse].reshape(
            hi - lo, per_row)
    return counts


def exact_covering_number(space: MetricSpace, x: int, r: float, delta: float,
                          max_ball: int = 16) -> int:
    """Minimum number of delta-balls (centered at space points) covering the r-ball.

    Brute force over center subsets; refuses balls larger than ``max_ball``.
    """
    if delta <= 0:
        raise InputError("covering radius delta must be positive")
    members = np.flatnonzero(closed_ball(space, x, r))
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


@dataclass(frozen=True, eq=False)
class Exhaustion:
    """A strictly increasing chain of compact stages, each a point mask."""

    stages: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.stages:
            raise InputError("an exhaustion needs at least one stage")
        n = np.asarray(self.stages[0]).size
        stages = tuple(as_mask(stage, n, "exhaustion stage") for stage in self.stages)
        if not all(stage.any() for stage in stages):
            raise InputError("exhaustion stages must be nonempty")
        for pos, (prev, stage) in enumerate(zip(stages, stages[1:])):
            if np.array_equal(stage, prev):
                raise DegenerateExhaustionError(f"stages {pos} and {pos + 1} are identical")
            if (prev & ~stage).any():
                raise InputError("stages must be strictly nested")
        object.__setattr__(self, "stages", stages)


def build_exhaustion(space: MetricSpace, center: int, radii) -> Exhaustion:
    """Closed balls at the point index ``center`` with strictly increasing radii."""
    try:
        radii = tuple(float(r) for r in radii)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"exhaustion radii must be a list of numbers, "
                         f"got {radii!r:.60}") from None
    if not radii:
        raise InputError("need at least one radius")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise InputError("radii must be strictly increasing")
    return Exhaustion(stages=tuple(closed_ball(space, center, r) for r in radii))


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
    try:
        ids = tuple(str(p["id"]) for p in points)
    except (KeyError, TypeError):
        raise InputError("every space point needs an 'id'") from None
    n = len(ids)
    coords = None
    if all("coords" in p for p in points):
        try:
            coords = np.asarray([p["coords"] for p in points], dtype=float)
        except (TypeError, ValueError):
            raise InputError("space point coords must be lists of numbers, "
                             "one length for all points") from None
        if coords.ndim != 2:
            raise InputError("space point coords must be lists of numbers")
    if metric == "euclidean":
        if coords is None:
            raise InputError("euclidean metric requires coords on every point")
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    elif metric == "explicit":
        tri = payload.get("distances")
        expected = n * (n - 1) // 2
        if not isinstance(tri, (list, tuple)) or len(tri) != expected:
            raise InputError(
                f"explicit metric needs {expected} upper-triangular distances")
        dist = np.zeros((n, n))
        pos = 0
        for i in range(n):
            for j in range(i + 1, n):
                dist[i, j] = dist[j, i] = as_number(tri[pos], f"space distances[{pos}]")
                pos += 1
    else:
        raise InputError(f"unknown metric kind {metric!r}")
    return MetricSpace(ids=ids, dist=dist, coords=coords,
                       name=str(payload.get("name", "space")))
