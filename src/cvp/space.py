"""Finite metric point clouds, metric balls, greedy cover counts, exhaustions."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import InputError, as_number, typed

# Absorbs one ulp of distance roundoff in closed-ball comparisons.
_RADIUS_SLACK = 1e-12

# Cells of the temporaries that the cover scan (sets x points while masks are
# packed, points x sets while counts are read), the Euclidean distances (rows x
# points x dim) and the midpoint scan (midpoints x points) build at a time, so
# they stay O(chunk * n), never O(n^3).
_CHUNK_CELLS = 1 << 18

# Below this a float doubles without overflow.
_HALF_MAX = float(np.finfo(float).max) / 2


@dataclass(frozen=True)
class MetricSpace:
    """A finite metric space given by point ids and a distance matrix.

    Immutable after construction; the distance matrix is marked read-only.
    Given ``coords`` and no ``dist``, the distances are derived once as the
    Euclidean distances of the coordinates (``_euclidean``); they are
    nonnegative and exactly symmetric by construction, so they are not
    compared with their transpose, and only a distance that is not finite or
    lies above half the float maximum is refused, with the message of
    ``symmetric_matrix``. Given ``dist``, with or without ``coords``, the
    matrix is validated by ``symmetric_matrix`` and otherwise taken as it
    is. Construction checks the triangle inequality exactly
    (``_check_triangle``): derived distances are certified by the rounding
    bound of the formula alone, an explicit ``dist`` that matches the
    Euclidean distances of its own ``coords`` is certified from them in
    O(n^2 dim), and every other matrix is scanned through every midpoint in
    O(n^3). ``coords``, when given, must be finite. ``key`` is a content fingerprint used to detect mismatched
    spaces when measures and kernels built on different spaces are mixed.
    """

    ids: tuple[str, ...]
    dist: np.ndarray | None = None
    coords: np.ndarray | None = None
    name: str = "space"
    index: dict[str, int] = field(init=False, repr=False, compare=False)
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = tuple(str(i) for i in self.ids)
        if len(ids) == 0:
            raise InputError("a metric space needs at least one point")
        if len(set(ids)) != len(ids):
            raise InputError("point ids must be unique")
        n = len(ids)
        derived = self.dist is None
        c = None
        if derived:
            if self.coords is None:
                raise InputError("a metric space needs a distance matrix or coords")
            c = _coord_rows(self.coords, n)
        if derived:
            d = _euclidean(c)
            if not d.max() <= _HALF_MAX:  # also false on NaN
                # refuses d, as it would refuse any matrix with such an entry
                symmetric_matrix(d, n, "distance matrix")
            d.setflags(write=False)
        else:
            d = symmetric_matrix(self.dist, n, "distance matrix")
        if np.any(np.diag(d) > 0):
            raise InputError("self-distances must be zero")
        if self.coords is not None:
            if c is None:
                c = _coord_rows(self.coords, n)
            if not np.all(np.isfinite(c)):
                raise InputError("coords must be finite")
            c.setflags(write=False)
        _check_triangle(d, c, derived)
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


def _coord_rows(coords, n: int) -> np.ndarray:
    """``coords`` as a float copy with one row per point (a vector is one
    column); InputError unless it has n rows."""
    c = np.array(coords, dtype=float)
    if c.ndim == 1:
        c = c[:, None]
    if c.ndim != 2 or c.shape[0] != n:
        raise InputError(f"coords must be {n} rows of numbers, got shape {c.shape}")
    return c


def _euclidean(coords: np.ndarray) -> np.ndarray:
    """The Euclidean distances of the rows of ``coords``, ``sqrt(sum_k (x_ik -
    x_jk)^2)``: exactly symmetric, as x_i - x_j rounds to -(x_j - x_i).

    Rows go in chunks whose differences hold at most ``_CHUNK_CELLS`` cells;
    each distance is summed as it would be without them.
    """
    n, dim = coords.shape
    out = np.empty((n, n))
    step = max(1, _CHUNK_CELLS // (n * max(1, dim)))
    for lo in range(0, n, step):
        diff = coords[lo:lo + step, None, :] - coords[None, :, :]
        # a square that overflows gives an infinite distance, which the caller refuses
        with np.errstate(over="ignore", invalid="ignore"):
            np.einsum("ijk,ijk->ij", diff, diff, out=out[lo:lo + step])
    return np.sqrt(out, out=out)


def _check_triangle(d: np.ndarray, coords: np.ndarray | None, derived: bool) -> None:
    """InputError unless d_ij <= d_ik + d_kj + slack for all i, j, k,
    with ``slack = 1e-9 * max(1, max d)``.

    The Euclidean certificate: let e = ||x_i - x_j|| be computed from
    ``coords`` by ``_euclidean``. Each difference of two doubles, each
    square, each addition and the square root rounds once relative to its
    value, so e_ij = N_ij (1 + t), |t| <= g = (dim + 2) eps, where N is the
    exact norm of the stored coordinates (squares that underflow move e by
    less than 1e-153 sqrt(dim), far below the slack). N satisfies the
    triangle inequality exactly. So if |d - e| <= slack/4 everywhere,
    d_ij <= N_ij (1 + g) + slack/4 <= (N_ik + N_kj)(1 + g) + slack/4
         <= d_ik + d_kj + 3 slack/4 + (d_ik + d_kj + slack/2) 2g / (1 - g),
    and the last term is below slack/4 when 4 g (2 max d + slack) <= slack/4,
    which holds up to about 10^5 dimensions. The bound is strictly inside
    what the midpoint scan accepts. When ``derived``, d is e itself (the
    space computed it from ``coords``), so only the dimension condition is
    checked; an explicit matrix with coordinates is compared with e. Any
    other matrix (no coordinates, coordinates that disagree with ``dist``, or
    too many dimensions) goes to the exact scan ``_midpoint_violation``.
    """
    dmax = float(d.max(initial=0.0))
    slack = 1e-9 * max(1.0, dmax)
    if coords is not None:
        g = (coords.shape[1] + 2) * np.finfo(float).eps
        # where e overflows, |d - e| is infinite and d goes to the scan
        if 4 * g * (2 * dmax + slack) <= slack / 4 and (
                derived or np.abs(d - _euclidean(coords)).max() <= slack / 4):
            return
    if _midpoint_violation(d, slack):
        raise InputError("triangle inequality violated")


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


def symmetric_matrix(value, n: int | None, what: str) -> np.ndarray:
    """``value`` as a read-only float matrix, n x n (square when ``n`` is None),
    finite, nonnegative and symmetric to 1e-12, averaged with its transpose so
    that it is exactly symmetric; else InputError naming ``what``, and naming
    the entry when its average overflows (entries above half the float
    maximum). The diagonal rule is the caller's. A matrix that is exactly
    symmetric already (a kernel cvp builds from distances) is copied in one
    pass, not averaged.

    It validates explicit distance matrices, kernel matrices when their
    ``Lagrangian`` is built, and each ``CompactProblem`` a caller builds.
    Distances derived from coords, and the stage blocks the pipeline cuts
    from a validated kernel, do not pass through it again."""
    m = np.asarray(value, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or n not in (None, m.shape[0]):
        size = "square" if n is None else f"{n}x{n}"
        raise InputError(f"{what} must be {size}, got shape {m.shape}")
    # a matrix with entries in [0, max/2] (the min and max fail on NaN) that
    # equals its transpose bit for bit (so -0.0 does not meet 0.0) is its own
    # average with it: x + x doubles x exactly and halving undoes it
    bits = m.view(np.int64)
    if m.size and m.min() >= 0 and m.max() <= _HALF_MAX and np.array_equal(bits, bits.T):
        out = m.copy()
        out.setflags(write=False)
        return out
    if not np.all(np.isfinite(m)):
        raise InputError(f"{what} must be finite")
    if np.any(m < 0):
        raise InputError(f"{what} must be nonnegative")
    # one buffer holds the gap and then the result: a freed full-size
    # temporary raises the allocator's mmap threshold and with it peak RSS
    out = m - m.T
    if not np.all(np.abs(out, out=out) <= 1e-12):
        raise InputError(f"{what} must be symmetric")
    with np.errstate(over="ignore"):
        np.add(m, m.T, out=out)
    out /= 2.0
    if not np.all(np.isfinite(out)):
        i, j = np.argwhere(~np.isfinite(out))[0].tolist()
        raise InputError(f"{what} must be finite: the average of entry ({i}, {j}) "
                         f"with its transpose overflows")
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


def same_space(*keys: str) -> None:
    """InputError unless the ``MetricSpace.key`` of every kernel, space and
    measure given (a kernel's ``space_key``) is the same."""
    if len(set(keys)) > 1:
        raise InputError("kernel, measure and space must be built on the same space")


def closed_ball(space: MetricSpace, x, r: float) -> np.ndarray:
    """Mask of the points within distance r of point x (closed, contains x).

    ``x`` is a point index, or an index array for one mask row per point.
    """
    if not r >= 0:
        raise InputError(f"ball radius must be nonnegative, got {r!r}")
    return space.dist[as_index(x, len(space))] <= r + _RADIUS_SLACK * max(1.0, r)


def _greedy_counts(space: MetricSpace, sets: int, columns, delta: float) -> np.ndarray:
    """Greedy delta-cover center counts of ``sets`` point sets, in one scan.

    ``columns(lo, hi)`` gives the (n, hi - lo) boolean masks of sets lo to
    hi - 1, point-major: row p marks the sets among them that hold point p.
    They are packed, row by row, into a bitset with one row per point, bit
    s of row p (little bit order) set while p is an uncovered member of set
    s. Points are scanned in index order: when point p is scanned its row is
    final and marks the sets that open a delta-ball at p, and those bits
    are cleared at its later delta-neighbours. The delta-neighbour pairs
    (p, q) with p < q are read from ``flatnonzero`` of the distance mask,
    whose row-major order sorts them by p, and each pair clears row q in
    place. That is one small AND per pair, so the scan's cost grows with the
    number of pairs, up to n(n - 1)/2 once delta reaches the diameter.
    The center count of set s is the number of final rows with bit s.
    Masks are packed, pairs found, and counts read, in chunks of at most
    ``_CHUNK_CELLS`` cells.
    """
    if not delta > 0:
        raise InputError(f"covering radius delta must be positive, got {delta!r}")
    n = len(space)
    opens = np.empty((n, (sets + 7) // 8), dtype=np.uint8)
    step = max(1, _CHUNK_CELLS // (8 * n))
    for lo in range(0, opens.shape[1], step):
        opens[:, lo:lo + step] = np.packbits(
            columns(8 * lo, min(8 * (lo + step), sets)), axis=1, bitorder="little")
    reach = delta + _RADIUS_SLACK * max(1.0, delta)
    rows = list(opens)  # one view per point, so a row is cleared in place
    keep = np.empty(opens.shape[1], dtype=np.uint8)
    last = -1
    chunk = max(1, _CHUNK_CELLS // n)
    for lo in range(0, n, chunk):
        # the delta-neighbour pairs (p, q) of points lo.. with q later than p, sorted by p
        at, later = np.divmod(np.flatnonzero(space.dist[lo:lo + chunk] <= reach) + lo * n, n)
        ahead = at < later
        for p, q in zip(at[ahead].tolist(), later[ahead].tolist()):
            if p != last:
                # every earlier point has been scanned, so row p is final
                np.invert(rows[p], out=keep)
                last = p
            rows[q] &= keep
    counts = np.empty(opens.shape[1] * 8, dtype=np.int64)
    for lo in range(0, opens.shape[1], step):
        # a count is at most n, so it is summed exactly in the smallest type holding n
        counts[8 * lo:8 * (lo + step)] = np.unpackbits(
            opens[:, lo:lo + step], axis=1, bitorder="little").sum(
                axis=0, dtype=np.min_scalar_type(n))
    return counts[:sets]


def greedy_cover_counts(space: MetricSpace, masks: np.ndarray, delta: float) -> np.ndarray:
    """Greedy delta-cover center counts for P point sets at once.

    ``masks`` is a (P, n) boolean array, row p marking the members of set p.
    Points are scanned in index order: a member not yet covered opens a
    delta-ball. All P sets are covered by the one scan that
    ``ball_cover_counts`` also runs.
    """
    masks = np.asarray(masks, dtype=bool)
    n = len(space)
    if masks.ndim != 2 or masks.shape[1] != n:
        raise InputError(f"cover masks must have shape (P, {n}), got {masks.shape}")
    # a chunk's masks have one row per set: a transposed copy has one per point
    return _greedy_counts(space, len(masks), lambda lo, hi: masks[lo:hi].T.copy(), delta)


def _ball_keys(space: MetricSpace, radii: np.ndarray):
    """``rank[y, x]``, the place of point y in a stable sort of row x of the
    distances, and the key x * (n + 1) + m of each closed ball B(x_i, radii[i, j]),
    x its center and m its member count."""
    n = len(space)
    order = np.argsort(space.dist, axis=1, kind="stable")
    rank = np.empty((n, n), dtype=np.min_scalar_type(n))
    rank[order, np.arange(n)[:, None]] = np.arange(n)
    limits = np.maximum(radii, 1.0)
    limits *= _RADIUS_SLACK
    limits += radii
    keys = np.array([row.searchsorted(limit, side="right") for row, limit in
                     zip(np.take_along_axis(space.dist, order, axis=1), limits)],
                    dtype=np.min_scalar_type(n * (n + 1)))
    keys += (np.arange(n, dtype=keys.dtype) * (n + 1))[:, None]
    return rank, keys


def ball_cover_counts(space: MetricSpace, radii: np.ndarray, delta: float) -> np.ndarray:
    """Greedy delta-cover counts of the closed balls B(x_i, radii[i, j]).

    ``radii`` has one row per point of the space. Closed balls at one center
    are nested, so a ball is fixed by its center x and its member count m:
    point y is in it when ``rank[y, x] < m`` (tied distances fall inside or
    outside together). The distinct balls are covered by one scan, ordered
    by center, so the masks of a chunk of them are built point-major, as
    the scan packs them: column x of ``rank``, which ``_ball_keys`` builds
    with one row per point, repeated once per ball at center x in the
    chunk, compared with the balls' member counts. A chunk holds at most
    ``_CHUNK_CELLS`` cells, and may split a center's balls.
    """
    radii = np.asarray(radii, dtype=float)
    n = len(space)
    if radii.ndim != 2 or radii.shape[0] != n:
        raise InputError(f"ball radii must have {n} rows, got shape {radii.shape}")
    if not (radii >= 0).all():
        raise InputError("ball radius must be nonnegative")
    rank, keys = _ball_keys(space, radii)
    distinct = np.zeros(n * (n + 1), dtype=bool)
    distinct[keys] = True
    centers, sizes = np.divmod(np.flatnonzero(distinct).astype(keys.dtype), n + 1)
    sizes = sizes.astype(rank.dtype)
    # the balls at center x are lo..hi - 1 with lo, hi = starts[x], starts[x + 1]
    starts = np.searchsorted(centers, np.arange(n + 1))

    def columns(lo, hi):
        first, last = int(centers[lo]), int(centers[hi - 1]) + 1
        repeats = np.diff(np.clip(starts[first:last + 1], lo, hi))
        return np.repeat(rank[:, first:last], repeats, axis=1) < sizes[lo:hi]

    counts = np.zeros(n * (n + 1), dtype=np.int64)
    counts[distinct] = _greedy_counts(space, len(centers), columns, delta)
    return counts[keys]


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
                raise InputError(f"stages {pos} and {pos + 1} are identical")
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


def _number_rows(rows: list) -> np.ndarray | None:
    """``rows`` as one float array when each is a list of one length whose
    entries are ints or floats (not bools), all finite as floats; else None,
    and the caller reads them point by point, naming the point it refuses."""
    if not all(type(row) is list for row in rows) or len(set(map(len, rows))) != 1:
        return None
    if not set(map(type, chain.from_iterable(rows))) <= {int, float}:
        return None
    try:
        array = np.array(rows, dtype=float)
    except OverflowError:  # an int beyond the float range
        return None
    return array if np.isfinite(array).all() else None


def space_from_dict(payload: dict) -> MetricSpace:
    """Build a space from its JSON form.

    ``{"points": [{"id": ..., "coords": [...]}, ...], "metric": "euclidean"}``
    or ``"metric": "explicit"`` with ``"distances"`` as the row-major strict
    upper triangle. A Euclidean space derives its distances from the coords
    (``MetricSpace`` certifies them by their rounding bound); an explicit
    one takes the given distances, and its coords, when every point has
    them, only serve to certify the triangle inequality. An id that is not a
    JSON string, or a coordinate or distance that is not a JSON number,
    raises ``InputError`` naming it.
    """
    try:
        points = payload["points"]
        metric = payload["metric"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"space payload missing field: {exc}") from None
    if not points:
        raise InputError("space payload has no points")
    try:
        ids = tuple(typed(p["id"], str, "space point id") for p in points)
    except (KeyError, TypeError):
        raise InputError("every space point needs an 'id'") from None
    n = len(ids)
    coords = None
    if all("coords" in p for p in points):
        coords = _number_rows([p["coords"] for p in points])
        if coords is None:
            rows = [[as_number(c, f"space point {pid!r} coords")
                     for c in typed(p["coords"], list, f"space point {pid!r} coords")]
                    for pid, p in zip(ids, points)]
            if len({len(row) for row in rows}) != 1:
                raise InputError("space point coords must have one length for all points")
            coords = np.array(rows)
    if metric == "euclidean":
        if coords is None:
            raise InputError("euclidean metric requires coords on every point")
        dist = None  # derived from the coords
    elif metric == "explicit":
        tri = payload.get("distances")
        expected = n * (n - 1) // 2
        if not isinstance(tri, (list, tuple)) or len(tri) != expected:
            raise InputError(
                f"explicit metric needs {expected} upper-triangular distances")
        upper = [as_number(v, f"space distances[{pos}]") for pos, v in enumerate(tri)]
        dist = np.zeros((n, n))
        # the row-major strict upper triangle, mirrored
        above = np.triu_indices(n, 1)
        dist[above] = dist.T[above] = upper
    else:
        raise InputError(f"unknown metric kind {metric!r}")
    return MetricSpace(ids=ids, dist=dist, coords=coords,
                       name=str(payload.get("name", "space")))
