"""Per-ball covering references that the batched cover kernels are checked against."""

import itertools

import numpy as np

from cvp import InputError, closed_ball
from cvp.space import _RADIUS_SLACK


def greedy_cover(space, x: int, r: float, delta: float) -> tuple[int, ...]:
    """Center indices chosen by the greedy scan that covers the closed r-ball at x.

    Scans ball members in point order; the first uncovered member opens a
    delta-ball. The result is an upper bound witness for the covering number.
    """
    if not delta > 0:
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


def covering_number(space, x: int, r: float, delta: float) -> int:
    """Greedy upper bound on the number of delta-balls covering the r-ball at x."""
    return len(greedy_cover(space, x, r, delta))


def exact_covering_number(space, x: int, r: float, delta: float, max_ball: int = 16) -> int:
    """Minimum number of delta-balls (centered at space points) covering the r-ball.

    Brute force over center subsets; refuses balls larger than ``max_ball``.
    """
    if not delta > 0:
        raise InputError("covering radius delta must be positive")
    members = np.flatnonzero(closed_ball(space, x, r))
    if len(members) > max_ball:
        raise InputError(
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
