"""Per-ball covering references that the batched cover kernels are checked
against, and the all-pairs entropy-decay certificate that the screened one is
checked against.

Run as a script, ``python tests/cover_reference.py verify.json config.json``,
it exits 0 when the ``entropy_decay`` entry of a ``cvp verify`` report equals
the all-pairs certificate of the config's kernel and profile, and 1 otherwise.
"""

import itertools
import json
import sys

import numpy as np

from cvp import InputError, closed_ball
from cvp.lagrangian import _MAX_WITNESSES, _radius_bounds, diagonal_infimum
from cvp.space import _RADIUS_SLACK, greedy_cover_counts


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


def ball_covers(space, radii, delta: float) -> np.ndarray:
    """Greedy delta-cover counts of the closed balls B(x_i, radii[i, j]), from
    their explicit ``closed_ball`` masks, one ``greedy_cover_counts`` scan a
    center."""
    return np.array([greedy_cover_counts(
        space, np.array([closed_ball(space, x, float(r)) for r in row]), delta)
        for x, row in enumerate(radii)])


def entropy_decay_reference(L, space, profile, covers=ball_covers) -> dict:
    """``verify_entropy_decay`` without its screen: the cover count
    ``covers(space, radii, delta)`` of the ball B(x, d + 2) of every ordered
    pair, and f over the strict upper triangle of the distances, mirrored."""
    c = diagonal_infimum(L)
    cond_a = c > 0.0
    delta_closed, delta_sup = _radius_bounds(L, space)
    cond_b = delta_sup >= profile.delta - 1e-12
    n = len(space)
    off = ~np.eye(n, dtype=bool)
    dist = space.dist
    counts = covers(space, dist + 2.0, profile.delta)
    upper = np.triu_indices(n, 1)
    distances, which = np.unique(dist[upper], return_inverse=True)
    f_values = np.array([profile.f(float(d)) for d in distances], dtype=float)
    bound = np.zeros((n, n))
    bound[upper] = f_values[which]
    bound.T[upper] = bound[upper]
    bound[off] /= profile.coeff * counts[off]
    violated = off & (L.matrix > bound + 1e-12 * np.maximum(1.0, bound))
    rows, cols = np.nonzero(violated)
    witnesses = [{"x": space.ids[i], "y": space.ids[j], "value": float(L.matrix[i, j]),
                  "bound": float(bound[i, j]), "distance": float(dist[i, j])}
                 for i, j in zip(rows[:_MAX_WITNESSES], cols[:_MAX_WITNESSES])]
    cond_c = not witnesses
    return {
        "holds": bool(cond_a and cond_b and cond_c),
        "condition_a": {"holds": bool(cond_a), "c": c},
        "condition_b": {"holds": bool(cond_b), "delta_closed": delta_closed,
                        "delta_sup": delta_sup, "delta_required": profile.delta},
        "condition_c": {"holds": bool(cond_c), "checked_pairs": n * (n - 1)},
        "witnesses": witnesses,
    }


def main(argv) -> int:
    from cvp.cli import load_config

    verify_path, config_path = argv
    with open(verify_path, encoding="utf-8") as fh:
        entry = json.load(fh)["checks"]["entropy_decay"]
    config = load_config(config_path)
    reference = entropy_decay_reference(config.kernel, config.space, config.options.profile)
    # through json, as the report holds it, with the check's verdict that verify adds
    reference = {**json.loads(json.dumps(reference)), "passed": reference["holds"]}
    return 0 if reference == entry else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
