"""The benchmark's workloads: inputs made from the seed, and expected outcomes.

Each workload is a fixed round of operations: for each job, one ``cvp
solve``, then its share of the runs of ``cvp verify`` on the first job's
report (``Plan.verify_seeds_after``) and ``cert_repeats`` passes of kernel
certificates. Verifies and
certificates follow every solve so that their samples spread over the run.
The runner repeats the round; every repeat does the same operations on the
same inputs, so report digests must match across rounds and a run's counts
of attempted and failed operations depend on nothing but its round count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import cvp.el_analysis
import cvp.lagrangian

# Expected limit weight on the unit tent kernel over an integer grid.
FLAT_WEIGHT_TOL = 1e-9

# Kernel-block residual a successful stage must meet (the solver's default tol).
KKT_TOL = 1e-8

# The one ``cvp verify`` refusal known today: the minimality sampler builds a
# variation whose entries sum to a few 1e-12, beyond the balance tolerance of
# ``make_variation``, for some verify seeds (at the commit that added this
# benchmark: 4 of verify seeds 0-299 on tent-401, 6 of 0-99 on exp-161 and
# 3 of 0-99 on quarter-gauss). Verify seeds are fixed per workload, so the
# refusals of a run depend on neither its seed nor its length, and each
# workload's include one that the defect strikes (``Verify.refusing``): the
# refusal shows in every round. It counts as a failed operation without
# making the run incorrect; a refusal on any other seed, or any other
# refusal, is a wrong output.
VERIFY_REFUSAL = "is not balanced to zero"

WHY = {
    "tent-401": (
        "Every stage block is positive definite (min eigenvalue 1.0) and too "
        "large for the oracle, and verify is light, so the round is bound by "
        "away-step Frank-Wolfe. An O(k) Frank-Wolfe step or a convexity "
        "certificate shows here."),
    "exp-161": (
        "Blocks are convex (min eigenvalue 0.46), but time goes to the O(n^3) "
        "covering-number loop of the entropy-decay certificate and to "
        "per-trial minimality over 10,000 trials. Array-native measures, "
        "batched minimality and cover screening show here; Frank-Wolfe is a "
        "minority of the time."),
    "quarter-gauss": (
        "Blocks of the truncated Gaussian on the 0.25 grid are not positive "
        "semidefinite (min eigenvalue about -0.0006), so all 19 starts and the "
        "2^k oracle stay necessary. An oracle speedup shows here and a "
        "convexity shortcut must show no change. Some block sizes fail "
        "today with SolverFailure; those failures count."),
}


@dataclass
class Job:
    """One ``cvp solve`` config of a workload."""

    name: str
    config: dict
    stage_sizes: tuple[int, ...]
    check: Callable[[dict], str | None]
    # Fails today with SolverFailure: a failed solve counts, but is not wrong.
    known_failure: bool = False


@dataclass
class Verify:
    """The ``cvp verify`` invocation; it reads the report of the plan's first job.

    A round runs one verify per seed of ``seeds``, in order, and every round
    and every benchmark seed uses the same ones. The seed ``refusing`` is one
    that ``VERIFY_REFUSAL`` strikes; the others are seeds it does not strike,
    with sampled variation totals at most a seventh of the balance tolerance.
    """

    checks: str
    trials: int
    seeds: tuple[int, ...]
    refusing: int

    def argv(self, run_json: str, out: str, seed: int) -> list[str]:
        return ["verify", "--run", run_json, "--checks", self.checks,
                "--trials", str(self.trials), "--seed", str(seed), "--out", out]


@dataclass
class Cert:
    """A library certificate on a job's loaded config, with its expected verdict."""

    name: str
    job: str
    call: Callable[[object], dict]
    check: Callable[[dict], str | None]


@dataclass
class Plan:
    jobs: list[Job]
    verify: Verify
    certs: list[Cert]
    # Seconds of one round on the host this benchmark was tuned on (2 vCPUs,
    # x86_64); a run holds round(--seconds / round_s) rounds, at least two.
    round_s: float
    # Configs loaded at set-up for certificates only, never solved.
    cert_only: tuple[Job, ...] = ()
    # Certificate passes after each solve; repeats give a run enough samples
    # of an operation that is cheap or that a round runs once.
    cert_repeats: int = 1

    def verify_seeds_after(self, j: int) -> tuple[int, ...]:
        """Seeds of the verifies that follow the j-th solve, spread evenly over the solves."""
        n, k = len(self.verify.seeds), len(self.jobs)
        return self.verify.seeds[-(-j * n // k):-(-(j + 1) * n // k)]


def _points(coords, prefix: str) -> list[dict]:
    return [{"id": f"{prefix}{i}", "coords": [float(c)]} for i, c in enumerate(coords)]


def _seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 31)


def _stages_match(report: dict, sizes: tuple[int, ...]) -> str | None:
    got = tuple(len(s["ids"]) for s in report["stages"])
    return None if got == sizes else f"stage sizes {got}, expected {sizes}"


def _kkt_ok(report: dict) -> str | None:
    worst = max(s["kkt"]["on_support_max"] for s in report["stages"])
    return None if worst <= KKT_TOL else f"on-support residual {worst:.3e} > {KKT_TOL}"


def _expect(ok: bool, what: str) -> str | None:
    return None if ok else what


def _range_floor_fails(res: dict) -> str | None:
    ok = (not res["holds"] and res["condition_a"]["holds"]
          and res["condition_b"]["holds"] and not res["condition_c"]["holds"]
          and res["condition_c"]["witness"] is not None)
    return _expect(ok, "conditions should fail on the range floor only")


def _conditions(delta_cover: float):
    return lambda rc: cvp.el_analysis.check_sufficient_conditions(
        rc.kernel, rc.space, delta_cover)


TENT_ROUND_S = 8.5


def tent_401(seed: int) -> Plan:
    rng = random.Random(seed)
    sizes = (101, 201, 401)

    def check(report):
        weights = list(report["limit"]["weights"].values())
        flat = bool(weights) and all(abs(w - 1.0) <= FLAT_WEIGHT_TOL for w in weights)
        return (_stages_match(report, sizes) or _kkt_ok(report)
                or _expect(flat, "limit weights are not all 1 to 1e-9"))

    job = Job("tent", {
        "space": {"points": _points(range(-200, 201), "g"), "metric": "euclidean"},
        "kernel": {"kind": "tent", "amplitude": 1.0, "range": 1.0},
        "exhaustion": {"center": "g200", "radii": [50, 100, 200]},
        "seed": _seed(rng),
    }, sizes, check)
    certs = [
        Cert("compact_range", "tent",
             lambda rc: cvp.lagrangian.verify_compact_range(rc.kernel, rc.space,
                                                             rc.exhaustion),
             lambda res: _expect(res["holds"], "compact range should hold")),
        Cert("conditions", "tent", _conditions(1.0),
             lambda res: _expect(res["holds"] and res["condition_c"]["N"] == 1,
                                 "conditions should hold with N = 1")),
    ]
    return Plan([job],
                Verify("el,minimality,nontriviality,mass_bound", 1000, (0, 1, 140), 140),
                certs, round_s=TENT_ROUND_S, cert_repeats=20)


EXP_ROUND_S = 15.0


def exp_161(seed: int) -> Plan:
    rng = random.Random(seed)
    sizes = (81, 121, 161)

    def check(report):
        diag = report["diagnostics"]
        return (_stages_match(report, sizes) or _kkt_ok(report)
                or _expect(diag["window_layer"] == 4.0 and diag["stabilized"]
                           and bool(report["limit"]["weights"]),
                           "window layer 4 with a stabilized nonempty limit expected"))

    job = Job("exp", {
        "space": {"points": _points(range(0, 161), "x"), "metric": "euclidean"},
        "kernel": {"kind": "exponential", "amplitude": 1.0, "sigma": 1.0},
        "profile": {"f": "exp", "params": {"amplitude": 1.0, "rate": 1.0}, "delta": 1.0},
        "exhaustion": {"center": "x80", "radii": [40, 60, 80]},
        "window": {"eps": 0.3},
        "seed": _seed(rng),
    }, sizes, check)

    def entropy_decay(rc):
        c = cvp.lagrangian.diagonal_infimum(rc.kernel)
        majorant = cvp.lagrangian.scaled_exp_profile(2.0 * (1.0 + 2.0 / c), 2.0, 1.0,
                                                     delta=1.0, c=c)
        return cvp.lagrangian.verify_entropy_decay(rc.kernel, rc.space, majorant)

    certs = [
        Cert("entropy_decay", "exp", entropy_decay,
             lambda res: _expect(res["holds"], "entropy decay should hold")),
        Cert("conditions", "exp", _conditions(1.0), _range_floor_fails),
    ]
    return Plan([job],
                Verify("el,minimality,nontriviality,gamma,mass_bound", 10_000,
                       (0, 1, 33), 33),
                certs, round_s=EXP_ROUND_S)


# Final block sizes of quarter-gauss, solved every round: the verified block
# first, the others in a seeded order. 15 runs the 2^k oracle on both stages.
# When this benchmark was written, 33 and 121 failed with SolverFailure for
# every solver seed tried (QUARTER_FAILING) and 25 and 49 succeeded. Sizes
# whose outcome flipped with the solver seed (73, 81, 101, 105, 113) are left
# out: each flip moves a whole block's points in or out of solve_pts_per_s,
# which made the metric bimodal across seeds.
QUARTER_BLOCKS = (15, 25, 33, 49, 121)
QUARTER_FAILING = (33, 121)
QUARTER_VERIFY_BLOCK = 49
# Its solver seed is fixed: different seeds reach different local minima of
# this non-convex block, and verify time follows the minimum reached.
QUARTER_VERIFY_SOLVER_SEED = 49
# The certificate runs on a wider stretch of the same grid: on the blocks
# themselves a pass takes a few milliseconds, too short to time steadily.
QUARTER_CERT_POINTS = 401
QUARTER_ROUND_S = 21.0


def _quarter_job(n: int, solver_seed: int) -> Job:
    center = (n - 1) // 2
    inner = (center // 2) * 0.25
    outer = max(center, n - 1 - center) * 0.25
    sizes = (2 * (center // 2) + 1, n)

    def check(report):
        return _stages_match(report, sizes) or _kkt_ok(report)

    return Job(f"q{n}", {
        "space": {"points": _points([i * 0.25 for i in range(n)], "q"),
                  "metric": "euclidean"},
        "kernel": {"kind": "truncated_gaussian", "amplitude": 1.0, "sigma": 0.8,
                   "range": 2.0},
        "exhaustion": {"center": f"q{center}", "radii": [inner, outer]},
        "seed": solver_seed,
    }, sizes, check, known_failure=n in QUARTER_FAILING)


def quarter_gauss(seed: int) -> Plan:
    rng = random.Random(seed)
    jobs = [_quarter_job(n, QUARTER_VERIFY_SOLVER_SEED if n == QUARTER_VERIFY_BLOCK
                         else _seed(rng)) for n in QUARTER_BLOCKS]
    rng.shuffle(jobs)
    jobs.sort(key=lambda job: job.name != f"q{QUARTER_VERIFY_BLOCK}")
    grid = _quarter_job(QUARTER_CERT_POINTS, 0)
    certs = [Cert("conditions", grid.name, _conditions(1.0), _range_floor_fails)]
    return Plan(jobs,
                Verify("el,minimality,nontriviality,mass_bound", 10_000,
                       (0, 1, 97), 97),
                certs, round_s=QUARTER_ROUND_S, cert_only=(grid,), cert_repeats=5)


WORKLOADS = {"tent-401": tent_401, "exp-161": exp_161, "quarter-gauss": quarter_gauss}
