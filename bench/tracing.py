"""Per-module spans and counts, recorded from outside the ``cvp`` package.

``Tracer.install`` replaces public functions at the name each caller looks
up (``cvp.pipeline.minimize_on_compact`` is what ``run_exhaustion`` calls,
``cvp.cli.sample_minimality`` is what ``cvp verify`` calls) with wrappers
that record a span and update counts; ``uninstall`` puts the originals back.
Spans stay in memory until the benchmark writes them out at its end.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict

from cvp.errors import SolverFailure


def _solve_counts(counts, args, kwargs, result, exc):
    k = len(args[0].ids)
    counts["solve.calls"] += 1
    counts["solve.points"] += k
    if isinstance(exc, SolverFailure):
        counts["solve.failures"] += 1
    if result is not None:
        counts["solve.certified"] += int(result.certified_global)
        counts["solve.support"] += int((result.weights > 0).sum())


def _oracle_counts(counts, args, kwargs, result, exc):
    counts["oracle.calls"] += 1
    counts["oracle.subsets"] += 2 ** len(args[0].ids) - 1


def _run_counts(counts, args, kwargs, result, exc):
    if result is not None:
        counts["pipeline.stages"] += len(result.stages)


def _minimality_counts(counts, args, kwargs, result, exc):
    if result is not None:
        counts["minimality.trials"] += result["trials"]
        counts["minimality.evaluated"] += result["evaluated"]


def _entropy_counts(counts, args, kwargs, result, exc):
    if result is not None:
        counts["entropy.pairs"] += result["condition_c"]["checked_pairs"]


def _bytes_written(counts, args, kwargs, result, exc):
    if exc is None:
        counts["reports.bytes"] += os.path.getsize(args[0])


def _calls(key):
    def count(counts, args, kwargs, result, exc):
        counts[key] += 1
    return count


# (module, attribute the caller looks up, span name, count hook)
HOOKS = (
    ("cvp.cli", "load_config", "cli.load_config", None),
    ("cvp.cli", "space_from_dict", "space.build", None),
    ("cvp.cli", "kernel_from_spec", "lagrangian.kernel", None),
    ("cvp.cli", "run_exhaustion", "pipeline.run", _run_counts),
    ("cvp.pipeline", "minimize_on_compact", "simplex_solver.solve", _solve_counts),
    ("cvp.simplex_solver", "brute_force_minimizer", "simplex_solver.oracle",
     _oracle_counts),
    ("cvp.pipeline", "rescale", "pipeline.rescale", None),
    ("cvp.pipeline", "window_points", "pipeline.window", None),
    ("cvp.cli", "report_from_run", "cli.report", None),
    ("cvp.cli", "write_json", "reports.write", _bytes_written),
    ("cvp.cli", "write_csv", "reports.write", _bytes_written),
    ("cvp.cli", "local_mass_bound_check", "pipeline.mass_bound", None),
    ("cvp.cli", "verify_el", "el_analysis.el", None),
    ("cvp.cli", "sample_minimality", "el_analysis.minimality", _minimality_counts),
    ("cvp.el_analysis", "action_difference", "measure.action_difference",
     _calls("measure.action_difference")),
    ("cvp.el_analysis", "make_variation", "measure.make_variation", None),
    ("cvp.cli", "nontriviality_check", "el_analysis.nontriviality", None),
    ("cvp.cli", "gamma_lower_bound", "el_analysis.gamma", None),
    ("cvp.el_analysis", "check_sufficient_conditions", "el_analysis.conditions", None),
    ("cvp.lagrangian", "verify_entropy_decay", "lagrangian.entropy_decay",
     _entropy_counts),
    ("cvp.lagrangian", "verify_compact_range", "lagrangian.compact_range", None),
    ("cvp.lagrangian", "covering_number", "space.cover", _calls("space.cover")),
)


def _share(num, den):
    return num / den if den else 0.0


# name: (unit, how it is derived from self times s[...] and counts c[...],
#        end-to-end metric it should move, workload where it shows)
PER_LAYER = {
    "simplex_solver.calls": ("count", lambda s, c: c["solve.calls"],
                             "solve_pts_per_s", "tent-401, quarter-gauss"),
    "simplex_solver.points": ("count", lambda s, c: c["solve.points"],
                              "solve_pts_per_s", "tent-401, quarter-gauss"),
    "simplex_solver.solve_s": ("s", lambda s, c: s["simplex_solver.solve"],
                               "solve_pts_per_s", "tent-401 (main), quarter-gauss"),
    "simplex_solver.failures": ("count", lambda s, c: c["solve.failures"],
                                "fail_share", "quarter-gauss"),
    "simplex_solver.certified_share": (
        "ratio", lambda s, c: _share(c["solve.certified"], c["solve.calls"]),
        "solve_pts_per_s", "quarter-gauss"),
    "simplex_solver.support_share": (
        "ratio", lambda s, c: _share(c["solve.support"], c["solve.points"]),
        "solve_pts_per_s", "tent-401, quarter-gauss"),
    "simplex_solver.oracle_calls": ("count", lambda s, c: c["oracle.calls"],
                                    "solve_pts_per_s", "quarter-gauss only"),
    "simplex_solver.oracle_subsets": ("count", lambda s, c: c["oracle.subsets"],
                                      "solve_pts_per_s", "quarter-gauss only"),
    "simplex_solver.oracle_s": ("s", lambda s, c: s["simplex_solver.oracle"],
                                "solve_pts_per_s", "quarter-gauss only"),
    "pipeline.stages": ("count", lambda s, c: c["pipeline.stages"],
                        "solve_pts_per_s", "tent-401"),
    "pipeline.run_s": ("s", lambda s, c: s["pipeline.run"],
                       "solve_pts_per_s", "tent-401"),
    "pipeline.rescale_s": ("s", lambda s, c: s["pipeline.rescale"],
                           "solve_pts_per_s", "tent-401"),
    "pipeline.window_s": ("s", lambda s, c: s["pipeline.window"],
                          "solve_pts_per_s", "tent-401"),
    "pipeline.mass_bound_s": ("s", lambda s, c: s["pipeline.mass_bound"],
                              "verify_s", "tent-401"),
    "measure.action_difference_calls": (
        "count", lambda s, c: c["measure.action_difference"],
        "verify_s", "exp-161 (10k trials) vs tent-401 (1k trials)"),
    "measure.action_difference_s": (
        "s", lambda s, c: s["measure.action_difference"],
        "verify_s", "exp-161 (10k trials) vs tent-401 (1k trials)"),
    "measure.make_variation_s": ("s", lambda s, c: s["measure.make_variation"],
                                 "verify_s", "exp-161 vs tent-401"),
    "el_analysis.minimality_s": ("s", lambda s, c: s["el_analysis.minimality"],
                                 "verify_s", "exp-161"),
    "el_analysis.trials": ("count", lambda s, c: c["minimality.trials"],
                           "verify_s", "exp-161"),
    "el_analysis.evaluated_share": (
        "ratio", lambda s, c: _share(c["minimality.evaluated"], c["minimality.trials"]),
        "verify_s", "exp-161"),
    "el_analysis.el_s": ("s", lambda s, c: s["el_analysis.el"], "verify_s", "exp-161"),
    "el_analysis.nontriviality_s": ("s", lambda s, c: s["el_analysis.nontriviality"],
                                    "verify_s", "exp-161"),
    "el_analysis.gamma_s": ("s", lambda s, c: s["el_analysis.gamma"],
                            "verify_s", "exp-161"),
    "el_analysis.conditions_s": ("s", lambda s, c: s["el_analysis.conditions"],
                                 "cert_s", "exp-161"),
    "lagrangian.kernel_s": ("s", lambda s, c: s["lagrangian.kernel"],
                            "setup_s, solve_pts_per_s", "exp-161"),
    "lagrangian.entropy_decay_s": ("s", lambda s, c: s["lagrangian.entropy_decay"],
                                   "cert_s", "exp-161"),
    "lagrangian.pairs_checked": ("count", lambda s, c: c["entropy.pairs"],
                                 "cert_s", "exp-161"),
    "lagrangian.compact_range_s": ("s", lambda s, c: s["lagrangian.compact_range"],
                                   "cert_s", "tent-401"),
    "space.build_s": ("s", lambda s, c: s["space.build"], "setup_s, verify_s",
                      "tent-401 (401-point triangle check, run twice)"),
    "space.cover_calls": ("count", lambda s, c: c["space.cover"], "cert_s", "exp-161"),
    "space.cover_s": ("s", lambda s, c: s["space.cover"], "cert_s", "exp-161"),
    "cli.load_config_s": ("s", lambda s, c: s["cli.load_config"],
                          "solve_pts_per_s", "tent-401"),
    "cli.report_s": ("s", lambda s, c: s["cli.report"], "solve_pts_per_s", "tent-401"),
    "reports.write_s": ("s", lambda s, c: s["reports.write"],
                        "solve_pts_per_s", "tent-401 (3 x 401 CSV rows)"),
    "reports.bytes": ("count", lambda s, c: c["reports.bytes"],
                      "solve_pts_per_s", "tent-401"),
}

# Counts that must repeat exactly between traced runs of one workload and seed.
EXACT = tuple(name for name, spec in PER_LAYER.items() if spec[0] == "count")


class Tracer:
    """Spans ``[name, start, end, parent, op]`` and counts, kept in memory.

    ``op`` is the id of the benchmark operation (root span) a span belongs
    to; times are seconds since the tracer was made.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._t0 = time.perf_counter()

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        op = self.spans[parent][4] if parent is not None else sid
        self.spans.append([name, time.perf_counter() - self._t0, None, parent, op])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self._stack.pop()
        self.spans[sid][2] = time.perf_counter() - self._t0

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of the given name."""
        sid = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid)

    def _wrap(self, original, name: str, count):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                self._close(sid)
                if count:
                    count(self.counts, args, kwargs, None, exc)
                raise
            self._close(sid)
            if count:
                count(self.counts, args, kwargs, result, None)
            return result
        return traced

    def install(self) -> None:
        for module_name, attr, name, count in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name, count))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Per span name, total duration minus the time its child spans cover."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            out[name] += end - start
            if parent is not None:
                out[self.spans[parent][0]] -= end - start
        return out

    def per_layer(self) -> dict[str, dict]:
        s = defaultdict(float, self.self_times())
        return {name: {"value": spec[1](s, self.counts), "unit": spec[0]}
                for name, spec in PER_LAYER.items()}
