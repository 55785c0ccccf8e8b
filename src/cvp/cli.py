"""Command-line front end: solve, verify, oracle, sweep.

Reports are canonical JSON (sorted keys, 17-significant-digit floats, no
timestamps) written atomically, so identical configs and seeds reproduce
byte-identical output. ``verify`` draws nothing at random. It runs the checks
named in one table, ``CHECKS``: conclusions of the paper on the run's limit,
and its two hypotheses, compact range and decay in entropy, on the config's
kernel. Its exit codes: 0 all checks passed, 2 stationarity failed, 3 a descent
variation was found, 4 another check failed (a hypothesis among them); usage
errors exit 64, IO/config errors exit 1.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .el_analysis import (EXIT_CONDITION, EXIT_EL_FAILED, EXIT_MINIMALITY, EXIT_OK,
                          check_sufficient_conditions, gamma_lower_bound,
                          local_mass_bound_check, nontriviality_check, prove_minimality,
                          verify_el)
from .errors import (NUMBER, CVPError, InputError, UsageError, as_number, known_keys,
                     number_rows, typed)
from .lagrangian import (DecayProfile, Lagrangian, diagonal_infimum, kernel_from_spec,
                         profile_from_spec, verify_compact_range, verify_entropy_decay)
from .measure import DiscreteMeasure, measure_to_dict
from .pipeline import ExhaustionRun, RunOptions, run_exhaustion, run_from_weights
from .reports import Encoded, canonical_json, sha256_text, write_csv, write_json
from .simplex_solver import CompactProblem, SolverOptions, brute_force_minimizer
from .space import Exhaustion, MetricSpace, build_exhaustion, space_from_dict


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to the usage exit code
        raise UsageError(message)


@dataclass(frozen=True)
class VerifySettings:
    """The ``verify`` section of a config: the checks to run, the stationarity
    tolerance of ``el`` and ``gamma``, and the cover radius of ``conditions``,
    which is refused while it is unset. The radii of ``gamma`` and
    ``mass_bound`` are the run's own: ``window.eps`` (else 0.5) and the
    window layer."""

    checks: tuple[str, ...] = ("el", "minimality", "nontriviality")
    tol: float = 1e-6
    delta_cover: float | None = None


@dataclass
class RunConfig:
    raw: dict
    space: MetricSpace
    kernel: Lagrangian
    exhaustion: Exhaustion
    options: RunOptions
    verify: VerifySettings


# The JSON kind of every key of the solver, window and verify sections; a
# number is read as a float. Null leaves a key of _UNSET_BY_DEFAULT unset.
_SECTIONS = {
    "solver": {"tol": NUMBER},
    "window": {"layer": NUMBER, "eps": NUMBER},
    "verify": {"checks": list, "tol": NUMBER, "delta_cover": NUMBER},
}
_UNSET_BY_DEFAULT = ("window.layer", "window.eps", "verify.delta_cover")


def _section(raw: dict, name: str) -> dict:
    """The settings the config section ``name`` gives; an unknown key or a
    value of the wrong JSON kind is refused."""
    kinds = _SECTIONS[name]
    settings = {}
    for key, value in known_keys(typed(raw.get(name, {}), dict, name), kinds,
                                 f"{name}.", name).items():
        what = f"{name}.{key}"
        if value is None and what in _UNSET_BY_DEFAULT:
            continue
        settings[key] = (as_number(value, what) if kinds[key] is NUMBER
                         else typed(value, kinds[key], what))
    return settings


def load_config(path: str, seed_override: int | None = None) -> RunConfig:
    """The run config of a config file, built by ``config_from_dict``; a
    ``space`` given as a file path is read relative to it and inlined, and
    ``seed_override`` replaces the ``seed`` (so it enters ``config_hash``)."""
    with open(path, encoding="utf-8") as handle:
        raw = typed(json.load(handle), dict, f"{path}: config")
    if isinstance(raw.get("space"), str):
        space_path = os.path.join(os.path.dirname(os.path.abspath(path)), raw["space"])
        with open(space_path, encoding="utf-8") as handle:
            raw = {**raw, "space": json.load(handle)}
    if seed_override is not None:
        raw = {**raw, "seed": seed_override}
    return config_from_dict(raw)


# The settings of a run config; any other top-level key is refused.
_CONFIG_KEYS = ("space", "kernel", "profile", "exhaustion", "solver", "window", "seed",
                "verify")


def config_from_dict(raw: dict) -> RunConfig:
    """The run config of a config object with an inline ``space``: what
    ``cvp solve`` runs and what ``cvp verify`` rebuilds from a report. Every
    setting is read here, once: an unknown key of the config or of any of its
    sections, or a value of the wrong JSON kind, raises ``InputError`` naming it."""
    known_keys(raw, _CONFIG_KEYS, "", "config")
    space = space_from_dict(typed(raw.get("space"), dict, "space"))
    kernel = kernel_from_spec(typed(raw.get("kernel", {}), dict, "kernel"), space)
    profile = None
    if raw.get("profile") is not None:
        profile = profile_from_spec(raw["profile"], c=diagonal_infimum(kernel))
    exh_spec = known_keys(typed(raw.get("exhaustion", {}), dict, "exhaustion"),
                          ("center", "radii"), "exhaustion.", "exhaustion")
    center = space.index.get(typed(exh_spec.get("center"), str, "exhaustion.center"))
    if center is None:
        raise InputError(f"exhaustion.center {exh_spec['center']!r} is not a point id")
    radii = [as_number(r, "exhaustion radii")
             for r in typed(exh_spec.get("radii", []), list, "exhaustion radii")]
    exhaustion = build_exhaustion(space, center, radii)
    seed = typed(raw.get("seed", 0), int, "seed")
    if seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed}")
    window = _section(raw, "window")
    options = RunOptions(solver=SolverOptions(seed=seed, **_section(raw, "solver")),
                         window_layer=window.get("layer"),
                         profile=profile,
                         eps=window.get("eps"))
    verify = _section(raw, "verify")
    if "checks" in verify:
        verify["checks"] = _check_names(verify["checks"], "verify.checks", InputError)
    return RunConfig(raw={**raw, "seed": seed}, space=space, kernel=kernel,
                     exhaustion=exhaustion, options=options,
                     verify=VerifySettings(**verify))


def report_from_run(run: ExhaustionRun, config: RunConfig) -> dict:
    """The ``run.json`` form of a run of ``config``; ``run_from_report`` reads it back.

    Point sets and weights are written by point id, in index order. Of a
    stage, ``run_from_report`` reads only ``weights`` (unscaled) and
    ``certified_global``: ``index``, ``ids``, ``lambda``, ``s_unscaled``,
    ``degenerate`` and ``kkt``, and the run's ``window``, ``limit`` and
    ``diagnostics``, are derived from the config and those, and written for
    readers only.
    """
    stages = [{
        "index": s.stage_index,
        "ids": [s.space.ids[i] for i in np.flatnonzero(s.stage)],
        "lambda": s.scale,
        "s_unscaled": s.s_unscaled,
        "degenerate": s.degenerate,
        "certified_global": s.certified_global,
        "kkt": asdict(s.kkt),
        "weights": {pid: w for pid, w in zip(s.space.ids, s.weights.tolist()) if w > 0},
    } for s in run.stages]
    config_text = canonical_json(config.raw)  # encoded once, for the hash and run.json
    return {
        "tool": {"name": "cvp", "version": __version__},
        "config": Encoded(config.raw, config_text),
        "config_hash": sha256_text(config_text),
        "stages": stages,
        "window": [config.space.ids[i] for i in np.flatnonzero(run.window)],
        "limit": measure_to_dict(run.limit),
        "diagnostics": run.diagnostics,
    }


def _stage_weights(payload, stage: np.ndarray, space: MetricSpace,
                   where: str) -> np.ndarray:
    """The unscaled weights of a report stage, in space order."""
    weights = np.zeros(len(space))
    for pid, w in typed(payload, dict, f"{where}.weights").items():
        i = space.index.get(pid)
        # the field is named only for an entry refused or not a plain finite float
        if i is None or not stage[i] or type(w) is not float or not math.isfinite(w):
            field = f"{where}.weights[{pid!r}]"
            if i is None:
                raise InputError(f"{field} is on an unknown point id")
            if not stage[i]:
                raise InputError(f"{field} is outside the stage ids")
            w = as_number(w, field)
        weights[i] = w
    return weights


def run_from_report(report: dict, config: RunConfig) -> ExhaustionRun:
    """Rebuild the run of ``config`` from its report with ``run_from_weights``.

    Of each stage only ``weights`` and ``certified_global`` are read; the
    stages themselves are those of the config's exhaustion. A report with
    another number of stages, a field it reads missing or of the wrong JSON
    type, or weight on a point outside its stage raises ``InputError``.
    """
    sets = config.exhaustion.stages
    entries = typed(report.get("stages"), list, "report stages")
    if len(entries) != len(sets):
        raise InputError(f"report stages has {len(entries)} entries, but the config's "
                         f"exhaustion has {len(sets)} stages")
    weights, certified = [], []
    for pos, (s, stage) in enumerate(zip(entries, sets)):
        where = f"report stages[{pos}]"
        s = typed(s, dict, where)
        weights.append(_stage_weights(s.get("weights"), stage, config.space, where))
        certified.append(typed(s.get("certified_global"), bool, f"{where}.certified_global"))
    return run_from_weights(config.space, config.kernel, config.exhaustion, config.options,
                            weights, certified)


def cmd_solve(args) -> int:
    config = load_config(args.config, seed_override=args.seed)
    run = run_exhaustion(config.space, config.kernel, config.exhaustion,
                         config.options)
    report = report_from_run(run, config)
    out = args.out
    os.makedirs(out, exist_ok=True)
    write_json(os.path.join(out, "run.json"), report)
    for s in run.stages:
        write_csv(os.path.join(out, f"stage_{s.stage_index}.csv"),
                  ["point", "ell", "weight"], config.space.ids,
                  s.ell.tolist(), s.measure.weights.tolist())
    stabilized = run.diagnostics["stabilized"]
    print(f"solved {len(run.stages)} stages; window {int(run.window.sum())} points; "
          f"stabilized={str(stabilized).lower()}")
    print(f"report written to {os.path.join(out, 'run.json')}")
    return EXIT_OK


@dataclass
class _Verification:
    """What the checks of one ``cvp verify`` read."""

    config: RunConfig
    run: ExhaustionRun
    settings: VerifySettings
    rho: DiscreteMeasure  # the last stage's measure
    window: np.ndarray  # the point mask the checks assert on


def _conditions(v: _Verification) -> dict:
    if v.settings.delta_cover is None:
        raise UsageError("check 'conditions' needs --delta-cover or verify.delta_cover")
    return check_sufficient_conditions(v.config.kernel, v.config.space,
                                       v.settings.delta_cover)


def _profile(v: _Verification, check: str) -> DecayProfile:
    if v.config.options.profile is None:
        raise UsageError(f"check '{check}' needs a profile in the config")
    return v.config.options.profile


def _gamma(v: _Verification) -> dict:
    eps = 0.5 if v.config.options.eps is None else v.config.options.eps
    return gamma_lower_bound(v.rho, v.config.kernel, _profile(v, "gamma"), eps, v.window,
                             el_tol=v.settings.tol)


def _mass_bound(v: _Verification) -> dict:
    return local_mass_bound_check(v.rho, v.config.kernel, np.flatnonzero(v.window),
                                  v.run.diagnostics["window_layer"])


# Every check ``cvp verify`` runs, by name, with its verify.json entry. The last
# two certify the paper's hypotheses, entropy_decay for the config's own profile.
CHECKS = {
    "el": lambda v: verify_el(v.rho, v.config.kernel, v.window, tol=v.settings.tol),
    "minimality": lambda v: prove_minimality(v.rho, v.config.kernel, v.window),
    "conditions": _conditions,
    "nontriviality": lambda v: nontriviality_check(v.rho, v.config.kernel, v.run.window),
    "gamma": _gamma,
    "mass_bound": _mass_bound,
    "compact_range": lambda v: verify_compact_range(v.config.kernel, v.config.space,
                                                    v.config.exhaustion),
    "entropy_decay": lambda v: verify_entropy_decay(v.config.kernel, v.config.space,
                                                    _profile(v, "entropy_decay")),
}


def _check_names(names: list, what: str, error: type[Exception]) -> tuple[str, ...]:
    """``names`` if each is a key of ``CHECKS`` named once; else ``error`` naming
    the entry as ``<what>[i]``."""
    for i, name in enumerate(names):
        if not isinstance(name, str) or name not in CHECKS:
            raise error(f"{what}[{i}] {name!r} is not a check (known: {', '.join(CHECKS)})")
        if name in names[:i]:
            raise error(f"{what}[{i}] names check {name!r} a second time")
    return tuple(names)


def _negative_zero_int(literal: str):
    """A JSON integer literal as json reads it, except ``-0``, read as -0.0."""
    return -0.0 if literal == "-0" else int(literal)


def cmd_verify(args) -> int:
    with open(args.run, encoding="utf-8") as handle:
        text = handle.read()
    report = typed(json.loads(text), dict, f"{args.run}: report")
    embedded = typed(report.get("config"), dict, "report config")
    stored_hash = typed(report.get("config_hash"), str, "report config_hash")
    config_hash = sha256_text(canonical_json(embedded))
    if config_hash != stored_hash:
        # a -0.0 is written as -0, which json reads back as the int 0: read the
        # report again with -0 as -0.0, which only a float can have been
        report = json.loads(text, parse_int=_negative_zero_int)
        embedded = report["config"]
        if sha256_text(canonical_json(embedded)) != stored_hash:
            raise InputError(f"{args.run}: config_hash {stored_hash} does not "
                             f"match the embedded config (sha256 {config_hash})")
    config = config_from_dict(embedded)
    run = run_from_report(report, config)
    checks = None if args.checks is None else _check_names(
        [c.strip() for c in args.checks.split(",") if c.strip()], "--checks", UsageError)
    flags = {"checks": checks, "tol": args.tol, "delta_cover": args.delta_cover}
    settings = replace(config.verify, **{k: v for k, v in flags.items() if v is not None})
    if not settings.checks:
        raise UsageError("no check requested: a verify that runs none certifies nothing")
    rho = run.stages[-1].measure
    verification = _Verification(config, run, settings, rho,
                                 run.window if run.window.any() else rho.support)

    results = {name: CHECKS[name](verification) for name in settings.checks}
    for result in results.values():
        if "holds" in result:  # a certificate passes when what it certifies holds
            result["passed"] = result["holds"]

    failed = [name for name, res in results.items() if not res.get("passed", False)]
    code = (EXIT_EL_FAILED if "el" in failed else EXIT_MINIMALITY if "minimality" in failed
            else EXIT_CONDITION if failed else EXIT_OK)
    summary = {"checks": results, "failed": failed, "exit_code": code,
               "config_hash": report["config_hash"],
               "tool": {"name": "cvp", "version": __version__}}
    out_path = args.out or os.path.join(os.path.dirname(os.path.abspath(args.run)),
                                        "verify.json")
    write_json(out_path, summary)
    for name in settings.checks:
        print(f"{name}: {'FAILED' if name in failed else 'passed'}")
    print(f"verdict written to {out_path}; exit code {code}")
    return code


def cmd_oracle(args) -> int:
    with open(args.matrix, encoding="utf-8") as handle:
        payload = json.load(handle)
    if isinstance(payload, dict):
        payload = payload.get("matrix")
    rows = number_rows(payload, "oracle matrix")
    if any(len(row) != len(rows) for row in rows):
        raise InputError(f"oracle matrix must be square, got row lengths "
                         f"{[len(row) for row in rows]} for {len(rows)} rows")
    problem = CompactProblem(ids=tuple(f"p{i}" for i in range(len(rows))),
                             matrix=np.array(rows).reshape(len(rows), len(rows)))
    solution = brute_force_minimizer(problem)
    out = {
        "value": solution.value,
        "weights": {pid: float(w) for pid, w in zip(problem.ids, solution.weights)
                    if w > 0},
        "kkt": asdict(solution.kkt),
        "certified_global": solution.certified_global,
    }
    text = canonical_json(out)
    if args.out:
        write_json(args.out, out)
    print(text)
    return EXIT_OK


def _set_path(payload: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = payload
    for depth, k in enumerate(keys[:-1], 1):
        node = typed(node.setdefault(k, {}), dict, f"sweep path {'.'.join(keys[:depth])}")
    node[keys[-1]] = value


def cmd_sweep(args) -> int:
    with open(args.config, encoding="utf-8") as handle:
        spec = typed(json.load(handle), dict, f"{args.config}: sweep config")
    base = spec.get("base")
    if not isinstance(base, dict):
        raise UsageError("sweep config needs a 'base' run config object")
    grid = typed(spec.get("grid", {}), dict, "sweep grid")
    keys = sorted(grid)
    combos = list(itertools.product(*(typed(grid[k], list, f"sweep grid[{k!r}]")
                                      for k in keys)))
    base_dir = os.path.dirname(os.path.abspath(args.config))
    os.makedirs(args.out, exist_ok=True)
    entries = []
    for i, combo in enumerate(combos):
        cfg = json.loads(json.dumps(base))
        for k, v in zip(keys, combo):
            _set_path(cfg, k, v)
        cfg["seed"] = typed(cfg.get("seed", 0), int, "seed") + i
        run_dir = os.path.join(args.out, f"run_{i:03d}")
        cfg_path = os.path.join(run_dir, "config.json")
        os.makedirs(run_dir, exist_ok=True)
        # space file paths in the base config resolve relative to the sweep file
        if isinstance(cfg.get("space"), str):
            cfg["space"] = os.path.join(base_dir, cfg["space"])
        write_json(cfg_path, cfg)
        cmd_solve(argparse.Namespace(config=cfg_path, out=run_dir, seed=None))
        with open(os.path.join(run_dir, "run.json"), encoding="utf-8") as handle:
            rep = json.load(handle)
        entries.append({"index": i, "overrides": {k: v for k, v in zip(keys, combo)},
                        "dir": f"run_{i:03d}", "seed": cfg["seed"],
                        "config_hash": rep["config_hash"],
                        "stabilized": rep["diagnostics"]["stabilized"]})
    write_json(os.path.join(args.out, "sweep.json"), {"runs": entries})
    print(f"swept {len(entries)} configurations into {args.out}")
    return EXIT_OK


def _seed_flag(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``cvp`` parser, built once per process: ``parse_args`` makes a fresh
    namespace on every call, so in-process callers of ``main`` share it."""
    parser = _Parser(prog="cvp", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cvp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run an exhaustion and write reports")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", required=True)
    p_solve.add_argument("--seed", type=_seed_flag, default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="run certification checks on a report")
    p_verify.add_argument("--run", required=True)
    p_verify.add_argument("--checks", default=None,
                          help=f"comma list from: {', '.join(CHECKS)}")
    # accepted and ignored, since verify samples nothing: the benchmark's verify
    # invocations pass both, and a removed flag would exit 64
    p_verify.add_argument("--trials", type=int, default=None, help=argparse.SUPPRESS)
    p_verify.add_argument("--seed", type=_seed_flag, default=0, help=argparse.SUPPRESS)
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--delta-cover", dest="delta_cover", type=float, default=None)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_oracle = sub.add_parser("oracle", help="enumerate the global minimizer of a block")
    p_oracle.add_argument("--matrix", required=True)
    p_oracle.add_argument("--out", default=None)
    p_oracle.set_defaults(func=cmd_oracle)

    p_sweep = sub.add_parser("sweep", help="cartesian product of configs, solved in sequence")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CVPError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
