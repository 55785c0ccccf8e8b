"""Command-line front end: solve, verify, oracle, sweep.

Reports are canonical JSON (sorted keys, 17-significant-digit floats, no
timestamps) written atomically, so identical configs and seeds reproduce
byte-identical output. ``verify`` exit codes: 0 all checks passed, 2
stationarity failed, 3 a descent variation was found, 4 another condition
check failed; usage errors exit 64, IO/config errors exit 1.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .el_analysis import (EXIT_CONDITION, EXIT_EL_FAILED, EXIT_MINIMALITY, EXIT_OK,
                          VariationSampler, check_sufficient_conditions,
                          gamma_lower_bound, nontriviality_check, verify_el)
from .el_analysis import test_minimality as sample_minimality
from .errors import CVPError, InputError, UsageError, as_number
from .lagrangian import (Lagrangian, diagonal_infimum, kernel_from_spec,
                         profile_from_spec)
from .measure import measure_to_dict, restrict
from .pipeline import (ExhaustionRun, RunOptions, ScaledMinimizer,
                       local_mass_bound_check, run_exhaustion, stage_ell)
from .reports import canonical_json, sha256_text, write_csv, write_json
from .simplex_solver import (CompactProblem, KKTResiduals, SolverOptions,
                             brute_force_minimizer)
from .space import Exhaustion, MetricSpace, build_exhaustion, space_from_dict

VALID_CHECKS = ("el", "minimality", "conditions", "nontriviality", "gamma",
                "mass_bound")
_DEFAULT_CHECKS = ("el", "minimality", "nontriviality")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to the usage exit code
        raise UsageError(message)


@dataclass
class RunConfig:
    raw: dict
    space: MetricSpace
    kernel: Lagrangian
    exhaustion: Exhaustion
    options: RunOptions


def _solver_options(payload: dict, seed: int) -> SolverOptions:
    """Settings from the config's ``solver`` section; an unknown key is refused."""
    kinds = {"tol": _NUMBER}
    opts = SolverOptions(seed=seed)
    for key, value in payload.items():
        if key not in kinds:
            raise InputError(f"solver.{key} is not a solver setting "
                             f"(known: {', '.join(kinds)})")
        setattr(opts, key, _typed(value, kinds[key], f"solver.{key}"))
    return opts


def load_config(path: str, seed_override: int | None = None,
                stride_override: int | None = None,
                tol_override: float | None = None) -> RunConfig:
    with open(path) as handle:
        raw = _typed(json.load(handle), dict, f"{path}: config")
    base = os.path.dirname(os.path.abspath(path))
    space_spec = raw.get("space")
    if isinstance(space_spec, str):
        with open(os.path.join(base, space_spec)) as handle:
            space_spec = json.load(handle)
    if not isinstance(space_spec, dict):
        raise UsageError("config needs a 'space' (inline object or file path)")
    space = space_from_dict(space_spec)
    raw = dict(raw)
    raw["space"] = space_spec
    kernel = kernel_from_spec(_typed(raw.get("kernel", {}), dict, "kernel"), space)
    profile = None
    if raw.get("profile"):
        profile = profile_from_spec(raw["profile"], c=diagonal_infimum(kernel))
    exh_spec = _typed(raw.get("exhaustion", {}), dict, "exhaustion")
    center = _point(space, str(exh_spec.get("center")), "exhaustion.center")
    exhaustion = build_exhaustion(space, center, exh_spec.get("radii", ()))
    seed = _typed(raw.get("seed", 0) if seed_override is None else seed_override,
                  int, "seed")
    if seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed}")
    raw["seed"] = seed
    if stride_override is not None:
        raw["stride"] = int(stride_override)
    solver = _solver_options(_typed(raw.get("solver", {}), dict, "solver"), seed)
    if tol_override is not None:
        solver.tol = float(tol_override)
    window = _typed(raw.get("window", {}), dict, "window")
    layer, eps = (None if window.get(key) is None else as_number(window[key], f"window.{key}")
                  for key in ("layer", "eps"))
    options = RunOptions(solver=solver,
                         stab_tol=as_number(raw.get("stab_tol", 1e-6), "stab_tol"),
                         window_layer=layer,
                         profile=profile,
                         eps=eps,
                         stride=_typed(raw.get("stride", 1), int, "stride"))
    return RunConfig(raw=raw, space=space, kernel=kernel, exhaustion=exhaustion,
                     options=options)


def _config_payload(config: RunConfig) -> dict:
    keep = ("space", "kernel", "profile", "exhaustion", "solver", "window",
            "stab_tol", "stride", "seed", "verify")
    return {k: config.raw[k] for k in keep if k in config.raw}


def report_from_run(run: ExhaustionRun, config: RunConfig) -> dict:
    """The ``run.json`` form of a run; ``run_from_report`` reads it back.

    Point sets and weights are written by point id, in index order. A stage
    is read back from its ids, unscaled weights, KKT residuals and flags.
    ``lambda``, ``s_unscaled`` and ``value`` (all from ``kkt.s_param``)
    and ``limit`` are derived, and written for readers only.
    """
    payload = _config_payload(config)
    stages = [{
        "index": s.stage_index,
        "ids": [s.space.ids[i] for i in np.flatnonzero(s.stage)],
        "lambda": s.scale,
        "s_unscaled": s.s_unscaled,
        "value": s.s_unscaled,
        "degenerate": s.degenerate,
        "certified_global": s.certified_global,
        "kkt": {"on_support_max": s.kkt.on_support_max,
                "min_over_k": s.kkt.min_over_k,
                "s_param": s.kkt.s_param},
        "weights": {pid: w for pid, w in zip(s.space.ids, s.weights.tolist()) if w > 0},
    } for s in run.stages]
    return {
        "tool": {"name": "cvp", "version": __version__},
        "config": payload,
        "config_hash": sha256_text(canonical_json(payload)),
        "stages": stages,
        "window": [config.space.ids[i] for i in np.flatnonzero(run.window)],
        "limit": measure_to_dict(run.limit),
        "diagnostics": run.diagnostics,
    }


_NUMBER = (int, float)
_JSON_KINDS = {dict: "an object", list: "a list", str: "a string", bool: "a boolean",
               int: "an integer", _NUMBER: "a number"}


def _typed(value, kind, what: str):
    """``value`` if it is a ``kind`` (a boolean is not a number); else InputError."""
    if isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    raise InputError(f"{what} must be {_JSON_KINDS[kind]}, got {value!r:.60}")


def _point(space: MetricSpace, pid, where: str) -> int:
    """The index of the point id ``pid``; InputError naming ``where`` if unknown."""
    index = space.index.get(_typed(pid, str, where))
    if index is None:
        raise InputError(f"{where} {pid!r} is not a point id of the space")
    return index


def _mask(space: MetricSpace, pids, where: str) -> np.ndarray:
    mask = np.zeros(len(space), dtype=bool)
    for pos, pid in enumerate(_typed(pids, list, where)):
        mask[_point(space, pid, f"{where}[{pos}]")] = True
    return mask


def _stage_weights(payload, stage: np.ndarray, space: MetricSpace,
                   where: str) -> np.ndarray:
    """The unscaled weights of a report stage, in space order."""
    weights = np.zeros(len(space))
    for pid, w in _typed(payload, dict, f"{where}.weights").items():
        field = f"{where}.weights[{pid!r}]"
        if pid not in space.index:
            raise InputError(f"{field} is on an unknown point id")
        if not stage[space.index[pid]]:
            raise InputError(f"{field} is outside the stage ids")
        weights[space.index[pid]] = float(_typed(w, _NUMBER, field))
    return weights


def run_from_report(report: dict, space: MetricSpace) -> ExhaustionRun:
    """Rebuild a run from its report: stages from their unscaled weights and
    KKT residuals, the limit from the last stage restricted to the window.

    A field of the wrong JSON type, a missing one, or an unknown point id
    raises ``InputError``.
    """
    stages = []
    for pos, s in enumerate(_typed(report.get("stages"), list, "report stages")):
        where = f"report stages[{pos}]"
        s = _typed(s, dict, where)
        kkt = _typed(s.get("kkt"), dict, f"{where}.kkt")
        stage = _mask(space, s.get("ids"), f"{where}.ids")
        stages.append(ScaledMinimizer(
            stage_index=_typed(s.get("index"), int, f"{where}.index"),
            stage=stage,
            weights=_stage_weights(s.get("weights"), stage, space, where),
            kkt=KKTResiduals(**{key: float(_typed(kkt.get(key), _NUMBER,
                                                  f"{where}.kkt.{key}"))
                                for key in ("on_support_max", "min_over_k", "s_param")}),
            certified_global=_typed(s.get("certified_global"), bool,
                                    f"{where}.certified_global"),
            space=space,
            degenerate=_typed(s.get("degenerate"), bool, f"{where}.degenerate")))
    if not stages:
        raise InputError("report has no stages")
    window = _mask(space, report.get("window"), "report window")
    return ExhaustionRun(stages=tuple(stages), limit=restrict(stages[-1].measure, window),
                         window=window,
                         diagnostics=_typed(report.get("diagnostics"), dict,
                                            "report diagnostics"))


def cmd_solve(args) -> int:
    config = load_config(args.config, seed_override=args.seed,
                         stride_override=args.stride, tol_override=args.tol)
    run = run_exhaustion(config.space, config.kernel, config.exhaustion,
                         config.options)
    report = report_from_run(run, config)
    out = args.out
    os.makedirs(out, exist_ok=True)
    write_json(os.path.join(out, "run.json"), report)
    for s in run.stages:
        ell = stage_ell(s.measure, config.kernel)
        rows = zip(config.space.ids, ell.tolist(), s.measure.weights.tolist())
        write_csv(os.path.join(out, f"stage_{s.stage_index}.csv"),
                  ["point", "ell", "weight"], rows)
    stabilized = run.diagnostics["stabilized"]
    print(f"solved {len(run.stages)} stages; window {int(run.window.sum())} points; "
          f"stabilized={str(stabilized).lower()}")
    print(f"report written to {os.path.join(out, 'run.json')}")
    return EXIT_OK


def cmd_verify(args) -> int:
    with open(args.run) as handle:
        report = _typed(json.load(handle), dict, f"{args.run}: report")
    config = _typed(report.get("config"), dict, "report config")
    stored_hash = _typed(report.get("config_hash"), str, "report config_hash")
    config_hash = sha256_text(canonical_json(config))
    if config_hash != stored_hash:
        raise InputError(f"{args.run}: config_hash {stored_hash} does not "
                         f"match the embedded config (sha256 {config_hash})")
    space = space_from_dict(_typed(config.get("space"), dict, "report config.space"))
    kernel = kernel_from_spec(_typed(config.get("kernel"), dict, "report config.kernel"),
                              space)
    profile = None
    if config.get("profile"):
        profile = profile_from_spec(_typed(config["profile"], dict, "report config.profile"),
                                    c=diagonal_infimum(kernel))
    run = run_from_report(report, space)
    verify_cfg = _typed(config.get("verify", {}), dict, "report config.verify")
    window_cfg = _typed(config.get("window", {}), dict, "report config.window")

    if args.checks:
        checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    else:
        checks = tuple(_typed(verify_cfg.get("checks", list(_DEFAULT_CHECKS)), list,
                              "report config.verify.checks"))
    unknown = [c for c in checks if c not in VALID_CHECKS]
    if unknown:
        raise UsageError(f"unknown checks {unknown}; valid: {', '.join(VALID_CHECKS)}")
    trials = args.trials if args.trials is not None else _typed(
        verify_cfg.get("trials", 1000), int, "report config.verify.trials")
    if trials < 1:
        raise UsageError("trials must be a positive integer")
    el_tol = args.tol if args.tol is not None else float(_typed(
        verify_cfg.get("tol", 1e-6), _NUMBER, "report config.verify.tol"))
    eps = args.eps if args.eps is not None else verify_cfg.get(
        "eps", window_cfg.get("eps", 0.5))
    rho = run.stages[-1].measure
    window = run.window if run.window.any() else rho.support

    results: dict[str, dict] = {}
    el_report = None
    for check in checks:
        if check == "el":
            el_report = verify_el(rho, kernel, window, tol=el_tol)
            results["el"] = el_report.to_dict()
        elif check == "minimality":
            support_cap = _typed(verify_cfg.get("support_cap", 6), int,
                                 "report config.verify.support_cap")
            sampler = VariationSampler(window=window, seed=args.seed,
                                       support_cap=support_cap)
            results["minimality"] = sample_minimality(rho, kernel, sampler, trials)
        elif check == "conditions":
            delta_cover = args.delta_cover if args.delta_cover is not None else \
                verify_cfg.get("delta_cover")
            if delta_cover is None:
                raise UsageError("check 'conditions' needs --delta-cover "
                                 "(or verify.delta_cover in the config)")
            results["conditions"] = check_sufficient_conditions(
                kernel, space, float(_typed(delta_cover, _NUMBER, "delta_cover")))
            results["conditions"]["passed"] = results["conditions"]["holds"]
        elif check == "nontriviality":
            results["nontriviality"] = nontriviality_check(run, kernel, space)
        elif check == "gamma":
            if profile is None:
                raise UsageError("check 'gamma' needs a profile in the config")
            results["gamma"] = gamma_lower_bound(rho, kernel, space, profile,
                                                 float(_typed(eps, _NUMBER, "eps")),
                                                 window, el_report=el_report)
        elif check == "mass_bound":
            radius = verify_cfg.get("mass_radius", run.diagnostics.get("window_layer"))
            rng = np.random.default_rng(np.random.SeedSequence([args.seed]))
            points = np.flatnonzero(window)
            count = min(len(points), 20)
            probes = points[np.sort(rng.choice(len(points), size=count, replace=False))]
            results["mass_bound"] = local_mass_bound_check(
                run.stages[-1], space, kernel, probes,
                float(_typed(radius, _NUMBER, "mass_radius")))

    failed = [name for name, res in results.items() if not res.get("passed", False)]
    if "el" in failed:
        code = EXIT_EL_FAILED
    elif "minimality" in failed:
        code = EXIT_MINIMALITY
    elif failed:
        code = EXIT_CONDITION
    else:
        code = EXIT_OK
    summary = {"checks": results, "failed": failed, "exit_code": code,
               "config_hash": report["config_hash"],
               "tool": {"name": "cvp", "version": __version__}}
    out_path = args.out or os.path.join(os.path.dirname(os.path.abspath(args.run)),
                                        "verify.json")
    write_json(out_path, summary)
    for name in checks:
        status = "passed" if name not in failed else "FAILED"
        print(f"{name}: {status}")
    print(f"verdict written to {out_path}; exit code {code}")
    return code


def cmd_oracle(args) -> int:
    with open(args.matrix) as handle:
        payload = json.load(handle)
    if isinstance(payload, dict):
        payload = payload.get("matrix")
    rows = [[as_number(v, f"oracle matrix[{i}][{j}]") for j, v in
             enumerate(_typed(row, list, f"oracle matrix[{i}]"))]
            for i, row in enumerate(_typed(payload, list, "oracle matrix"))]
    if any(len(row) != len(rows) for row in rows):
        raise InputError(f"oracle matrix must be square, got row lengths "
                         f"{[len(row) for row in rows]} for {len(rows)} rows")
    problem = CompactProblem(ids=tuple(f"p{i}" for i in range(len(rows))),
                             matrix=np.array(rows).reshape(len(rows), len(rows)))
    solution = brute_force_minimizer(problem)
    out = {
        "value": solution.value,
        "s_param": solution.s_param,
        "weights": {pid: float(w) for pid, w in zip(problem.ids, solution.weights)
                    if w > 0},
        "kkt": {"on_support_max": solution.kkt.on_support_max,
                "min_over_k": solution.kkt.min_over_k,
                "s_param": solution.kkt.s_param},
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
        node = _typed(node.setdefault(k, {}), dict, f"sweep path {'.'.join(keys[:depth])}")
    node[keys[-1]] = value


def cmd_sweep(args) -> int:
    with open(args.config) as handle:
        spec = _typed(json.load(handle), dict, f"{args.config}: sweep config")
    base = spec.get("base")
    if not isinstance(base, dict):
        raise UsageError("sweep config needs a 'base' run config object")
    grid = _typed(spec.get("grid", {}), dict, "sweep grid")
    keys = sorted(grid)
    combos = list(itertools.product(*(_typed(grid[k], list, f"sweep grid[{k!r}]")
                                      for k in keys)))
    base_dir = os.path.dirname(os.path.abspath(args.config))
    os.makedirs(args.out, exist_ok=True)
    entries = []
    for i, combo in enumerate(combos):
        cfg = json.loads(json.dumps(base))
        for k, v in zip(keys, combo):
            _set_path(cfg, k, v)
        cfg["seed"] = _typed(cfg.get("seed", 0), int, "seed") + i
        run_dir = os.path.join(args.out, f"run_{i:03d}")
        cfg_path = os.path.join(run_dir, "config.json")
        os.makedirs(run_dir, exist_ok=True)
        # space file paths in the base config resolve relative to the sweep file
        if isinstance(cfg.get("space"), str):
            cfg["space"] = os.path.join(base_dir, cfg["space"])
        write_json(cfg_path, cfg)
        cmd_solve(argparse.Namespace(config=cfg_path, out=run_dir, seed=None,
                                     stride=None, tol=None))
        with open(os.path.join(run_dir, "run.json")) as handle:
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cvp", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cvp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run an exhaustion and write reports")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", required=True)
    p_solve.add_argument("--seed", type=_seed_flag, default=None)
    p_solve.add_argument("--stride", type=int, default=None)
    p_solve.add_argument("--tol", type=float, default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="run certification checks on a report")
    p_verify.add_argument("--run", required=True)
    p_verify.add_argument("--checks", default=None,
                          help=f"comma list from: {', '.join(VALID_CHECKS)}")
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--seed", type=_seed_flag, default=0)
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--eps", type=float, default=None)
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
