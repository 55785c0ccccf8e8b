"""End-to-end command line flows: solve, verify, oracle, sweep."""

import contextlib
import copy
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cvp
from cvp import InputError, grid_1d, make_kernel, run_exhaustion, space_from_dict
from cvp.cli import (CHECKS, _stage_weights, build_parser, config_from_dict, load_config,
                     main, report_from_run, run_from_report)
from cvp.errors import as_number
from cvp.reports import canonical_json, sha256_text
from test_readme import _example

EL_TOL = 1e-8


def write_config(tmp_path, name="config.json", **overrides):
    points = [{"id": f"g{i}", "coords": [float(i)]} for i in range(-6, 7)]
    cfg = {
        "space": {"points": points, "metric": "euclidean"},
        "kernel": {"kind": "tent", "amplitude": 1.0, "range": 1.0},
        "exhaustion": {"center": "g0", "radii": [2, 4, 6]},
        "solver": {"tol": 1e-8},
        "seed": 0,
        "verify": {"checks": ["el", "minimality"]},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_solve(tmp_path, out="run", **overrides):
    cfg = write_config(tmp_path, **overrides)
    out_dir = str(tmp_path / out)
    code = main(["solve", "--config", cfg, "--out", out_dir])
    assert code == 0
    return out_dir


def test_solve_writes_report_and_stage_csv(tmp_path, capsys):
    out_dir = run_solve(tmp_path)
    report = json.loads(Path(out_dir, "run.json").read_text())
    assert report["tool"]["name"] == "cvp"
    assert len(report["stages"]) == 3
    assert report["diagnostics"]["stabilized"] is True
    assert [round(s["lambda"]) for s in report["stages"]] == [5, 9, 13]
    for i in range(3):
        csv_path = os.path.join(out_dir, f"stage_{i}.csv")
        assert os.path.exists(csv_path)
        header = Path(csv_path).read_text().splitlines()[0]
        assert header == "point,ell,weight"
    out = capsys.readouterr().out
    assert "solved 3 stages; window 7 points" in out


def test_solve_is_byte_deterministic(tmp_path):
    a = run_solve(tmp_path, out="run_a")
    b = run_solve(tmp_path, out="run_b")
    bytes_a = Path(a, "run.json").read_bytes()
    bytes_b = Path(b, "run.json").read_bytes()
    assert bytes_a == bytes_b


def test_seed_flag_changes_config_hash(tmp_path):
    a = run_solve(tmp_path, out="run_a")
    cfg = write_config(tmp_path)
    out_b = str(tmp_path / "run_b")
    assert main(["solve", "--config", cfg, "--out", out_b, "--seed", "7"]) == 0
    ha = json.loads(Path(a, "run.json").read_text())["config_hash"]
    hb = json.loads(Path(out_b, "run.json").read_text())["config_hash"]
    assert ha != hb


def test_verify_passes_on_clean_run(tmp_path, capsys):
    out_dir = run_solve(tmp_path)
    code = main(["verify", "--run", os.path.join(out_dir, "run.json")])
    assert code == 0
    summary = json.loads(Path(out_dir, "verify.json").read_text())
    assert summary["failed"] == []
    assert set(summary["checks"]) == {"el", "minimality"}
    out = capsys.readouterr().out
    assert "el: passed" in out and "minimality: passed" in out


def test_verify_el_failure_exits_2(tmp_path):
    out_dir = run_solve(tmp_path)
    run_path = os.path.join(out_dir, "run.json")
    report = json.loads(Path(run_path).read_text())
    key = next(iter(report["stages"][-1]["weights"]))
    report["stages"][-1]["weights"][key] *= 2.0
    Path(run_path).write_text(json.dumps(report))
    assert main(["verify", "--run", run_path, "--checks", "el"]) == 2


def test_verify_minimality_witness_exits_3(tmp_path):
    out_dir = run_solve(tmp_path)
    run_path = os.path.join(out_dir, "run.json")
    report = json.loads(Path(run_path).read_text())
    key = next(iter(report["stages"][-1]["weights"]))
    report["stages"][-1]["weights"][key] *= 2.0
    Path(run_path).write_text(json.dumps(report))
    assert main(["verify", "--run", run_path, "--checks", "minimality"]) == 3
    summary = json.loads(Path(out_dir, "verify.json").read_text())
    assert summary["checks"]["minimality"]["certificate"] == "window_qp"


def test_verify_proof_draws_no_trials(tmp_path, monkeypatch):
    out_dir = run_solve(tmp_path)

    def no_window_qp(*args):
        raise AssertionError("the window QP was solved although the proof applies")

    monkeypatch.setattr("cvp.el_analysis.minimize_on_compact", no_window_qp)
    assert main(["verify", "--run", os.path.join(out_dir, "run.json")]) == 0
    summary = json.loads(Path(out_dir, "verify.json").read_text())
    minimality = summary["checks"]["minimality"]
    assert minimality["certificate"] == "exact" and minimality["passed"]
    assert set(minimality) == {"certificate", "passed", "bound", "window_mass", "tol"}


def test_verify_exact_witness_exits_3(tmp_path):
    # the midpoint of [[1, 2], [2, 1]] is stationary, but the action curves
    # down along the balanced direction: the solver found a vertex instead
    points = [{"id": "a", "coords": [0.0]}, {"id": "b", "coords": [1.0]}]
    kernel = {"kind": "matrix", "matrix": [[1.0, 2.0], [2.0, 1.0]], "range": 1.0}
    run_path, report = _solved_report(
        tmp_path, space={"points": points, "metric": "euclidean"}, kernel=kernel,
        exhaustion={"center": "a", "radii": [1.0]})
    report["stages"][-1]["weights"] = {"a": 0.5, "b": 0.5}
    Path(run_path).write_text(json.dumps(report))
    assert main(["verify", "--run", run_path, "--checks", "el,minimality"]) == 3
    summary = json.loads(Path(run_path).with_name("verify.json").read_text())
    assert summary["failed"] == ["minimality"]
    minimality = summary["checks"]["minimality"]
    assert minimality["certificate"] == "window_qp" and not minimality["passed"]
    assert minimality["certified_global"]
    assert minimality["why_not_exact"] == ("the window's curvature form is not proved "
                                           "positive semidefinite")
    # the least action of mass 2/3 on the window sits at a vertex: (2/3)^2 (1 - 1.5)
    assert minimality["min_delta_S"] == pytest.approx(-2.0 / 9.0, rel=1e-12)
    # the stage rescaled by 1/s, s = 1.5: weight 1/3 at each point
    L = np.array(kernel["matrix"])
    rho = np.full(2, 1.0 / 3.0)
    delta = np.array([minimality["witness"]["delta"][pid] for pid in ("a", "b")])
    recompute = (rho + delta) @ L @ (rho + delta) - rho @ L @ rho
    assert minimality["witness"]["delta_action"] == pytest.approx(recompute, rel=1e-12)
    assert recompute < -1e-8 and abs(delta.sum()) <= 1e-12 and (rho + delta >= 0).all()


def test_verify_condition_failure_exits_4(tmp_path):
    points = [{"id": f"t{i}", "coords": [i * 0.25]} for i in range(9)]
    out_dir = run_solve(
        tmp_path,
        space={"points": points, "metric": "euclidean"},
        exhaustion={"center": "t0", "radii": [1.0, 2.0]},
    )
    code = main(["verify", "--run", os.path.join(out_dir, "run.json"),
                 "--checks", "conditions", "--delta-cover", "1.0"])
    assert code == 4


def test_verify_refuses_edited_config(tmp_path, capsys):
    out_dir = run_solve(tmp_path)
    run_path = os.path.join(out_dir, "run.json")
    report = json.loads(Path(run_path).read_text())
    report["config"]["kernel"]["amplitude"] = 2.0
    Path(run_path).write_text(json.dumps(report))
    assert main(["verify", "--run", run_path]) == 1
    assert "does not match the embedded config" in capsys.readouterr().err


def test_verify_accepts_a_config_holding_negative_zero(tmp_path, capsys):
    # the report writes -0.0 as -0, which json reads back as the int 0; verify
    # reads it again as -0.0 and finds the hash, and checks what the plain
    # config's run checks
    outs = {}
    for name, zero in (("plain", 0.0), ("negative", -0.0)):
        config = json.loads(_example("json", "### Config"))
        config["space"]["points"][0]["coords"] = [zero]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        out = tmp_path / name
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        assert main(["verify", "--run", str(out / "run.json")]) == 0
        outs[name] = json.loads((out / "verify.json").read_text())
    assert '"coords":[-0]' in "".join((tmp_path / "negative" / "run.json").read_text().split())
    assert outs["plain"]["config_hash"] != outs["negative"]["config_hash"]
    assert outs["plain"]["checks"] == outs["negative"]["checks"]
    # an edit next to the -0 is still refused
    run_path = tmp_path / "negative" / "run.json"
    report = json.loads(run_path.read_text(), parse_int=lambda s: -0.0 if s == "-0" else int(s))
    report["config"]["kernel"]["amplitude"] = 2.0
    run_path.write_text(canonical_json(report))
    capsys.readouterr()
    assert main(["verify", "--run", str(run_path)]) == 1
    assert "does not match the embedded config" in capsys.readouterr().err


def test_verify_derives_limit_from_last_stage(tmp_path):
    # the stored limit is output only; an emptied one cannot fail nontriviality
    out_dir = run_solve(tmp_path)
    run_path = os.path.join(out_dir, "run.json")
    report = json.loads(Path(run_path).read_text())
    report["limit"]["weights"] = {}
    Path(run_path).write_text(json.dumps(report))
    assert main(["verify", "--run", run_path, "--checks", "nontriviality"]) == 0


@given(radii=st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True),
       margin=st.integers(0, 3), reach=st.floats(0.5, 3.0),
       amplitude=st.floats(0.5, 2.0), seed=st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_report_round_trip_is_byte_identical(radii, margin, reach, amplitude, seed):
    n = max(radii) + margin
    cfg = {
        "space": {"points": [{"id": f"g{i}", "coords": [float(i)]}
                             for i in range(-n, n + 1)], "metric": "euclidean"},
        "kernel": {"kind": "tent", "amplitude": amplitude, "range": reach},
        "exhaustion": {"center": "g0", "radii": sorted(radii)},
        "seed": seed,
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as handle:
            json.dump(cfg, handle)
        config = load_config(path)
    run = run_exhaustion(config.space, config.kernel, config.exhaustion, config.options)
    text = canonical_json(report_from_run(run, config))
    back = run_from_report(json.loads(text), config)
    assert canonical_json(report_from_run(back, config)) == text


def test_verify_rejects_unknown_check(tmp_path):
    out_dir = run_solve(tmp_path)
    assert main(["verify", "--run", os.path.join(out_dir, "run.json"),
                 "--checks", "nonsense"]) == 64


def test_missing_config_exits_1(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 1


def test_malformed_config_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1


def test_nonincreasing_radii_rejected(tmp_path):
    cfg = write_config(tmp_path, exhaustion={"center": "g0", "radii": [4, 2]})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_oracle_golden_two_point(tmp_path, capsys):
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps([[1.0, 0.5], [0.5, 1.0]]))
    assert main(["oracle", "--matrix", str(matrix)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(0.75, abs=EL_TOL)
    assert "s_param" not in out
    assert out["weights"] == {"p0": pytest.approx(0.5), "p1": pytest.approx(0.5)}
    assert out["certified_global"] is True


def test_oracle_accepts_wrapped_matrix_and_out_file(tmp_path, capsys):
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps({"matrix": [[2.0, 0.0], [0.0, 1.0]]}))
    dest = tmp_path / "oracle.json"
    assert main(["oracle", "--matrix", str(matrix), "--out", str(dest)]) == 0
    capsys.readouterr()
    saved = json.loads(dest.read_text())
    assert saved["value"] == pytest.approx(2.0 / 3.0, abs=EL_TOL)
    assert saved["weights"]["p1"] == pytest.approx(2.0 / 3.0, abs=EL_TOL)


def test_space_file_resolves_next_to_config(tmp_path):
    points = [{"id": f"g{i}", "coords": [float(i)]} for i in range(-6, 7)]
    (tmp_path / "space.json").write_text(json.dumps(
        {"points": points, "metric": "euclidean"}))
    cfg = write_config(tmp_path, space="space.json")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_sweep_runs_grid(tmp_path, capsys):
    points = [{"id": f"g{i}", "coords": [float(i)]} for i in range(-6, 7)]
    base = {
        "space": {"points": points, "metric": "euclidean"},
        "kernel": {"kind": "tent", "amplitude": 1.0, "range": 1.0},
        "exhaustion": {"center": "g0", "radii": [2, 4]},
    }
    sweep_cfg = tmp_path / "sweep_config.json"
    sweep_cfg.write_text(json.dumps(
        {"base": base, "grid": {"kernel.amplitude": [1.0, 2.0]}}))
    out_dir = str(tmp_path / "sweep_out")
    assert main(["sweep", "--config", str(sweep_cfg), "--out", out_dir]) == 0
    summary = json.loads(Path(out_dir, "sweep.json").read_text())
    assert len(summary["runs"]) == 2
    assert summary["runs"][0]["overrides"] == {"kernel.amplitude": 1.0}
    assert summary["runs"][1]["seed"] == 1
    for entry in summary["runs"]:
        assert os.path.exists(os.path.join(out_dir, entry["dir"], "run.json"))


def test_usage_error_on_missing_subcommand():
    assert main([]) == 64


def test_the_error_kinds_are_four():
    # refused input (exit 1), a bad command line (exit 64) and a stage solve
    # with no KKT point, under one base class
    errors = {name for name in cvp.__all__ if isinstance(getattr(cvp, name), type)
              and issubclass(getattr(cvp, name), BaseException)}
    assert errors == {"CVPError", "InputError", "SolverFailure", "UsageError"}
    kinds = [v for v in vars(cvp.errors).values()
             if isinstance(v, type) and issubclass(v, BaseException)
             and v.__module__ == "cvp.errors"]
    assert {k.__name__ for k in kinds} == errors
    assert all(issubclass(k, cvp.CVPError) for k in kinds)


@pytest.mark.parametrize("command, message", [
    ("oracle", "brute force is capped at 16 points, got 17"),
    ("solve", "stages 0 and 1 are identical"),
], ids=["oracle-cap", "identical-stages"])
def test_refused_input_exits_1_with_its_message(tmp_path, capsys, command, message):
    if command == "oracle":
        matrix = tmp_path / "m.json"
        matrix.write_text(json.dumps(np.eye(17).tolist()))
        argv = ["oracle", "--matrix", str(matrix)]
    else:
        cfg = write_config(tmp_path, exhaustion={"center": "g0", "radii": [1, 1.4]})
        argv = ["solve", "--config", cfg, "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    assert message in capsys.readouterr().err


def test_cached_parser_keeps_usage_errors_and_fresh_defaults(tmp_path):
    # main builds its parser once per process; each call still parses from defaults
    out_dir = run_solve(tmp_path)
    run_path = os.path.join(out_dir, "run.json")
    assert main(["verify", "--run", run_path, "--checks", "el", "--seed", "5"]) == 0
    assert set(json.loads(Path(out_dir, "verify.json").read_text())["checks"]) == {"el"}
    assert main(["verify", "--run", run_path, "--no-such-flag"]) == 64
    assert main(["verify", "--run", run_path]) == 0
    assert set(json.loads(Path(out_dir, "verify.json").read_text())["checks"]) == \
        {"el", "minimality"}
    args = build_parser().parse_args(["verify", "--run", run_path])
    assert (args.checks, args.seed, args.tol, args.delta_cover) == (None, 0, None, None)
    assert build_parser() is build_parser()


_ALL_CHECKS = ("el", "minimality", "conditions", "nontriviality", "gamma", "mass_bound",
               "compact_range", "entropy_decay")


@pytest.fixture(scope="module")
def fuzz_report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    out_dir = run_solve(tmp, profile={"f": "exp", "params": {"rate": 1.0}, "delta": 1.0},
                        window={"layer": 1.0, "eps": 0.3},
                        verify={"checks": list(_ALL_CHECKS), "tol": 1e-6, "delta_cover": 1.0})
    return json.loads(Path(out_dir, "run.json").read_text())


_RETYPES = (None, True, 0, -1, 2.5, float("nan"), "abc", [], [1, 2], {}, {"g0": 1})
_FIELDS = (
    ("config",), ("config_hash",), ("stages",), ("window",), ("diagnostics",),
    ("stages", 0), ("stages", -1, "index"), ("stages", -1, "ids"),
    ("stages", -1, "ids", 0), ("stages", -1, "weights"), ("stages", -1, "weights", "g0"),
    ("stages", -1, "kkt"), ("stages", -1, "kkt", "s_param"),
    ("stages", -1, "kkt", "on_support_max"), ("stages", -1, "certified_global"),
    ("stages", -1, "degenerate"), ("window", 0), ("diagnostics", "window_layer"),
    ("config", "space"), ("config", "kernel"), ("config", "profile"), ("config", "window"),
    ("config", "window", "eps"), ("config", "verify"), ("config", "verify", "checks"),
    ("config", "verify", "tol"), ("config", "verify", "delta_cover"),
)


def _mutate(report, path, action, value):
    node = report
    for key in path[:-1]:
        node = node[key]
    key = path[-1]
    old = None if action == "retype" else node[key]  # a retyped key need not exist
    if action == "delete":
        del node[key]
    elif action == "truncate" and isinstance(old, (list, str)):
        node[key] = old[:len(old) // 2]
    elif action == "truncate" and isinstance(old, dict):
        node[key] = dict(list(old.items())[:len(old) // 2])
    else:
        node[key] = value


@given(edits=st.lists(st.tuples(st.sampled_from(_FIELDS),
                                st.sampled_from(("delete", "truncate", "retype")),
                                st.sampled_from(_RETYPES)), min_size=1, max_size=3),
       rehash=st.booleans(), cli_checks=st.booleans())
@settings(max_examples=150, deadline=None)
def test_verify_exits_cleanly_on_malformed_report(fuzz_report, edits, rehash, cli_checks):
    report = copy.deepcopy(fuzz_report)
    for path, action, value in edits:
        try:
            _mutate(report, path, action, copy.deepcopy(value))
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit removed or retyped the parent
    if rehash and isinstance(report.get("config"), dict):
        try:
            report["config_hash"] = sha256_text(canonical_json(report["config"]))
        except ValueError:
            pass  # a NaN in the config cannot be hashed
    # checks and their settings from the command line, or else from the report
    flags = ["--checks", ",".join(_ALL_CHECKS), "--trials", "20",
             "--delta-cover", "1.0"] if cli_checks else []
    with tempfile.TemporaryDirectory() as tmp:
        run_path = os.path.join(tmp, "run.json")
        with open(run_path, "w") as handle:
            json.dump(report, handle)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["verify", "--run", run_path,
                         "--out", os.path.join(tmp, "v.json"), *flags])
    assert code in (0, 1, 2, 3, 4, 64)
    assert "Traceback" not in err.getvalue()


def _solved_report(tmp_path, **overrides):
    out_dir = run_solve(tmp_path, **overrides)
    run_path = os.path.join(out_dir, "run.json")
    return run_path, json.loads(Path(run_path).read_text())


@pytest.mark.parametrize("pid,stage,why", [("zz", 2, "is on an unknown point id"),
                                           ("g5", 0, "is outside the stage ids")])
def test_verify_refuses_weight_outside_its_stage(tmp_path, capsys, pid, stage, why):
    run_path, report = _solved_report(tmp_path)
    report["stages"][stage]["weights"][pid] = 0.5
    Path(run_path).write_text(json.dumps(report))
    assert main(["verify", "--run", run_path, "--checks", "el"]) == 1
    assert f"stages[{stage}].weights[{pid!r}] {why}" in capsys.readouterr().err


_PROFILE = {"f": "exp", "params": {"rate": 1.0}, "delta": 1.0}
_BAD_FIELDS = (
    (("kernel", "range"), "abc", "kernel.range"),
    (("space", "points", 0, "coords"), ["a"], "coords"),
    (("profile", "delta"), "z", "profile.delta"),
    (("seed",), "x", "seed"),
    (("solver", "restarts"), [1], "solver.restarts"),
    (("exhaustion", "radii"), ["a"], "exhaustion radii"),
    (("stride",), "s", "stride"),
    (("seed",), -1, "seed must be a non-negative integer"),
    # strings that look like numbers are refused, not cast
    (("kernel", "range"), "1.0", "kernel.range must be a number, got '1.0'"),
    (("space", "points", 0, "coords"), ["-6"], "coords must be a number, got '-6'"),
    (("space", "points", 0, "id"), 5, "space point id must be a string"),
    (("exhaustion", "radii"), [2, "4"], "exhaustion radii must be a number, got '4'"),
    (("profile",), 0, "profile spec must be an object"),
    # every key of the window and verify sections is read, in solve too
    (("window",), {"layr": 1}, "window.layr is not a window setting"),
    (("window",), {"layer": "1"}, "window.layer must be a number"),
    (("verify", "trails"), 5, "verify.trails is not a verify setting"),
    # removed settings are refused as unknown keys
    (("verify", "trials"), 200, "verify.trials is not a verify setting"),
    (("verify", "support_cap"), 4, "verify.support_cap is not a verify setting"),
    (("verify", "eps"), 0.3, "verify.eps is not a verify setting"),
    (("verify", "mass_radius"), 1.0, "verify.mass_radius is not a verify setting"),
    (("stab_tol",), 1e-6, "stab_tol"),
    (("kernel",), {"kind": "matrix", "matrix": [["1", "0.5"], ["0.5", "1"]], "range": 1},
     "kernel.matrix[0][0] must be a number, got '1'"),
    # every key of the kernel, profile, profile.params and exhaustion sections is read
    (("kernel", "amplitdue"), 2.0, "kernel.amplitdue is not a tent kernel setting"),
    (("profile", "parms"), {"rate": 5}, "profile.parms is not a profile setting"),
    (("profile", "params", "rat"), 5, "profile.params.rat is not an exp profile setting"),
    (("exhaustion", "centre"), "g1", "exhaustion.centre is not an exhaustion setting"),
    # solve refuses a check list that verify could never run
    (("verify", "checks"), ["bogus"], "verify.checks[0] 'bogus' is not a check"),
    (("verify", "checks"), [1], "verify.checks[0] 1 is not a check"),
    (("verify", "checks"), ["el", "gamma", "el"], "verify.checks[2] names check 'el' a second"),
)
# Python's json reads a bare NaN, Infinity or -Infinity, and the config reader refuses
# each; a report cannot carry one to verify, since its config would not encode
_NONFINITE_FIELDS = (
    (("window",), {"eps": math.inf}, "window.eps must be a finite number, got inf"),
    (("window",), {"layer": math.inf}, "window.layer must be a finite number, got inf"),
    (("window",), {"layer": -math.inf}, "window.layer must be a finite number, got -inf"),
    (("profile", "params", "rate"), math.inf, "profile.params.rate must be a finite number"),
    (("profile", "params", "amplitude"), math.inf,
     "profile.params.amplitude must be a finite number"),
    (("profile", "delta"), math.nan, "profile.delta must be a finite number, got nan"),
    (("verify", "delta_cover"), math.inf, "verify.delta_cover must be a finite number"),
    (("exhaustion", "radii"), [2, math.inf], "exhaustion radii must be a finite number"),
    (("kernel", "range"), math.inf, "kernel.range must be a finite number"),
)


@pytest.mark.parametrize("command,path,value,field", [
    pytest.param(command, *case, id=f"{command}-{case[2]}")
    for command in ("solve", "verify") for case in _BAD_FIELDS] + [
    pytest.param("solve", *case, id=f"solve-{case[2]}") for case in _NONFINITE_FIELDS])
def test_bad_config_field_exits_1_naming_it(tmp_path, command, path, value, field):
    if command == "solve":
        cfg = json.loads(Path(write_config(tmp_path, profile=_PROFILE)).read_text())
        _mutate(cfg, path, "retype", value)
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = ["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
    else:
        run_path, report = _solved_report(tmp_path, profile=_PROFILE)
        _mutate(report["config"], path, "retype", value)
        report["config_hash"] = sha256_text(canonical_json(report["config"]))
        Path(run_path).write_text(json.dumps(report))
        argv = ["verify", "--run", run_path, "--checks", "el"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 1
    assert field in err.getvalue() and "Traceback" not in err.getvalue()
    assert not (tmp_path / "o" / "run.json").exists()


def test_solve_has_no_tol_flag(tmp_path, capsys):
    # solver.tol in the config is the one way to set it, and it enters config_hash
    argv = ["solve", "--config", write_config(tmp_path), "--out", str(tmp_path / "o")]
    assert main([*argv, "--tol", "1e-3"]) == 64
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_null_leaves_a_verify_radius_unset(tmp_path):
    # a null delta_cover is unset, as if it were absent
    checks = {}
    for name, extra in (("absent", {}), ("null", {"delta_cover": None})):
        (tmp_path / name).mkdir()
        run_path, _ = _solved_report(
            tmp_path / name, profile=_PROFILE, window={"layer": 1.0, "eps": 0.3},
            verify={"checks": ["gamma", "mass_bound"], **extra})
        assert main(["verify", "--run", run_path]) == 0
        with open(os.path.join(os.path.dirname(run_path), "verify.json")) as handle:
            checks[name] = json.load(handle)["checks"]
    assert checks["null"] == checks["absent"]
    assert checks["null"]["mass_bound"]["requested_radius"] == 1.0


@pytest.mark.parametrize("cap", [0, 1, -3])
def test_verify_refuses_support_cap_below_two(tmp_path, capsys, cap):
    run_path, report = _solved_report(tmp_path)
    report["config"].setdefault("verify", {})["support_cap"] = cap
    report["config_hash"] = sha256_text(canonical_json(report["config"]))
    Path(run_path).write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify", "--run", run_path, "--checks", "minimality", "--trials", "5"]) == 1
    assert "verify.support_cap is not a verify setting" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_negative_seed_flag_exits_64(tmp_path, capsys, command):
    if command == "solve":
        argv = ["solve", "--config", write_config(tmp_path), "--out", str(tmp_path / "o")]
    else:
        argv = ["verify", "--run", _solved_report(tmp_path)[0]]
    capsys.readouterr()
    assert main([*argv, "--seed", "-1"]) == 64
    assert "argument --seed: must be a non-negative integer" in capsys.readouterr().err


def test_verify_ell_matches_solve_csv_bit_for_bit(tmp_path):
    # ids x0..x20 sort differently as strings (x10 < x2), so a measure read
    # back in report key order summed the averaged kernel in another order
    points = [{"id": f"x{i}", "coords": [float(i)]} for i in range(21)]
    run_path, _ = _solved_report(
        tmp_path, space={"points": points, "metric": "euclidean"},
        kernel={"kind": "exponential", "amplitude": 1.0, "sigma": 1.0},
        exhaustion={"center": "x10", "radii": [6, 10]}, window={"layer": 2.0})
    out = os.path.join(os.path.dirname(run_path), "verify.json")
    assert main(["verify", "--run", run_path, "--checks", "el", "--out", out]) == 0
    ell = json.loads(Path(out).read_text())["checks"]["el"]["ell_values"]
    with open(os.path.join(os.path.dirname(run_path), "stage_1.csv")) as handle:
        rows = dict(line.split(",")[:2] for line in handle.read().splitlines()[1:])
    assert len(ell) == 9
    assert {pid: float(rows[pid]) for pid in ell} == ell


@pytest.mark.parametrize("path,value,message", [
    (("solver", "certify"), "false", "solver.certify is not a solver setting"),
    (("solver", "restarts"), 2.9, "solver.restarts is not a solver setting"),
    (("seed",), 1.7, "seed must be an integer"),
    (("stride",), 1.5, "stride is not a config setting"),
    (("solver", "max_iter"), 100, "solver.max_iter is not a solver setting"),
    (("solver", "oracle_max"), 16, "solver.oracle_max is not a solver setting"),
], ids=["certify-string", "restarts-float", "seed-float", "stride-float", "max_iter",
        "oracle_max"])
def test_config_values_are_not_coerced(tmp_path, capsys, path, value, message):
    # values of the wrong type were truncated or cast, unknown keys ignored
    cfg = json.loads(Path(write_config(tmp_path)).read_text())
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    cfg_path = tmp_path / "coerced.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert message in capsys.readouterr().err


def test_verify_default_checks_pass_on_one_point_window(tmp_path):
    points = [{"id": f"t{i}", "coords": [i * 0.25]} for i in range(9)]
    run_path, report = _solved_report(
        tmp_path, space={"points": points, "metric": "euclidean"},
        exhaustion={"center": "t0", "radii": [1.0, 2.0]}, verify={})
    assert report["window"] == ["t0"]
    assert main(["verify", "--run", run_path]) == 0
    summary = json.loads(Path(run_path).with_name("verify.json").read_text())
    minimality = summary["checks"]["minimality"]
    assert minimality["certificate"] == "window_qp" and minimality["passed"]
    assert minimality["reason"].startswith("a window of fewer than 2 points")
    assert "why_not_exact" not in minimality and "witness" not in minimality


def test_verify_zero_mass_window_passes_with_a_reason(tmp_path):
    # the window p1..p3 curves down along every balanced direction, so the
    # proof does not apply; with its weight moved off, no variation is left
    m = np.full((5, 5), 2.0)
    np.fill_diagonal(m, 1.0)
    points = [{"id": f"p{i}", "coords": [float(i)]} for i in range(5)]
    run_path, report = _solved_report(
        tmp_path, space={"points": points, "metric": "euclidean"},
        kernel={"kind": "matrix", "matrix": m.tolist(), "range": 1.0},
        exhaustion={"center": "p2", "radii": [1.0, 2.0]}, window={"layer": 0.0})
    assert report["window"] == ["p1", "p2", "p3"]
    report["stages"][-1]["weights"] = {"p0": 0.5, "p4": 0.5}
    Path(run_path).write_text(json.dumps(report))
    assert main(["verify", "--run", run_path, "--checks", "minimality"]) == 0
    minimality = json.loads(Path(run_path).with_name("verify.json").read_text())[
        "checks"]["minimality"]
    assert minimality["certificate"] == "window_qp" and minimality["passed"]
    assert minimality["window_mass"] == 0.0
    assert minimality["reason"].startswith("a window of zero mass")


def test_verify_finds_the_doubled_center_weight_exactly(tmp_path):
    # the acceptance gate's doubled g50 weight: the first-order bound fails
    # and the window QP gives a certified descent
    points = [{"id": f"g{i}", "coords": [float(i - 50)]} for i in range(101)]
    run_path, report = _solved_report(
        tmp_path, space={"points": points, "metric": "euclidean"},
        exhaustion={"center": "g50", "radii": [10, 20, 50]})
    report["stages"][-1]["weights"]["g50"] *= 2.0
    Path(run_path).write_text(json.dumps(report))
    assert main(["verify", "--run", run_path, "--checks", "minimality"]) == 3
    minimality = json.loads(Path(run_path).with_name("verify.json").read_text())[
        "checks"]["minimality"]
    assert minimality["certificate"] == "window_qp" and not minimality["passed"]
    assert minimality["certified_global"]
    assert minimality["why_not_exact"].startswith("the first-order bound")
    assert minimality["witness"]["delta_action"] == minimality["min_delta_S"] < -1e-8


def test_verify_ignores_the_trials_flag(tmp_path, capsys):
    run_path, _ = _solved_report(tmp_path)
    outs = [str(tmp_path / "plain.json"), str(tmp_path / "trials.json")]
    assert main(["verify", "--run", run_path, "--out", outs[0]]) == 0
    assert main(["verify", "--run", run_path, "--trials", "5", "--out", outs[1]]) == 0
    assert Path(outs[0]).read_bytes() == Path(outs[1]).read_bytes()
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    help_text = capsys.readouterr().out
    assert "--delta-cover" in help_text and "--trials" not in help_text


def _verify_bytes(run_path, report, out, checks):
    """The ``verify.json`` bytes and exit code of ``report`` saved at ``run_path``."""
    Path(run_path).write_text(json.dumps(report))
    code = main(["verify", "--run", run_path, "--checks", checks, "--trials", "50",
                 "--delta-cover", "1.0", "--out", out])
    return code, Path(out).read_bytes()


def test_verify_derives_the_window_from_the_config(tmp_path):
    # a stored window of one point hid the doubled weight at g3 from the checks
    run_path, report = _solved_report(tmp_path)
    report["stages"][-1]["weights"]["g3"] *= 2.0
    report["window"] = ["g0"]
    Path(run_path).write_text(json.dumps(report))
    assert main(["verify", "--run", run_path, "--checks", "el,minimality,nontriviality"]) == 2


_STAGE_OUTPUT_ONLY = ("ids", "index", "kkt", "degenerate", "lambda", "s_unscaled")


def _blank(report):
    for stage in report["stages"]:
        for key in _STAGE_OUTPUT_ONLY:
            del stage[key]
    for key in ("window", "limit", "diagnostics"):
        del report[key]


def _alter(report):
    for stage in report["stages"]:
        stage.update({"ids": ["g0"], "index": 7, "degenerate": True, "lambda": 1e9,
                      "s_unscaled": 0.0,
                      "kkt": {"on_support_max": 0.0, "min_over_k": 0.0, "s_param": 1.0}})
    report.update(window=["g0"], limit={"space": "x", "weights": {"g0": 5.0}},
                  diagnostics={"window_layer": 50.0})


@pytest.mark.parametrize("edit", [_blank, _alter], ids=["blank", "alter"])
def test_output_only_fields_do_not_change_verify(tmp_path, edit):
    run_path, report = _solved_report(
        tmp_path, profile=_PROFILE, window={"layer": 1.0, "eps": 0.3})
    checks = ",".join(_ALL_CHECKS)
    code, clean = _verify_bytes(run_path, report, str(tmp_path / "clean.json"), checks)
    edit(report)
    assert _verify_bytes(run_path, report, str(tmp_path / "edited.json"), checks) == (code,
                                                                                      clean)
    assert json.loads(clean)["checks"]["mass_bound"]["requested_radius"] == 1.0


def test_verify_refuses_a_report_with_a_stage_missing(tmp_path, capsys):
    run_path, report = _solved_report(tmp_path)
    del report["stages"][0]
    Path(run_path).write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify", "--run", run_path, "--checks", "el"]) == 1
    assert "report stages has 2 entries" in capsys.readouterr().err


_SWEEP_BASE = {"space": {"points": [{"id": "g0", "coords": [0.0]}], "metric": "euclidean"},
               "kernel": {"kind": "tent", "range": 1.0},
               "exhaustion": {"center": "g0", "radii": [1]}}


@pytest.mark.parametrize("command,payload,field", [
    ("oracle", {"matrix": "abc"}, "oracle matrix must be a list"),
    ("oracle", [[1, "x"], [0, 1]], "oracle matrix[0][1]"),
    ("oracle", [[1, 0], [0]], "oracle matrix must be square"),
    ("sweep", [1], "sweep config must be an object"),
    ("sweep", {"base": dict(_SWEEP_BASE, seed="x")}, "seed must be an integer"),
    ("sweep", {"base": _SWEEP_BASE, "grid": {"kernel.range": 2.0}}, "sweep grid['kernel.range']"),
    ("sweep", {"base": _SWEEP_BASE, "grid": {"kernel.range.x": [2.0]}}, "sweep path kernel.range"),
], ids=["oracle-string", "oracle-entry", "oracle-ragged", "sweep-list", "sweep-seed",
        "sweep-grid", "sweep-path"])
def test_malformed_oracle_and_sweep_input_exits_1(tmp_path, command, payload, field):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    flag = "--matrix" if command == "oracle" else "--config"
    extra = [] if command == "oracle" else ["--out", str(tmp_path / "o")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, flag, str(path), *extra])
    assert code == 1
    assert field in err.getvalue() and "Traceback" not in err.getvalue()
    assert not (tmp_path / "o" / "run.json").exists()


def _five_point_config():
    return config_from_dict({
        "space": {"metric": "euclidean",
                  "points": [{"id": f"p{i}", "coords": [float(i)]} for i in range(5)]},
        "kernel": {"kind": "tent", "range": 1.0},
        "exhaustion": {"center": "p2", "radii": [1, 2]}})


def _space(*points, metric="euclidean", **extra):
    return lambda: space_from_dict({"metric": metric, "points": list(points), **extra})


def _report(first, last):
    return lambda: run_from_report(
        {"stages": [{"weights": first, "certified_global": True},
                    {"weights": last, "certified_global": True}]}, _five_point_config())


# The texts are those the readers gave when they formatted every field name
# up front; they now format one only to refuse it.
@pytest.mark.parametrize("build,text", [
    (_space({"id": "a", "coords": [0]}, {"id": True, "coords": [1]}),
     "space point id must be a string, got True"),
    (_space({"id": 3, "coords": [0]}, {"coords": [1]}),
     "space point id must be a string, got 3"),
    (_space({"id": "a", "coords": [0]}, {"coords": [1]}), "every space point needs an 'id'"),
    (_space({"id": "a", "coords": [0]}, {"id": "b", "coords": ["1"]}),
     "space point 'b' coords must be a number, got '1'"),
    (_space({"id": "a", "coords": [0, 1]}, {"id": "b", "coords": [1, True]}),
     "space point 'b' coords must be a number, got True"),
    (_space({"id": "a", "coords": [0]}, {"id": "b", "coords": 1.0}),
     "space point 'b' coords must be a list, got 1.0"),
    (_space({"id": "a", "coords": [0]}, {"id": "b", "coords": [10 ** 400]}),
     "space point 'b' coords must be a number, got " + "1" + "0" * 59),
    (_space({"id": "a", "coords": [0]}, {"id": "b", "coords": [1, 2]}),
     "space point coords must have one length for all points"),
    (_space({"id": "a"}, {"id": "b"}, {"id": "c"}, metric="explicit", distances=[1, "2", 1]),
     "space distances[1] must be a number, got '2'"),
    (_space({"id": "a"}, {"id": "b"}, {"id": "c"}, metric="explicit", distances=[1, 2, False]),
     "space distances[2] must be a number, got False"),
    (lambda: make_kernel("matrix", {"matrix": [[1.0, 0.0], [0.0, "1"]]}, grid_1d(range(2))),
     "kernel.matrix[1][1] must be a number, got '1'"),
    (lambda: make_kernel("matrix", {"matrix": [[1.0, 0.0], 5]}, grid_1d(range(2))),
     "kernel.matrix[1] must be a list, got 5"),
    (_report({"p1": 1.0, "p2": 1.0}, {"p1": 1.0, "zz": 1.0}),
     "report stages[1].weights['zz'] is on an unknown point id"),
    (_report({"p1": 1.0, "p0": 1.0}, {"p1": 1.0}),
     "report stages[0].weights['p0'] is outside the stage ids"),
    (_report({"p1": 1.0}, {"p1": 1.0, "p2": "1.0"}),
     "report stages[1].weights['p2'] must be a number, got '1.0'"),
    (_report({"p1": 1.0}, {"p1": True}),
     "report stages[1].weights['p1'] must be a number, got True"),
], ids=["bool-id", "id-before-missing-id", "missing-id", "string-coord", "bool-coord",
        "non-list-coords", "huge-int-coord", "ragged-coords", "string-distance",
        "bool-distance", "string-matrix-entry", "non-list-matrix-row", "unknown-weight-id",
        "weight-outside-stage", "string-weight", "bool-weight"])
def test_reader_refusal_texts(build, text):
    with pytest.raises(InputError) as exc:
        build()
    assert str(exc.value) == text


class _Float(float):
    pass


_JSON_VALUES = st.one_of(st.integers(-10 ** 3, 10 ** 3), st.floats(allow_nan=False),
                         st.sampled_from([10 ** 400, -10 ** 400, True, False, None, "1.0",
                                          _Float(2.5), np.float64(0.5), np.int64(3)]))


def _read(f, *args):
    try:
        return f(*args)
    except InputError as exc:
        return str(exc)


@given(weights=st.dictionaries(st.sampled_from(["p0", "p1", "p2", "p3", "p4", "zz"]),
                               _JSON_VALUES, max_size=6),
       stage=st.integers(0, 1))
@example(weights={"p2": math.inf}, stage=0)  # a plain float that is not finite
@settings(max_examples=200, deadline=None)
def test_stage_weights_match_entry_by_entry_reading(weights, stage):
    config = _five_point_config()
    space, mask = config.space, config.exhaustion.stages[stage]
    try:
        expected = np.zeros(len(space))
        for pid, w in weights.items():
            field = f"s.weights[{pid!r}]"
            if pid not in space.index:
                raise InputError(f"{field} is on an unknown point id")
            if not mask[space.index[pid]]:
                raise InputError(f"{field} is outside the stage ids")
            expected[space.index[pid]] = as_number(w, field)
        expected = expected.tobytes()
    except InputError as exc:
        expected = str(exc)
    got = _read(_stage_weights, weights, mask, space, "s")
    assert (got if isinstance(got, str) else got.tobytes()) == expected


def _readme_config() -> dict:
    return json.loads(_example("json", "### Config"))


_EXP41 = {
    "space": {"points": [{"id": f"x{i}", "coords": [float(i)]} for i in range(41)],
              "metric": "euclidean"},
    "kernel": {"kind": "exponential", "amplitude": 1.0, "sigma": 1.0},
    "profile": {"f": "exp", "params": {"amplitude": 1.0, "rate": 1.0}, "delta": 1.0},
    "exhaustion": {"center": "x20", "radii": [10, 15, 20]},
    "window": {"eps": 0.3},
}
_SCALED_EXP = {"f": "scaled_exp", "params": {"amplitude": 6.0, "slope": 2.0, "rate": 1.0},
               "delta": 1.0}


@pytest.mark.parametrize("check,config,code", [
    # the README kernel is exponential: no range is declared, and each stage's
    # effective range is the whole space
    ("compact_range", _readme_config(), 4),
    ("compact_range", {**_readme_config(),
                       "kernel": {"kind": "tent", "amplitude": 1.0, "range": 1.0}}, 0),
    # the exp profile is too thin a majorant of the unit exponential kernel
    # (condition c); a scaled exponential one majorizes it, and still sets a window
    ("entropy_decay", _EXP41, 4),
    ("entropy_decay", {**_EXP41, "profile": _SCALED_EXP}, 0),
], ids=["compact_range-exponential", "compact_range-tent", "entropy_decay-exp",
        "entropy_decay-scaled_exp"])
def test_hypothesis_checks_fail_and_hold(tmp_path, check, config, code):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    assert main(["verify", "--run", str(out / "run.json"), "--checks", check]) == code
    summary = json.loads((out / "verify.json").read_text())
    result = summary["checks"][check]
    assert result["passed"] is result["holds"] is (code == 0)
    assert summary["failed"] == ([] if code == 0 else [check])
    if check == "entropy_decay":
        assert result["condition_c"]["holds"] is (code == 0)
    else:
        assert all(s["contained"] for s in result["stages"]) is (code == 0)


@pytest.mark.parametrize("tol,refused", [(None, True), ("1e-4", False)],
                         ids=["default-tol", "tol-1e-4"])
def test_gamma_verdict_does_not_depend_on_el(tmp_path, tol, refused):
    # the centre weight scaled by 1 + 1e-4 leaves an EL residual of about 4e-5:
    # gamma checks stationarity at the verify tol whether or not el runs too
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_EXP41))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
    run_path = tmp_path / "run" / "run.json"
    report = json.loads(run_path.read_text())
    report["stages"][-1]["weights"]["x20"] *= 1.0 + 1e-4
    run_path.write_text(json.dumps(report))
    entries = []
    for checks in ("gamma", "el,gamma"):
        out = tmp_path / f"{checks}.json"
        main(["verify", "--run", str(run_path), "--checks", checks, "--out", str(out),
              *(["--tol", tol] if tol else [])])
        entries.append(json.loads(out.read_text())["checks"]["gamma"])
    assert entries[0] == entries[1]
    assert entries[0]["refused"] is refused and entries[0]["passed"] is not refused


def test_mass_bound_checks_every_window_point_at_any_seed(tmp_path, capsys):
    # one atom at x15, of scaled mass 3.33 against the bound 2: a draw of 20 of
    # the 23 window points would miss it at some seeds
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_EXP41))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
    run_path = tmp_path / "run" / "run.json"
    report = json.loads(run_path.read_text())
    report["stages"][-1]["weights"] = {"x15": 0.3}
    run_path.write_text(json.dumps(report))
    written = set()
    for seed in ("0", "1", "2", "3"):
        out = tmp_path / f"verify_{seed}.json"
        # --seed and --trials still parse, and change nothing
        assert main(["verify", "--run", str(run_path), "--checks", "mass_bound", "--seed", seed,
                     "--trials", "50", "--out", str(out)]) == 4
        written.add(out.read_bytes())
    assert len(written) == 1
    entries = json.loads(written.pop())["checks"]["mass_bound"]["entries"]
    assert [e["probe"] for e in entries] == report["window"] and len(entries) == 23
    assert [e["probe"] for e in entries if not e["ok"]] == ["x15"]
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    help_text = capsys.readouterr().out
    assert "--seed" not in help_text and "--trials" not in help_text


def test_help_and_unknown_check_list_the_check_table(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    listed = re.search(r"comma list from: (.*?) --", help_text).group(1)
    assert listed.split(", ") == list(CHECKS)
    run_path = _solved_report(tmp_path)[0]
    assert main(["verify", "--run", run_path, "--checks", "el,nonsense"]) == 64
    err = capsys.readouterr().err
    assert "--checks[1] 'nonsense' is not a check" in err
    assert re.search(r"\(known: (.*)\)", err).group(1).split(", ") == list(CHECKS)


@pytest.mark.parametrize("flags,verify,message", [
    (["--checks", ","], None, "no check requested"),
    (["--checks", ""], None, "no check requested"),
    ([], {"checks": []}, "no check requested"),
    (["--checks", "el,minimality,el"], None, "--checks[2] names check 'el' a second time"),
    (["--checks", "el,entropy_decay"], None, "check 'entropy_decay' needs a profile"),
], ids=["comma", "blank", "config-empty", "twice", "entropy_decay-without-profile"])
def test_verify_refuses_a_check_list_it_cannot_run(tmp_path, capsys, flags, verify, message):
    run_path = _solved_report(tmp_path, **({} if verify is None else {"verify": verify}))[0]
    capsys.readouterr()
    assert main(["verify", "--run", run_path, *flags]) == 64
    captured = capsys.readouterr()
    assert message in captured.err and "passed" not in captured.out
    assert not Path(run_path).with_name("verify.json").exists()


def _cvp_process(argv, env=None):
    """``cvp.cli.main`` on ``argv`` in a fresh interpreter that imports cvp from
    this checkout; the process prints the exit code and then whether
    ``numpy.random`` was imported."""
    code = ("import sys\nfrom cvp.cli import main\n"
            "print(main(sys.argv[1:]), 'numpy.random' in sys.modules)")
    env = {**os.environ, **(env or {}),
           "PYTHONPATH": str(Path(cvp.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env)


def _quarter_config(n: int) -> dict:
    c = n // 2
    return {"space": {"metric": "euclidean",
                      "points": [{"id": f"q{i}", "coords": [i * 0.25]} for i in range(n)]},
            "kernel": {"kind": "truncated_gaussian", "amplitude": 1.0, "sigma": 0.8,
                       "range": 2.0},
            "exhaustion": {"center": f"q{c}", "radii": [c // 2 * 0.25, c * 0.25]}}


# the README config's blocks are positive definite, so solve draws nothing; the
# 33-point quarter grid's are not, and its Dirichlet starts bring numpy.random in
@pytest.mark.parametrize("config,draws", [(_readme_config(), False),
                                          (_quarter_config(33), True)],
                         ids=["readme", "q33"])
def test_only_a_block_that_is_not_positive_definite_imports_numpy_random(
        tmp_path, config, draws):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    solved = _cvp_process(["solve", "--config", str(path), "--out", str(out)])
    assert solved.stdout.splitlines()[-1:] == [f"0 {draws}"], solved.stderr
    verified = _cvp_process(["verify", "--run", str(out / "run.json")])
    assert verified.stdout.splitlines()[-1:] == ["0 False"], verified.stderr


def test_configs_and_reports_are_utf8_in_the_c_locale(tmp_path):
    config = _readme_config()
    for point in config["space"]["points"]:
        point["id"] += "\u00e9"
    config["exhaustion"]["center"] += "\u00e9"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, ensure_ascii=False), encoding="utf-8")
    c_locale = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    runs = {}
    for name, env in (("default", None), ("c", c_locale)):
        out = tmp_path / name
        for argv in (["solve", "--config", str(path), "--out", str(out)],
                     ["verify", "--run", str(out / "run.json")]):
            done = _cvp_process(argv, env)
            assert done.stdout.splitlines()[-1:] == ["0 False"], done.stderr
        runs[name] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    assert "\u00e9".encode() in runs["c"]["run.json"]
    assert list(runs["c"]) == ["run.json", "stage_0.csv", "stage_1.csv", "stage_2.csv",
                               "verify.json"]
    assert runs["c"] == runs["default"]


def test_infinite_coordinate_is_refused_naming_its_point(tmp_path, capsys):
    config = _readme_config()
    config["space"]["points"][3]["coords"] = [math.inf]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert "Infinity" in path.read_text()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "run")])
    assert code == 1 and caught == []
    assert capsys.readouterr().err == (
        "error: space point 'x3' coords must be a finite number, got inf\n")


# Coords that are all finite ints or floats in rows of one length are read as one
# array; anything else is read point by point, and the refusal names the point.
@pytest.mark.parametrize("coords,text", [
    (True, "space point 'x3' coords must be a number, got True"),
    (10 ** 400, "space point 'x3' coords must be a number, got " + "1" + "0" * 59),
    (math.nan, "space point 'x3' coords must be a finite number, got nan"),
    (-math.inf, "space point 'x3' coords must be a finite number, got -inf"),
    ("ragged", "space point coords must have one length for all points"),
    ("not a list", "space point 'x3' coords must be a list, got 3.0"),
], ids=["bool", "huge-int", "nan", "minus-infinity", "ragged", "non-list"])
def test_refused_coordinate_exits_1_naming_its_point(tmp_path, capsys, coords, text):
    config = _readme_config()
    row = {"ragged": [3.0, 0.0], "not a list": 3.0}.get(coords, [coords])
    config["space"]["points"][3]["coords"] = row
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "run")])
    assert code == 1 and caught == []
    assert capsys.readouterr().err == f"error: {text}\n"
    assert not (tmp_path / "run" / "run.json").exists()


def test_integer_coordinates_give_the_reports_of_their_floats(tmp_path):
    """Integral coords read as their floats, and ``%.17g`` writes 3.0 as 3: a
    config of int coords and one of float coords write the same bytes."""
    outs = {}
    for kind in (int, float):
        config = copy.deepcopy(_EXP41)
        for p in config["space"]["points"]:
            p["coords"] = [kind(c) for c in p["coords"]]
        path = tmp_path / f"{kind.__name__}.json"
        path.write_text(json.dumps(config))
        assert (".0]" in path.read_text()) is (kind is float)
        out = tmp_path / kind.__name__
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
            assert main(["verify", "--run", str(out / "run.json"), "--checks",
                         "el,nontriviality,gamma,mass_bound"]) == 0
        outs[kind] = {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}
    assert "verify.json" in outs[int] and "stage_2.csv" in outs[int]
    assert outs[int] == outs[float]
