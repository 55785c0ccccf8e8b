"""Benchmark of the cvp chain: ``cvp solve``, ``cvp verify`` and kernel certificates.

Run from the root of a checkout:

    python3 bench/run.py --workload tent-401 --seed 0 --seconds 24 --trace 0

The seed makes the workload's inputs (see ``workloads.py``). With
``--trace 0`` the workload's round is repeated, with tracing off, and the
end-to-end metrics are printed. The number of rounds is ``--seconds`` over
the workload's ``Plan.round_s``, rounded, and at least two: a run takes
about ``--seconds`` on the host the benchmark was tuned on, and every run
with the same arguments does the same operations, so its counts of attempted
and failed operations repeat exactly. With ``--trace 1`` the round runs four
times, whatever ``--seconds`` says (warm-up, traced, untraced, traced), and
the per-module metrics of the traced rounds are printed with the tracing
overhead; their counts must agree. Every output is checked;
a wrong one makes ``correct`` false. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The full
record (settings, wall-time samples, failures with their KKT residuals)
goes to ``.bench_out/`` in the checkout, and a traced run adds its spans there.

End-to-end times are means over a run's samples, scaled to host speed: they
are multiplied by ``PROBE_S`` over the mean time of a fixed probe (work that
does not touch cvp) run after every operation; set-up time by a probe run
during set-up. See ``HostProbe``.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

# Every round repeats the same configs, so two rounds check report digests.
MIN_ROUNDS = 2
# Config writing plus load_config is repeated, and so are the imports (this
# process's own and those of fresh interpreters); setup_s adds the medians.
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Probe time of a quiet 2-vCPU x86_64 host (Python 3.11, numpy 2.4, one BLAS
# thread); scaled times read as seconds on such a host.
PROBE_S = 0.016
# Share of the operations' time, and of set-up's, spent probing (HostProbe).
PROBE_SHARE = 0.05
SETUP_PROBE_SHARE = 1.0

END_TO_END_UNITS = {"setup_s": "s", "solve_pts_per_s": "points/s", "verify_s": "s",
                    "cert_s": "s", "peak_rss_mb": "MB"}


def _import_cvp():
    """Import cvp from this checkout's ``src`` with fixed thread settings."""
    src = ROOT / "src"
    if not (src / "cvp" / "__init__.py").is_file():
        sys.exit(f"bench: {src} holds no cvp package; run from a cvp checkout")
    # One BLAS thread keeps timings steady on a shared 2-core host, and the
    # solver runs with workers=1, so the benchmark never uses more than nproc
    # threads. The caller may still set these variables explicitly.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    os.environ.pop("CVP_THREADS", None)
    sys.path.insert(0, str(src))
    import cvp
    if Path(cvp.__file__).resolve().parent != (src / "cvp").resolve():
        sys.exit(f"bench: imported cvp from {cvp.__file__}, not from {src}")


class HostProbe:
    """Times a fixed piece of work that does not touch cvp.

    The work mixes small dense products, as in Frank-Wolfe, with an
    interpreter-bound loop, as in the covering-number loop. On a shared host
    a vCPU switches between full speed and one half to two thirds of it, in
    spells from milliseconds to seconds, and the share of slow time drifts
    between runs. Mean times average over the spells where medians jump
    between the two speeds, and dividing by the mean probe time of the same
    run removes most of the drift. Every operation is followed by one probe
    and by more for ``share`` of its time, and each kind of operation is
    scaled by the probes that followed its own operations, so a kind whose
    operations are short and bunched in a few spells of the run is scaled by
    the speed of those spells. Set-up is short and comes first, so it gets a
    probe of its own with a larger share.
    """

    def __init__(self, share: float):
        import numpy as np
        self.share = share
        self._np = np
        grid = np.arange(200.0)
        self._kernel = np.exp(-np.abs(np.subtract.outer(grid, grid)))
        self.samples: list[float] = []
        self.by_kind: dict[str, list[float]] = {}

    def _once(self) -> float:
        start = time.perf_counter()
        w = self._np.full(200, 1.0 / 200)
        for _ in range(600):
            i = int(self._np.argmin(self._kernel @ w))
            w *= 0.99
            w[i] += 0.01
        acc = 0
        for i in range(160_000):
            acc += i % 7
        return time.perf_counter() - start

    def after(self, seconds: float, kind: str) -> None:
        """Probe after an operation of ``kind``: once, then on for ``share`` of its seconds."""
        owed = self.share * seconds
        kept = self.by_kind.setdefault(kind, [])
        while True:
            kept.append(self._once())
            self.samples.append(kept[-1])
            owed -= kept[-1]
            if owed <= 0.0:
                return

    def scale(self, kind: str | None = None, first: int = 0) -> float:
        """PROBE_S over the mean time of the probes after ``kind``, or since sample ``first``."""
        samples = self.by_kind[kind] if kind else self.samples[first:]
        return PROBE_S / statistics.mean(samples)


class FailureLog:
    """Keeps the SolverFailure behind a failed ``cvp solve``.

    The CLI reduces it to exit code 1, dropping the residuals; this wraps
    ``cvp.cli.run_exhaustion`` only to see the exception pass. It times
    nothing and is installed in untraced runs too.
    """

    def __init__(self):
        import cvp.cli
        from cvp.errors import SolverFailure
        original = cvp.cli.run_exhaustion
        self.last = None

        def run_exhaustion(*args, **kwargs):
            try:
                return original(*args, **kwargs)
            except SolverFailure as exc:
                self.last = exc
                raise

        cvp.cli.run_exhaustion = run_exhaustion


class Runner:
    """Runs a workload's rounds and keeps what they measured and found wrong."""

    def __init__(self, plan, workdir: Path, configs: dict, loaded: dict, probe):
        self.plan = plan
        self.workdir = workdir
        self.configs = configs
        self.loaded = loaded
        self.probe = probe
        self.failure_log = FailureLog()
        self.tracer = None
        # job name -> [(seconds, points solved)] over rounds
        self.solves: dict[str, list[tuple[float, int]]] = {}
        # (seconds, whether cvp gave a verdict) per verify
        self.verifies: list[tuple[float, bool]] = []
        self.cert_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.failures: list[dict] = []
        self._outcomes: dict[str, object] = {}

    def _fail(self, message: str, wrong: bool = True, **detail) -> None:
        """Count a failed operation; ``wrong`` when it gave a wrong answer.

        Only the refusals known today (``Job.known_failure``, and
        ``workloads.VERIFY_REFUSAL`` on ``Verify.refusing``) fail an
        operation without making the run incorrect; every other failure is a
        wrong output.
        """
        self.failed += 1
        if wrong:
            self.problems.append(message)
        else:
            self.failures.append({"message": message, **detail})

    def _timed(self, kind: str, fn, *args):
        """(result, seconds) of fn(*args); an unexpected exception is the result."""
        start = time.perf_counter()
        try:
            if self.tracer is not None:
                result = self.tracer.call(f"bench.{kind}", fn, *args)
            else:
                result = fn(*args)
        except Exception:
            result = RuntimeError(traceback.format_exc(limit=3))
        seconds = time.perf_counter() - start
        self.probe.after(seconds, kind)
        return result, seconds

    def _cli(self, kind: str, argv: list[str]):
        import cvp.cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code, seconds = self._timed(kind, cvp.cli.main, argv)
        if isinstance(code, Exception):
            return None, seconds, str(code)
        return code, seconds, err.getvalue().strip()

    def _same_as_before(self, job: str, outcome) -> bool:
        return self._outcomes.setdefault(job, outcome) == outcome

    def solve(self, job, rnd: int) -> float:
        out = self.workdir / job.name / f"r{rnd}"
        self.failure_log.last = None
        code, seconds, err = self._cli(
            "solve", ["solve", "--config", str(self.configs[job.name]), "--out", str(out)])
        self.attempted += 1
        points = 0
        if code == 0:
            raw = (out / "run.json").read_bytes()
            digest = hashlib.sha256(raw).hexdigest()
            problem = job.check(json.loads(raw))
            if not self._same_as_before(job.name, digest):
                problem = problem or f"run.json sha256 {digest[:12]} differs between rounds"
            if problem:
                self._fail(f"solve {job.name}: {problem}")
            else:
                points = sum(job.stage_sizes)
        elif code == 1 and job.known_failure and self.failure_log.last is not None:
            exc = self.failure_log.last
            res = exc.residuals
            detail = {"job": job.name, "round": rnd, "solver_seed": job.config["seed"],
                      "block": None if exc.best_weights is None else len(exc.best_weights),
                      "residuals": None if res is None else {
                          "on_support_max": res.on_support_max,
                          "min_over_k": res.min_over_k, "s_param": res.s_param}}
            self._fail(f"solve {job.name}: {err[-400:]}", wrong=False, **detail)
            outcome = (detail["block"], detail["residuals"])
            if not self._same_as_before(job.name, outcome):
                self.problems.append(f"solve {job.name}: outcome differs between rounds")
        else:
            self._fail(f"solve {job.name} exited {code}: {err[-400:]}")
        self.solves.setdefault(job.name, []).append((seconds, points))
        return seconds

    def verify(self, rnd: int, seed: int) -> float:
        from workloads import VERIFY_REFUSAL
        spec = self.plan.verify
        job = self.plan.jobs[0].name
        run_json = self.workdir / job / f"r{rnd}" / "run.json"
        self.attempted += 1
        if not run_json.is_file():
            self._fail(f"verify {job}: no report to verify")
            return 0.0
        code, seconds, err = self._cli(
            "verify", spec.argv(str(run_json), str(run_json.parent / "verify.json"), seed))
        self.verifies.append((seconds, code == 0))
        if code == 1 and seed == spec.refusing and VERIFY_REFUSAL in err:
            self._fail(f"verify {job} seed {seed}: {err[-400:]}", wrong=False, job=job,
                       round=rnd, verify_seed=seed)
        elif code != 0:
            self._fail(f"verify {job} seed {seed} exited {code}: {err[-400:]}")
        return seconds

    def certs(self) -> float:
        total = 0.0
        for cert in self.plan.certs:
            self.attempted += 1
            result, seconds = self._timed("cert", cert.call, self.loaded[cert.job])
            total += seconds
            problem = str(result) if isinstance(result, Exception) else cert.check(result)
            if problem:
                self._fail(f"certificate {cert.name}: {problem}")
        self.cert_s.append(total)
        return total

    def round(self, rnd: int) -> float:
        """Run the workload's round of operations; returns their seconds."""
        plan = self.plan
        seconds = 0.0
        for j, job in enumerate(plan.jobs):
            seconds += self.solve(job, rnd)
            seconds += sum(self.verify(rnd, seed) for seed in plan.verify_seeds_after(j))
            seconds += sum(self.certs() for _ in range(plan.cert_repeats))
        return seconds

    def verify_seconds(self) -> float:
        """Mean seconds of a verify that gave a verdict.

        A refused verify stops part way, so its time is not a verify's time.
        A run where no verify gave a verdict is wrong and reports 0.
        """
        done = [s for s, verdict in self.verifies if verdict]
        if not done:
            self.problems.append("no verify gave a verdict")
            return 0.0
        return statistics.mean(done)

    def solve_rate(self) -> float:
        """Points solved over the seconds of every solve attempt."""
        attempts = [a for runs in self.solves.values() for a in runs]
        return sum(p for _, p in attempts) / sum(s for s, _ in attempts)


def _import_seconds(own: float, probe: HostProbe) -> list[float]:
    """Import times: this process's ``own`` and those of fresh interpreters.

    Each interpreter runs after the last has ended and times, from its first
    statement, the imports this process made before its set-up. ``probe``
    follows each import.
    """
    code = ("import time; start = time.perf_counter(); import sys; "
            f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(Path(__file__).parent)!r}]; "
            "import argparse, contextlib, hashlib, io, json, platform, resource, shutil, "
            "statistics, subprocess, traceback, cvp, workloads; "
            "print(time.perf_counter() - start)")
    samples = [own]
    probe.after(own, "setup")
    for _ in range(IMPORT_REPEATS - 1):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=60)
        samples.append(float(done.stdout))
        probe.after(samples[-1], "setup")
    return samples


def _setup(plan, workdir: Path):
    """Write every config and load each once: (paths, loaded configs, seconds)."""
    import cvp.cli
    start = time.perf_counter()
    paths, loaded = {}, {}
    for job in (*plan.jobs, *plan.cert_only):
        path = workdir / "configs" / f"{job.name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(job.config))
        paths[job.name] = path
        loaded[job.name] = cvp.cli.load_config(str(path))
    return paths, loaded, time.perf_counter() - start


def _settings(seed: int) -> dict:
    import numpy
    from cvp import SolverOptions
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "CVP_THREADS": os.environ.get("CVP_THREADS", "unset"),
        "solver_tol": SolverOptions().tol,
        "seed": seed,
        "probe_s": PROBE_S,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _measure(runner: Runner, record: dict, seconds: float, setup: dict) -> dict:
    rounds = max(MIN_ROUNDS, round(seconds / runner.plan.round_s))
    for rnd in range(rounds):
        runner.round(rnd)
    scale = {name: runner.probe.scale(kind) for name, kind in
             (("solve_pts_per_s", "solve"), ("verify_s", "verify"), ("cert_s", "cert"))}
    record["samples"] = {"rounds": rounds, "solves": runner.solves,
                         "verifies": runner.verifies, "cert_s": runner.cert_s,
                         "probe_s": runner.probe.by_kind, "scale": scale}
    wall = {
        "solve_pts_per_s": runner.solve_rate(),
        "verify_s": runner.verify_seconds(),
        "cert_s": statistics.mean(runner.cert_s),
    }
    record["unscaled"] = {"setup_s": setup["wall_s"], **wall}
    values = {name: value / scale[name] if name == "solve_pts_per_s" else value * scale[name]
              for name, value in wall.items()}
    values = {"setup_s": setup["wall_s"] * setup["scale"], **values}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {name: _metric(value, END_TO_END_UNITS[name]) for name, value in values.items()}


def _code_hash() -> str:
    """Fingerprint of the program and benchmark sources, to compare like with like."""
    digest = hashlib.sha256()
    sources = [*(ROOT / "src" / "cvp").glob("*.py"), *Path(__file__).parent.glob("*.py")]
    for path in sorted(sources):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def _check_counts(per_layer: dict, path: Path) -> list[str]:
    """Names of exact counts that differ from an earlier traced run of this seed and code.

    An extra to the in-process check of ``_trace``: it catches drift between
    processes when ``.bench_out/`` survives from one run to the next.
    """
    from tracing import EXACT
    counts = {name: per_layer[name]["value"] for name in EXACT}
    drift = []
    if path.is_file():
        before = json.loads(path.read_text())
        drift = [name for name in EXACT if before.get(name) != counts[name]]
    path.write_text(json.dumps(counts, indent=1, sort_keys=True))
    return drift


def _trace(runner: Runner, record: dict, workload: str, seed: int) -> dict:
    """Rounds warm-up, traced, untraced, traced; per-layer metrics of the traced ones.

    All four rounds do the same work: the exact counts of the two traced
    rounds must agree, and the overhead is the mean traced round minus the
    untraced round between them.
    """
    from tracing import EXACT, Tracer

    def scaled_round(rnd, tracer=None):
        first = len(runner.probe.samples)
        if tracer is not None:
            tracer.install()
        runner.tracer = tracer
        try:
            seconds = runner.round(rnd)
        finally:
            runner.tracer = None
            if tracer is not None:
                tracer.uninstall()
        return seconds * runner.probe.scale(first=first)

    runner.round(0)  # first calls, page faults and allocator growth
    tracers = (Tracer(), Tracer())
    traced = [scaled_round(1, tracers[0])]
    untraced = scaled_round(2)
    traced.append(scaled_round(3, tracers[1]))
    rounds = [tracer.per_layer() for tracer in tracers]
    runner.problems.extend(f"count {name} differs between the traced rounds: "
                           f"{rounds[0][name]['value']} then {rounds[1][name]['value']}"
                           for name in EXACT if rounds[0][name] != rounds[1][name])
    metrics = {name: _metric(statistics.mean(r[name]["value"] for r in rounds), unit["unit"])
               for name, unit in rounds[0].items()}
    overhead = statistics.mean(traced) - untraced
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    metrics["trace.overhead_share"] = _metric(overhead / untraced, "ratio")
    drift = _check_counts(metrics, OUT / f"counts-{workload}-seed{seed}-{_code_hash()}.json")
    runner.problems.extend(f"count {name} differs from the previous traced run"
                           for name in drift)
    record["hooks_missing"] = tracers[0].missing
    record["round_s"] = {"traced": traced, "untraced": untraced}
    trace_path = OUT / f"trace-{workload}-seed{seed}.json"
    trace_path.write_text(json.dumps({
        "span_fields": ["name", "start", "end", "parent", "op"],
        "rounds": [{"spans": tracer.spans, "counts": dict(tracer.counts)}
                   for tracer in tracers]}))
    record["trace_file"] = str(trace_path.relative_to(ROOT))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_cvp()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    import_s = time.perf_counter() - _PROCESS_START
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    plan = workloads.WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_probe = HostProbe(SETUP_PROBE_SHARE)
        imports = _import_seconds(import_s, setup_probe)
        setups = []
        for _ in range(SETUP_REPEATS):
            setups.append(_setup(plan, workdir))
            setup_probe.after(setups[-1][2], "setup")
        paths, loaded, _ = setups[-1]
        setup = {"import_s": imports, "config_s": [s[2] for s in setups],
                 "wall_s": statistics.median(imports) + statistics.median(s[2] for s in setups),
                 "probe_s": setup_probe.samples, "scale": setup_probe.scale("setup")}
        runner = Runner(plan, workdir, paths, loaded, HostProbe(PROBE_SHARE))
        record = {"workload": args.workload, "why": workloads.WHY[args.workload],
                  "settings": _settings(args.seed), "setup": setup}
        if args.trace:
            metrics = _trace(runner, record, args.workload, args.seed)
        else:
            metrics = _measure(runner, record, args.seconds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    fail_share = runner.failed / runner.attempted
    record.update({
        "metrics": metrics, "attempted": runner.attempted, "failed": runner.failed,
        "fail_share": fail_share, "problems": runner.problems,
        "failures": runner.failures,
    })
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))

    print(f"# {args.workload} seed {args.seed}: {record['why']}")
    print(f"# settings {json.dumps(record['settings'], sort_keys=True)}")
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{'fail_share':34s} {fail_share:>14.6g} ratio "
          f"({runner.failed} of {runner.attempted} operations)")
    for failure in runner.failures:
        print(f"# failed {json.dumps(failure, sort_keys=True)}")
    for problem in runner.problems:
        print(f"# WRONG {problem}")
    print(f"# full record in {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not runner.problems, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
