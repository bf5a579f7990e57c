"""The three workloads and the ops they time.

campaign       the full CLI chain on the bundled config, one fresh process
               per stage: simulate -> efficiency -> calibrate -> analyze
               -> limit.  One op is one chain; the only workload that
               writes run files.
replay         re-analysis of a stored campaign in this long-lived process.
               Set-up writes the run files once with ``pepsearch
               simulate``; each op runs calibrate -> analyze -> limit on
               them through ``pepsearch.cli.main``, with the configured
               efficiency.
efficiency-mc  ``pepsearch efficiency --samples 10000000 --workers 1`` in a
               fresh process; no event I/O.

Every op gets a fresh directory under ``.perfbench/tmp`` that is removed
when the op ends.  Ops are closed-loop: one at a time, one worker.

``pepsearch`` and ``checks``, which imports it, are imported inside
functions: ``replay`` times the first import of ``pepsearch.cli`` in
this process.
"""

from __future__ import annotations

import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from spans import Span, Tracer, adopt

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
STAGE_SCRIPT = Path(__file__).resolve().parent / "stage.py"

STAGES = ("simulate", "efficiency", "calibrate", "analyze", "limit")
CHAIN = STAGES[2:]      # the stages that read the run files
MC_SAMPLES = 10_000_000
MIB = float(1 << 20)
IMPORT_PROBE = ("import time; t = time.perf_counter(); import pepsearch.cli; "
                "print(time.perf_counter() - t)")
SETUP_REPEATS = 5


class SetupError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Proc:
    """One finished child process, as ``wait4`` reported it."""

    code: int
    start_ns: int
    end_ns: int
    cpu_s: float
    peak_rss_mb: float
    stderr: str

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


@dataclass
class OpResult:
    wall_s: float
    peak_rss_mb: float
    events: int                     # generated, read or MC photons
    problems: dict[str, list[str]]  # stage -> failed checks
    hashes: dict[str, str] = field(default_factory=dict)
    procs: dict[str, Proc] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(argv: list[str], cwd: Path, log_stem: str) -> Proc:
    """Run a child to completion; wall, CPU and peak RSS from ``wait4``."""
    out_path = cwd / f"{log_stem}.out.log"
    err_path = cwd / f"{log_stem}.err.log"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter_ns()
        child = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out,
                                 stderr=err)
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        end = time.perf_counter_ns()
    child.returncode = os.waitstatus_to_exitcode(status)
    return Proc(code=child.returncode, start_ns=start, end_ns=end,
                cpu_s=usage.ru_utime + usage.ru_stime,
                peak_rss_mb=usage.ru_maxrss * 1024 / MIB,
                stderr=err_path.read_text(errors="replace").strip())


def exit_problems(proc: Proc) -> list[str]:
    if proc.code == 0:
        return []
    last = proc.stderr.splitlines()[-1] if proc.stderr else ""
    return [f"exit status {proc.code}: {last}"]


def cli_argv(args: list[str], traced: bool, spans_file: Path,
             op: str) -> list[str]:
    if traced:
        return [sys.executable, str(STAGE_SCRIPT), str(spans_file), op,
                *args]
    return [sys.executable, "-m", "pepsearch.cli", *args]


def adopt_stage(spans: list[Span], proc: Proc, spans_file: Path,
                op: str) -> None:
    """A parent-side ``cli.process`` span with the child's spans below."""
    parent = Span(len(spans), "cli.process", proc.start_ns, proc.end_ns,
                  None, op)
    spans.append(parent)
    if spans_file.is_file():
        adopt(spans, json.loads(spans_file.read_text()), parent.id, op)


def fresh_op_dir(name: str) -> Path:
    path = WORK / "tmp" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def import_probes(repeats: int = SETUP_REPEATS) -> tuple[list[float],
                                                         list[float]]:
    """Fresh interpreters importing ``pepsearch.cli``.

    Returns the wall time of each process (interpreter start included)
    and the import time each one measured for itself.
    """
    walls, imports = [], []
    work = fresh_op_dir("import-probe")
    try:
        for i in range(repeats):
            proc = spawn([sys.executable, "-c", IMPORT_PROBE], work,
                         f"probe{i}")
            if proc.code != 0:
                raise SetupError(f"pepsearch.cli does not import: "
                                 f"{proc.stderr.splitlines()[-1:]}")
            walls.append(proc.wall_s)
            imports.append(float((work / f"probe{i}.out.log").read_text()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return walls, imports


def _efficiency_problems(path: Path, cfg) -> tuple[list[str], object]:
    from checks import check_efficiency
    from pepsearch.efficiency import parse_efficiency_report
    from pepsearch.errors import DomainError
    if not path.is_file():
        return [f"{path.name} missing"], None
    try:
        result = parse_efficiency_report(path.read_text())
    except (DomainError, ValueError) as exc:
        return [f"{path.name} unreadable: {exc}"], None
    return check_efficiency(result, cfg), result


class Workload:
    """Set-up: fresh interpreters importing ``pepsearch.cli``."""

    name = ""
    min_ops = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.import_s: list[float] = []
        self.cfg = None
        self.setup_procs: dict[str, Proc] = {}

    def setup(self) -> list[float]:
        """Returns the set-up time samples."""
        walls, self.import_s = import_probes()
        from pepsearch import config
        self.cfg = config.load_default_config()
        return walls

    def teardown(self) -> None:
        pass

    def op(self, op: str, traced: bool) -> OpResult:
        raise NotImplementedError


def stage_args(stage: str, runs: Path, out: Path, cfg, seed: int,
               efficiency_file: bool = True) -> list[str]:
    """CLI arguments of one chain stage.

    Run files are in ``runs``, artifacts go to ``out``.  Without
    ``efficiency_file``, ``limit`` uses the configured efficiency.
    """
    on = str(runs / f"{cfg.run_on.run_id}.run")
    off = str(runs / f"{cfg.run_off.run_id}.run")
    d = str(out)
    return {
        "simulate": ["simulate", "--seed", str(seed), "--output-dir", d],
        "efficiency": ["efficiency", "--seed", str(seed), "--output-dir", d],
        "calibrate": ["calibrate", "--input", on, "--output-dir", d],
        "analyze": ["analyze", "--on", on, "--off", off, "--calibration",
                    str(out / "response.cfg"), "--output-dir", d],
        "limit": ["limit", "--analysis", str(out / "analysis.txt"),
                  *(["--efficiency-file", str(out / "efficiency.txt")]
                    if efficiency_file else []),
                  "--output-dir", d],
    }[stage]


def campaign_events(directory: Path, cfg) -> tuple[int, list[str]]:
    """Events generated, summed from the runs' generation reports."""
    from checks import generation_total
    events, problems = 0, []
    for run in (cfg.run_on, cfg.run_off):
        if not (directory / f"{run.run_id}.run").is_file():
            problems.append(f"{run.run_id}.run missing")
        report = directory / f"{run.run_id}_generation.txt"
        total = (generation_total(report.read_text()) if report.is_file()
                 else None)
        if total is None:
            problems.append(f"{report.name} has no event total")
        else:
            events += total
    return events, problems


def chain_problems(out: Path, cfg, efficiency) -> dict[str, list[str]]:
    """Checks of the calibrate, analyze and limit artifacts in ``out``.

    ``efficiency`` is the one ``limit`` was given, or None if it had
    none to use.  The run files themselves are validated by the
    program's own reads in ``calibrate`` and ``analyze``.
    """
    from pepsearch import config, limits
    from pepsearch.errors import ConfigError, DomainError
    import checks
    problems = {stage: [] for stage in CHAIN}
    try:
        response = config.load_response_file(out / "response.cfg")
        problems["calibrate"] += checks.check_calibration(response, cfg)
    except (ConfigError, DomainError) as exc:
        problems["calibrate"].append(str(exc))

    record = None
    try:
        record = limits.parse_analysis_report(
            (out / "analysis.txt").read_text())
    except (OSError, DomainError) as exc:
        problems["analyze"].append(str(exc))
    for name in ("spectrum_on.txt", "spectrum_off.txt"):
        if not (out / name).is_file():
            problems["analyze"].append(f"{name} missing")

    if record is None or efficiency is None:
        problems["limit"].append("inputs missing")
        return problems
    try:
        expected = limits.compute_limit(
            record.subtraction, record.on_run, cfg.constants, efficiency,
            n_sigma=cfg.limit.n_sigma,
            bound_convention=cfg.limit.bound_convention)
    except DomainError as exc:
        problems["limit"].append(f"no limit from its inputs: {exc}")
        return problems
    text = limits.render_limit_report(
        expected, n_off_raw=record.n_off_raw,
        off_live_time_s=record.off_live_time_s,
        on_live_time_s=record.on_run.live_time_s)
    path = out / "limit.txt"
    if not path.is_file() or path.read_text() != text:
        problems["limit"].append("limit.txt differs from the limit "
                                 "recomputed from its inputs")
    problems["limit"] += checks.check_bound(expected, cfg)
    return problems


class Campaign(Workload):
    name = "campaign"

    def op(self, op: str, traced: bool) -> OpResult:
        import checks
        out = fresh_op_dir(f"campaign-{op}")
        try:
            procs = {}
            for stage in STAGES:
                args = stage_args(stage, out, out, self.cfg, self.seed)
                procs[stage] = spawn(
                    cli_argv(args, traced, out / f"{stage}.spans.log", op),
                    out, stage)
            spans: list[Span] = []
            if traced:
                for stage in STAGES:
                    adopt_stage(spans, procs[stage],
                                out / f"{stage}.spans.log", op)
            wall = (procs["limit"].end_ns - procs["simulate"].start_ns) / 1e9
            events, problems = self.check(out, procs)
            return OpResult(wall_s=wall,
                            peak_rss_mb=max(p.peak_rss_mb
                                            for p in procs.values()),
                            events=events, problems=problems,
                            hashes=checks.hash_artifacts(out), procs=procs,
                            spans=spans)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def check(self, out: Path, procs: dict[str, Proc]):
        problems = {stage: exit_problems(procs[stage]) for stage in STAGES}
        events, bad = campaign_events(out, self.cfg)
        problems["simulate"] += bad
        bad, eff = _efficiency_problems(out / "efficiency.txt", self.cfg)
        problems["efficiency"] += bad
        for stage, bad in chain_problems(
                out, self.cfg, eff.efficiency if eff else None).items():
            problems[stage] += bad
        return events, problems


# the stage whose output an artifact is, for the repeat check
def artifact_stage(name: str) -> str:
    if name.endswith(".run") or name.endswith("_generation.txt"):
        return "simulate"
    if name == "efficiency.txt":
        return "efficiency"
    if name in ("calibration.txt", "response.cfg"):
        return "calibrate"
    if name == "limit.txt":
        return "limit"
    return "analyze"


class EfficiencyMC(Workload):
    name = "efficiency-mc"
    min_ops = 4     # four 8-s ops span about as long as one campaign op

    def op(self, op: str, traced: bool) -> OpResult:
        import checks
        out = fresh_op_dir(f"efficiency-{op}")
        try:
            args = ["efficiency", "--seed", str(self.seed), "--samples",
                    str(MC_SAMPLES), "--workers", "1", "--output-dir",
                    str(out)]
            spans_file = out / "efficiency.spans.log"
            proc = spawn(cli_argv(args, traced, spans_file, op), out,
                         "efficiency")
            spans: list[Span] = []
            if traced:
                adopt_stage(spans, proc, spans_file, op)
            bad, result = _efficiency_problems(out / "efficiency.txt",
                                               self.cfg)
            return OpResult(
                wall_s=proc.wall_s, peak_rss_mb=proc.peak_rss_mb,
                events=result.samples if result is not None else 0,
                problems={"efficiency": exit_problems(proc) + bad},
                hashes=checks.hash_artifacts(out),
                procs={"efficiency": proc}, spans=spans)
        finally:
            shutil.rmtree(out, ignore_errors=True)


def call_cli(args: list[str]) -> Proc:
    """One CLI stage in this process, through ``pepsearch.cli.main``.

    The call goes through the module attribute, so a tracer that rebinds
    it sees it.  Standard output is discarded and standard error kept;
    an exception the CLI does not handle counts as exit status 1, as it
    would in a fresh process.  ``cpu_s`` and ``peak_rss_mb`` are this
    process's.
    """
    import pepsearch.cli
    err = io.StringIO()
    cpu = time.process_time()
    start = time.perf_counter_ns()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = pepsearch.cli.main(args)
        except SystemExit as exc:   # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a failed stage is counted, not fatal
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    end = time.perf_counter_ns()
    return Proc(code=code, start_ns=start, end_ns=end,
                cpu_s=time.process_time() - cpu,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                * 1024 / MIB,
                stderr=err.getvalue().strip())


class Replay(Workload):
    """Set-up: import ``pepsearch.cli`` here, then write the campaign."""

    name = "replay"
    min_ops = 2

    def __init__(self, seed: int):
        super().__init__(seed)
        self.store = WORK / "tmp" / "replay-store"
        self.events = 0     # in the stored campaign

    def setup(self) -> list[float]:
        start = time.perf_counter()
        import pepsearch.cli  # noqa: F401  (first import in this process)
        self.import_s = [time.perf_counter() - start]
        from pepsearch import config
        self.cfg = config.load_default_config()
        self.store = fresh_op_dir("replay-store")
        proc = spawn([sys.executable, "-m", "pepsearch.cli",
                      *stage_args("simulate", self.store, self.store,
                                  self.cfg, self.seed)],
                     self.store, "simulate")
        self.events, bad = campaign_events(self.store, self.cfg)
        if proc.code != 0 or bad:
            raise SetupError(f"simulate failed: {exit_problems(proc) + bad}")
        self.setup_procs = {"simulate": proc}
        return [time.perf_counter() - start]

    def teardown(self) -> None:
        shutil.rmtree(self.store, ignore_errors=True)

    def op(self, op: str, traced: bool) -> OpResult:
        import checks
        out = fresh_op_dir(f"replay-{op}")
        tracer = Tracer() if traced else None
        try:
            if tracer is not None:
                tracer.op = op
                tracer.install()
            try:
                with (tracer.span("perfbench.replay") if tracer
                      else nullcontext()):
                    calls = {stage: call_cli(stage_args(
                        stage, self.store, out, self.cfg, self.seed,
                        efficiency_file=False)) for stage in CHAIN}
            finally:
                if tracer is not None:
                    tracer.uninstall()
            problems = {stage: exit_problems(calls[stage])
                        for stage in CHAIN}
            for stage, bad in chain_problems(
                    out, self.cfg, self.cfg.limit.efficiency).items():
                problems[stage] += bad
            return OpResult(
                wall_s=(calls["limit"].end_ns
                        - calls["calibrate"].start_ns) / 1e9,
                peak_rss_mb=calls["limit"].peak_rss_mb, events=self.events,
                problems=problems, hashes=checks.hash_artifacts(out),
                spans=tracer.spans if tracer else [])
        finally:
            shutil.rmtree(out, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Campaign, Replay, EfficiencyMC)}
