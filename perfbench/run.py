"""Benchmark of the pepsearch on/off search, end to end and per layer.

    python3 perfbench/run.py --workload campaign|replay|efficiency-mc|all
                             [--seed 1] [--seconds 20] [--trace 0|1]

Run it from the root of a checkout; the program is taken from that
checkout's ``src/``.  With ``--trace 0`` ops run untraced until
``--seconds`` have passed (and at least the workload's minimum number of
ops has run); the last line of standard output is a JSON object with the
end-to-end metrics.  With ``--trace 1`` one untraced and one traced op
run and the JSON carries the per-layer metrics.  ``--workload all`` runs
every workload untraced and traced, each in its own process.  The full
record, and the spans of a traced run, are written to
``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import spans as spanlib
from summary import Tally, describe, differing
from workloads import (MIB, ROOT, SRC, STAGES, WORK, WORKLOADS, SetupError,
                       artifact_stage)

END_TO_END_UNITS = {"wall_s": "s", "events_per_s": "1/s",
                    "peak_rss_mb": "MiB", "setup_s": "s"}


def provenance(seed: int) -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "not installed"

    mem_total = "unknown"
    meminfo = Path("/proc/meminfo")
    if meminfo.is_file():
        for line in meminfo.read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem_total = line.split(":", 1)[1].strip()
    commit = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = "unavailable: git failed"
    source = hashlib.sha256()
    package = SRC / "pepsearch"
    for path in sorted(package.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg"):
            source.update(str(path.relative_to(package)).encode() + b"\0")
            source.update(path.read_bytes())
    config = package / "data" / "default.cfg"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total": mem_total,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "config_sha256": hashlib.sha256(config.read_bytes()).hexdigest(),
        "seed": seed,
        "page_cache": "warm: run files are read back by the run that wrote "
                      "them; caches are never dropped and no system setting "
                      "is changed",
    }


def layer_metrics(spans, procs, import_s: float,
                  overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced op; a layer not run reads 0."""
    def counts(name: str, key: str) -> list:
        return [s.counts.get(key, 0) for s in spans if s.name == name]

    def rate(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {"cli.import_s": (import_s, "s")}
    for stage in STAGES:
        p = procs.get(stage)
        m[f"cli.{stage}.wall_s"] = (p.wall_s if p else 0.0, "s")
        m[f"cli.{stage}.cpu_s"] = (p.cpu_s if p else 0.0, "s")
        m[f"cli.{stage}.peak_rss_mb"] = (p.peak_rss_mb if p else 0.0, "MiB")
    m["config.load_s"] = (spanlib.layer_busy_s(spans, "config"), "s")

    run_s = spanlib.layer_busy_s(spans, "simulate")
    generated = sum(counts("simulate.simulate_run", "events"))
    m["simulate.run_s"] = (run_s, "s")
    m["simulate.events"] = (generated, "count")
    m["simulate.events_per_s"] = (rate(generated, run_s), "1/s")
    m["simulate.record_mb"] = (generated * 80 / MIB, "MiB")

    for verb, fn in (("write", "write_run"), ("read", "read_run")):
        secs = spanlib.total_s(spans, f"eventio.{fn}")
        mb = sum(counts(f"eventio.{fn}", "bytes")) / MIB
        m[f"eventio.{verb}_s"] = (secs, "s")
        m[f"eventio.{verb}_mb"] = (mb, "MiB")
        m[f"eventio.{verb}_mb_per_s"] = (rate(mb, secs), "MiB/s")
    m["eventio.select_s"] = (spanlib.total_s(spans, "eventio.select_events"),
                             "s")
    m["eventio.select_kept_ratio"] = (
        rate(sum(counts("eventio.select_events", "events_out")),
             sum(counts("eventio.select_events", "events_in"))), "ratio")
    m["eventio.histogram_s"] = (spanlib.total_s(spans, "eventio.histogram"),
                                "s")
    m["eventio.histogram_underflow"] = (
        sum(counts("eventio.histogram", "underflow")), "count")
    m["eventio.histogram_overflow"] = (
        sum(counts("eventio.histogram", "overflow")), "count")
    m["eventio.export_s"] = (spanlib.total_s(spans, "eventio.export_spectrum"),
                             "s")
    roi_on = sum(counts("limits.subtract", "value"))
    roi_off = sum(counts("limits.normalize_livetime", "value"))
    m["eventio.roi_yield"] = (
        rate(roi_on + roi_off, sum(counts("eventio.read_run", "events"))),
        "ratio")

    m["calibrate.spectrum_s"] = (
        spanlib.total_s(spans, "calibrate.calibrate_spectrum"), "s")
    m["calibrate.peaks_fitted"] = (
        sum(counts("calibrate.calibrate_spectrum", "peaks_fitted")), "count")
    m["limits.count_roi_s"] = (spanlib.total_s(spans, "limits.count_roi"), "s")
    m["limits.compute_limit_s"] = (
        spanlib.total_s(spans, "limits.compute_limit"), "s")
    m["limits.roi_counts_on"] = (roi_on, "count")
    m["limits.roi_counts_off"] = (roi_off, "count")

    mc_s = spanlib.total_s(spans, "efficiency.run_efficiency")
    samples = sum(counts("efficiency.run_efficiency", "samples"))
    m["efficiency.run_s"] = (mc_s, "s")
    m["efficiency.samples_per_s"] = (rate(samples, mc_s), "1/s")
    m["efficiency.batches"] = (
        sum(1 for s in spans if s.name == "efficiency.sample_emission"),
        "count")

    for layer, secs in spanlib.layer_self_s(spans).items():
        if layer in spanlib.LAYERS:
            m[f"{layer}.self_s"] = (secs, "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "pepsearch" / "cli.py").is_file():
        raise SetupError(f"no program to measure: {SRC / 'pepsearch'} is "
                         "missing; run from the root of a pepsearch checkout")
    sys.path.insert(0, str(SRC))
    shutil.rmtree(WORK / "tmp", ignore_errors=True)
    workload = WORKLOADS[name](seed)
    tally = Tally()
    ops = []
    try:
        setup = workload.setup()
        plan = [False, True] if trace else None
        started = time.perf_counter()
        while True:
            if plan is not None:
                if len(ops) == len(plan):
                    break
                traced = plan[len(ops)]
            else:
                if (len(ops) >= workload.min_ops
                        and time.perf_counter() - started >= seconds):
                    break
                traced = False
            op = f"{'traced' if traced else 'op'}{len(ops)}"
            result = workload.op(op, traced)
            if ops:
                for artifact in differing(ops[0][1].hashes, result.hashes):
                    result.problems.setdefault(
                        artifact_stage(artifact), []).append(
                        f"{artifact} differs from {ops[0][0]} of the same "
                        "seed")
            for stage, problems in result.problems.items():
                tally.record(stage, problems)
            ops.append((op, result))
    finally:
        workload.teardown()
        shutil.rmtree(WORK / "tmp", ignore_errors=True)

    untraced = [r for op, r in ops if not op.startswith("traced")]
    e2e = {
        "wall_s": describe([r.wall_s for r in untraced]),
        "events_per_s": describe([r.events / r.wall_s for r in untraced]),
        "peak_rss_mb": describe([r.peak_rss_mb for r in untraced]),
        "setup_s": describe(setup),
    }
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "provenance": provenance(seed),
              "attempted": tally.attempted, "failed": tally.failed,
              "failed_ratio": tally.failed_ratio, "problems": tally.problems,
              "ops": [{"op": op, "wall_s": r.wall_s, "events": r.events,
                       "peak_rss_mb": r.peak_rss_mb, "hashes": r.hashes}
                      for op, r in ops],
              "end_to_end": {k: dict(v, unit=END_TO_END_UNITS[k])
                             for k, v in e2e.items()}}

    print(f"workload {name}  seed {seed}  ops {len(ops)}  stages attempted "
          f"{tally.attempted}, failed {tally.failed} (failed_ratio "
          f"{tally.failed_ratio:.3f})")
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    print("end-to-end, untraced (median [q1, q3] n):")
    for key, d in e2e.items():
        print(f"  {key:<14} {d['median']:.6g} {END_TO_END_UNITS[key]}  "
              f"[{d['q1']:.6g}, {d['q3']:.6g}] n={d['n']}")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        traced = ops[1][1]
        metrics = layer_metrics(
            traced.spans, {**workload.setup_procs, **ops[0][1].procs},
            describe(workload.import_s)["median"],
            traced.wall_s - ops[0][1].wall_s)
        record["per_layer"] = {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()}
        (results / f"{stem}-spans.json").write_text(
            json.dumps(spanlib.dump(traced.spans)))
        print(f"per-layer, traced op ({len(traced.spans)} spans; cli.<stage> "
              "from the untraced op; 0 = layer not run on this workload):")
        for key, (value, unit) in metrics.items():
            print(f"  {key:<28} {value:.6g} {unit}")
        final = record["per_layer"]
    else:
        final = {k: {"value": d["median"], "unit": END_TO_END_UNITS[k]}
                 for k, d in e2e.items()}
    print("provenance: " + json.dumps(record["provenance"]))
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": final}))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                return proc.returncode
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            summary["correct"] = summary["correct"] and last["correct"]
            summary["attempted"] += last["attempted"]
            summary["failed"] += last["failed"]
            summary["metrics"].update(
                {f"{name}/{key}": value
                 for key, value in last["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its children and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        return run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
