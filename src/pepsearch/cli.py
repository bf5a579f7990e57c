"""Command-line pipeline front end.

Every subcommand reads one shared config file, writes plain-text or
binary artifacts into ``--output-dir`` (default: the working directory),
and is deterministic for a given seed: artifacts carry no timestamps and
stochastic stages draw from explicitly seeded generators.  Output files
are written to a temporary name and renamed into place, so a crash never
leaves a partial artifact behind; the directory is made by the first
write, so a command that fails before it leaves nothing, and a file in
its way is a usage error before any work.

Exit codes: 0 success, 1 domain/validation error (one-line diagnostic on
stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

from . import calibrate as calibrate_mod
from . import config as config_mod
from . import limits as limits_mod
from . import reference as reference_mod
from . import simulate as simulate_mod
from .efficiency import (parse_efficiency_report, render_efficiency_report,
                         run_efficiency)
from .errors import DomainError, FormatError
from .eventio import export_spectrum, histogram, read_run, write_run


@contextmanager
def _atomic_write(path: Path):
    """Binary handle on a temp file beside ``path``, renamed onto it when
    the block succeeds and removed when it fails.  The file gets the mode
    a plain ``open()`` would give it, not mkstemp's 0600."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            umask = os.umask(0)     # reading the umask sets it; restore
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _UsageError(Exception):
    pass


def _load_config(args) -> config_mod.AnalysisConfig:
    if args.config is None:
        return config_mod.load_default_config()
    if not os.path.isfile(args.config):
        raise _UsageError(f"config path {args.config} is not a file")
    return config_mod.load_config(args.config)


def _check_output_dir(path: Path) -> None:
    """Refuse, before any work, an output directory that no write can
    make: its nearest existing ancestor must be a directory."""
    for ancestor in (path, *path.parents):
        if ancestor.exists():
            if not ancestor.is_dir():
                raise _UsageError(f"output directory {path}: {ancestor} is "
                                  "not a directory")
            return


def _run_spectrum(path, response, bins: int, lo: float, hi: float):
    """Read a run file into (header, spectrum of its records that pass
    the analysis cut); ``response=None`` bins raw channels.  The records
    are dropped on return, so one run's bytes are held at a time."""
    header, events = read_run(path)
    return header, histogram(events, response, bins, lo, hi,
                             float(header.live_time_s), (header.run_id,))


def cmd_simulate(args, cfg, out: Path) -> int:
    campaign = simulate_mod.simulate_campaign(
        cfg.source, cfg.injection, cfg.response, cfg.limit.efficiency,
        cfg.run_on, cfg.run_off, cfg.constants, cfg.roi, args.seed)
    for (header, events, tallies) in campaign:
        run_path = out / f"{header.run_id}.run"
        with _atomic_write(run_path) as fh:
            write_run(header, events, fh)
        del events      # free this run before the next is generated
        report = simulate_mod.render_generation_report(header, tallies,
                                                       seed=args.seed)
        with _atomic_write(out / f"{header.run_id}_generation.txt") as fh:
            fh.write(report.encode())
        print(f"wrote {run_path} ({header.event_count} events)")
    return 0


def cmd_efficiency(args, cfg, out: Path) -> int:
    samples = args.samples if args.samples is not None \
        else cfg.efficiency.samples
    result = run_efficiency(cfg.geometry, cfg.constants, samples=samples,
                            seed=args.seed,
                            batch_size=cfg.efficiency.batch_size,
                            workers=args.workers)
    report = render_efficiency_report(result)
    with _atomic_write(out / "efficiency.txt") as fh:
        fh.write(report.encode())
    print(report, end="")
    return 0


def cmd_calibrate(args, cfg, out: Path) -> int:
    channels = cfg.response.channel_count
    _, raw = _run_spectrum(args.input, None, channels, -0.5, channels - 0.5)
    anchors = [cfg.lines[label] for label in cfg.calibration.anchors]
    checks = [cfg.lines[label] for label in cfg.calibration.crosschecks]
    result, fits = calibrate_mod.calibrate_spectrum(
        raw, anchors, checks,
        expected_fwhm_ev=cfg.response.fwhm_at_reference_ev,
        approx_gain_ev_per_channel=cfg.response.gain_ev_per_channel,
        min_prominence=cfg.calibration.min_prominence,
        window_halfwidth_sigmas=cfg.calibration.window_halfwidth_sigmas,
        residual_threshold_ev=cfg.calibration.residual_threshold_ev)
    section = calibrate_mod.response_section_text(
        result, channel_count=channels,
        reference_energy_ev=cfg.response.reference_energy_ev)
    with _atomic_write(out / "calibration.txt") as fh:
        fh.write(calibrate_mod.render_calibration_report(
            result, fits, section).encode())
    with _atomic_write(out / "response.cfg") as fh:
        fh.write(section.encode())
    print(f"gain {result.gain_ev_per_channel:.6f} eV/ch, offset "
          f"{result.offset_ev:+.3f} eV, fwhm@8keV "
          f"{result.resolution_fwhm_at_8kev:.2f} eV")
    return 0


def analyze_runs(cfg, on_path: Path, off_path: Path, response,
                 error_mode: str):
    """Shared by cmd_analyze and tests: files in, AnalysisRecord out."""
    binning = (cfg.binning.bins, cfg.binning.low_ev, cfg.binning.high_ev)
    on_header, on_spec = _run_spectrum(on_path, response, *binning)
    off_header, off_spec = _run_spectrum(off_path, response, *binning)
    if not on_header.current_on or off_header.current_on:
        raise DomainError("analyze expects --on current-on and --off "
                          "current-off run files")
    n_off_raw = limits_mod.count_roi(off_spec, cfg.roi)
    sub = limits_mod.subtract(
        limits_mod.count_roi(on_spec, cfg.roi), n_off_raw,
        float(on_header.live_time_s), float(off_header.live_time_s),
        error_mode)
    record = limits_mod.AnalysisRecord(
        subtraction=sub, n_off_raw=n_off_raw,
        on_run=on_header.to_meta(),
        off_live_time_s=float(off_header.live_time_s), roi=cfg.roi)
    return record, on_spec, off_spec


def cmd_analyze(args, cfg, out: Path) -> int:
    response = cfg.response
    if args.calibration:
        response = config_mod.load_response_file(args.calibration)
    record, on_spec, off_spec = analyze_runs(
        cfg, Path(args.on), Path(args.off), response, cfg.limit.error_mode)
    for name, spec in (("spectrum_on.txt", on_spec),
                       ("spectrum_off.txt", off_spec)):
        with _atomic_write(out / name) as fh:
            export_spectrum(spec, fh)
    with _atomic_write(out / "analysis.txt") as fh:
        fh.write(limits_mod.render_analysis_report(record).encode())
    sub = record.subtraction
    print(f"N_on {sub.n_on}, N_off_norm {sub.n_off_normalized}, "
          f"delta {sub.delta}")
    return 0


def cmd_limit(args, cfg, out: Path) -> int:
    record = limits_mod.parse_analysis_report(
        config_mod.read_text(args.analysis))
    efficiency = cfg.limit.efficiency
    if args.efficiency_file:
        efficiency = parse_efficiency_report(
            config_mod.read_text(args.efficiency_file)).efficiency
    result = limits_mod.compute_limit(
        record.subtraction, record.on_run, cfg.constants, efficiency,
        n_sigma=cfg.limit.n_sigma,
        bound_convention=cfg.limit.bound_convention)
    report = limits_mod.render_limit_report(
        result, n_off_raw=record.n_off_raw,
        off_live_time_s=record.off_live_time_s,
        on_live_time_s=record.on_run.live_time_s)
    with _atomic_write(out / "limit.txt") as fh:
        fh.write(report.encode())
    print(report, end="")
    return 0


def cmd_project(args, cfg, out: Path) -> int:
    if args.analysis:
        record = limits_mod.parse_analysis_report(
            config_mod.read_text(args.analysis))
        sigma = record.subtraction.delta.uncertainty
        live = record.on_run.live_time_s
        current = record.on_run.current_a
    else:
        ref = reference_mod.PUBLISHED_REFERENCE
        sigma = ref["published_delta_uncertainty"]
        live = ref["on_live_time_s"]
        current = ref["current_a"]
    proj = limits_mod.project_sensitivity(
        args.target, sigma, live, cfg.constants, cfg.limit.efficiency,
        current, n_sigma=cfg.limit.n_sigma)
    report = limits_mod.render_projection_report(proj)
    with _atomic_write(out / "projection.txt") as fh:
        fh.write(report.encode())
    print(report, end="")
    return 0


def cmd_reproduce(args, cfg, out: Path) -> int:
    result = reference_mod.reproduce_reference(cfg)
    with _atomic_write(out / "reproduction.txt") as fh:
        fh.write(result.report.encode())
    print(result.report, end="")
    if not result.passed:
        print(f"error: computed bound deviates from the published value "
              f"by {100.0 * result.deviation:.2f}%", file=sys.stderr)
        return 1
    return 0


def non_negative_int(text: str) -> int:
    """argparse type of --seed, as numpy takes seeds."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="FILE",
                        help="analysis config file (default: bundled)")
    shared.add_argument("--output-dir", metavar="DIR", type=Path,
                        default=Path("."),
                        help="artifact directory, made at the first write "
                             "(default: the working directory)")

    parser = argparse.ArgumentParser(
        prog="pepsearch",
        description="Simulation and counting analysis for "
                    "conduction-electron exclusion-principle tests")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", parents=[shared],
                       help="generate a current-on/current-off campaign")
    p.add_argument("--seed", type=non_negative_int, required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("efficiency", parents=[shared],
                       help="Monte Carlo detection efficiency")
    p.add_argument("--seed", type=non_negative_int, required=True)
    p.add_argument("--samples", type=int)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for the Monte Carlo (default 1)")
    p.set_defaults(func=cmd_efficiency)

    p = sub.add_parser("calibrate", parents=[shared],
                       help="energy calibration from a run file")
    p.add_argument("--input", required=True, metavar="RUNFILE")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("analyze", parents=[shared],
                       help="ROI counting and on/off subtraction")
    p.add_argument("--on", required=True, metavar="RUNFILE")
    p.add_argument("--off", required=True, metavar="RUNFILE")
    p.add_argument("--calibration", metavar="RESPONSEFILE",
                   help="use a measured [response] instead of the config")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("limit", parents=[shared],
                       help="upper bound from an analysis artifact")
    p.add_argument("--analysis", required=True, metavar="FILE")
    p.add_argument("--efficiency-file", metavar="FILE",
                   help="take the efficiency from a Monte Carlo artifact")
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("project", parents=[shared],
                       help="live time needed to reach a target bound")
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--analysis", metavar="FILE",
                   help="project from a measured analysis instead of the "
                        "published reference")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("reproduce-paper", parents=[shared],
                       help="audit the published reference analysis")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output_dir(args.output_dir)
        return args.func(args, _load_config(args), args.output_dir)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy names the allocation that failed; a bare MemoryError is empty
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
