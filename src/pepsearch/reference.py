"""Audit chain over the published counting result.

Feeds the published inputs (on-run and raw off-run ROI counts, live
times, current, constants) through the same normalize / subtract / limit
code used for simulated data, and checks the resulting bound against the
published value.  The arithmetic is pure, so the whole chain runs in
well under a second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import AnalysisConfig
from .core import RunMeta
from .errors import DomainError
from .limits import (BOUND_PAPER, ERROR_MODE_PAPER, LimitResult, Measurement,
                     compute_limit, normalize_livetime, render_limit_report,
                     subtract)

REPRODUCTION_TOLERANCE = 0.02

# the operating point behind the published bound
PUBLISHED_CONSTANTS = {
    "electron_charge_c": 1.602e-19,
    "electron_mean_free_path_cm": 3.9e-6,
    "strip_length_cm": 10.0,
    "capture_fraction": 0.1,
}
PUBLISHED_REFERENCE = {
    "n_on_counts": 2222.0,
    "n_off_raw_counts": 1796.0,
    "on_live_time_s": 34.0 * 86400.0,
    "off_live_time_s": 28.0 * 86400.0,
    "current_a": 100.0,
    "efficiency": 0.01,
    "n_sigma": 3.0,
    "published_limit": 4.2e-29,
    "published_delta": 41.0,
    "published_delta_uncertainty": 66.0,
}


def check_reference_constants(cfg: AnalysisConfig) -> None:
    """Raise with an explicit diff when the configured constants drift
    from the published operating point."""
    diffs = []
    for name, want in PUBLISHED_CONSTANTS.items():
        got = getattr(cfg.constants, name)
        if not math.isclose(got, want, rel_tol=1e-9):
            diffs.append(f"constants.{name}: expected {want!r}, "
                         f"configured {got!r}")
    if diffs:
        raise DomainError(
            "configuration deviates from the published operating point:\n  "
            + "\n  ".join(diffs))


@dataclass(frozen=True)
class ReproductionResult:
    limit: LimitResult
    deviation: float
    passed: bool
    report: str


def reproduce_reference(cfg: AnalysisConfig) -> ReproductionResult:
    """Run the published inputs through the counting analysis."""
    check_reference_constants(cfg)
    ref = PUBLISHED_REFERENCE
    n_on = Measurement(ref["n_on_counts"], math.sqrt(ref["n_on_counts"]))
    n_off_raw = Measurement(ref["n_off_raw_counts"],
                            math.sqrt(ref["n_off_raw_counts"]))
    on_s, off_s = ref["on_live_time_s"], ref["off_live_time_s"]
    off_norm = normalize_livetime(n_off_raw, off_s, on_s, ERROR_MODE_PAPER)
    sub = subtract(n_on, off_norm, normalization_factor=on_s / off_s,
                   error_mode=ERROR_MODE_PAPER)
    run = RunMeta(run_id="published-on", current_a=ref["current_a"],
                  live_time_s=on_s, current_on=True)
    limit = compute_limit(sub, run, cfg.constants, ref["efficiency"],
                          n_sigma=ref["n_sigma"], bound_convention=BOUND_PAPER)
    published = ref["published_limit"]
    deviation = abs(limit.beta2_over_2_limit - published) / published
    passed = deviation <= REPRODUCTION_TOLERANCE
    lines = [
        "published-result reproduction",
        "=============================",
        "",
        render_limit_report(limit, n_off_raw=n_off_raw,
                            off_live_time_s=off_s,
                            on_live_time_s=on_s).rstrip(),
        "",
        f"published bound  = {published:.1e}",
        f"published delta  = {ref['published_delta']:.0f} "
        f"+/- {ref['published_delta_uncertainty']:.0f}",
        f"deviation        = {100.0 * deviation:.2f}%   "
        f"(tolerance {100.0 * REPRODUCTION_TOLERANCE:.0f}%)",
        f"verdict          = {'PASS' if passed else 'FAIL'}",
    ]
    return ReproductionResult(limit=limit, deviation=deviation,
                              passed=passed, report="\n".join(lines) + "\n")
