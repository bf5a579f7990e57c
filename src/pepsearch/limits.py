"""ROI counting, live-time normalization, subtraction and the upper limit.

The chain implemented here is the counting analysis of a conduction-current
x-ray search: count the region of interest in the current-on and current-off
spectra, bring both to the same live time, subtract, and turn the residual
into a bound on the violation probability beta^2/2 via

    bound = n_sigma * sigma_delta / (N_new * capture * N_int * efficiency)

with N_new = I*dt/e the number of electrons passed through the strip and
N_int = D/mu the minimum number of lattice scatterings per electron.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import PhysicsConstants, RunMeta, Section
from .errors import DomainError
from .eventio import Spectrum

ERROR_MODE_PAPER = "paper-naive"
ERROR_MODE_PROPAGATED = "propagated"
ERROR_MODES = (ERROR_MODE_PAPER, ERROR_MODE_PROPAGATED)

BOUND_PAPER = "paper"
BOUND_CENTRAL = "central-plus-nsigma"
BOUND_CONVENTIONS = (BOUND_PAPER, BOUND_CENTRAL)


@dataclass(frozen=True)
class Measurement:
    """A scalar with a one-sigma uncertainty."""

    value: float
    uncertainty: float

    def __post_init__(self):
        if not math.isfinite(self.value) or not math.isfinite(self.uncertainty):
            raise DomainError("measurement must be finite")
        if self.uncertainty < 0:
            raise DomainError("uncertainty must be non-negative")

    def __str__(self) -> str:
        return f"{self.value:.0f} +/- {self.uncertainty:.0f}"


@dataclass(frozen=True)
class RoiDefinition:
    """Energy window where the shifted line would appear."""

    low_ev: float
    high_ev: float

    def __post_init__(self):
        if not self.low_ev < self.high_ev:
            raise DomainError("ROI low bound must be below the high bound")

    @property
    def width_ev(self) -> float:
        return self.high_ev - self.low_ev


def count_roi(spec: Spectrum, roi: RoiDefinition) -> Measurement:
    """Sum the bins whose centers fall in [roi.low, roi.high).

    The uncertainty is Poisson, sqrt(count).
    """
    if spec.kind != "energy":
        raise DomainError("ROI counting needs an energy-axis spectrum")
    if roi.low_ev < spec.lo or roi.high_ev > spec.hi:
        raise DomainError(
            f"ROI [{roi.low_ev}, {roi.high_ev}) eV outside the spectrum "
            f"range [{spec.lo}, {spec.hi}) eV")
    centers = spec.bin_centers
    mask = (centers >= roi.low_ev) & (centers < roi.high_ev)
    return poisson_count(float(spec.counts[mask].sum()))


def poisson_count(n: float) -> Measurement:
    """A number of counted events with its Poisson uncertainty, sqrt(n)."""
    if n < 0:
        raise DomainError(f"a count must be non-negative, got {n!r}")
    return Measurement(n, math.sqrt(n))


def _check_error_mode(mode: str) -> str:
    if mode not in ERROR_MODES:
        raise DomainError(f"unknown error_mode {mode!r}")
    return mode


def normalize_livetime(count: Measurement, from_seconds: float,
                       to_seconds: float, mode: str) -> Measurement:
    """Scale a count to a different live time.

    paper-naive mode takes sqrt(scaled value) as the uncertainty, the
    treatment behind the published 2181 +/- 47; propagated mode scales
    the input uncertainty by the same factor as the value.
    """
    _check_error_mode(mode)
    if from_seconds <= 0:
        raise DomainError("source live time must be positive")
    if to_seconds < 0:
        raise DomainError("target live time must be non-negative")
    factor = to_seconds / from_seconds
    value = count.value * factor
    if mode == ERROR_MODE_PAPER:
        sigma = math.sqrt(value) if value > 0 else 0.0
    else:
        sigma = count.uncertainty * factor
    return Measurement(value, sigma)


@dataclass(frozen=True)
class SubtractionResult:
    """On-run count minus the live-time-normalized off-run count."""

    n_on: Measurement
    n_off_normalized: Measurement
    delta: Measurement
    normalization_factor: float
    error_mode: str


def subtract(n_on: Measurement, n_off_raw: Measurement,
             on_live_time_s: float, off_live_time_s: float,
             error_mode: str) -> SubtractionResult:
    """Bring the off-run count to the on-run live time and subtract it;
    uncertainties add in quadrature.

    This is the only place a SubtractionResult is made, so the derived
    values always agree with the counts and live times they come from.
    """
    off_normalized = normalize_livetime(n_off_raw, off_live_time_s,
                                        on_live_time_s, error_mode)
    delta = Measurement(
        n_on.value - off_normalized.value,
        math.hypot(n_on.uncertainty, off_normalized.uncertainty))
    return SubtractionResult(
        n_on=n_on, n_off_normalized=off_normalized, delta=delta,
        normalization_factor=on_live_time_s / off_live_time_s,
        error_mode=error_mode)


def compute_n_new(run: RunMeta, consts: PhysicsConstants) -> float:
    """Number of electrons driven through the strip: I * dt / e."""
    return run.current_a * run.live_time_s / consts.electron_charge_c


def compute_n_int(consts: PhysicsConstants) -> float:
    """Minimum number of lattice scatterings per electron: D / mu."""
    return consts.strip_length_cm / consts.electron_mean_free_path_cm


def confidence_label(n_sigma: float) -> str:
    """Two-sided Gaussian coverage of an n-sigma interval, as text."""
    coverage = math.erf(n_sigma / math.sqrt(2.0))
    return f"{100.0 * coverage:.1f}% C.L."


@dataclass(frozen=True)
class LimitResult:
    """The full arithmetic behind one upper limit, kept for auditing."""

    delta: SubtractionResult
    n_new: float
    n_int: float
    capture_fraction: float
    efficiency: float
    denominator: float
    n_sigma: float
    bound_convention: str
    beta2_over_2_limit: float
    confidence_label: str


def compute_limit(delta: SubtractionResult, run: RunMeta,
                  consts: PhysicsConstants, efficiency: float,
                  n_sigma: float, bound_convention: str) -> LimitResult:
    """Turn a subtraction result into a beta^2/2 upper bound.

    The "paper" convention bounds the excess by n_sigma times its
    uncertainty regardless of the central value.  The alternative
    "central-plus-nsigma" convention uses delta + n_sigma*sigma, clamped
    at zero.
    """
    if not 0.0 < efficiency <= 1.0:
        raise DomainError("efficiency must be in (0, 1]")
    if not 0.0 < n_sigma < math.inf:
        raise DomainError(f"n_sigma must be finite and positive, got "
                          f"{n_sigma}")
    if bound_convention not in BOUND_CONVENTIONS:
        raise DomainError(f"unknown bound convention {bound_convention!r}")
    n_new = compute_n_new(run, consts)
    if n_new <= 0:
        raise DomainError("no exposure: current * live_time is zero, "
                          "no limit computable")
    n_int = compute_n_int(consts)
    denominator = n_new * consts.capture_fraction * n_int * efficiency
    if bound_convention == BOUND_PAPER:
        excess_bound = n_sigma * delta.delta.uncertainty
    else:
        excess_bound = max(0.0, delta.delta.value
                           + n_sigma * delta.delta.uncertainty)
    return LimitResult(delta=delta, n_new=n_new, n_int=n_int,
                       capture_fraction=consts.capture_fraction,
                       efficiency=efficiency, denominator=denominator,
                       n_sigma=n_sigma, bound_convention=bound_convention,
                       beta2_over_2_limit=excess_bound / denominator,
                       confidence_label=confidence_label(n_sigma))


@dataclass(frozen=True)
class ProjectionResult:
    """Live time needed to reach a target bound, under two noise models."""

    target_beta2_over_2: float
    reference_limit: float
    reference_live_time_s: float
    improvement_factor: float
    required_live_time_scaling_sigma_s: float
    required_live_time_fixed_sigma_s: float


def project_sensitivity(target_beta2_over_2: float, sigma_delta_ref: float,
                        live_time_ref_s: float, consts: PhysicsConstants,
                        efficiency: float, current_a: float,
                        n_sigma: float) -> ProjectionResult:
    """Invert the limit formula for the live time reaching a target bound.

    Two answers are reported.  With a background-dominated uncertainty,
    sigma_delta grows as sqrt(t) while the denominator grows as t, so the
    limit falls as 1/sqrt(t) and t_req = t_ref * (limit_ref/target)^2.
    With sigma_delta held fixed the limit falls as 1/t and
    t_req = t_ref * (limit_ref/target).
    """
    if not 0.0 < target_beta2_over_2 < math.inf:
        raise DomainError(f"target bound must be finite and positive, got "
                          f"{target_beta2_over_2}")
    if sigma_delta_ref <= 0 or live_time_ref_s <= 0:
        raise DomainError("reference uncertainty and live time must be "
                          "positive")
    ref_run = RunMeta(run_id="projection-reference", current_a=current_a,
                      live_time_s=live_time_ref_s, current_on=True)
    # an empty off-run over the same live time leaves delta = 0 +/- sigma
    ref_delta = subtract(Measurement(0.0, sigma_delta_ref),
                         poisson_count(0.0), live_time_ref_s, live_time_ref_s,
                         ERROR_MODE_PAPER)
    ref = compute_limit(ref_delta, ref_run, consts, efficiency,
                        n_sigma=n_sigma, bound_convention=BOUND_PAPER)
    factor = ref.beta2_over_2_limit / target_beta2_over_2
    scaling = live_time_ref_s * factor * factor
    fixed = live_time_ref_s * factor
    if not (math.isfinite(scaling) and math.isfinite(fixed)):
        raise DomainError("target bound unreachable with these parameters")
    return ProjectionResult(
        target_beta2_over_2=target_beta2_over_2,
        reference_limit=ref.beta2_over_2_limit,
        reference_live_time_s=live_time_ref_s,
        improvement_factor=factor,
        required_live_time_scaling_sigma_s=scaling,
        required_live_time_fixed_sigma_s=fixed)


def render_limit_report(limit: LimitResult, n_off_raw: Measurement,
                        off_live_time_s: float,
                        on_live_time_s: float) -> str:
    """Plain-text audit of every intermediate in the bound arithmetic."""
    sub = limit.delta
    lines = ["upper-limit audit", "================="]
    lines.append(f"N_on             = {sub.n_on}")
    lines.append(f"N_off_raw        = {n_off_raw}   "
                 f"({off_live_time_s / 86400.0:.3f} d)")
    lines.append(f"normalization    = {sub.normalization_factor:.6f}   "
                 f"(to {on_live_time_s / 86400.0:.3f} d)")
    lines.append(f"N_off_normalized = {sub.n_off_normalized}")
    lines.append(f"delta            = {sub.delta}   "
                 f"(error mode: {sub.error_mode})")
    lines.append(f"N_new            = {limit.n_new:.4e}   electrons")
    lines.append(f"N_int            = {limit.n_int:.4e}   scatterings")
    lines.append(f"capture_fraction = {limit.capture_fraction}")
    lines.append(f"efficiency       = {limit.efficiency}")
    lines.append(f"denominator      = {limit.denominator:.4e}")
    lines.append(f"n_sigma          = {limit.n_sigma:g}   "
                 f"({limit.confidence_label})")
    lines.append(f"bound            : beta2/2 <= "
                 f"{limit.beta2_over_2_limit:.1e}   "
                 f"({limit.bound_convention} convention)")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class AnalysisRecord:
    """Everything the limit stage needs from the counting stage."""

    subtraction: SubtractionResult
    n_off_raw: Measurement
    on_run: RunMeta
    off_live_time_s: float
    roi: RoiDefinition


def render_analysis_report(record: AnalysisRecord) -> str:
    """Key = value text of what the counting stage measured: the ROI, the
    two counts and the two live times.

    Full-precision numbers, written with repr, so that a file round-trip
    is bit-exact.  The subtraction is not written: the limit stage derives
    it again from these values.
    """
    sub = record.subtraction
    run = record.on_run
    pairs = [
        ("roi_low_ev", repr(record.roi.low_ev)),
        ("roi_high_ev", repr(record.roi.high_ev)),
        ("error_mode", sub.error_mode),
        ("n_on", repr(sub.n_on.value)),
        ("n_off_raw", repr(record.n_off_raw.value)),
        ("on_run_id", run.run_id),
        ("on_current_a", repr(run.current_a)),
        ("on_live_time_s", repr(run.live_time_s)),
        ("off_live_time_s", repr(record.off_live_time_s)),
    ]
    lines = ["counting analysis", "================="]
    lines += [f"{key} = {value}" for key, value in pairs]
    return "\n".join(lines) + "\n"


def parse_analysis_report(text: str) -> AnalysisRecord:
    """Inverse of render_analysis_report; the counts get their Poisson
    uncertainties and the subtraction is recomputed from them.

    A value out of its domain is an error that names the keys it was
    built from, as ``analysis report n_on = -1.0: ...``."""
    sec = Section.from_text("analysis report", text)

    def named(keys: list[str], make, *args, **kwargs):
        try:
            return make(*args, **kwargs)
        except DomainError as exc:
            given = ", ".join(f"{key} = {sec.text(key)}" for key in keys)
            raise DomainError(f"{sec.label} {given}: {exc}") from None

    n_on = named(["n_on"], poisson_count, sec.number("n_on"))
    n_off_raw = named(["n_off_raw"], poisson_count, sec.number("n_off_raw"))
    on_run = named(["on_run_id", "on_current_a", "on_live_time_s"], RunMeta,
                   run_id=sec.text("on_run_id"),
                   current_a=sec.number("on_current_a"),
                   live_time_s=sec.number("on_live_time_s"), current_on=True)
    error_mode = named(["error_mode"], _check_error_mode,
                       sec.text("error_mode"))
    off_live_time_s = sec.number("off_live_time_s")
    sub = named(["off_live_time_s"], subtract, n_on, n_off_raw,
                on_run.live_time_s, off_live_time_s, error_mode)
    roi = named(["roi_low_ev", "roi_high_ev"], RoiDefinition,
                low_ev=sec.number("roi_low_ev"),
                high_ev=sec.number("roi_high_ev"))
    return AnalysisRecord(subtraction=sub, n_off_raw=n_off_raw,
                          on_run=on_run, off_live_time_s=off_live_time_s,
                          roi=roi)


def render_projection_report(proj: ProjectionResult) -> str:
    """Plain-text summary of a sensitivity projection."""
    days = 86400.0
    lines = [
        "sensitivity projection",
        "======================",
        f"reference limit      = {proj.reference_limit:.3e}",
        f"reference live time  = {proj.reference_live_time_s / days:.2f} d",
        f"target bound         = {proj.target_beta2_over_2:.3e}",
        f"improvement factor   = {proj.improvement_factor:.1f}",
        "required live time:",
        f"  sigma ~ sqrt(t)    = "
        f"{proj.required_live_time_scaling_sigma_s / days:.1f} d",
        f"  sigma fixed        = "
        f"{proj.required_live_time_fixed_sigma_s / days:.1f} d",
    ]
    return "\n".join(lines) + "\n"
