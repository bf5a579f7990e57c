"""Synthetic event streams for current-on and current-off runs.

Every component (each fluorescence line, the continuum, the calibration
source, the muon background, the violation signal) draws from its own
seeded substream, so a run is reproducible bit for bit and two runs that
differ only in the injection setting share identical background events.

Stream layout for a run seeded with S: children 0..n-1 of SeedSequence(S)
drive the n configured source lines in order, then continuum, calibration,
muons, violation.  Campaigns derive per-run seeds as children of the
campaign seed (0 = current-on, 1 = current-off).

The violation generator draws Poisson(lambda / f) photons at the shifted
line energy, where f is the Gaussian ROI containment of that line; the
resulting ROI excess is then Poisson(lambda) exactly (thinning), keeping
the forward model consistent with treating the bound formula's efficiency
as an ROI-level detection efficiency.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import (PEP_LINE_ENERGY_EV, SDD_COUNT, EmissionLine,
                   PhysicsConstants, ResponseModel, RunMeta)
from .errors import DomainError
from .eventio import (EVENT_DTYPE, RunHeader, TRIGGER_SDD,
                      TRIGGER_VETO_INNER, TRIGGER_VETO_OUTER)
from .limits import RoiDefinition, compute_n_int, compute_n_new

CONTINUUM_FLAT = "flat"
CONTINUUM_EXPONENTIAL = "exponential"

_TIMING_JITTER_NS = 500


@dataclass(frozen=True)
class ContinuumModel:
    """Smooth background component between low_ev and high_ev."""

    shape: str = CONTINUUM_FLAT
    rate_hz: float = 0.0
    low_ev: float = 2000.0
    high_ev: float = 12000.0
    scale_ev: float | None = None     # decay constant, exponential only

    def __post_init__(self):
        if self.shape not in (CONTINUUM_FLAT, CONTINUUM_EXPONENTIAL):
            raise DomainError(f"unknown continuum shape {self.shape!r}")
        if self.rate_hz < 0:
            raise DomainError("continuum rate must be non-negative")
        if not self.low_ev < self.high_ev:
            raise DomainError("continuum bounds are empty or reversed")
        if self.shape == CONTINUUM_EXPONENTIAL and (
                self.scale_ev is None or self.scale_ev <= 0):
            raise DomainError("exponential continuum needs scale_ev > 0")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.shape == CONTINUUM_FLAT:
            return rng.uniform(self.low_ev, self.high_ev, n)
        # inverse CDF of a truncated falling exponential
        u = rng.uniform(0.0, 1.0, n)
        a = math.exp(-self.low_ev / self.scale_ev)
        b = math.exp(-self.high_ev / self.scale_ev)
        return -self.scale_ev * np.log(a - u * (a - b))


@dataclass(frozen=True)
class SourceModel:
    """Everything that makes the detectors count, except the signal."""

    lines: tuple[tuple[EmissionLine, float], ...] = ()
    continuum: ContinuumModel = ContinuumModel()
    calibration_rate_hz: float = 0.0
    calibration_lines: tuple[EmissionLine, ...] = ()
    muon_rate_hz: float = 0.0
    veto_tag_probability: float = 0.9

    def __post_init__(self):
        for line, rate in self.lines:
            if rate < 0:
                raise DomainError(f"line {line.label}: rate must be >= 0")
        if self.calibration_rate_hz < 0 or self.muon_rate_hz < 0:
            raise DomainError("rates must be non-negative")
        if self.calibration_rate_hz > 0 and not self.calibration_lines:
            raise DomainError("calibration rate set but no calibration lines")
        if not 0.0 <= self.veto_tag_probability <= 1.0:
            raise DomainError("veto_tag_probability must be in [0, 1]")


@dataclass(frozen=True)
class InjectionConfig:
    """Strength and energy of the simulated violation signal."""

    beta2_over_2: float = 0.0
    enabled: bool = False
    line_energy_ev: float = PEP_LINE_ENERGY_EV

    def __post_init__(self):
        if self.beta2_over_2 < 0:
            raise DomainError("beta2_over_2 must be non-negative")


def expected_violation_counts(inj: InjectionConfig, run: RunMeta,
                              consts: PhysicsConstants,
                              efficiency: float) -> float:
    """Expected ROI excess: (beta^2/2) * N_new * capture * N_int * eff."""
    if not 0.0 < efficiency <= 1.0:
        raise DomainError("efficiency must be in (0, 1]")
    if not inj.enabled or not run.current_on:
        return 0.0
    return (inj.beta2_over_2 * compute_n_new(run, consts)
            * consts.capture_fraction * compute_n_int(consts) * efficiency)


def roi_containment(response: ResponseModel, roi: RoiDefinition,
                    line_energy_ev: float) -> float:
    """Gaussian probability that a line lands inside the ROI."""
    sigma = response.sigma_ev
    lo = (roi.low_ev - line_energy_ev) / (sigma * math.sqrt(2.0))
    hi = (roi.high_ev - line_energy_ev) / (sigma * math.sqrt(2.0))
    return 0.5 * (math.erf(hi) - math.erf(lo))


@dataclass(frozen=True)
class ComponentTally:
    """Expected vs. sampled count for one generator component."""

    name: str
    expected: float
    sampled: int


def _photon_records(rng: np.random.Generator, live_time_s: float,
                    energies: np.ndarray,
                    response: ResponseModel) -> tuple[np.ndarray, int, int]:
    """Common event-building path: smear, digitize, assign detector.

    Each temporary is worked on in place and assigned to its field
    without an ``astype`` copy, so the float64 arrays are never copied.
    """
    n = len(energies)
    events = np.zeros(n, dtype=EVENT_DTYPE)
    if n == 0:
        return events, 0, 0
    times = rng.uniform(0.0, live_time_s, n)
    times *= 1e9
    events["timestamp_ns"] = times
    del times
    smeared = rng.standard_normal(n)
    smeared *= response.sigma_ev
    smeared += energies
    channels = response.channel_of(smeared)
    low = int((channels < 0).sum())
    high = int((channels >= response.channel_count).sum())
    np.clip(channels, 0, response.channel_count - 1, out=channels)
    events["adc"] = channels
    del channels
    events["trigger_flags"] = TRIGGER_SDD
    events["sdd_id"] = rng.integers(0, SDD_COUNT, n)
    events["sdd_timing_ns"] = rng.integers(
        -_TIMING_JITTER_NS, _TIMING_JITTER_NS + 1, n, dtype=np.int32)
    return events, low, high


def simulate_run(source: SourceModel, inj: InjectionConfig,
                 response: ResponseModel, efficiency: float, run: RunMeta,
                 consts: PhysicsConstants, roi: RoiDefinition,
                 seed: int | np.random.SeedSequence,
                 ) -> tuple[RunHeader, np.ndarray, tuple[ComponentTally, ...]]:
    """Generate one run; returns header, sorted events and the tally.

    Deterministic per seed.  Channel under/overflows are clamped to the
    spectrum edges and reported in the tally as pseudo-components.
    """
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    streams = root.spawn(len(source.lines) + 4)
    live = run.live_time_s

    parts: list[np.ndarray] = []
    tallies: list[ComponentTally] = []
    clamped_low = clamped_high = 0

    def emit(name: str, rng: np.random.Generator, expected: float,
             energies: np.ndarray) -> np.ndarray:
        nonlocal clamped_low, clamped_high
        events, lo, hi = _photon_records(rng, live, energies, response)
        clamped_low += lo
        clamped_high += hi
        parts.append(events)
        tallies.append(ComponentTally(name, expected, len(energies)))
        return events

    for (line, rate), stream in zip(source.lines, streams):
        rng = np.random.default_rng(stream)
        n = int(rng.poisson(rate * live)) if rate > 0 else 0
        emit(line.label, rng, rate * live, np.full(n, line.energy_ev))

    rng = np.random.default_rng(streams[len(source.lines)])
    cont = source.continuum
    n = int(rng.poisson(cont.rate_hz * live)) if cont.rate_hz > 0 else 0
    emit("continuum", rng, cont.rate_hz * live, cont.sample(rng, n))

    rng = np.random.default_rng(streams[len(source.lines) + 1])
    cal_rate = source.calibration_rate_hz
    n = int(rng.poisson(cal_rate * live)) if cal_rate > 0 else 0
    if n > 0:
        weights = np.array([l.relative_intensity
                            for l in source.calibration_lines])
        weights /= weights.sum()
        cal_energies = np.array([l.energy_ev
                                 for l in source.calibration_lines])
        energies = cal_energies[rng.choice(len(cal_energies), size=n,
                                           p=weights)]
    else:
        energies = np.empty(0)
    emit("calibration", rng, cal_rate * live, energies)

    rng = np.random.default_rng(streams[len(source.lines) + 2])
    n = int(rng.poisson(source.muon_rate_hz * live)) \
        if source.muon_rate_hz > 0 else 0
    muons = emit("muons", rng, source.muon_rate_hz * live,
                 cont.sample(rng, n))
    tagged = rng.random(n) < source.veto_tag_probability
    muons["trigger_flags"][tagged] |= TRIGGER_VETO_INNER | TRIGGER_VETO_OUTER

    rng = np.random.default_rng(streams[len(source.lines) + 3])
    lam = expected_violation_counts(inj, run, consts, efficiency)
    if lam > 0:
        f = roi_containment(response, roi, inj.line_energy_ev)
        if f < 1e-6:
            raise DomainError("ROI does not contain the violation line; "
                              "cannot normalize the injected signal")
        n = int(rng.poisson(lam / f))
        emit("violation", rng, lam / f, np.full(n, inj.line_energy_ev))
    else:
        emit("violation", rng, 0.0, np.empty(0))

    events = np.concatenate(parts)
    parts.clear()       # free the components before the sorted copy
    # a stable sort breaks timestamp ties by concatenation index, so the
    # order of equal-timestamp events does not depend on the generators
    events = events[np.argsort(events["timestamp_ns"], kind="stable")]
    tallies.append(ComponentTally("clamped_low", 0.0, clamped_low))
    tallies.append(ComponentTally("clamped_high", 0.0, clamped_high))
    header = RunHeader.from_meta(run, len(events))
    return header, events, tuple(tallies)


def render_generation_report(header: RunHeader,
                             tallies: tuple[ComponentTally, ...],
                             seed: int | None = None) -> str:
    """Plain-text per-component expected vs. sampled summary."""
    title = f"generation report: run {header.run_id}"
    lines = [title, "=" * len(title)]
    if seed is not None:
        lines.append(f"seed         = {seed}")
    lines.append(f"live_time_s  = {header.live_time_s}")
    lines.append(f"current_ma   = {header.current_ma}")
    lines.append(f"current_on   = {str(header.current_on).lower()}")
    lines.append("")
    lines.append(f"{'component':<14} {'expected':>14} {'sampled':>10}")
    total_exp = 0.0
    total_n = 0
    for t in tallies:
        if t.name.startswith("clamped"):
            continue
        lines.append(f"{t.name:<14} {t.expected:>14.2f} {t.sampled:>10d}")
        total_exp += t.expected
        total_n += t.sampled
    lines.append(f"{'total':<14} {total_exp:>14.2f} {total_n:>10d}")
    for t in tallies:
        if t.name.startswith("clamped"):
            lines.append(f"{t.name:<14} {'':>14} {t.sampled:>10d}")
    return "\n".join(lines) + "\n"


def simulate_campaign(source: SourceModel, inj: InjectionConfig,
                      response: ResponseModel, efficiency: float,
                      on_run: RunMeta, off_run: RunMeta,
                      consts: PhysicsConstants, roi: RoiDefinition,
                      seed: int,
                      ) -> Iterator[tuple[RunHeader, np.ndarray,
                                          tuple[ComponentTally, ...]]]:
    """One on-run and one off-run with shared models.

    Injection is only ever active in the on-run (the off-run carries no
    current, so its expected violation count is zero by construction).
    Each run uses its own child stream of the campaign seed.  Arguments
    are checked at once; each run is generated only when iteration reaches
    it, so a caller that drops a run before the next holds one in memory.
    """
    if on_run.live_time_s <= 0 or off_run.live_time_s <= 0:
        raise DomainError("run durations must be positive")
    if not on_run.current_on or off_run.current_on:
        raise DomainError("campaign needs one current-on and one "
                          "current-off run")
    runs = zip((on_run, off_run), np.random.SeedSequence(seed).spawn(2))
    return (simulate_run(source, inj, response, efficiency, run, consts,
                         roi, run_seed) for run, run_seed in runs)
