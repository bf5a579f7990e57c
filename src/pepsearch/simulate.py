"""Synthetic event streams for current-on and current-off runs.

Every component (each fluorescence line, the continuum, the calibration
source, the muon background, the violation signal) draws from its own
seeded substream, so a run is reproducible bit for bit and two runs that
differ only in the injection setting share identical background events.

Stream layout for a run seeded with S: children 0..n-1 of SeedSequence(S)
drive the n configured source lines in order, then continuum, calibration,
muons, violation.  A run of live time T is cut into k = ceil(T / SLICE_S)
equal time slices, and a longer run than MAX_SLICES slices is refused
before any is built.  A component's stream draws its Poisson total
first, then one multinomial split of it over the slices.  Slice s of the
component draws from child s of that stream: energies, times (uniform
in the slice, sorted), normals, then, for the muons alone, the veto
tags.  Each slice merges its components, concatenated in the order
above, with a stable sort, so a timestamp tie keeps that order; the run
is the slices in turn.
Campaigns derive per-run seeds as children of the campaign seed
(0 = current-on, 1 = current-off).

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

from .core import EmissionLine, PhysicsConstants, ResponseModel, RunMeta
from .errors import DomainError
from .eventio import EVENT_DTYPE, RunHeader, TRIGGER_SDD, VETO_COINCIDENCE
from .limits import RoiDefinition, compute_n_int, compute_n_new

CONTINUUM_FLAT = "flat"
CONTINUUM_EXPONENTIAL = "exponential"

SLICE_S = 86400.0       # a run is generated in slices of at most one day
# about 179 years; each slice costs a column of counts and a seed
# sequence per component before the first record is made
MAX_SLICES = 1 << 16


@dataclass(frozen=True)
class ContinuumModel:
    """Smooth background component between low_ev and high_ev."""

    shape: str
    rate_hz: float
    low_ev: float
    high_ev: float
    scale_ev: float | None     # decay constant, exponential only

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

    lines: tuple[tuple[EmissionLine, float], ...]
    continuum: ContinuumModel
    calibration_rate_hz: float
    calibration_lines: tuple[EmissionLine, ...]
    muon_rate_hz: float
    veto_tag_probability: float

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
    """Strength and energy of the simulated violation signal;
    beta2_over_2 = 0 injects none."""

    line_energy_ev: float
    beta2_over_2: float

    def __post_init__(self):
        if self.beta2_over_2 < 0:
            raise DomainError("beta2_over_2 must be non-negative")


def expected_violation_counts(inj: InjectionConfig, run: RunMeta,
                              consts: PhysicsConstants,
                              efficiency: float) -> float:
    """Expected ROI excess: (beta^2/2) * N_new * capture * N_int * eff."""
    if not 0.0 < efficiency <= 1.0:
        raise DomainError("efficiency must be in (0, 1]")
    if not run.current_on:
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


def _slice_count(run: RunMeta) -> int:
    """Number of one-day slices of the run, at most MAX_SLICES."""
    if run.live_time_s > MAX_SLICES * SLICE_S:
        raise DomainError(
            f"run {run.run_id}: live_time_s = {run.live_time_s} exceeds "
            f"{MAX_SLICES * SLICE_S:.0f} s, the {MAX_SLICES} one-day "
            "slices a run may span")
    return max(1, math.ceil(run.live_time_s / SLICE_S))


def _photon_records(rng: np.random.Generator, t0_s: float, t1_s: float,
                    energies: np.ndarray | float, response: ResponseModel,
                    out: np.ndarray) -> tuple[int, int]:
    """Fill ``out`` with one time slice of a component, in time order.

    The times are drawn uniformly in [t0_s, t1_s) and sorted in place;
    every other attribute is drawn per event, independently of the times,
    so sorting them does not change the model.  Each temporary is worked
    on in place and assigned to its field without an ``astype`` copy.
    Returns the numbers of channels clamped at the low and high edges.
    """
    n = len(out)
    times = rng.uniform(t0_s, t1_s, n)
    times.sort()
    times *= 1e9
    out["timestamp_ns"] = times
    del times
    smeared = rng.standard_normal(n)
    smeared *= response.sigma_ev
    smeared += energies
    channels = response.channel_of(smeared)
    del smeared
    low = int((channels < 0).sum())
    high = int((channels >= response.channel_count).sum())
    np.clip(channels, 0, response.channel_count - 1, out=channels)
    out["adc"] = channels
    del channels
    out["trigger_flags"] = TRIGGER_SDD
    return low, high


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
    cont = source.continuum

    def calibration_energies(rng, n):
        weights = np.array([l.relative_intensity
                            for l in source.calibration_lines])
        energies = np.array([l.energy_ev for l in source.calibration_lines])
        return energies[rng.choice(len(energies), size=n,
                                   p=weights / weights.sum())]

    # (name, expected count, energy or energy sampler, veto tag probability)
    components = [(line.label, rate * live, line.energy_ev, 0.0)
                  for line, rate in source.lines]
    components.append(("continuum", cont.rate_hz * live, cont.sample, 0.0))
    components.append(("calibration", source.calibration_rate_hz * live,
                        calibration_energies, 0.0))
    components.append(("muons", source.muon_rate_hz * live, cont.sample,
                       source.veto_tag_probability))
    lam = expected_violation_counts(inj, run, consts, efficiency)
    if lam > 0:
        f = roi_containment(response, roi, inj.line_energy_ev)
        if f < 1e-6:
            raise DomainError("ROI does not contain the violation line; "
                              "cannot normalize the injected signal")
        lam /= f
    components.append(("violation", lam, inj.line_energy_ev, 0.0))

    # each component's total is the first draw of its stream; one
    # multinomial draw splits it over the slices, so the run's size is
    # known before any record is made
    n_slices = _slice_count(run)
    counts = np.zeros((len(components), n_slices), dtype=np.int64)
    slice_streams = []
    for c, ((_, expected, _, _), stream) in enumerate(
            zip(components, streams)):
        rng = np.random.default_rng(stream)
        n = int(rng.poisson(expected)) if expected > 0 else 0
        counts[c] = rng.multinomial(n, [1.0 / n_slices] * n_slices)
        slice_streams.append(stream.spawn(n_slices))

    header = RunHeader.from_meta(run, int(counts.sum()))
    events = np.empty(header.event_count, dtype=EVENT_DTYPE)
    clamped_low = clamped_high = pos = 0
    for s in range(n_slices):
        t0, t1 = live * s / n_slices, live * (s + 1) / n_slices
        part = np.empty(int(counts[:, s].sum()), dtype=EVENT_DTYPE)
        at = 0
        for c, (_, _, energy, tag_p) in enumerate(components):
            if counts[c, s] == 0:
                continue
            out = part[at:at + counts[c, s]]
            at += len(out)
            rng = np.random.default_rng(slice_streams[c][s])
            energies = energy(rng, len(out)) if callable(energy) else energy
            lo, hi = _photon_records(rng, t0, t1, energies, response, out)
            del energies
            clamped_low += lo
            clamped_high += hi
            if tag_p > 0:
                tagged = rng.random(len(out)) < tag_p
                out["trigger_flags"][tagged] |= VETO_COINCIDENCE
        # the components are each in time order; a stable sort merges
        # them in near-linear time and breaks timestamp ties by
        # concatenation index, so the order of equal-timestamp events
        # does not depend on the generators.  mode="clip" lets take write
        # straight into the run array (indices are in range anyway).
        order = np.argsort(part["timestamp_ns"], kind="stable")
        np.take(part, order, out=events[pos:pos + len(part)], mode="clip")
        pos += len(part)

    tallies = [ComponentTally(name, expected, int(n))
               for (name, expected, _, _), n in zip(components,
                                                    counts.sum(axis=1))]
    tallies.append(ComponentTally("clamped_low", 0.0, clamped_low))
    tallies.append(ComponentTally("clamped_high", 0.0, clamped_high))
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
    for run in (on_run, off_run):
        _slice_count(run)
    runs = zip((on_run, off_run), np.random.SeedSequence(seed).spawn(2))
    return (simulate_run(source, inj, response, efficiency, run, consts,
                         roi, run_seed) for run, run_seed in runs)
