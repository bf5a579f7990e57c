"""Shared physical constants, emission lines, detector response and geometry.

Everything here is immutable after construction and safe to share across
workers.  Energies are in eV, lengths in cm, times in seconds, currents in
amperes unless a field name says otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

# Gaussian FWHM = 2 sqrt(2 ln 2) sigma
FWHM_OVER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))


class Section:
    """Named ``key = value`` strings with typed getters and consumed-key
    tracking; every malformed or missing value is a ConfigError.

    ``label`` prefixes the messages, e.g. ``[response]`` for a config
    section or ``efficiency report`` for an artifact.
    """

    def __init__(self, label: str, values: dict[str, str]):
        self.label = label
        self.values = dict(values)
        self.seen: set[str] = set()

    @classmethod
    def from_text(cls, label: str, text: str) -> "Section":
        """Collect the ``key = value`` lines of an artifact.

        Lines without '=' are skipped; a line of '=' (a title underline)
        lands under the empty key, so artifact readers never call finish.
        """
        values = {}
        for line in text.splitlines():
            key, sep, value = line.partition("=")
            if sep:
                values[key.strip()] = value.strip()
        return cls(label, values)

    def _raw(self, key: str) -> str:
        if key not in self.values:
            raise ConfigError(f"{self.label} is missing key {key!r}")
        self.seen.add(key)
        return self.values[key]

    def text(self, key: str) -> str:
        return self._raw(key).strip()

    def number(self, key: str) -> float:
        raw = self._raw(key)
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(
                f"{self.label} {key} = {raw!r} is not a number") from None
        if not math.isfinite(value):
            raise ConfigError(f"{self.label} {key} = {raw!r} is not finite")
        return value

    def integer(self, key: str) -> int:
        raw = self._raw(key)
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(
                f"{self.label} {key} = {raw!r} is not an integer") from None
        if not -2**63 <= value < 2**63:
            raise ConfigError(f"{self.label} {key} = {raw!r} does not fit "
                              "in a 64-bit integer")
        return value

    def labels(self, key: str) -> tuple[str, ...]:
        return tuple(part.strip() for part in self._raw(key).split(",")
                     if part.strip())

    def optional_number(self, key: str):
        if key not in self.values:
            return None
        return self.number(key)

    def finish(self):
        extra = set(self.values) - self.seen
        if extra:
            raise ConfigError(
                f"{self.label} has unknown key(s): {', '.join(sorted(extra))}")


def fwhm_to_sigma(fwhm: float) -> float:
    """Convert a Gaussian full width at half maximum to its sigma."""
    if fwhm <= 0:
        raise DomainError(f"fwhm must be positive, got {fwhm}")
    return fwhm / FWHM_OVER_SIGMA


@dataclass(frozen=True)
class EmissionLine:
    """A fluorescence line: label, energy in eV, intensity relative to the
    strongest line of the same series (K-alpha = 1)."""

    label: str
    energy_ev: float
    relative_intensity: float

    def __post_init__(self):
        if self.energy_ev <= 0:
            raise DomainError(f"line {self.label!r}: energy must be positive")
        if not 0.0 < self.relative_intensity <= 1.0:
            raise DomainError(
                f"line {self.label!r}: relative intensity must be in (0, 1]")


@dataclass(frozen=True)
class PhysicsConstants:
    """Constants of the conduction-current forward model.

    ``capture_fraction`` is the assumed lower bound on the probability that
    a scattered current electron is captured by a lattice atom; using the
    bound as an equality gives the weakest (conservative) expected signal.
    """

    electron_charge_c: float
    electron_mean_free_path_cm: float   # in copper
    strip_length_cm: float
    cu_attenuation_length_cm: float     # ~8 keV photons in copper
    si_attenuation_length_cm: float     # ~8 keV photons in silicon
    sdd_thickness_cm: float
    capture_fraction: float

    def __post_init__(self):
        for name in ("electron_charge_c", "electron_mean_free_path_cm",
                     "strip_length_cm", "cu_attenuation_length_cm",
                     "si_attenuation_length_cm", "sdd_thickness_cm"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be strictly positive")
        if not 0.0 < self.capture_fraction <= 1.0:
            raise DomainError("capture_fraction must be in (0, 1]")


@dataclass(frozen=True)
class ResponseModel:
    """Gaussian detector response with an affine channel-to-energy map.

    The resolution model is a single energy-independent FWHM; the quoted
    figure applies at ``reference_energy_ev``.
    """

    fwhm_at_reference_ev: float
    reference_energy_ev: float
    gain_ev_per_channel: float
    offset_ev: float
    channel_count: int

    def __post_init__(self):
        if self.fwhm_at_reference_ev <= 0:
            raise DomainError("fwhm_at_reference_ev must be positive")
        if self.gain_ev_per_channel <= 0:
            raise DomainError("gain_ev_per_channel must be positive")
        if not 2 <= self.channel_count <= 65536:
            raise DomainError("channel_count must be in [2, 65536] to fit "
                              "the 16-bit ADC field")

    @property
    def sigma_ev(self) -> float:
        return fwhm_to_sigma(self.fwhm_at_reference_ev)

    def energy_of(self, channel):
        """Energy at channel (scalar or array); affine, strictly increasing."""
        return self.offset_ev + self.gain_ev_per_channel * channel

    def channel_of(self, energy_ev):
        """Nearest integer channel for an energy (scalar or array), unclamped."""
        ch = np.array(energy_ev, dtype=np.float64)   # the one working array
        ch -= self.offset_ev
        ch /= self.gain_ev_per_channel
        ch = np.rint(ch, out=ch).astype(np.int64)
        return ch if ch.ndim else int(ch)


@dataclass(frozen=True)
class DetectorPlate:
    """One rectangular SDD sensitive area, parallel to the strip's flat faces.

    The plate lies in the plane z = ``center_z_cm``; ``normal_z`` is the
    direction its sensitive face points (-1 looks down toward the strip).
    """

    det_id: int
    center_x_cm: float
    center_y_cm: float
    center_z_cm: float
    width_x_cm: float
    width_y_cm: float
    normal_z: int

    def __post_init__(self):
        if self.width_x_cm < 0 or self.width_y_cm < 0:
            raise ConfigError("detector widths must be non-negative")
        if self.normal_z not in (-1, 1):
            raise ConfigError("normal_z must be +1 or -1")


def _plates_overlap(a: DetectorPlate, b: DetectorPlate) -> bool:
    if a.center_z_cm != b.center_z_cm:
        return False
    return (abs(a.center_x_cm - b.center_x_cm) < (a.width_x_cm + b.width_x_cm) / 2
            and abs(a.center_y_cm - b.center_y_cm) < (a.width_y_cm + b.width_y_cm) / 2)


@dataclass(frozen=True)
class GeometryConfig:
    """Copper-strip and detector geometry for the acceptance Monte Carlo.

    The strip is an axis-aligned box centred on the origin: length along x,
    width along y, thickness along z.  Zero extents and an empty detector
    list are permitted for degenerate Monte Carlo studies, and the config
    loader accepts them too: it adds no geometry check of its own.
    """

    strip_length_cm: float
    strip_width_cm: float
    strip_thickness_cm: float
    detectors: tuple[DetectorPlate, ...]

    def __post_init__(self):
        if min(self.strip_length_cm, self.strip_width_cm,
               self.strip_thickness_cm) < 0:
            raise ConfigError("strip dimensions must be non-negative")
        plates = list(self.detectors)
        for i, a in enumerate(plates):
            for b in plates[i + 1:]:
                if _plates_overlap(a, b):
                    raise ConfigError(
                        f"detectors {a.det_id} and {b.det_id} overlap")


@dataclass(frozen=True)
class RunMeta:
    """Identity and exposure of one data-taking run."""

    run_id: str
    current_a: float
    live_time_s: float
    current_on: bool

    def __post_init__(self):
        # simulate names the run's files after it inside --output-dir, and
        # analysis.txt holds it on one line
        rid = self.run_id
        if not rid or "/" in rid or "\\" in rid or not rid.isprintable():
            raise DomainError(f"run_id {rid!r} must be a non-empty file name "
                              "of printable characters without '/' or '\\'")
        if self.live_time_s < 0:
            raise DomainError("live_time_s must be non-negative")
        if self.current_a < 0:
            raise DomainError("current_a must be non-negative")
        if not self.current_on and self.current_a != 0:
            raise DomainError("current_on is false but current_a is nonzero")
