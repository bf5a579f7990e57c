"""Structured text configuration shared by every pipeline stage.

The format is INI with dotted section names.  Each section fills a
dataclass whose fields name its keys, numeric ones with a unit suffix.
Loading is strict: unknown keys or sections, missing sections, and
cross-section inconsistencies (for example an ROI edge off the bin grid)
are all configuration errors.  Degenerate detector layouts (zero plates,
zero-area plates) are allowed so efficiency studies can express them.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

from .core import (DetectorPlate, EmissionLine, GeometryConfig,
                   PhysicsConstants, ResponseModel, RunMeta, Section)
from .errors import ConfigError
from .limits import (BOUND_CONVENTIONS, ERROR_MODES, RoiDefinition)
from .simulate import ContinuumModel, InjectionConfig, SourceModel

DEFAULT_CONFIG_RESOURCE = "data/default.cfg"

# a spectrum bins the 65536 channels of the 16-bit ADC; 2**20 bins, 16 per
# channel, is more than it can use and keeps the counts at 8 MiB
MAX_BINS = 1 << 20


@dataclass(frozen=True)
class BinningConfig:
    low_ev: float
    high_ev: float
    bins: int

    def __post_init__(self):
        if not self.low_ev < self.high_ev:
            raise ConfigError("binning range is empty or reversed")
        if self.bins < 1:
            raise ConfigError("binning needs at least one bin")
        if self.bins > MAX_BINS:
            raise ConfigError(f"[binning] bins = {self.bins} is more than "
                              f"{MAX_BINS}, 16 per 16-bit ADC channel")


@dataclass(frozen=True)
class LimitSettings:
    n_sigma: float
    error_mode: str
    bound_convention: str
    efficiency: float

    def __post_init__(self):
        if self.error_mode not in ERROR_MODES:
            raise ConfigError(f"unknown error mode {self.error_mode!r}")
        if self.bound_convention not in BOUND_CONVENTIONS:
            raise ConfigError(
                f"unknown bound convention {self.bound_convention!r}")
        if not 0.0 < self.efficiency <= 1.0:
            raise ConfigError("limit efficiency must be in (0, 1]")
        if self.n_sigma <= 0:
            raise ConfigError("n_sigma must be positive")


@dataclass(frozen=True)
class EfficiencySettings:
    samples: int
    batch_size: int

    def __post_init__(self):
        if self.samples < 1 or self.batch_size < 1:
            raise ConfigError("efficiency samples and batch_size must be "
                              "positive")


@dataclass(frozen=True)
class CalibrationSettings:
    anchors: tuple[str, ...]
    crosschecks: tuple[str, ...]
    residual_threshold_ev: float
    min_prominence: float
    window_halfwidth_sigmas: float


@dataclass(frozen=True)
class AnalysisConfig:
    constants: PhysicsConstants
    response: ResponseModel
    geometry: GeometryConfig
    lines: dict[str, EmissionLine]
    source: SourceModel
    injection: InjectionConfig
    roi: RoiDefinition
    binning: BinningConfig
    run_on: RunMeta
    run_off: RunMeta
    limit: LimitSettings
    efficiency: EfficiencySettings
    calibration: CalibrationSettings


def _read_parser(text: str, origin: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        detail = " ".join(str(exc).split())     # one line, as every error
        raise ConfigError(f"cannot parse {origin}: {detail}") from None
    return parser


# Section getter by field annotation (a string: annotations are postponed)
_GETTERS = {"float": Section.number, "int": Section.integer,
            "str": Section.text, "tuple[str, ...]": Section.labels,
            "float | None": Section.optional_number}


def _build(sec: Section, cls, **given):
    """``cls`` read from its section: each field not in ``given`` is the
    key of the same name, read by the getter its annotation picks.  The
    section may hold no other key."""
    for field in fields(cls):
        if field.name not in given:
            given[field.name] = _GETTERS[field.type](sec, field.name)
    built = cls(**given)
    sec.finish()
    return built


def _parse(parser: configparser.ConfigParser, origin: str) -> AnalysisConfig:
    sections = {name: Section(f"[{name}]", dict(parser.items(name)))
                for name in parser.sections()}
    consumed: set[str] = set()

    def take(name: str) -> Section:
        if name not in sections:
            raise ConfigError(f"{origin} is missing section [{name}]")
        consumed.add(name)
        return sections[name]

    def build(name: str, cls, **given):
        return _build(take(name), cls, **given)

    constants = build("constants", PhysicsConstants)
    response = build("response", ResponseModel)

    plates: dict[int, DetectorPlate] = {}
    for name in sorted(n for n in sections if n.startswith("geometry.detector.")):
        try:
            det_id = int(name.rsplit(".", 1)[-1])
        except ValueError:
            raise ConfigError(f"detector section [{name}] needs a numeric "
                              "id") from None
        if det_id in plates:
            raise ConfigError("duplicate detector ids in geometry")
        plates[det_id] = build(name, DetectorPlate, det_id=det_id)

    geometry = build("geometry", GeometryConfig,
                     strip_length_cm=constants.strip_length_cm,
                     detectors=tuple(plates[i] for i in sorted(plates)))

    lines: dict[str, EmissionLine] = {}
    for name in sorted(n for n in sections
                       if n.startswith("line.") and n.count(".") == 1):
        label = name.split(".", 1)[1]
        lines[label] = build(name, EmissionLine, label=label)
    if "pep_forbidden" not in lines:
        raise ConfigError(f"{origin} is missing section [line.pep_forbidden]")

    source_lines = []
    for name in sorted(n for n in sections if n.startswith("source.line.")):
        label = name.split("source.line.", 1)[1]
        if label not in lines:
            raise ConfigError(f"[{name}] refers to unknown line {label!r}")
        sec = take(name)
        source_lines.append((lines[label], sec.number("rate_hz")))
        sec.finish()

    continuum = build("source.continuum", ContinuumModel)

    calibration = build("calibration", CalibrationSettings)
    for label in calibration.anchors + calibration.crosschecks:
        if label not in lines:
            raise ConfigError(f"calibration refers to unknown line {label!r}")
    if len(calibration.anchors) < 2:
        raise ConfigError("calibration needs at least two anchor lines")

    source = build("source", SourceModel,
                   lines=tuple(source_lines), continuum=continuum,
                   calibration_lines=tuple(
                       lines[label] for label in
                       calibration.anchors + calibration.crosschecks))
    injection = build("injection", InjectionConfig,
                      line_energy_ev=lines["pep_forbidden"].energy_ev)

    roi = build("roi", RoiDefinition)
    binning = build("binning", BinningConfig)
    if roi.low_ev < binning.low_ev or roi.high_ev > binning.high_ev:
        raise ConfigError("ROI extends outside the binning range")
    width = (binning.high_ev - binning.low_ev) / binning.bins
    for key, edge in (("low_ev", roi.low_ev), ("high_ev", roi.high_ev)):
        # count_roi takes whole bins by centre: an edge inside a bin moves it
        k = round((edge - binning.low_ev) / width)
        if not math.isclose(edge, binning.low_ev + k * width, rel_tol=1e-9):
            raise ConfigError(f"[roi] {key} = {edge} does not lie on a "
                              f"[binning] bin edge (bin width {width:g} eV)")

    # the section says whether the current is on; an off-run has none
    run_on = build("run.on", RunMeta, current_on=True)
    run_off = build("run.off", RunMeta, current_on=False, current_a=0.0)

    limit = build("limit", LimitSettings)
    efficiency = build("efficiency", EfficiencySettings)

    unknown = set(sections) - consumed
    if unknown:
        raise ConfigError(
            f"{origin} has unknown section(s): {', '.join(sorted(unknown))}")

    return AnalysisConfig(constants=constants, response=response,
                          geometry=geometry, lines=lines, source=source,
                          injection=injection, roi=roi, binning=binning,
                          run_on=run_on, run_off=run_off, limit=limit,
                          efficiency=efficiency, calibration=calibration)


def read_text(path: str | Path) -> str:
    """A text input of the pipeline: config, response file or artifact.

    A path that cannot be read, or bytes that are not UTF-8, are a
    ConfigError naming the file.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text (byte {exc.start})") \
            from None
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None


def load_config(path: str | Path) -> AnalysisConfig:
    """Load and validate an analysis configuration file."""
    return _parse(_read_parser(read_text(path), str(path)), str(path))


def load_config_text(text: str, origin: str = "<string>") -> AnalysisConfig:
    """Load a configuration from an in-memory string."""
    return _parse(_read_parser(text, origin), origin)


def default_config_text() -> str:
    """The bundled default configuration, as text."""
    return (resources.files(__package__) / DEFAULT_CONFIG_RESOURCE).read_text()


def load_default_config() -> AnalysisConfig:
    return load_config_text(default_config_text(), "<bundled default>")


def load_response_file(path: str | Path) -> ResponseModel:
    """Read a [response] section written by the calibration stage."""
    parser = _read_parser(read_text(path), str(path))
    if "response" not in parser.sections():
        raise ConfigError(f"{path} has no [response] section")
    return _build(Section("[response]", dict(parser.items("response"))),
                  ResponseModel)
