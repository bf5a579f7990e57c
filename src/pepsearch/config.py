"""Structured text configuration shared by every pipeline stage.

The format is INI with dotted section names for nesting; every numeric
key carries its unit as a suffix.  Loading is strict: unknown keys or
sections, missing sections, and cross-section inconsistencies (for
example an ROI edge off the bin grid) are all configuration errors.
Degenerate detector layouts (zero plates, zero-area plates) are allowed
so efficiency studies can express them.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .core import (DetectorPlate, EmissionLine, GeometryConfig,
                   PhysicsConstants, ResponseModel, RunMeta, Section)
from .errors import ConfigError
from .limits import (BOUND_CONVENTIONS, ERROR_MODES, RoiDefinition)
from .simulate import ContinuumModel, InjectionConfig, SourceModel

DEFAULT_CONFIG_RESOURCE = "data/default.cfg"


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
        raise ConfigError(f"cannot parse {origin}: {exc}") from None
    return parser


def _response(sec: Section) -> ResponseModel:
    response = ResponseModel(
        fwhm_at_reference_ev=sec.number("fwhm_at_reference_ev"),
        reference_energy_ev=sec.number("reference_energy_ev"),
        gain_ev_per_channel=sec.number("gain_ev_per_channel"),
        offset_ev=sec.number("offset_ev"),
        channel_count=sec.integer("channel_count"))
    sec.finish()
    return response


def _parse(parser: configparser.ConfigParser, origin: str) -> AnalysisConfig:
    sections = {name: Section(f"[{name}]", dict(parser.items(name)))
                for name in parser.sections()}
    consumed: set[str] = set()

    def take(name: str) -> Section:
        if name not in sections:
            raise ConfigError(f"{origin} is missing section [{name}]")
        consumed.add(name)
        return sections[name]

    sec = take("constants")
    constants = PhysicsConstants(
        electron_charge_c=sec.number("electron_charge_c"),
        electron_mean_free_path_cm=sec.number("electron_mean_free_path_cm"),
        strip_length_cm=sec.number("strip_length_cm"),
        cu_attenuation_length_cm=sec.number("cu_attenuation_length_cm"),
        si_attenuation_length_cm=sec.number("si_attenuation_length_cm"),
        sdd_thickness_cm=sec.number("sdd_thickness_cm"),
        capture_fraction=sec.number("capture_fraction"))
    sec.finish()

    response = _response(take("response"))

    plates = []
    for name in sorted(n for n in sections if n.startswith("geometry.detector.")):
        suffix = name.rsplit(".", 1)[-1]
        try:
            det_id = int(suffix)
        except ValueError:
            raise ConfigError(f"detector section [{name}] needs a numeric "
                              "id") from None
        sec = take(name)
        normal = sec.integer("normal_z")
        plates.append(DetectorPlate(
            det_id=det_id,
            center_x_cm=sec.number("center_x_cm"),
            center_y_cm=sec.number("center_y_cm"),
            center_z_cm=sec.number("center_z_cm"),
            width_x_cm=sec.number("width_x_cm"),
            width_y_cm=sec.number("width_y_cm"),
            normal_z=normal))
        sec.finish()
    ids = [p.det_id for p in plates]
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate detector ids in geometry")

    sec = take("geometry")
    geometry = GeometryConfig(
        strip_length_cm=constants.strip_length_cm,
        strip_width_cm=sec.number("strip_width_cm"),
        strip_thickness_cm=sec.number("strip_thickness_cm"),
        detectors=tuple(sorted(plates, key=lambda p: p.det_id)))
    sec.finish()

    lines: dict[str, EmissionLine] = {}
    for name in sorted(n for n in sections
                       if n.startswith("line.") and n.count(".") == 1):
        label = name.split(".", 1)[1]
        sec = take(name)
        lines[label] = EmissionLine(
            label=label, energy_ev=sec.number("energy_ev"),
            relative_intensity=sec.number("relative_intensity"))
        sec.finish()
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

    sec = take("source.continuum")
    shape = sec.text("shape")
    continuum = ContinuumModel(
        shape=shape,
        rate_hz=sec.number("rate_hz"),
        low_ev=sec.number("low_ev"),
        high_ev=sec.number("high_ev"),
        scale_ev=sec.optional_number("scale_ev"))
    sec.finish()

    sec = take("calibration")
    calibration = CalibrationSettings(
        anchors=sec.labels("anchors"),
        crosschecks=sec.labels("crosschecks"),
        residual_threshold_ev=sec.number("residual_threshold_ev"),
        min_prominence=sec.number("min_prominence"),
        window_halfwidth_sigmas=sec.number("window_halfwidth_sigmas"))
    sec.finish()
    for label in calibration.anchors + calibration.crosschecks:
        if label not in lines:
            raise ConfigError(f"calibration refers to unknown line {label!r}")
    if len(calibration.anchors) < 2:
        raise ConfigError("calibration needs at least two anchor lines")

    sec = take("source")
    source = SourceModel(
        lines=tuple(source_lines),
        continuum=continuum,
        calibration_rate_hz=sec.number("calibration_rate_hz"),
        calibration_lines=tuple(
            lines[label] for label in
            calibration.anchors + calibration.crosschecks),
        muon_rate_hz=sec.number("muon_rate_hz"),
        veto_tag_probability=sec.number("veto_tag_probability"))
    sec.finish()

    sec = take("injection")
    injection = InjectionConfig(
        line_energy_ev=lines["pep_forbidden"].energy_ev,
        beta2_over_2=sec.number("beta2_over_2"))
    sec.finish()

    sec = take("roi")
    roi = RoiDefinition(low_ev=sec.number("low_ev"),
                        high_ev=sec.number("high_ev"))
    sec.finish()

    sec = take("binning")
    binning = BinningConfig(low_ev=sec.number("low_ev"),
                            high_ev=sec.number("high_ev"),
                            bins=sec.integer("bins"))
    sec.finish()
    if roi.low_ev < binning.low_ev or roi.high_ev > binning.high_ev:
        raise ConfigError("ROI extends outside the binning range")
    width = (binning.high_ev - binning.low_ev) / binning.bins
    for key, edge in (("low_ev", roi.low_ev), ("high_ev", roi.high_ev)):
        # count_roi takes whole bins by centre: an edge inside a bin moves it
        k = round((edge - binning.low_ev) / width)
        if not math.isclose(edge, binning.low_ev + k * width, rel_tol=1e-9):
            raise ConfigError(f"[roi] {key} = {edge} does not lie on a "
                              f"[binning] bin edge (bin width {width:g} eV)")

    def parse_run(name: str, current_on: bool) -> RunMeta:
        # the section says whether the current is on; an off-run has none
        sec = take(name)
        current_a = sec.number("current_a") if current_on else 0.0
        run = RunMeta(run_id=sec.text("run_id"), current_a=current_a,
                      live_time_s=sec.number("live_time_s"),
                      current_on=current_on)
        sec.finish()
        return run

    run_on = parse_run("run.on", True)
    run_off = parse_run("run.off", False)

    sec = take("limit")
    limit = LimitSettings(n_sigma=sec.number("n_sigma"),
                          error_mode=sec.text("error_mode"),
                          bound_convention=sec.text("bound_convention"),
                          efficiency=sec.number("efficiency"))
    sec.finish()

    sec = take("efficiency")
    efficiency = EfficiencySettings(samples=sec.integer("samples"),
                                    batch_size=sec.integer("batch_size"))
    sec.finish()
    if efficiency.samples < 1 or efficiency.batch_size < 1:
        raise ConfigError("efficiency samples and batch_size must be "
                          "positive")

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

    Bytes that are not UTF-8 are a ConfigError naming the file.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text (byte {exc.start})") \
            from None


def load_config(path: str | Path) -> AnalysisConfig:
    """Load and validate an analysis configuration file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
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
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"response file {path} does not exist")
    parser = _read_parser(read_text(path), str(path))
    if "response" not in parser.sections():
        raise ConfigError(f"{path} has no [response] section")
    return _response(Section("[response]", dict(parser.items("response"))))
