"""Strict configuration loading: defaults, cross-checks, error paths."""

import dataclasses
import errno
import inspect
import os
import re

import pytest
from conftest import edit_ini, ini_keys

from pepsearch import (calibrate, cli, config, core, efficiency, limits,
                       reference, simulate)
from pepsearch.errors import ConfigError, DomainError

# the dataclasses config._parse builds from default.cfg
CONFIG_BUILT = (core.PhysicsConstants, core.ResponseModel, core.GeometryConfig,
                core.EmissionLine, core.DetectorPlate, simulate.ContinuumModel,
                simulate.SourceModel, simulate.InjectionConfig)

# parameters whose value the pipeline takes from the config
CONFIG_VALUED = (
    (calibrate.calibrate_spectrum,
     ("expected_fwhm_ev", "approx_gain_ev_per_channel", "min_prominence",
      "window_halfwidth_sigmas", "residual_threshold_ev")),
    (calibrate.fit_calibration, ("residual_threshold_ev",)),
    (calibrate.find_peaks, ("smooth_sigma_channels",)),
    (efficiency.run_efficiency, ("batch_size",)),
    (limits.compute_limit, ("n_sigma", "bound_convention")),
    (limits.project_sensitivity, ("n_sigma",)),
    (limits.normalize_livetime, ("mode",)),
    (limits.subtract, ("error_mode",)),
)

# every key and every section of default.cfg: each is part of the schema
DEFAULT_KEYS = ini_keys(config.default_config_text())
DEFAULT_SECTIONS = list(dict.fromkeys(s for s, _ in DEFAULT_KEYS))


def mutated(old, new):
    """Default config text with one targeted substitution."""
    text = config.default_config_text()
    assert old in text, f"mutation target not found: {old!r}"
    return text.replace(old, new)


def unreadable_inputs(tmp_path):
    """A missing path, a directory and a file of non-UTF-8 bytes, each
    with the pattern of the one error line it must give."""
    absent, directory, latin = (tmp_path / "absent.cfg", tmp_path / "dir",
                                tmp_path / "latin.cfg")
    directory.mkdir()
    latin.write_bytes("[response]\n# Übersicht\n".encode("latin-1"))
    return [
        (absent, re.escape(f"cannot read {absent}: "
                           f"{os.strerror(errno.ENOENT)}") + "$"),
        (directory, re.escape(f"cannot read {directory}: "
                              f"{os.strerror(errno.EISDIR)}") + "$"),
        (latin, re.escape(f"{latin} is not UTF-8 text (byte 13)") + "$"),
    ]


class TestDefaults:
    def test_matches_published_operating_point(self, cfg):
        reference.check_reference_constants(cfg)

    def test_spot_values(self, cfg):
        assert cfg.run_on.live_time_s == 2_937_600.0
        assert cfg.run_off.live_time_s == 2_419_200.0
        assert cfg.run_on.current_a == 100.0
        assert cfg.run_off.current_a == 0.0
        assert cfg.run_on.current_on and not cfg.run_off.current_on
        assert (cfg.roi.low_ev, cfg.roi.high_ev) == (7629.0, 7829.0)
        assert cfg.response.fwhm_at_reference_ev == 200.0
        assert cfg.response.channel_count == 16384
        assert cfg.binning.bins == 10000
        assert cfg.limit.error_mode == "paper-naive"
        assert cfg.limit.bound_convention == "paper"
        assert cfg.source.calibration_rate_hz == 2.0
        assert len(cfg.geometry.detectors) == 6
        assert cfg.injection.beta2_over_2 == 4.2e-29
        assert cfg.efficiency.samples == 1_000_000
        assert set(cfg.lines) == {"ti_ka", "ti_kb", "mn_ka", "mn_kb",
                                  "pep_forbidden", "cu_ka", "cu_kb"}

    def test_file_round_trip(self, cfg, tmp_path):
        path = tmp_path / "copy.cfg"
        path.write_text(config.default_config_text())
        assert config.load_config(path) == cfg

    def test_missing_file(self, tmp_path):
        for path, match in unreadable_inputs(tmp_path):
            with pytest.raises(ConfigError, match=match):
                config.load_config(path)


class TestOneSource:
    """default.cfg is the one place a default-model value is declared: no
    Python default may copy one, so a changed config cannot be shadowed."""

    @pytest.mark.parametrize("cls", CONFIG_BUILT,
                             ids=lambda cls: cls.__name__)
    def test_config_built_dataclasses_have_no_defaults(self, cls):
        defaulted = [f.name for f in dataclasses.fields(cls)
                     if f.default is not dataclasses.MISSING
                     or f.default_factory is not dataclasses.MISSING]
        assert defaulted == []

    @pytest.mark.parametrize("func, names", CONFIG_VALUED,
                             ids=[f.__name__ for f, _ in CONFIG_VALUED])
    def test_config_valued_parameters_are_required(self, func, names):
        params = inspect.signature(func).parameters
        defaulted = [name for name in names
                     if params[name].default is not inspect.Parameter.empty]
        assert defaulted == []

    def test_limit_conventions_come_from_config(self, tmp_path):
        # limit has no flag for a [limit] key: the config alone picks the
        # bound convention and n_sigma (analyze's error mode is checked in
        # test_cli)
        text = (config.default_config_text()
                .replace("n_sigma = 3.0", "n_sigma = 2.0")
                .replace("bound_convention = paper",
                         "bound_convention = central-plus-nsigma"))
        cfg_path = tmp_path / "conventions.cfg"
        cfg_path.write_text(text)
        cfg = config.load_config(cfg_path)
        n_off_raw = limits.poisson_count(1796.0)
        record = limits.AnalysisRecord(
            subtraction=limits.subtract(
                limits.poisson_count(2222.0), n_off_raw,
                cfg.run_on.live_time_s, cfg.run_off.live_time_s,
                cfg.limit.error_mode),
            n_off_raw=n_off_raw, on_run=cfg.run_on,
            off_live_time_s=cfg.run_off.live_time_s, roi=cfg.roi)
        (tmp_path / "analysis.txt").write_text(
            limits.render_analysis_report(record))
        assert cli.main(["limit", "--analysis", str(tmp_path / "analysis.txt"),
                         "--config", str(cfg_path),
                         "--output-dir", str(tmp_path)]) == 0
        report = (tmp_path / "limit.txt").read_text()
        assert "n_sigma          = 2   (95.4% C.L.)" in report
        assert "(central-plus-nsigma convention)" in report


class TestStrictness:
    @pytest.mark.parametrize("section", DEFAULT_SECTIONS)
    def test_unknown_key(self, section):
        text = edit_ini(config.default_config_text(),
                        {(section, "bogus"): "1"})
        with pytest.raises(ConfigError, match=re.escape(
                f"[{section}] has unknown key(s): bogus")):
            config.load_config_text(text)

    def test_unknown_section(self):
        text = config.default_config_text() + "\n[mystery]\nx = 1\n"
        with pytest.raises(ConfigError, match="mystery"):
            config.load_config_text(text)

    @pytest.mark.parametrize("section, key", DEFAULT_KEYS,
                             ids=[f"{s}-{k}" for s, k in DEFAULT_KEYS])
    def test_missing_key(self, section, key):
        text = edit_ini(config.default_config_text(), {(section, key): None})
        with pytest.raises(ConfigError, match=re.escape(
                f"[{section}] is missing key {key!r}")):
            config.load_config_text(text)

    def test_missing_section(self):
        text = mutated("[roi]\nlow_ev = 7629.0\nhigh_ev = 7829.0\n", "")
        with pytest.raises(ConfigError, match=r"\[roi\]"):
            config.load_config_text(text)

    def test_non_numeric_value(self):
        text = mutated("capture_fraction = 0.1", "capture_fraction = banana")
        with pytest.raises(ConfigError, match="not a number"):
            config.load_config_text(text)

    def test_non_integer_value(self):
        text = mutated("bins = 10000", "bins = 10.5")
        with pytest.raises(ConfigError, match="not an integer"):
            config.load_config_text(text)

    def test_retired_keys_are_unknown(self):
        # the published operating point lives in pepsearch.reference, and
        # the strip length only in [constants]
        text = mutated("strip_width_cm", "strip_length_cm = 10.0\n"
                       "strip_width_cm")
        with pytest.raises(ConfigError, match=r"\[geometry\] has unknown "
                                              r"key\(s\): strip_length_cm"):
            config.load_config_text(text)
        text = config.default_config_text() + \
            "\n[reference]\nn_on_counts = 2222\n"
        with pytest.raises(ConfigError,
                           match=r"unknown section\(s\): reference"):
            config.load_config_text(text)

    @pytest.mark.parametrize("section, old, key", [
        ("run.on", "live_time_s = 2937600", "current_on = true"),
        ("run.off", "live_time_s = 2419200", "current_on = false"),
        ("run.off", "live_time_s = 2419200", "current_a = 0.0"),
        ("injection", "beta2_over_2 = 4.2e-29", "enabled = true"),
    ])
    def test_keys_with_one_legal_value_are_unknown(self, section, old, key):
        # the section name sets current_on, the off-run carries no
        # current, and beta2_over_2 = 0 injects nothing
        name = key.split(" =")[0]
        text = mutated(old, f"{old}\n{key}")
        with pytest.raises(ConfigError, match=rf"\[{section}\] has unknown "
                                              rf"key\(s\): {name}$"):
            config.load_config_text(text)

    @pytest.mark.parametrize("raw", [str(2**63), str(-2**63 - 1),
                                     "1" + "0" * 400],
                             ids=["2**63", "-2**63-1", "400-digit"])
    def test_integer_outside_int64(self, raw):
        text = mutated("samples = 1000000", f"samples = {raw}")
        with pytest.raises(ConfigError,
                           match=r"\[efficiency\] samples = .* does not fit "
                                 "in a 64-bit integer"):
            config.load_config_text(text)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_value(self, raw):
        text = mutated("capture_fraction = 0.1", f"capture_fraction = {raw}")
        with pytest.raises(ConfigError,
                           match=r"\[constants\] capture_fraction .* "
                                 "is not finite"):
            config.load_config_text(text)

    def test_duplicate_section(self):
        text = config.default_config_text() + "\n[roi]\nlow_ev = 1\n"
        with pytest.raises(ConfigError, match="cannot parse"):
            config.load_config_text(text)


class TestCrossChecks:
    def test_bad_error_mode(self):
        text = mutated("error_mode = paper-naive", "error_mode = bogus")
        with pytest.raises(ConfigError, match="error mode"):
            config.load_config_text(text)

    def test_bad_bound_convention(self):
        text = mutated("bound_convention = paper",
                       "bound_convention = wishful")
        with pytest.raises(ConfigError, match="bound convention"):
            config.load_config_text(text)

    def test_bad_continuum_shape(self):
        text = mutated("shape = flat", "shape = wavy")
        with pytest.raises(DomainError, match="continuum shape"):
            config.load_config_text(text)

    def test_exponential_continuum_needs_scale(self):
        text = mutated("shape = flat", "shape = exponential")
        with pytest.raises(DomainError, match="scale_ev"):
            config.load_config_text(text)

    def test_exponential_continuum_parses_scale(self):
        text = mutated("shape = flat", "shape = exponential\nscale_ev = 3000.0")
        cfg = config.load_config_text(text)
        assert cfg.source.continuum.shape == "exponential"
        assert cfg.source.continuum.scale_ev == 3000.0

    def test_roi_outside_binning(self):
        text = mutated("high_ev = 12000.0\nbins = 10000",
                       "high_ev = 7700.0\nbins = 5700")
        with pytest.raises(ConfigError, match="ROI"):
            config.load_config_text(text)

    def test_roi_edge_off_the_bin_grid(self):
        # 10000 eV / 3333 bins: 7629 eV falls inside a 3.0003 eV bin
        text = mutated("bins = 10000", "bins = 3333")
        with pytest.raises(ConfigError, match=r"low_ev = 7629.0 .*3.0003 eV"):
            config.load_config_text(text)
        fine = config.load_config_text(mutated("bins = 10000",
                                                 "bins = 100000"))
        assert fine.binning.bins == 100000

    @pytest.mark.parametrize("bins", [2**20 + 1, 2**62])
    def test_bins_bounded(self, bins):
        # 2**62 bins fit in 64 bits, but no histogram can hold them
        text = mutated("bins = 10000", f"bins = {bins}")
        with pytest.raises(ConfigError, match=rf"\[binning\] bins = {bins} "
                                              r"is more than 1048576"):
            config.load_config_text(text)

    def test_geometry_strip_length_is_the_constant(self):
        text = mutated("strip_length_cm = 10.0", "strip_length_cm = 12.0")
        assert config.load_config_text(text).geometry.strip_length_cm == 12.0

    def test_duplicate_detector_ids(self):
        text = config.default_config_text() + (
            "\n[geometry.detector.00]\n"
            "center_x_cm = 8.0\ncenter_y_cm = 0.0\ncenter_z_cm = 1.0\n"
            "width_x_cm = 0.1\nwidth_y_cm = 0.1\nnormal_z = -1\n")
        with pytest.raises(ConfigError, match="duplicate detector"):
            config.load_config_text(text)

    def test_non_numeric_detector_id(self):
        text = config.default_config_text() + (
            "\n[geometry.detector.left]\n"
            "center_x_cm = 8.0\ncenter_y_cm = 0.0\ncenter_z_cm = 1.0\n"
            "width_x_cm = 0.1\nwidth_y_cm = 0.1\nnormal_z = -1\n")
        with pytest.raises(ConfigError, match="numeric"):
            config.load_config_text(text)

    def test_overlapping_detectors(self):
        text = mutated("[geometry.detector.1]\ncenter_x_cm = 0.0",
                       "[geometry.detector.1]\ncenter_x_cm = -2.5")
        with pytest.raises(ConfigError, match="overlap"):
            config.load_config_text(text)

    def test_unknown_source_line(self):
        text = config.default_config_text() + \
            "\n[source.line.unobtainium]\nrate_hz = 1.0\n"
        with pytest.raises(ConfigError, match="unobtainium"):
            config.load_config_text(text)

    def test_unknown_calibration_label(self):
        text = mutated("anchors = ti_ka, mn_ka", "anchors = ti_ka, zz_ka")
        with pytest.raises(ConfigError, match="zz_ka"):
            config.load_config_text(text)

    def test_single_anchor_rejected(self):
        text = mutated("anchors = ti_ka, mn_ka", "anchors = ti_ka")
        with pytest.raises(ConfigError, match="two anchor"):
            config.load_config_text(text)

    def test_injection_needs_pep_line(self):
        text = mutated(
            "[line.pep_forbidden]\nenergy_ev = 7729.0\n"
            "relative_intensity = 1.0\n", "")
        with pytest.raises(ConfigError, match="pep_forbidden"):
            config.load_config_text(text)


class TestResponseFile:
    # perfbench's chain checks catch ConfigError around this read: any
    # other error type there would end the benchmark run
    def test_missing_file(self, tmp_path):
        for path, match in unreadable_inputs(tmp_path):
            with pytest.raises(ConfigError, match=match):
                config.load_response_file(path)

    def test_missing_section(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[other]\nx = 1\n")
        with pytest.raises(ConfigError, match=r"\[response\]"):
            config.load_response_file(path)

    def test_extra_key_rejected(self, tmp_path):
        path = tmp_path / "extra.cfg"
        path.write_text("[response]\n"
                        "gain_ev_per_channel = 1.0\noffset_ev = 0.0\n"
                        "fwhm_at_reference_ev = 200.0\n"
                        "reference_energy_ev = 8040.0\n"
                        "channel_count = 16384\nsurplus = 1\n")
        with pytest.raises(ConfigError, match="surplus"):
            config.load_response_file(path)
