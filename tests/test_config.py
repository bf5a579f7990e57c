"""Strict configuration loading: defaults, cross-checks, error paths."""

import pytest

from pepsearch import config, reference
from pepsearch.errors import ConfigError, DomainError


def mutated(old, new):
    """Default config text with one targeted substitution."""
    text = config.default_config_text()
    assert old in text, f"mutation target not found: {old!r}"
    return text.replace(old, new)


class TestDefaults:
    def test_matches_published_operating_point(self, cfg):
        reference.check_reference_constants(cfg)

    def test_spot_values(self, cfg):
        assert cfg.run_on.live_time_s == 2_937_600.0
        assert cfg.run_off.live_time_s == 2_419_200.0
        assert cfg.run_on.current_a == 100.0
        assert cfg.run_off.current_a == 0.0
        assert (cfg.roi.low_ev, cfg.roi.high_ev) == (7629.0, 7829.0)
        assert cfg.response.fwhm_at_reference_ev == 200.0
        assert cfg.response.channel_count == 16384
        assert cfg.binning.bins == 10000
        assert cfg.limit.error_mode == "paper-naive"
        assert cfg.limit.bound_convention == "paper"
        assert cfg.source.calibration_rate_hz == 2.0
        assert len(cfg.geometry.detectors) == 6
        assert cfg.injection.enabled
        assert cfg.injection.beta2_over_2 == 4.2e-29
        assert cfg.efficiency.samples == 1_000_000
        assert set(cfg.lines) == {"ti_ka", "ti_kb", "mn_ka", "mn_kb",
                                  "pep_forbidden", "cu_ka", "cu_kb"}

    def test_file_round_trip(self, cfg, tmp_path):
        path = tmp_path / "copy.cfg"
        path.write_text(config.default_config_text())
        assert config.load_config(path) == cfg

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            config.load_config(tmp_path / "absent.cfg")


class TestStrictness:
    def test_unknown_key(self):
        text = mutated("capture_fraction = 0.1",
                       "capture_fraction = 0.1\nbogus_key = 5")
        with pytest.raises(ConfigError, match="bogus_key"):
            config.load_config_text(text)

    def test_unknown_section(self):
        text = config.default_config_text() + "\n[mystery]\nx = 1\n"
        with pytest.raises(ConfigError, match="mystery"):
            config.load_config_text(text)

    def test_missing_key(self):
        text = mutated("n_sigma = 3.0\nerror_mode", "error_mode")
        with pytest.raises(ConfigError, match="n_sigma"):
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

    def test_non_boolean_value(self):
        text = mutated("enabled = true", "enabled = maybe")
        with pytest.raises(ConfigError, match="not a boolean"):
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

    def test_geometry_strip_length_is_the_constant(self):
        text = mutated("strip_length_cm = 10.0", "strip_length_cm = 12.0")
        assert config.load_config_text(text).geometry.strip_length_cm == 12.0

    def test_run_on_must_be_on(self):
        text = mutated(
            "current_a = 100.0\nlive_time_s = 2937600\ncurrent_on = true",
            "current_a = 0.0\nlive_time_s = 2937600\ncurrent_on = false")
        with pytest.raises(ConfigError, match=r"run\.on"):
            config.load_config_text(text)

    def test_run_off_must_be_off(self):
        text = mutated(
            "current_a = 0.0\nlive_time_s = 2419200\ncurrent_on = false",
            "current_a = 0.0\nlive_time_s = 2419200\ncurrent_on = true")
        with pytest.raises(ConfigError, match=r"run\.off"):
            config.load_config_text(text)

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
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            config.load_response_file(tmp_path / "absent.cfg")

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
