"""Core model: width conversions, the configured line table, response map,
geometry."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pepsearch import core
from pepsearch.errors import ConfigError, DomainError

# half-maximum crossing of a unit Gaussian, solved independently of the
# closed form: exp(-x^2/2) = 1/2  ->  x = sqrt(2 ln 2)
_HALF_MAX_X = math.sqrt(2.0 * math.log(2.0))


class TestWidthConversions:
    def test_200_ev_fwhm(self):
        assert core.fwhm_to_sigma(200.0) == pytest.approx(
            100.0 / _HALF_MAX_X, rel=1e-12)
        assert core.fwhm_to_sigma(200.0) == pytest.approx(84.932, abs=5e-4)

    def test_round_number_sigma(self):
        assert core.fwhm_to_sigma(235.48) == pytest.approx(100.0, abs=1e-3)

    def test_zero_width_limit(self):
        assert core.fwhm_to_sigma(1e-9) == pytest.approx(0.0, abs=1e-9)

    def test_non_positive_rejected(self):
        with pytest.raises(DomainError):
            core.fwhm_to_sigma(0.0)
        with pytest.raises(DomainError):
            core.fwhm_to_sigma(-1.0)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_inverse_composition(self, fwhm):
        # the calibration turns fitted sigmas back into FWHM this way
        assert core.FWHM_OVER_SIGMA * core.fwhm_to_sigma(fwhm) \
            == pytest.approx(fwhm, rel=1e-12)


class TestLineTable:
    def test_required_lines(self, cfg):
        table = cfg.lines
        assert table["pep_forbidden"].energy_ev == 7729.0
        assert table["cu_ka"].energy_ev == 8040.0
        assert table["mn_ka"].energy_ev == pytest.approx(5899.0, abs=1.0)
        assert table["ti_ka"].energy_ev == pytest.approx(4511.0, abs=1.0)
        for label in ("cu_kb", "mn_kb", "ti_kb"):
            assert label in table

    def test_sorted_and_positive(self, cfg):
        # the loader keys the lines by label, in label order
        assert list(cfg.lines) == sorted(cfg.lines)
        assert all(ln.label == label for label, ln in cfg.lines.items())
        assert all(ln.energy_ev > 0 for ln in cfg.lines.values())

    def test_pep_line_is_roi_midpoint(self, cfg):
        midpoint = 0.5 * (cfg.roi.low_ev + cfg.roi.high_ev)
        assert cfg.lines["pep_forbidden"].energy_ev == midpoint
        assert cfg.injection.line_energy_ev == midpoint

    def test_relative_intensity_validated(self):
        with pytest.raises(DomainError):
            core.EmissionLine("bad", -1.0, 1.0)
        with pytest.raises(DomainError):
            core.EmissionLine("bad", 5000.0, 0.0)


class TestResponseModel:
    def test_affine_monotone(self, cfg):
        r = dataclasses.replace(cfg.response, gain_ev_per_channel=2.5,
                                offset_ev=-300.0)
        ch = np.arange(0, 16384, 97)
        e = r.energy_of(ch)
        assert np.all(np.diff(e) > 0)
        assert e[0] == -300.0

    def test_round_trip_half_channel(self, cfg):
        r = dataclasses.replace(cfg.response, gain_ev_per_channel=1.7,
                                offset_ev=12.0)
        for ch in (0, 1, 100, 8191, 16383):
            assert r.channel_of(r.energy_of(ch)) == ch
        # energy -> channel -> energy lands within half a gain step
        for e_kev in np.linspace(3.0, 10.0, 23):
            e = 1000.0 * e_kev
            back = r.energy_of(r.channel_of(e))
            assert abs(back - e) <= r.gain_ev_per_channel / 2

    def test_sigma_from_fwhm(self, cfg):
        r = dataclasses.replace(cfg.response, fwhm_at_reference_ev=200.0)
        assert r.sigma_ev == pytest.approx(core.fwhm_to_sigma(200.0))

    def test_validation(self, cfg):
        for bad in (dict(gain_ev_per_channel=0.0),
                    dict(fwhm_at_reference_ev=-5.0),
                    dict(channel_count=1), dict(channel_count=70000)):
            with pytest.raises(DomainError):
                dataclasses.replace(cfg.response, **bad)


class TestPhysicsConstants:
    def test_configured_values(self, cfg):
        c = cfg.constants
        assert c.electron_charge_c == 1.602e-19
        assert c.strip_length_cm == 10.0
        assert c.electron_mean_free_path_cm == 3.9e-6
        assert c.capture_fraction == 0.1

    def test_validation(self, cfg):
        with pytest.raises(DomainError):
            dataclasses.replace(cfg.constants, strip_length_cm=0.0)
        with pytest.raises(DomainError):
            dataclasses.replace(cfg.constants, capture_fraction=1.5)


class TestGeometry:
    def test_default_geometry(self, cfg):
        g = cfg.geometry
        assert len(g.detectors) == 6
        assert g.strip_length_cm == 10.0
        ids = sorted(p.det_id for p in g.detectors)
        assert ids == list(range(6))

    def test_overlap_rejected(self, cfg):
        a = core.DetectorPlate(0, 0.0, 0.0, 1.0, 1.0, 1.0, -1)
        b = core.DetectorPlate(1, 0.5, 0.0, 1.0, 1.0, 1.0, -1)
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg.geometry, detectors=(a, b))

    def test_degenerate_allowed(self, cfg):
        g = dataclasses.replace(cfg.geometry, strip_thickness_cm=0.0,
                                detectors=())
        assert len(g.detectors) == 0

    def test_plate_validation(self):
        with pytest.raises(ConfigError):
            core.DetectorPlate(0, 0.0, 0.0, 1.0, -1.0, 1.0, -1)
        with pytest.raises(ConfigError):
            core.DetectorPlate(0, 0.0, 0.0, 1.0, 1.0, 1.0, 0)


class TestRunMeta:
    def test_current_consistency(self):
        with pytest.raises(DomainError):
            core.RunMeta("x", 100.0, 3600.0, current_on=False)
        with pytest.raises(DomainError):
            core.RunMeta("x", -1.0, 3600.0, current_on=True)
        meta = core.RunMeta("x", 0.0, 3600.0, current_on=False)
        assert not meta.current_on

    # simulate writes <run_id>.run into --output-dir, so a run_id must name
    # a file there; the message shows it by repr, on one line
    @pytest.mark.parametrize("run_id", ["", "../escaped", "a\\b",
                                        "on-100A-34d\n../../evil", "a\x00b",
                                        "a\u2028b"])
    def test_run_id_is_a_file_name(self, run_id):
        with pytest.raises(DomainError) as excinfo:
            core.RunMeta(run_id, 0.0, 3600.0, current_on=False)
        assert str(excinfo.value).startswith(f"run_id {run_id!r} ")
        assert len(str(excinfo.value).splitlines()) == 1
