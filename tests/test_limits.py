"""Counting, live-time normalization, subtraction, bound and projection."""

import dataclasses
import math

import numpy as np
import pytest

from pepsearch import limits, reference
from pepsearch.core import PhysicsConstants, RunMeta
from pepsearch.errors import DomainError
from pepsearch.eventio import Spectrum
from pepsearch.limits import Measurement, RoiDefinition

# the reference operating point, recomputed here from first principles so
# the implementation is checked against independent arithmetic
N_ON = 2222.0
N_OFF_RAW = 1796.0
ON_LIVE_S = 34.0 * 86400.0
OFF_LIVE_S = 28.0 * 86400.0
CURRENT_A = 100.0
EFFICIENCY = 0.01

OFF_NORM = N_OFF_RAW * ON_LIVE_S / OFF_LIVE_S
SIGMA_DELTA = math.sqrt(N_ON + OFF_NORM)
DELTA = N_ON - OFF_NORM
N_NEW = CURRENT_A * ON_LIVE_S / 1.602e-19
N_INT = 10.0 / 3.9e-6
DENOMINATOR = N_NEW * 0.1 * N_INT * EFFICIENCY
LIMIT = 3.0 * SIGMA_DELTA / DENOMINATOR


def reference_subtraction():
    on = Measurement(N_ON, math.sqrt(N_ON))
    off = limits.normalize_livetime(Measurement(N_OFF_RAW,
                                                math.sqrt(N_OFF_RAW)),
                                    OFF_LIVE_S, ON_LIVE_S)
    return limits.subtract(on, off,
                           normalization_factor=ON_LIVE_S / OFF_LIVE_S)


def reference_run():
    return RunMeta("on", CURRENT_A, ON_LIVE_S, True)


class TestMeasurement:
    def test_str_rounds_to_integers(self):
        assert str(Measurement(41.1428, 66.354)) == "41 +/- 66"
        assert str(Measurement(2180.857, 46.70)) == "2181 +/- 47"

    def test_validation(self):
        with pytest.raises(DomainError):
            Measurement(1.0, -0.1)
        with pytest.raises(DomainError):
            Measurement(math.nan, 1.0)
        with pytest.raises(DomainError):
            Measurement(1.0, math.inf)


class TestRoiDefinition:
    def test_defaults(self, cfg):
        roi = cfg.roi
        assert roi.low_ev == 7629.0
        assert roi.high_ev == 7829.0
        assert roi.width_ev == 200.0
        assert roi.center_ev == 7729.0

    def test_reversed_bounds(self):
        with pytest.raises(DomainError):
            RoiDefinition(low_ev=8000.0, high_ev=7000.0)


class TestCountRoi:
    def test_uniform_spectrum(self, cfg):
        spec = Spectrum(kind="energy", lo=7000.0, hi=9000.0,
                        counts=np.ones(2000, dtype=np.int64))
        got = limits.count_roi(spec, cfg.roi)
        # 1 eV bins, centers 7629.5 .. 7828.5 inclusive
        assert got.value == 200.0
        assert got.uncertainty == pytest.approx(math.sqrt(200.0))

    def test_half_open_window(self, cfg):
        # 2 eV bins with centers on odd integers: 7629 is included,
        # 7829 is excluded
        spec = Spectrum(kind="energy", lo=7628.0, hi=7830.0,
                        counts=np.ones(101, dtype=np.int64))
        got = limits.count_roi(spec, cfg.roi)
        assert got.value == 100.0

    def test_empty_spectrum(self, cfg):
        spec = Spectrum(kind="energy", lo=7000.0, hi=9000.0,
                        counts=np.zeros(2000, dtype=np.int64))
        got = limits.count_roi(spec, cfg.roi)
        assert got.value == 0.0
        assert got.uncertainty == 0.0

    def test_channel_axis_rejected(self, cfg):
        spec = Spectrum(kind="channel", lo=-0.5, hi=16383.5,
                        counts=np.ones(16384, dtype=np.int64))
        with pytest.raises(DomainError):
            limits.count_roi(spec, cfg.roi)

    def test_roi_outside_spectrum(self, cfg):
        spec = Spectrum(kind="energy", lo=7700.0, hi=7800.0,
                        counts=np.ones(100, dtype=np.int64))
        with pytest.raises(DomainError):
            limits.count_roi(spec, cfg.roi)


class TestNormalizeLivetime:
    def test_reference_normalization(self):
        got = limits.normalize_livetime(
            Measurement(N_OFF_RAW, math.sqrt(N_OFF_RAW)),
            OFF_LIVE_S, ON_LIVE_S)
        assert got.value == pytest.approx(OFF_NORM, rel=1e-12)
        assert got.uncertainty == pytest.approx(math.sqrt(OFF_NORM),
                                                rel=1e-12)
        assert str(got) == "2181 +/- 47"

    def test_propagated_mode(self):
        got = limits.normalize_livetime(
            Measurement(N_OFF_RAW, math.sqrt(N_OFF_RAW)),
            OFF_LIVE_S, ON_LIVE_S, mode=limits.ERROR_MODE_PROPAGATED)
        factor = ON_LIVE_S / OFF_LIVE_S
        assert got.uncertainty == pytest.approx(
            math.sqrt(N_OFF_RAW) * factor, rel=1e-12)
        assert got.uncertainty == pytest.approx(51.46, abs=0.01)

    def test_identity_distinguishes_modes(self):
        m = Measurement(100.0, 5.0)
        paper = limits.normalize_livetime(m, 3600.0, 3600.0)
        prop = limits.normalize_livetime(m, 3600.0, 3600.0,
                                         mode=limits.ERROR_MODE_PROPAGATED)
        assert paper.value == prop.value == 100.0
        assert paper.uncertainty == 10.0    # sqrt of the scaled value
        assert prop.uncertainty == 5.0      # input sigma carried through

    def test_zero_count(self):
        got = limits.normalize_livetime(Measurement(0.0, 0.0), 100.0, 200.0)
        assert got.value == 0.0 and got.uncertainty == 0.0

    def test_validation(self):
        m = Measurement(10.0, 3.0)
        with pytest.raises(DomainError):
            limits.normalize_livetime(m, 0.0, 100.0)
        with pytest.raises(DomainError):
            limits.normalize_livetime(m, 100.0, -1.0)
        with pytest.raises(DomainError):
            limits.normalize_livetime(m, 100.0, 100.0, mode="bogus")


class TestSubtract:
    def test_reference_delta(self):
        sub = reference_subtraction()
        assert sub.delta.value == pytest.approx(DELTA, rel=1e-12)
        assert sub.delta.uncertainty == pytest.approx(SIGMA_DELTA, rel=1e-12)
        assert str(sub.delta) == "41 +/- 66"

    def test_self_subtraction(self):
        m = Measurement(100.0, 10.0)
        sub = limits.subtract(m, m)
        assert sub.delta.value == 0.0
        assert sub.delta.uncertainty == pytest.approx(10.0 * math.sqrt(2.0))

    def test_quadrature(self):
        sub = limits.subtract(Measurement(100.0, 10.0),
                              Measurement(50.0, 5.0))
        assert sub.delta.value == 50.0
        assert sub.delta.uncertainty == pytest.approx(math.sqrt(125.0))

    def test_bad_mode(self):
        m = Measurement(1.0, 1.0)
        with pytest.raises(DomainError):
            limits.subtract(m, m, error_mode="bogus")


class TestExposureFactors:
    def test_n_new_reference(self):
        got = limits.compute_n_new(reference_run(), PhysicsConstants())
        assert got == pytest.approx(N_NEW, rel=1e-12)
        assert got == pytest.approx(1.8337e27, rel=1e-4)

    def test_n_new_scales_with_current(self):
        run = RunMeta("x", 40.0, 1.0, True)
        got = limits.compute_n_new(run, PhysicsConstants())
        assert got == pytest.approx(40.0 / 1.602e-19, rel=1e-12)
        assert got == pytest.approx(2.4969e20, rel=1e-4)

    def test_n_new_zero_exposure(self):
        run = RunMeta("idle", 0.0, 86400.0, True)
        assert limits.compute_n_new(run, PhysicsConstants()) == 0.0

    def test_n_int(self):
        got = limits.compute_n_int(PhysicsConstants())
        assert got == pytest.approx(N_INT, rel=1e-12)
        assert got == pytest.approx(2.5641e6, rel=1e-4)


class TestComputeLimit:
    def test_reference_bound(self):
        result = limits.compute_limit(reference_subtraction(),
                                      reference_run(), PhysicsConstants(),
                                      EFFICIENCY)
        assert result.denominator == pytest.approx(DENOMINATOR, rel=1e-12)
        assert result.denominator == pytest.approx(4.7e30, rel=0.01)
        assert result.beta2_over_2_limit == pytest.approx(LIMIT, rel=1e-12)
        assert result.beta2_over_2_limit == pytest.approx(4.2e-29, rel=0.02)
        assert result.confidence_label == "99.7% C.L."

    def test_doubling_efficiency_halves(self):
        sub = reference_subtraction()
        base = limits.compute_limit(sub, reference_run(), PhysicsConstants(),
                                    0.01)
        doubled = limits.compute_limit(sub, reference_run(),
                                       PhysicsConstants(), 0.02)
        assert doubled.beta2_over_2_limit == base.beta2_over_2_limit / 2.0

    def test_current_linearity(self):
        # dropping the beam from 100 A to 40 A weakens the bound 2.5x
        sub = reference_subtraction()
        base = limits.compute_limit(sub, reference_run(), PhysicsConstants(),
                                    EFFICIENCY)
        weak_run = RunMeta("on", 40.0, ON_LIVE_S, True)
        weak = limits.compute_limit(sub, weak_run, PhysicsConstants(),
                                    EFFICIENCY)
        assert weak.beta2_over_2_limit == pytest.approx(
            2.5 * base.beta2_over_2_limit, rel=1e-12)

    def test_central_convention(self):
        result = limits.compute_limit(
            reference_subtraction(), reference_run(), PhysicsConstants(),
            EFFICIENCY, bound_convention=limits.BOUND_CENTRAL)
        expected = (DELTA + 3.0 * SIGMA_DELTA) / DENOMINATOR
        assert result.beta2_over_2_limit == pytest.approx(expected, rel=1e-12)
        assert result.beta2_over_2_limit > LIMIT    # positive central value

    def test_central_convention_clamps(self):
        sub = limits.subtract(Measurement(100.0, 10.0),
                              Measurement(600.0, 10.0))
        result = limits.compute_limit(
            sub, reference_run(), PhysicsConstants(), EFFICIENCY,
            bound_convention=limits.BOUND_CENTRAL)
        assert result.beta2_over_2_limit == 0.0

    def test_paper_convention_ignores_central_value(self):
        a = limits.subtract(Measurement(500.0, 66.0), Measurement(100.0, 0.0))
        b = limits.subtract(Measurement(100.0, 66.0), Measurement(500.0, 0.0))
        la = limits.compute_limit(a, reference_run(), PhysicsConstants(),
                                  EFFICIENCY)
        lb = limits.compute_limit(b, reference_run(), PhysicsConstants(),
                                  EFFICIENCY)
        assert la.beta2_over_2_limit == lb.beta2_over_2_limit

    def test_quadrupled_statistics_halves_bound(self):
        k = 4.0
        on = Measurement(k * N_ON, math.sqrt(k * N_ON))
        off = limits.normalize_livetime(
            Measurement(k * N_OFF_RAW, math.sqrt(k * N_OFF_RAW)),
            k * OFF_LIVE_S, k * ON_LIVE_S)
        sub = limits.subtract(on, off)
        run = RunMeta("on4", CURRENT_A, k * ON_LIVE_S, True)
        scaled = limits.compute_limit(sub, run, PhysicsConstants(),
                                      EFFICIENCY)
        assert scaled.beta2_over_2_limit == pytest.approx(LIMIT / 2.0,
                                                          rel=1e-12)

    def test_monotone_in_inputs(self):
        sub = reference_subtraction()
        base = limits.compute_limit(sub, reference_run(), PhysicsConstants(),
                                    0.01).beta2_over_2_limit
        more_eff = limits.compute_limit(sub, reference_run(),
                                        PhysicsConstants(),
                                        0.02).beta2_over_2_limit
        more_current = limits.compute_limit(
            sub, RunMeta("hi", 200.0, ON_LIVE_S, True), PhysicsConstants(),
            0.01).beta2_over_2_limit
        looser = limits.compute_limit(sub, reference_run(),
                                      PhysicsConstants(), 0.01,
                                      n_sigma=5.0).beta2_over_2_limit
        assert more_eff < base
        assert more_current < base
        assert looser > base

    def test_validation(self):
        sub = reference_subtraction()
        with pytest.raises(DomainError):
            limits.compute_limit(sub, reference_run(), PhysicsConstants(),
                                 0.0)
        with pytest.raises(DomainError):
            limits.compute_limit(sub, reference_run(), PhysicsConstants(),
                                 1.5)
        for n_sigma in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="n_sigma"):
                limits.compute_limit(sub, reference_run(), PhysicsConstants(),
                                     0.01, n_sigma=n_sigma)
        with pytest.raises(DomainError):
            limits.compute_limit(sub, reference_run(), PhysicsConstants(),
                                 0.01, bound_convention="bogus")
        idle = RunMeta("idle", 0.0, ON_LIVE_S, True)
        with pytest.raises(DomainError):
            limits.compute_limit(sub, idle, PhysicsConstants(), 0.01)


class TestConfidenceLabel:
    def test_standard_levels(self):
        assert limits.confidence_label(1.0) == "68.3% C.L."
        assert limits.confidence_label(2.0) == "95.4% C.L."
        assert limits.confidence_label(3.0) == "99.7% C.L."


class TestProjection:
    def test_fixed_point(self):
        proj = limits.project_sensitivity(LIMIT, SIGMA_DELTA, ON_LIVE_S,
                                          PhysicsConstants(), EFFICIENCY,
                                          CURRENT_A)
        assert proj.improvement_factor == pytest.approx(1.0, rel=1e-12)
        assert proj.required_live_time_scaling_sigma_s == pytest.approx(
            ON_LIVE_S, rel=1e-12)
        assert proj.required_live_time_fixed_sigma_s == pytest.approx(
            ON_LIVE_S, rel=1e-12)

    def test_ten_times_tighter(self):
        proj = limits.project_sensitivity(LIMIT / 10.0, SIGMA_DELTA,
                                          ON_LIVE_S, PhysicsConstants(),
                                          EFFICIENCY, CURRENT_A)
        assert proj.improvement_factor == pytest.approx(10.0, rel=1e-12)
        assert proj.required_live_time_scaling_sigma_s == pytest.approx(
            100.0 * ON_LIVE_S, rel=1e-12)
        assert proj.required_live_time_fixed_sigma_s == pytest.approx(
            10.0 * ON_LIVE_S, rel=1e-12)

    def test_published_goal(self):
        proj = limits.project_sensitivity(1e-31, SIGMA_DELTA, ON_LIVE_S,
                                          PhysicsConstants(), EFFICIENCY,
                                          CURRENT_A)
        assert proj.reference_limit == pytest.approx(LIMIT, rel=1e-12)
        assert proj.improvement_factor == pytest.approx(LIMIT / 1e-31,
                                                        rel=1e-12)
        assert proj.improvement_factor == pytest.approx(423.4, abs=0.5)

    def test_validation(self):
        for target in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="target"):
                limits.project_sensitivity(target, SIGMA_DELTA, ON_LIVE_S,
                                           PhysicsConstants(), EFFICIENCY,
                                           CURRENT_A)
        with pytest.raises(DomainError):
            limits.project_sensitivity(1e-31, 0.0, ON_LIVE_S,
                                       PhysicsConstants(), EFFICIENCY,
                                       CURRENT_A)
        with pytest.raises(DomainError):
            limits.project_sensitivity(1e-31, SIGMA_DELTA, 0.0,
                                       PhysicsConstants(), EFFICIENCY,
                                       CURRENT_A)

    def test_report_text(self):
        proj = limits.project_sensitivity(1e-31, SIGMA_DELTA, ON_LIVE_S,
                                          PhysicsConstants(), EFFICIENCY,
                                          CURRENT_A)
        text = limits.render_projection_report(proj)
        assert "improvement factor   = 423.4" in text
        assert "34.00 d" in text


class TestReports:
    def test_limit_report_contents(self):
        result = limits.compute_limit(reference_subtraction(),
                                      reference_run(), PhysicsConstants(),
                                      EFFICIENCY)
        text = limits.render_limit_report(
            result, n_off_raw=Measurement(N_OFF_RAW, math.sqrt(N_OFF_RAW)),
            off_live_time_s=OFF_LIVE_S, on_live_time_s=ON_LIVE_S)
        assert "N_on             = 2222 +/- 47" in text
        assert "N_off_raw        = 1796 +/- 42   (28.000 d)" in text
        assert "delta            = 41 +/- 66" in text
        assert "denominator      = 4.7018e+30" in text
        assert "beta2/2 <= 4.2e-29" in text
        assert "99.7% C.L." in text

    def test_analysis_report_round_trip(self, cfg):
        record = limits.AnalysisRecord(
            subtraction=reference_subtraction(),
            n_off_raw=Measurement(N_OFF_RAW, math.sqrt(N_OFF_RAW)),
            on_run=reference_run(),
            off_live_time_s=OFF_LIVE_S,
            roi=cfg.roi)
        text = limits.render_analysis_report(record)
        back = limits.parse_analysis_report(text)
        assert back == record    # repr round trip is exact for floats

    def test_parse_missing_key(self):
        with pytest.raises(DomainError):
            limits.parse_analysis_report("n_on = 5\n")

    def test_parse_malformed_number(self, cfg):
        record = limits.AnalysisRecord(
            subtraction=reference_subtraction(),
            n_off_raw=Measurement(N_OFF_RAW, math.sqrt(N_OFF_RAW)),
            on_run=reference_run(),
            off_live_time_s=OFF_LIVE_S,
            roi=cfg.roi)
        text = limits.render_analysis_report(record)
        with pytest.raises(DomainError):
            limits.parse_analysis_report(text.replace("repr", "repr")
                                         .replace("delta = ", "delta = x"))


class TestReproduceReference:
    def test_reproduction_passes(self, cfg):
        result = reference.reproduce_reference(cfg)
        assert result.passed
        assert result.deviation < 0.02
        assert result.limit.beta2_over_2_limit == pytest.approx(LIMIT,
                                                                rel=1e-12)
        assert "verdict          = PASS" in result.report
        assert "published bound  = 4.2e-29" in result.report
        assert "41 +/- 66" in result.report

    def test_drifted_config_rejected(self, cfg):
        bad = dataclasses.replace(
            cfg, constants=dataclasses.replace(cfg.constants,
                                               capture_fraction=0.2))
        with pytest.raises(DomainError, match="capture_fraction"):
            reference.reproduce_reference(bad)
