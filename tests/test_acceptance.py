"""Top-level acceptance gates for the whole toolkit.

Each test records its verdict on the conftest board so the terminal
summary prints one line per criterion next to the usual pytest output.
"""

import dataclasses
import io
import math
import re
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import integrate

from conftest import CRITERIA_BOARD, calibration_kwargs
from pepsearch import calibrate, eventio, limits, reference, simulate
from pepsearch.efficiency import run_efficiency
from pepsearch.errors import FormatError, TruncatedFileError
from pepsearch.eventio import (EVENT_DTYPE, RunHeader, TRIGGER_SDD,
                               TRIGGER_VETO_INNER, TRIGGER_VETO_OUTER,
                               read_run, write_run)


@contextmanager
def criterion(number: int, name: str):
    ok = False
    try:
        yield
        ok = True
    finally:
        CRITERIA_BOARD.append((number, name, ok))


def roi_count(cfg, events, live_time_s):
    """The counting path the analysis CLI uses, condensed."""
    spec = eventio.histogram(events, cfg.response, cfg.binning.bins,
                             cfg.binning.low_ev, cfg.binning.high_ev,
                             live_time_s)
    return limits.count_roi(spec, cfg.roi).value


def analytic_roi_rate_hz(source, response, roi):
    """Expected ROI rate of a source model after veto rejection.

    Flat components (continuum, untagged muons) contribute their width
    share; lines contribute their Gaussian containment.
    """
    flat_hz = source.continuum.rate_hz \
        + source.muon_rate_hz * (1.0 - source.veto_tag_probability)
    span = source.continuum.high_ev - source.continuum.low_ev
    rate = flat_hz * roi.width_ev / span
    for line, line_rate in source.lines:
        rate += line_rate * simulate.roi_containment(response, roi,
                                                     line.energy_ev)
    return rate


class TestCriterion1:
    def test_published_limit_reproduction(self, cfg):
        with criterion(1, "published-limit reproduction"):
            start = time.perf_counter()
            result = reference.reproduce_reference(cfg)
            elapsed = time.perf_counter() - start
            assert "delta            = 41 +/- 66" in result.report
            denom = float(re.search(r"denominator\s+= (\S+)",
                                    result.report).group(1))
            assert abs(denom / 4.7e30 - 1.0) < 0.01
            assert abs(result.limit.beta2_over_2_limit / 4.2e-29
                       - 1.0) < 0.02
            assert result.passed
            assert elapsed < 1.0


class TestCriterion2:
    def test_injected_signal_recovered(self, cfg, quiet_source,
                                       no_injection):
        with criterion(2, "forward/inverse injection consistency"):
            inj_on = dataclasses.replace(cfg.injection,
                                         beta2_over_2=4.2e-29)
            inj_off = no_injection
            eff = cfg.limit.efficiency
            live = cfg.run_on.live_time_s
            excesses = []
            # paired runs share the seed, so the background events are
            # identical and the difference isolates the injected line
            for seed in range(20):
                _, with_signal, _ = simulate.simulate_run(
                    quiet_source, inj_on, cfg.response, eff, cfg.run_on,
                    cfg.constants, cfg.roi, seed)
                _, without, _ = simulate.simulate_run(
                    quiet_source, inj_off, cfg.response, eff, cfg.run_on,
                    cfg.constants, cfg.roi, seed)
                excesses.append(roi_count(cfg, with_signal, live)
                                - roi_count(cfg, without, live))
            mean_excess = float(np.mean(excesses))
            assert abs(mean_excess - 198.0) < 15.0


class TestCriterion3:
    def test_null_campaign_statistics(self, cfg, quiet_source,
                                      no_injection):
        with criterion(3, "null-campaign limit statistics"):
            on_run = dataclasses.replace(cfg.run_on, live_time_s=259200)
            off_run = dataclasses.replace(cfg.run_off, live_time_s=172800)
            eff = cfg.limit.efficiency
            pulls = []
            bounds = []
            for seed in range(100):
                (_, ev_on, _), (_, ev_off, _) = simulate.simulate_campaign(
                    quiet_source, no_injection, cfg.response, eff, on_run,
                    off_run, cfg.constants, cfg.roi, seed)
                raw_on = roi_count(cfg, ev_on, on_run.live_time_s)
                raw_off = roi_count(cfg, ev_off, off_run.live_time_s)
                sub = limits.subtract(
                    limits.poisson_count(raw_on),
                    limits.poisson_count(raw_off), on_run.live_time_s,
                    off_run.live_time_s, limits.ERROR_MODE_PAPER)
                pulls.append(sub.delta.value / sub.delta.uncertainty)
                bounds.append(limits.compute_limit(
                    sub, on_run, cfg.constants, eff, n_sigma=3.0,
                    bound_convention=limits.BOUND_PAPER).beta2_over_2_limit)

            assert abs(float(np.mean(pulls))) < 0.3

            # analytic sigma of the subtraction: Var = mu_on + f^2 Var_off
            # with f = 3/2 under the naive scaled-Poisson error model
            rate = analytic_roi_rate_hz(quiet_source, cfg.response, cfg.roi)
            mu_on = rate * on_run.live_time_s
            mu_off = rate * off_run.live_time_s
            sigma_ref = math.sqrt(mu_on + 1.5 * mu_off)
            denom = (limits.compute_n_new(on_run, cfg.constants)
                     * cfg.constants.capture_fraction
                     * limits.compute_n_int(cfg.constants) * eff)
            ref_bound = 3.0 * sigma_ref / denom
            assert abs(float(np.mean(bounds)) / ref_bound - 1.0) < 0.15


class TestCriterion4:
    def test_efficiency_monte_carlo(self, cfg):
        with criterion(4, "efficiency Monte Carlo"):
            geometry = cfg.geometry
            consts = cfg.constants
            result = run_efficiency(geometry, consts, 1_000_000, seed=3,
                                    batch_size=cfg.efficiency.batch_size)
            assert 0.005 <= result.efficiency <= 0.02
            assert result.mc_uncertainty / result.efficiency < 0.05

            # slab-escape oracle: uniform depth, isotropic direction
            t = geometry.strip_thickness_cm
            att = consts.cu_attenuation_length_cm
            escape, _ = integrate.dblquad(
                lambda mu, x: math.exp(-x / (att * mu)),
                0.0, t, 1e-9, 1.0)
            escape /= t
            assert abs(result.breakdown[0] / escape - 1.0) < 0.01


class TestCriterion5:
    def test_calibration_closed_loop(self, cfg):
        with criterion(5, "calibration closed loop"):
            # the bundled 34-day on-run: an offset uncertainty of ~0.3 eV
            # puts the 1 eV bound at more than 3 sigma
            run = cfg.run_on
            anchors = [cfg.lines[label] for label in cfg.calibration.anchors]
            checks = [cfg.lines[label]
                      for label in cfg.calibration.crosschecks]
            for seed in (11, 13, 23):
                _, events, _ = simulate.simulate_run(
                    cfg.source, cfg.injection, cfg.response,
                    cfg.limit.efficiency, run, cfg.constants, cfg.roi,
                    seed)
                raw = eventio.histogram(
                    events, None, cfg.response.channel_count, -0.5,
                    cfg.response.channel_count - 0.5, run.live_time_s)
                result, _ = calibrate.calibrate_spectrum(
                    raw, anchors, checks, **calibration_kwargs(cfg))
                assert abs(result.gain_ev_per_channel - 1.0) < 0.001
                assert abs(result.offset_ev) < 1.0
                assert abs(result.resolution_fwhm_at_8kev - 200.0) < 5.0


class TestCriterion6:
    def test_roi_gaussian_fraction(self, cfg, silent_source, no_injection):
        with criterion(6, "ROI containment of the search line"):
            pep = cfg.lines["pep_forbidden"]
            pure = dataclasses.replace(silent_source, lines=((pep, 12.0),))
            day_run = dataclasses.replace(cfg.run_on, live_time_s=86400)
            _, events, _ = simulate.simulate_run(
                pure, no_injection, cfg.response, cfg.limit.efficiency,
                day_run, cfg.constants, cfg.roi, seed=5)
            assert len(events) > 1_000_000
            fraction = roi_count(cfg, events, day_run.live_time_s) \
                / len(events)
            assert abs(fraction - 0.761) < 0.005


class TestCriterion7:
    @staticmethod
    def random_events(rng, n):
        events = np.zeros(n, dtype=EVENT_DTYPE)
        if n == 0:
            return events
        events["timestamp_ns"] = np.cumsum(
            rng.integers(0, 1 << 20, n, dtype=np.uint64))
        veto_only = rng.random(n) < 0.2
        sdd_flags = (TRIGGER_SDD
                     | (rng.integers(0, 4, n) << 1)).astype(np.uint8)
        veto_flags = rng.choice([TRIGGER_VETO_INNER, TRIGGER_VETO_OUTER,
                                 TRIGGER_VETO_INNER | TRIGGER_VETO_OUTER],
                                n).astype(np.uint8)
        events["trigger_flags"] = np.where(veto_only, veto_flags, sdd_flags)
        events["adc"] = rng.integers(0, 16384, n)
        return events

    def test_round_trip_fuzz(self):
        with criterion(7, "event-file format robustness"):
            rng = np.random.default_rng(7)
            alphabet = np.array(list(
                "abcdefghijklmnopqrstuvwxyz0123456789-_"))
            for _ in range(10_000):
                n = int(rng.integers(0, 30))
                run_id = "".join(rng.choice(alphabet,
                                            int(rng.integers(0, 13))))
                header = RunHeader(
                    run_id=run_id,
                    current_ma=int(rng.integers(0, 200_001)),
                    live_time_s=int(rng.integers(0, 10_000_000)),
                    current_on=bool(rng.integers(0, 2)),
                    event_count=n)
                events = self.random_events(rng, n)
                first = io.BytesIO()
                write_run(header, events, first)
                got_header, got_events = read_run(first.getvalue())
                second = io.BytesIO()
                write_run(got_header, got_events, second)
                assert second.getvalue() == first.getvalue()
                assert got_header == header

    def test_truncation_fuzz(self):
        with criterion(7, "truncation never crashes or passes"):
            rng = np.random.default_rng(77)
            header = RunHeader(run_id="trunc-check", current_ma=100_000,
                               live_time_s=86400, current_on=True,
                               event_count=5)
            buffer = io.BytesIO()
            write_run(header, self.random_events(rng, 5), buffer)
            data = buffer.getvalue()
            for cut in range(len(data)):
                with pytest.raises(FormatError) as excinfo:
                    read_run(data[:cut])
                assert excinfo.value.offset is not None

    def test_header_byte_fuzz(self):
        # every header byte XORed with 0x01, 0x80 and 0xFF, then an
        # event_count of 2**64 - 1: read_run returns or raises a
        # FormatError naming an offset; any other exception fails
        with criterion(7, "header corruption never crashes"):
            rng = np.random.default_rng(777)
            cases = []
            # the empty off-run's header is all ASCII, so a longer run_id
            # still decodes and its header tail runs past the end
            for header in (RunHeader("head-check", 100_000, 86400, True, 4),
                           RunHeader("head-check", 0, 3600, False, 0)):
                n = header.event_count
                buffer = io.BytesIO()
                write_run(header, self.random_events(rng, n), buffer)
                data = buffer.getvalue()
                head_size = len(data) - n * eventio.RECORD_SIZE
                cases += [data[:i] + bytes([data[i] ^ mask]) + data[i + 1:]
                          for i in range(head_size)
                          for mask in (0x01, 0x80, 0xFF)]
            huge = data[:head_size - 8] + (2**64 - 1).to_bytes(8, "little")
            for case in cases + [huge]:
                try:
                    read_run(case)
                except FormatError as exc:
                    assert exc.offset is not None
            with pytest.raises(TruncatedFileError) as excinfo:
                read_run(huge)
            assert excinfo.value.offset == len(data)


class TestCriterion8:
    def test_projection_sanity(self, cfg):
        with criterion(8, "sensitivity projection sanity"):
            ref = reference.PUBLISHED_REFERENCE
            off_norm = ref["n_off_raw_counts"] * ref["on_live_time_s"] \
                / ref["off_live_time_s"]
            sigma = math.sqrt(ref["n_on_counts"] + off_norm)
            proj = limits.project_sensitivity(
                4.2e-29, sigma, ref["on_live_time_s"], cfg.constants,
                ref["efficiency"], ref["current_a"], n_sigma=ref["n_sigma"])
            # the operating point is a fixed point up to the 2% rounding
            # of the published bound itself
            days = proj.required_live_time_fixed_sigma_s / 86400.0
            assert abs(days / 34.0 - 1.0) < 0.02
            assert abs(proj.improvement_factor - 1.0) < 0.02

            goal = limits.project_sensitivity(
                1e-31, sigma, ref["on_live_time_s"], cfg.constants,
                ref["efficiency"], ref["current_a"], n_sigma=ref["n_sigma"])
            assert 400.0 < goal.improvement_factor < 440.0
            assert abs(goal.improvement_factor
                       - proj.reference_limit / 1e-31) < 1e-9
