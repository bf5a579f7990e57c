"""Synthetic event-stream generator: forward model, determinism, tuning."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from pepsearch import config, core, eventio, limits, simulate
from pepsearch.errors import DomainError

LAMBDA_REF = 4.2e-29 * (100.0 * 34 * 86400 / 1.602e-19) \
    * (10.0 / 3.9e-6) * 0.1 * 0.01  # direct arithmetic of the forward model


def roi_count(events, cfg, live):
    spec = eventio.histogram(events, cfg.response, cfg.binning.bins,
                             cfg.binning.low_ev, cfg.binning.high_ev, live)
    return limits.count_roi(spec, cfg.roi).value


def reference_run(source, response, live, seed, n_slices):
    """Per-record reference generator for a source of lines and muons.

    Each component's total is the first draw of its stream, and one
    multinomial draw splits it over ``n_slices`` equal time slices.  Slice
    s of a component draws from child s of its stream, with the plain
    (not in-place) arithmetic: energies, sorted times, normals, detector,
    timing, then the muon tags.  Each slice is ordered by ``lexsort`` with
    an explicit index tiebreak over the components in order, and the
    slices are concatenated.
    """
    assert source.continuum.rate_hz == 0 and source.calibration_rate_hz == 0
    streams = np.random.SeedSequence(seed).spawn(len(source.lines) + 4)
    muon_stream = streams[len(source.lines) + 2]
    components = [(stream, rate, lambda rng, n, e=line.energy_ev: e, 0.0)
                  for (line, rate), stream in zip(source.lines, streams)]
    components.append((muon_stream, source.muon_rate_hz,
                       source.continuum.sample, source.veto_tag_probability))

    splits = []
    for stream, rate, _, _ in components:
        rng = np.random.default_rng(stream)
        n = int(rng.poisson(rate * live))
        splits.append((rng.multinomial(n, [1.0 / n_slices] * n_slices),
                       stream.spawn(n_slices)))

    slices = []
    for s in range(n_slices):
        t0, t1 = live * s / n_slices, live * (s + 1) / n_slices
        parts = []
        for (_, _, energy, tag_p), (counts, children) in zip(components,
                                                             splits):
            n = int(counts[s])
            rng = np.random.default_rng(children[s])
            energies = energy(rng, n)
            times = np.sort(rng.uniform(t0, t1, n))
            smeared = energies + response.sigma_ev * rng.standard_normal(n)
            channels = np.clip(response.channel_of(smeared), 0,
                               response.channel_count - 1)
            events = np.zeros(n, eventio.EVENT_DTYPE)
            events["timestamp_ns"] = (times * 1e9).astype(np.uint64)
            events["trigger_flags"] = eventio.TRIGGER_SDD
            events["sdd_id"] = rng.integers(0, core.SDD_COUNT, n)
            events["adc"] = channels
            events["sdd_timing_ns"] = rng.integers(-500, 501, n,
                                                   dtype=np.int32)
            if tag_p > 0:
                tagged = rng.random(n) < tag_p
                events["trigger_flags"][tagged] |= eventio.VETO_COINCIDENCE
            parts.append(events)
        events = np.concatenate(parts)
        slices.append(events[np.lexsort((np.arange(len(events)),
                                         events["timestamp_ns"]))])
    return np.concatenate(slices)


def tally_by_name(tallies, name):
    matches = [t for t in tallies if t.name == name]
    assert len(matches) == 1, f"tally {name!r} not found"
    return matches[0]


class TestExpectedViolationCounts:
    @pytest.fixture(autouse=True)
    def setup(self, cfg):
        self.consts = core.PhysicsConstants()
        self.run = core.RunMeta("on", 100.0, 34 * 86400.0, True)
        self.inj = dataclasses.replace(cfg.injection, beta2_over_2=4.2e-29,
                                       enabled=True)

    def test_reference_point(self):
        lam = simulate.expected_violation_counts(self.inj, self.run,
                                                 self.consts, 0.01)
        assert lam == pytest.approx(LAMBDA_REF, rel=1e-12)
        assert lam == pytest.approx(197.5, abs=0.1)

    def test_zero_strength(self):
        inj = dataclasses.replace(self.inj, beta2_over_2=0.0)
        assert simulate.expected_violation_counts(inj, self.run, self.consts,
                                                  0.01) == 0.0

    def test_disabled(self):
        inj = dataclasses.replace(self.inj, beta2_over_2=1e-20,
                                  enabled=False)
        assert simulate.expected_violation_counts(inj, self.run, self.consts,
                                                  0.01) == 0.0

    def test_current_off(self):
        off = core.RunMeta("off", 0.0, 34 * 86400.0, False)
        assert simulate.expected_violation_counts(self.inj, off, self.consts,
                                                  0.01) == 0.0

    def test_efficiency_domain(self):
        with pytest.raises(DomainError):
            simulate.expected_violation_counts(self.inj, self.run,
                                               self.consts, 0.0)
        with pytest.raises(DomainError):
            simulate.expected_violation_counts(self.inj, self.run,
                                               self.consts, 1.5)

    def test_linearity(self):
        base = simulate.expected_violation_counts(self.inj, self.run,
                                                  self.consts, 0.01)
        double_beta = dataclasses.replace(self.inj, beta2_over_2=8.4e-29)
        assert simulate.expected_violation_counts(
            double_beta, self.run, self.consts, 0.01) == pytest.approx(
                2 * base, rel=1e-12)
        double_t = dataclasses.replace(self.run, live_time_s=68 * 86400.0)
        assert simulate.expected_violation_counts(
            self.inj, double_t, self.consts, 0.01) == pytest.approx(
                2 * base, rel=1e-12)
        assert simulate.expected_violation_counts(
            self.inj, self.run, self.consts, 0.02) == pytest.approx(
                2 * base, rel=1e-12)

    def test_40_ampere_scaling(self):
        base = simulate.expected_violation_counts(self.inj, self.run,
                                                  self.consts, 0.01)
        run40 = dataclasses.replace(self.run, current_a=40.0)
        assert simulate.expected_violation_counts(
            self.inj, run40, self.consts, 0.01) == pytest.approx(
                0.4 * base, rel=1e-12)


class TestRoiContainment:
    def test_matches_erf(self, cfg):
        sigma = cfg.response.sigma_ev
        frac = simulate.roi_containment(cfg.response, cfg.roi, 7729.0)
        assert frac == pytest.approx(math.erf(100.0 / (sigma * math.sqrt(2))),
                                     rel=1e-12)
        assert frac == pytest.approx(0.761, abs=0.001)

    def test_off_center_line(self, cfg):
        # cu_ka leaks only its lower tail into the ROI
        frac = simulate.roi_containment(cfg.response, cfg.roi, 8040.0)
        assert 0.0 < frac < 0.01


class TestSimulateRun:
    def test_empty_stream(self, cfg, no_injection):
        silent = simulate.SourceModel(
            continuum=simulate.ContinuumModel(rate_hz=0.0))
        header, events, tallies = simulate.simulate_run(
            silent, no_injection, cfg.response, 0.01, cfg.run_on,
            cfg.constants, cfg.roi, 1)
        assert header.event_count == 0
        assert len(events) == 0

    def test_single_line_moments(self, cfg, no_injection):
        cu = cfg.lines["cu_ka"]
        run1d = dataclasses.replace(cfg.run_on, live_time_s=86400)
        src = simulate.SourceModel(lines=((cu, 1e6 / 86400.0),),
                                   continuum=simulate.ContinuumModel(
                                       rate_hz=0.0))
        header, events, _ = simulate.simulate_run(
            src, no_injection, cfg.response, 0.01, run1d, cfg.constants,
            cfg.roi, 5)
        energies = cfg.response.energy_of(events["adc"].astype(np.float64))
        assert energies.mean() == pytest.approx(8040.0, abs=0.3)
        fwhm = energies.std(ddof=1) * core.FWHM_OVER_SIGMA
        assert fwhm == pytest.approx(200.0, abs=1.0)

    def test_determinism(self, cfg, quiet_source, no_injection):
        run = dataclasses.replace(cfg.run_on, live_time_s=86400)
        a = simulate.simulate_run(quiet_source, no_injection, cfg.response,
                                  0.01, run, cfg.constants, cfg.roi, 77)
        b = simulate.simulate_run(quiet_source, no_injection, cfg.response,
                                  0.01, run, cfg.constants, cfg.roi, 77)
        c = simulate.simulate_run(quiet_source, no_injection, cfg.response,
                                  0.01, run, cfg.constants, cfg.roi, 78)
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])
        assert not (len(a[1]) == len(c[1])
                    and np.array_equal(a[1], c[1]))

    def test_timestamps_sorted(self, cfg, quiet_source, no_injection):
        run = dataclasses.replace(cfg.run_on, live_time_s=86400)
        _, events, _ = simulate.simulate_run(
            quiet_source, no_injection, cfg.response, 0.01, run,
            cfg.constants, cfg.roi, 3)
        ts = events["timestamp_ns"].astype(np.int64)
        assert np.all(np.diff(ts) >= 0)

    def test_component_additivity(self, cfg, no_injection):
        run = dataclasses.replace(cfg.run_on, live_time_s=3 * 86400)
        _, _, tallies = simulate.simulate_run(
            cfg.source, no_injection, cfg.response, 0.01, run, cfg.constants,
            cfg.roi, 11)
        for t in tallies:
            if t.expected >= 25.0:
                assert abs(t.sampled - t.expected) < 4 * math.sqrt(t.expected), \
                    f"component {t.name}: {t.sampled} vs {t.expected}"

    def test_muon_veto_tagging(self, cfg, no_injection):
        src = simulate.SourceModel(
            continuum=simulate.ContinuumModel(rate_hz=0.0),
            muon_rate_hz=0.05, veto_tag_probability=0.9)
        run = dataclasses.replace(cfg.run_on, live_time_s=10 * 86400)
        _, events, _ = simulate.simulate_run(
            src, no_injection, cfg.response, 0.01, run, cfg.constants,
            cfg.roi, 21)
        n = len(events)
        tagged = (events["trigger_flags"] & eventio.VETO_COINCIDENCE) \
            == eventio.VETO_COINCIDENCE
        assert n > 30_000
        frac = tagged.sum() / n
        assert frac == pytest.approx(0.9, abs=4 * math.sqrt(0.09 / n))

    def test_overflow_clamping(self, cfg, no_injection):
        resp = dataclasses.replace(cfg.response, channel_count=4096)
        cu = cfg.lines["cu_ka"]  # 8040 eV, far above channel 4095
        run = dataclasses.replace(cfg.run_on, live_time_s=86400)
        src = simulate.SourceModel(lines=((cu, 0.1),),
                                   continuum=simulate.ContinuumModel(
                                       rate_hz=0.0))
        header, events, tallies = simulate.simulate_run(
            src, no_injection, resp, 0.01, run, cfg.constants, cfg.roi, 2)
        clamped = tally_by_name(tallies, "clamped_high")
        assert clamped.sampled == header.event_count
        assert events["adc"].max() == 4095

    def test_violation_only_when_enabled(self, cfg, quiet_source):
        run = dataclasses.replace(cfg.run_on, live_time_s=86400)
        inj = dataclasses.replace(cfg.injection, beta2_over_2=4.2e-29,
                                  enabled=True)
        _, _, tallies = simulate.simulate_run(
            quiet_source, inj, cfg.response, 0.01, run, cfg.constants,
            cfg.roi, 4)
        lam = simulate.expected_violation_counts(inj, run, cfg.constants,
                                                 0.01)
        frac = simulate.roi_containment(cfg.response, cfg.roi, 7729.0)
        viol = tally_by_name(tallies, "violation")
        assert viol.expected == pytest.approx(lam / frac, rel=1e-12)
        off = dataclasses.replace(cfg.run_off, live_time_s=86400)
        _, _, tallies_off = simulate.simulate_run(
            quiet_source, inj, cfg.response, 0.01, off, cfg.constants,
            cfg.roi, 4)
        assert tally_by_name(tallies_off, "violation").expected == 0.0
        assert tally_by_name(tallies_off, "violation").sampled == 0

    def test_configured_violation_energy(self, cfg):
        assert cfg.injection.line_energy_ev \
            == cfg.lines["pep_forbidden"].energy_ev
        text = config.default_config_text().replace(
            "[line.pep_forbidden]\nenergy_ev = 7729.0",
            "[line.pep_forbidden]\nenergy_ev = 7700.0")
        moved = config.load_config_text(text)
        assert moved.injection.line_energy_ev == 7700.0
        # a source that emits nothing: every event is an injected photon
        inj = dataclasses.replace(moved.injection, beta2_over_2=1e-27)
        _, events, _ = simulate.simulate_run(
            simulate.SourceModel(), inj, moved.response, 0.01, moved.run_on,
            moved.constants, moved.roi, 6)
        n = len(events)
        assert n > 1000
        sigma_ch = moved.response.sigma_ev / moved.response.gain_ev_per_channel
        expect = moved.response.channel_of(7700.0)
        assert abs(events["adc"].mean() - expect) < 5 * sigma_ch / math.sqrt(n)

    def test_paired_injection_excess(self, cfg, quiet_source, no_injection):
        inj = dataclasses.replace(cfg.injection, beta2_over_2=4.2e-29,
                                  enabled=True)
        _, ev_inj, _ = simulate.simulate_run(
            quiet_source, inj, cfg.response, 0.01, cfg.run_on, cfg.constants,
            cfg.roi, 0)
        _, ev_null, _ = simulate.simulate_run(
            quiet_source, no_injection, cfg.response, 0.01, cfg.run_on,
            cfg.constants, cfg.roi, 0)
        excess = roi_count(ev_inj, cfg, cfg.run_on.live_time_s) \
            - roi_count(ev_null, cfg, cfg.run_on.live_time_s)
        assert abs(excess - 198) < 3 * math.sqrt(198)

    @staticmethod
    def check_tie_order(cfg, no_injection, n_slices):
        # 10000 events in 1e5 ns slots: hundreds of equal timestamps, many
        # of them involving a veto-tagged muon
        live = 1e-4
        src = simulate.SourceModel(
            lines=((cfg.lines["cu_ka"], 5e7), (cfg.lines["ti_ka"], 2e7)),
            continuum=simulate.ContinuumModel(rate_hz=0.0),
            muon_rate_hz=3e7, veto_tag_probability=0.5)
        run = dataclasses.replace(cfg.run_on, live_time_s=live)
        _, events, _ = simulate.simulate_run(
            src, no_injection, cfg.response, 0.01, run, cfg.constants,
            cfg.roi, 13)
        expected = reference_run(src, cfg.response, live, 13, n_slices)
        ts = events["timestamp_ns"]
        tie = ts[1:] == ts[:-1]
        tagged = (events["trigger_flags"] & eventio.TRIGGER_VETO_INNER) != 0
        assert tie.sum() >= 100
        assert (tie & (tagged[1:] | tagged[:-1])).sum() >= 20
        assert events.dtype == expected.dtype
        for name in eventio.EVENT_DTYPE.names:
            assert np.array_equal(events[name], expected[name]), name

    def test_tie_order(self, cfg, no_injection):
        self.check_tie_order(cfg, no_injection, 1)

    def test_tie_order_three_slices(self, cfg, no_injection, monkeypatch):
        monkeypatch.setattr(simulate, "SLICE_S", 4e-5)  # 1e-4 s in 3 slices
        self.check_tie_order(cfg, no_injection, 3)

    def test_generation_report(self, cfg, quiet_source, no_injection):
        run = dataclasses.replace(cfg.run_on, live_time_s=86400)
        header, _, tallies = simulate.simulate_run(
            quiet_source, no_injection, cfg.response, 0.01, run,
            cfg.constants, cfg.roi, 8)
        report = simulate.render_generation_report(header, tallies, seed=8)
        assert "cu_ka" in report
        assert "seed" in report
        assert header.run_id in report


class TestSimulateCampaign:
    def test_paper_scale_roi_counts(self, cfg, quiet_source, no_injection):
        (h_on, ev_on, _), (h_off, ev_off, _) = simulate.simulate_campaign(
            quiet_source, no_injection, cfg.response, 0.01, cfg.run_on,
            cfg.run_off, cfg.constants, cfg.roi, 42)
        n_on = roi_count(ev_on, cfg, cfg.run_on.live_time_s)
        n_off = roi_count(ev_off, cfg, cfg.run_off.live_time_s)
        assert abs(n_on - 2222) < 3 * math.sqrt(2222)
        assert abs(n_off - 1796) < 3 * math.sqrt(1796)
        # live-time ratio shows up in the raw counts
        ratio = n_off / n_on
        expect = 28.0 / 34.0
        sigma = ratio * math.sqrt(1 / n_on + 1 / n_off)
        assert abs(ratio - expect) < 3 * sigma

    def test_symmetric_days(self, cfg, quiet_source, no_injection):
        on1 = dataclasses.replace(cfg.run_on, live_time_s=86400)
        off1 = dataclasses.replace(cfg.run_off, live_time_s=86400)
        (_, ev_on, _), (_, ev_off, _) = simulate.simulate_campaign(
            quiet_source, no_injection, cfg.response, 0.01, on1, off1,
            cfg.constants, cfg.roi, 6)
        n_on = roi_count(ev_on, cfg, 86400)
        n_off = roi_count(ev_off, cfg, 86400)
        assert abs(n_on - n_off) < 4 * math.sqrt(n_on + n_off)

    def test_headers_and_flags(self, cfg, quiet_source, no_injection):
        (h_on, _, _), (h_off, _, _) = simulate.simulate_campaign(
            quiet_source, no_injection, cfg.response, 0.01, cfg.run_on,
            cfg.run_off, cfg.constants, cfg.roi, 1)
        assert h_on.current_on and not h_off.current_on
        assert h_on.run_id == cfg.run_on.run_id
        assert h_off.current_ma == 0

    def test_run_roles_validated(self, cfg, quiet_source, no_injection):
        with pytest.raises(DomainError):
            simulate.simulate_campaign(
                quiet_source, no_injection, cfg.response, 0.01, cfg.run_off,
                cfg.run_on, cfg.constants, cfg.roi, 1)

    def test_runs_generated_one_at_a_time(self, cfg, quiet_source,
                                          no_injection, monkeypatch):
        made = []
        real = simulate.simulate_run
        monkeypatch.setattr(simulate, "simulate_run",
                            lambda *args: made.append(1) or real(*args))
        runs = simulate.simulate_campaign(
            quiet_source, no_injection, cfg.response, 0.01,
            dataclasses.replace(cfg.run_on, live_time_s=3600),
            dataclasses.replace(cfg.run_off, live_time_s=3600),
            cfg.constants, cfg.roi, 1)
        assert made == []
        assert next(runs)[0].current_on and made == [1]
        assert not next(runs)[0].current_on and made == [1, 1]


class _NullSink:
    def write(self, data):
        return len(data)


class TestMemoryBound:
    """Traced peak bytes per event of each stage that holds a run.

    A record is 16 bytes.  Generation holds the run's records plus one
    day's slice, so its peak per event does not grow with the live time;
    writing adds almost nothing, and reading holds one copy of the
    records plus one chunk's masks.
    """

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = fn()
            return result, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    @classmethod
    def generate(cls, cfg, no_injection, days):
        run = dataclasses.replace(cfg.run_on, live_time_s=days * 86400)
        assert math.ceil(run.live_time_s / simulate.SLICE_S) == days
        return cls.traced_peak(lambda: simulate.simulate_run(
            cfg.source, no_injection, cfg.response, 0.01, run,
            cfg.constants, cfg.roi, 9))

    @pytest.fixture(scope="class")
    def generated(self, cfg, no_injection):
        return self.generate(cfg, no_injection, 10)

    def test_simulate_run_peak(self, generated):
        (_, events, _), peak = generated
        assert len(events) >= 1_500_000
        assert peak / len(events) <= 24.0

    def test_peak_per_event_does_not_grow(self, cfg, no_injection,
                                          generated):
        (_, events, _), peak = generated
        (_, longer, _), longer_peak = self.generate(cfg, no_injection, 20)
        assert len(longer) > 1.9 * len(events)
        assert longer_peak / len(longer) <= peak / len(events)

    def test_write_run_adds_little(self, generated):
        (header, events, _), _ = generated
        written, peak = self.traced_peak(
            lambda: eventio.write_run(header, events, _NullSink()))
        assert written == events.nbytes + len(eventio._encode_header(header))
        assert peak / len(events) <= 2.0

    def test_read_and_histogram_peak(self, cfg, generated, tmp_path):
        (header, events, _), _ = generated
        assert len(events) > 4 * eventio.CHUNK_RECORDS
        path = tmp_path / "run.run"
        eventio.write_run(header, events, path)

        def count():
            _, back = eventio.read_run(path)
            return eventio.histogram(back, cfg.response, cfg.binning.bins,
                                     cfg.binning.low_ev, cfg.binning.high_ev)

        spec, peak = self.traced_peak(count)
        assert spec.counts.sum() + spec.underflow + spec.overflow > 0
        assert peak / len(events) <= 20.0


class TestSourceValidation:
    def test_negative_rate(self, cfg):
        with pytest.raises(DomainError):
            simulate.SourceModel(lines=((cfg.lines["cu_ka"], -1.0),))

    def test_veto_probability_range(self):
        with pytest.raises(DomainError):
            simulate.SourceModel(veto_tag_probability=1.5)

    def test_calibration_needs_lines(self):
        with pytest.raises(DomainError):
            simulate.SourceModel(calibration_rate_hz=2.0)

    def test_continuum_validation(self):
        with pytest.raises(DomainError):
            simulate.ContinuumModel(shape="triangular")
        with pytest.raises(DomainError):
            simulate.ContinuumModel(rate_hz=-0.5)
        with pytest.raises(DomainError):
            simulate.ContinuumModel(low_ev=5000.0, high_ev=3000.0)

    def test_exponential_continuum_sampling(self):
        cm = simulate.ContinuumModel(shape=simulate.CONTINUUM_EXPONENTIAL,
                                     rate_hz=1.0, low_ev=2000.0,
                                     high_ev=12000.0, scale_ev=3000.0)
        rng = np.random.default_rng(1)
        e = cm.sample(rng, 200_000)
        assert e.min() >= 2000.0 and e.max() <= 12000.0
        # truncated-exponential mean, computed independently
        lo, hi, s = 2000.0, 12000.0, 3000.0
        z = math.exp(-(hi - lo) / s)
        mean = lo + s - (hi - lo) * z / (1 - z)
        assert e.mean() == pytest.approx(mean, abs=5 * e.std() / math.sqrt(len(e)))
