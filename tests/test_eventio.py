"""Binary run-file format and histogramming."""

import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pepsearch import core, eventio
from pepsearch.errors import (BadMagicError, DomainError, FormatError,
                              RecordInvariantError, TruncatedFileError,
                              UnsupportedVersionError)


def make_events(n, rng=None, sorted_ts=True):
    rng = rng or np.random.default_rng(0)
    ev = np.zeros(n, dtype=eventio.EVENT_DTYPE)
    ts = rng.integers(0, 2**40, size=n, dtype=np.uint64)
    ev["timestamp_ns"] = np.sort(ts) if sorted_ts else ts
    ev["trigger_flags"] = eventio.TRIGGER_SDD
    ev["sdd_id"] = rng.integers(0, 6, size=n)
    ev["adc"] = rng.integers(0, 16384, size=n)
    ev["sdd_timing_ns"] = rng.integers(-500, 500, size=n)
    return ev


def header_for(events, run_id="test-run", current_ma=100_000, on=True):
    return eventio.RunHeader(run_id=run_id, current_ma=current_ma,
                             live_time_s=3600, current_on=on,
                             event_count=len(events))


class TestRoundTrip:
    def test_empty_run(self):
        buf = io.BytesIO()
        ev = make_events(0)
        n = eventio.write_run(header_for(ev), ev, buf)
        assert n == len(buf.getvalue())
        header, out = eventio.read_run(buf.getvalue())
        assert header.event_count == 0
        assert len(out) == 0

    def test_thousand_events(self):
        ev = make_events(1000)
        buf = io.BytesIO()
        eventio.write_run(header_for(ev), ev, buf)
        header, out = eventio.read_run(buf.getvalue())
        assert header.event_count == 1000
        assert np.array_equal(out, ev)
        # second write of the parsed records is byte-identical
        buf2 = io.BytesIO()
        eventio.write_run(header, out, buf2)
        assert buf2.getvalue() == buf.getvalue()

    def test_file_path_round_trip(self, tmp_path):
        ev = make_events(17)
        path = tmp_path / "run.run"
        eventio.write_run(header_for(ev), ev, path)
        header, out = eventio.read_run(path)
        assert np.array_equal(out, ev)
        assert header.run_id == "test-run"
        assert out.flags.writeable

    def test_header_meta_round_trip(self):
        meta = core.RunMeta("r1", 100.0, 2937600.0, True)
        header = eventio.RunHeader.from_meta(meta, 5)
        assert header.current_ma == 100_000
        back = header.to_meta()
        assert back.current_a == 100.0
        assert back.live_time_s == 2937600.0
        assert back.current_on

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=40),
           st.integers(min_value=0, max_value=2**32))
    def test_random_round_trip(self, n, seed):
        ev = make_events(n, rng=np.random.default_rng(seed))
        buf = io.BytesIO()
        eventio.write_run(header_for(ev), ev, buf)
        header, out = eventio.read_run(buf.getvalue())
        assert np.array_equal(out, ev)
        buf2 = io.BytesIO()
        eventio.write_run(header, out, buf2)
        assert buf2.getvalue() == buf.getvalue()


class TestWriteValidation:
    def test_count_mismatch(self):
        ev = make_events(3)
        header = eventio.RunHeader("x", 0, 1, False, event_count=5)
        with pytest.raises(FormatError):
            eventio.write_run(header, ev, io.BytesIO())

    def test_unsorted_rejected(self):
        ev = make_events(10)
        ev["timestamp_ns"] = ev["timestamp_ns"][::-1].copy()
        with pytest.raises(FormatError):
            eventio.write_run(header_for(ev), ev, io.BytesIO())

    def test_timestamps_compared_unsigned(self):
        # 2**63 + 5 wraps negative as int64, which hid this decrease
        ev = make_events(2)
        ev["timestamp_ns"] = (2**63 + 5, 3)
        head = eventio._encode_header(header_for(ev))
        with pytest.raises(RecordInvariantError) as err:
            eventio.write_run(header_for(ev), ev, io.BytesIO())
        assert err.value.record_index == 1
        assert err.value.offset == len(head) + eventio.RECORD_SIZE
        with pytest.raises(RecordInvariantError) as err:
            eventio.read_run(head + ev.tobytes())
        assert err.value.record_index == 1
        ev["timestamp_ns"] = (3, 2**63 + 5)
        buf = io.BytesIO()
        eventio.write_run(header_for(ev), ev, buf)
        assert np.array_equal(eventio.read_run(buf.getvalue())[1], ev)

    def test_bad_sdd_id_rejected(self):
        ev = make_events(4)
        ev["sdd_id"][2] = 7
        with pytest.raises(RecordInvariantError):
            eventio.write_run(header_for(ev), ev, io.BytesIO())


class TestReadErrors:
    def _bytes(self, n=3):
        ev = make_events(n)
        buf = io.BytesIO()
        eventio.write_run(header_for(ev), ev, buf)
        return buf.getvalue()

    def test_bad_magic(self):
        data = b"XXXX" + self._bytes()[4:]
        with pytest.raises(BadMagicError) as err:
            eventio.read_run(data)
        assert err.value.offset == 0

    def test_unsupported_version(self):
        data = bytearray(self._bytes())
        data[4:6] = (99).to_bytes(2, "little")
        with pytest.raises(UnsupportedVersionError):
            eventio.read_run(bytes(data))

    def test_version_1_rejected(self):
        # version 1 carried 80-byte records with 32 QDC charges
        assert eventio.FORMAT_VERSION == 2 and eventio.RECORD_SIZE == 16
        v1 = dataclasses.replace(header_for(make_events(3)), format_version=1)
        data = eventio._encode_header(v1) + bytes(3 * 80)
        with pytest.raises(UnsupportedVersionError) as err:
            eventio.read_run(data)
        assert err.value.offset == 4

    def test_run_id_not_utf8(self):
        data = bytearray(self._bytes())
        data[8] = 0xFF              # first run_id byte, never valid UTF-8
        with pytest.raises(FormatError) as err:
            eventio.read_run(bytes(data))
        assert err.value.offset == 8

    def test_truncation_every_offset(self):
        data = self._bytes(3)
        for cut in range(len(data)):
            with pytest.raises(FormatError):
                eventio.read_run(data[:cut])

    def test_truncation_mid_record_names_index(self):
        data = self._bytes(3)
        body_start = len(data) - 3 * eventio.RECORD_SIZE
        cut = body_start + eventio.RECORD_SIZE + 10  # inside record 1
        with pytest.raises(TruncatedFileError) as err:
            eventio.read_run(data[:cut])
        assert err.value.record_index == 1
        assert err.value.offset == cut

    def test_trailing_bytes(self):
        with pytest.raises(FormatError):
            eventio.read_run(self._bytes() + b"junk")

    def test_record_invariant_on_read(self):
        ev = make_events(4)
        data = bytearray(self._bytes(4))
        # corrupt sdd_id of record 2 in place
        body_start = len(data) - 4 * eventio.RECORD_SIZE
        sdd_off = body_start + 2 * eventio.RECORD_SIZE + 9
        data[sdd_off] = 7
        with pytest.raises(RecordInvariantError) as err:
            eventio.read_run(bytes(data))
        assert err.value.record_index == 2
        del ev

    @pytest.mark.parametrize("fault", ["sdd_id", "timestamp"])
    def test_fault_at_chunk_border(self, fault):
        # the first record of the second chunk: its timestamp is compared
        # with the last record of the first chunk
        i = eventio.CHUNK_RECORDS
        ev = make_events(i + 10)
        ev["timestamp_ns"] = np.arange(len(ev), dtype=np.uint64) * 10
        head = eventio._encode_header(header_for(ev))
        if fault == "sdd_id":
            ev["sdd_id"][i] = 7
        else:
            ev["timestamp_ns"][i] = ev["timestamp_ns"][i - 1] - 1
        for act in (lambda: eventio.write_run(header_for(ev), ev,
                                              io.BytesIO()),
                    lambda: eventio.read_run(head + ev.tobytes())):
            with pytest.raises(RecordInvariantError) as err:
                act()
            assert err.value.record_index == i
            assert err.value.offset == len(head) + i * eventio.RECORD_SIZE

    def test_veto_only_records_valid(self):
        ev = make_events(2)
        ev["trigger_flags"] = eventio.VETO_COINCIDENCE  # no SDD bit
        ev["sdd_id"] = eventio.VETO_ONLY_SDD_ID
        buf = io.BytesIO()
        eventio.write_run(header_for(ev), ev, buf)
        _, out = eventio.read_run(buf.getvalue())
        assert np.array_equal(out, ev)


class TestSelectEvents:
    """The analysis cut that histogram applies before counting."""

    @staticmethod
    def counted(ev):
        spec = eventio.histogram(ev, None, 100, -0.5, 99.5)
        return int(spec.counts.sum()) + spec.underflow + spec.overflow

    def test_all_coincidence_rejected(self):
        ev = make_events(20)
        ev["trigger_flags"] |= eventio.VETO_COINCIDENCE
        assert self.counted(ev) == 0

    def test_mixed_stream_count(self):
        rng = np.random.default_rng(5)
        ev = make_events(400, rng=rng)
        tagged = rng.random(400) < 0.3
        ev["trigger_flags"][tagged] |= eventio.VETO_COINCIDENCE
        # one veto layer alone does not reject
        ev["trigger_flags"][~tagged & (rng.random(400) < 0.3)] |= \
            eventio.TRIGGER_VETO_INNER
        both = (ev["trigger_flags"] & eventio.VETO_COINCIDENCE) \
            == eventio.VETO_COINCIDENCE
        assert self.counted(ev) == len(ev) - int(both.sum())

    def test_trigger_mask(self):
        ev = make_events(10)
        ev["trigger_flags"][:4] = eventio.TRIGGER_VETO_INNER
        ev["sdd_id"][:4] = eventio.VETO_ONLY_SDD_ID
        assert self.counted(ev) == 6


def event_histogram(ev, response, bins, lo, hi):
    """Reference: cut, then bin every record's value on its own."""
    flags = ev["trigger_flags"]
    kept = ev[((flags & eventio.TRIGGER_SDD) != 0)
              & ((flags & eventio.VETO_COINCIDENCE)
                 != eventio.VETO_COINCIDENCE)]
    adc = kept["adc"].astype(np.float64)
    values = adc if response is None else response.energy_of(adc)
    inside = (values >= lo) & (values < hi)
    counts, _ = np.histogram(values[inside], bins=bins, range=(lo, hi))
    return counts, int((values < lo).sum()), int((values >= hi).sum())


class TestHistogram:
    @pytest.mark.parametrize("gain, offset", [
        (None, None), (1.0, 0.0), (0.9987, 3.21), (2.5, -100.0),
        (1.0003, -0.7)])
    def test_channel_table_matches_event_reference(self, gain, offset):
        rng = np.random.default_rng(17)
        ev = make_events(200_000, rng=rng)
        ev["adc"] = rng.integers(0, 65536, size=len(ev))
        tagged = rng.random(len(ev)) < 0.1
        ev["trigger_flags"][tagged] |= eventio.VETO_COINCIDENCE
        if gain is None:
            response, axis = None, (65536, -0.5, 65535.5)
        else:
            response = core.ResponseModel(gain_ev_per_channel=gain,
                                          offset_ev=offset,
                                          channel_count=65536)
            axis = (10000, 2000.0, 12000.0)
        spec = eventio.histogram(ev, response, *axis)
        counts, under, over = event_histogram(ev, response, *axis)
        assert np.array_equal(spec.counts, counts)
        assert (spec.underflow, spec.overflow) == (under, over)

    def test_multi_chunk_matches_event_reference(self):
        rng = np.random.default_rng(23)
        ev = make_events(2 * eventio.CHUNK_RECORDS + 12_345, rng=rng)
        tagged = rng.random(len(ev)) < 0.1
        ev["trigger_flags"][tagged] |= eventio.VETO_COINCIDENCE
        response = core.ResponseModel(gain_ev_per_channel=0.9987,
                                      offset_ev=3.21, channel_count=65536)
        for resp, axis in ((None, (16384, -0.5, 16383.5)),
                           (response, (10000, 2000.0, 12000.0))):
            spec = eventio.histogram(ev, resp, *axis)
            counts, under, over = event_histogram(ev, resp, *axis)
            assert np.array_equal(spec.counts, counts)
            assert (spec.underflow, spec.overflow) == (under, over)

    def test_empty_events(self):
        spec = eventio.histogram(make_events(0), None, 100, -0.5, 99.5)
        assert spec.counts.sum() == 0
        assert spec.nbins == 100

    def test_single_event_energy_mode(self):
        r = core.ResponseModel(gain_ev_per_channel=2.0, offset_ev=100.0)
        ev = make_events(1)
        ev["adc"] = 3000  # energy 6100 eV
        spec = eventio.histogram(ev, response=r, bins=10000, lo=2000.0,
                                 hi=12000.0)
        assert spec.counts.sum() == 1
        idx = int(np.argmax(spec.counts))
        center = spec.bin_centers[idx]
        assert abs(center - 6100.0) <= 0.5

    def test_uniform_poisson_bands(self):
        rng = np.random.default_rng(11)
        ev = make_events(100_000, rng=rng)
        ev["adc"] = rng.integers(0, 1000, size=100_000)
        spec = eventio.histogram(ev, None, 100, -0.5, 999.5)
        assert spec.counts.sum() == 100_000
        assert np.all(np.abs(spec.counts - 1000) < 5 * np.sqrt(1000))

    def test_under_overflow_tallies(self):
        ev = make_events(10)
        ev["adc"][:3] = 5
        ev["adc"][3:5] = 900
        ev["adc"][5:] = 500
        spec = eventio.histogram(ev, None, 10, 99.5, 899.5)
        assert spec.underflow == 3
        assert spec.overflow == 2
        assert spec.counts.sum() + spec.underflow + spec.overflow == 10

    def test_channel_defaults(self):
        # the full 16-bit channel axis: one bin per channel, ends included
        ev = make_events(100)
        ev["adc"][:2] = (0, 65535)
        spec = eventio.histogram(ev, None, 65536, -0.5, 65535.5)
        assert spec.kind == "channel"
        assert spec.nbins == 65536
        assert spec.counts.sum() == 100
        assert spec.counts[0] >= 1 and spec.counts[-1] == 1

    def test_zero_bins_rejected(self):
        with pytest.raises(DomainError):
            eventio.histogram(make_events(1), None, 0, 0.0, 1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=300),
           st.integers(min_value=0, max_value=2**32))
    def test_sum_invariant(self, n, seed):
        rng = np.random.default_rng(seed)
        ev = make_events(n, rng=rng)
        spec = eventio.histogram(ev, None, 50, 1999.5, 12000.5)
        assert spec.counts.sum() + spec.underflow + spec.overflow == n


class TestSpectrumAlgebra:
    def _spec(self, counts, live, run_id):
        return eventio.Spectrum(kind="energy", lo=0.0, hi=10.0,
                                counts=np.asarray(counts), live_time_s=live,
                                run_ids=(run_id,))

    def test_negative_counts_rejected(self):
        with pytest.raises(DomainError):
            eventio.Spectrum(kind="energy", lo=0.0, hi=1.0,
                             counts=np.array([1, -1]))

    def test_export_format(self, tmp_path):
        spec = self._spec([5, 7, 9], 42.0, "runx")
        out = tmp_path / "spec.txt"
        eventio.export_spectrum(spec, out)
        text = out.read_text()
        meta = [ln for ln in text.splitlines() if ln.startswith("#")]
        rows = [ln.split() for ln in text.splitlines()
                if ln and not ln.startswith("#")]
        assert any("live_time_s" in ln for ln in meta)
        assert len(rows) == 3
        centers = [float(r[0]) for r in rows]
        counts = [int(r[1]) for r in rows]
        assert counts == [5, 7, 9]
        # centers are written with .6g, so match at that precision
        assert centers == pytest.approx([5.0 / 3, 5.0, 25.0 / 3], rel=1e-5)
