"""Binary run-file format and the cut-and-count spectrum of a run.

File layout (all integers little-endian, fixed width, no padding):

    header:
        magic            4 bytes, b"VIP2"
        format_version   u16        2; version-1 files (80-byte records
                                    with 32 QDC charges) are rejected
        run_id_len       u16
        run_id           run_id_len bytes, UTF-8
        current_ma       u32        applied DC current in milliamperes
        live_time_s      u64        live time in whole seconds
        current_on       u8         0 or 1
        event_count      u64
    records, event_count times, 16 bytes each:
        timestamp_ns     u64        non-decreasing within one file
        trigger_flags    u8         bit0 SDD self-trigger, bit1 veto inner,
                                    bit2 veto outer
        sdd_id           u8         0..5, or 255 for veto-only records
        adc              u16        raw amplitude channel
        sdd_timing_ns    i32        SDD time relative to the trigger

A record has sdd_id == 255 exactly when bit0 of trigger_flags is clear.
The veto decision the analysis cut needs is in trigger_flags; no
scintillator charges are stored.

Memory: ``read_run`` reads a file into one buffer and returns a view of
it, so a reader holds one copy of the records (16 bytes per event);
``write_run`` writes from the caller's array and copies it only when it
is not contiguous.  ``validate_records`` and ``histogram`` go through the
records CHUNK_RECORDS at a time, so their masks and the kept channels
take a few MiB whatever the size of the run.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .core import SDD_COUNT, ResponseModel, RunMeta
from .errors import (BadMagicError, DomainError, FormatError,
                     RecordInvariantError, TruncatedFileError,
                     UnsupportedVersionError)

MAGIC = b"VIP2"
FORMAT_VERSION = 2

TRIGGER_SDD = 0x01
TRIGGER_VETO_INNER = 0x02
TRIGGER_VETO_OUTER = 0x04
VETO_COINCIDENCE = TRIGGER_VETO_INNER | TRIGGER_VETO_OUTER
VETO_ONLY_SDD_ID = 255

EVENT_DTYPE = np.dtype([
    ("timestamp_ns", "<u8"),
    ("trigger_flags", "u1"),
    ("sdd_id", "u1"),
    ("adc", "<u2"),
    ("sdd_timing_ns", "<i4"),
])
RECORD_SIZE = EVENT_DTYPE.itemsize
CHUNK_RECORDS = 1 << 18     # records checked or counted at a time (4 MiB)

_HEAD_FIXED = struct.Struct("<4sHH")          # magic, version, run_id_len
_HEAD_TAIL = struct.Struct("<IQBQ")           # current_ma, live_time_s, on, count


@dataclass(frozen=True)
class RunHeader:
    """Run metadata exactly as stored in the file."""

    run_id: str
    current_ma: int
    live_time_s: int
    current_on: bool
    event_count: int
    format_version: int = FORMAT_VERSION

    @classmethod
    def from_meta(cls, meta: RunMeta, event_count: int) -> "RunHeader":
        return cls(run_id=meta.run_id,
                   current_ma=round(meta.current_a * 1000),
                   live_time_s=round(meta.live_time_s),
                   current_on=meta.current_on,
                   event_count=event_count)

    def to_meta(self) -> RunMeta:
        return RunMeta(run_id=self.run_id, current_a=self.current_ma / 1000.0,
                       live_time_s=float(self.live_time_s),
                       current_on=self.current_on)


def validate_records(events: np.ndarray, base_offset: int = 0) -> None:
    """Raise RecordInvariantError on the first record breaking an invariant.

    The sdd_id/self-trigger invariant is checked over all records before
    the timestamp order, each in chunks of CHUNK_RECORDS records, so the
    masks stay small whatever the size of the run.
    """
    n = len(events)
    for start in range(0, n, CHUNK_RECORDS):
        chunk = events[start:start + CHUNK_RECORDS]
        sdd = chunk["sdd_id"]
        flags = chunk["trigger_flags"]
        bad_id = ~((sdd < SDD_COUNT) | (sdd == VETO_ONLY_SDD_ID))
        veto_only = (flags & TRIGGER_SDD) == 0
        bad = bad_id | (veto_only != (sdd == VETO_ONLY_SDD_ID))
        if bad.any():
            j = int(np.argmax(bad))
            i = start + j
            raise RecordInvariantError(
                f"record {i}: sdd_id={int(sdd[j])} "
                f"trigger_flags={int(flags[j]):#04x} "
                "violate the sdd_id/self-trigger invariant",
                offset=base_offset + i * RECORD_SIZE, record_index=i)
    ts = events["timestamp_ns"]
    for start in range(0, n, CHUNK_RECORDS):
        # a chunk's first record is compared with the last of the chunk
        # before; as u64 fields: no cast, no wrap
        first = max(start, 1)
        stop = min(start + CHUNK_RECORDS, n)
        drop = ts[first:stop] < ts[first - 1:stop - 1]
        if drop.any():
            i = first + int(np.argmax(drop))
            raise RecordInvariantError(
                f"record {i}: timestamp decreases",
                offset=base_offset + i * RECORD_SIZE, record_index=i)


def _encode_header(header: RunHeader) -> bytes:
    rid = header.run_id.encode("utf-8")
    if len(rid) > 0xFFFF:
        raise FormatError("run_id longer than 65535 bytes")
    return (_HEAD_FIXED.pack(MAGIC, header.format_version, len(rid)) + rid
            + _HEAD_TAIL.pack(header.current_ma, header.live_time_s,
                              int(header.current_on), header.event_count))


def write_run(header: RunHeader, events: np.ndarray,
              destination: BinaryIO | str | Path) -> int:
    """Write one run file; returns the number of bytes written.

    ``events`` must be an EVENT_DTYPE array sorted by timestamp, with
    exactly ``header.event_count`` records.
    """
    events = np.asarray(events, dtype=EVENT_DTYPE)
    if len(events) != header.event_count:
        raise FormatError(
            f"header declares {header.event_count} events, got {len(events)}")
    head = _encode_header(header)
    validate_records(events, base_offset=len(head))
    # written from the array's own buffer; only a strided input is copied
    payload = memoryview(np.ascontiguousarray(events)).cast("B")
    if isinstance(destination, (str, Path)):
        with open(destination, "wb") as fh:
            fh.write(head)
            fh.write(payload)
    else:
        destination.write(head)
        destination.write(payload)
    return len(head) + len(payload)


def read_run(source: BinaryIO | bytes | str | Path) -> tuple[RunHeader, np.ndarray]:
    """Parse a run file, validating structure and record invariants.

    Returns the header and the full, writable record array, a view of
    the one buffer the file is read into.  Raises a FormatError subclass
    naming the failing byte offset on any structural problem.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            data = bytearray(os.fstat(fh.fileno()).st_size)
            del data[fh.readinto(data):]
    elif isinstance(source, (bytes, bytearray)):
        data = bytearray(source)
    else:
        data = bytearray(source.read())

    if len(data) < _HEAD_FIXED.size:
        raise TruncatedFileError("file ends inside the fixed header",
                                 offset=len(data))
    magic, version, rid_len = _HEAD_FIXED.unpack_from(data, 0)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"unsupported format version {version}", offset=4)
    pos = _HEAD_FIXED.size
    if len(data) < pos + rid_len + _HEAD_TAIL.size:
        raise TruncatedFileError("file ends inside the header",
                                 offset=len(data))
    try:
        run_id = data[pos:pos + rid_len].decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError("run_id is not valid UTF-8", offset=pos) from None
    pos += rid_len
    current_ma, live_time_s, on_byte, event_count = _HEAD_TAIL.unpack_from(data, pos)
    pos += _HEAD_TAIL.size
    if on_byte not in (0, 1):
        raise FormatError(f"current_on byte must be 0 or 1, got {on_byte}",
                          offset=pos - 1 - 8)
    header = RunHeader(run_id=run_id, current_ma=current_ma,
                       live_time_s=live_time_s, current_on=bool(on_byte),
                       event_count=event_count, format_version=version)

    body = len(data) - pos
    expected = event_count * RECORD_SIZE
    if body < expected:
        raise TruncatedFileError(
            f"expected {event_count} records ({expected} bytes), "
            f"found {body} bytes",
            offset=len(data), record_index=body // RECORD_SIZE)
    if body > expected:
        raise FormatError(f"{body - expected} trailing bytes after the last "
                          "declared record", offset=pos + expected)
    events = np.frombuffer(data, dtype=EVENT_DTYPE, count=event_count,
                           offset=pos)
    validate_records(events, base_offset=pos)
    return header, events


@dataclass(frozen=True)
class Spectrum:
    """Binned counts on a uniform channel or energy axis.

    ``lo``/``hi`` are the outer bin edges; channel-axis spectra use
    half-integer edges so bin centers are whole channel numbers.
    Under/overflow events are tallied separately so that
    ``counts.sum() + underflow + overflow`` equals the number of records
    counted.
    """

    kind: str                      # "channel" | "energy"
    lo: float
    hi: float
    counts: np.ndarray
    live_time_s: float = 0.0
    run_ids: tuple[str, ...] = ()
    underflow: int = 0
    overflow: int = 0

    def __post_init__(self):
        if self.kind not in ("channel", "energy"):
            raise DomainError(f"unknown axis kind {self.kind!r}")
        if not self.hi > self.lo:
            raise DomainError("spectrum axis is empty or reversed")
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1 or counts.size == 0:
            raise DomainError("counts must be a non-empty 1-d array")
        if (counts < 0).any():
            raise DomainError("counts must be non-negative")
        object.__setattr__(self, "counts", counts)

    @property
    def nbins(self) -> int:
        return int(self.counts.size)

    @property
    def bin_edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.nbins + 1)

    @property
    def bin_centers(self) -> np.ndarray:
        edges = self.bin_edges
        return 0.5 * (edges[:-1] + edges[1:])


def histogram(events: np.ndarray, response: ResponseModel | None,
              bins: int, lo: float, hi: float, live_time_s: float = 0.0,
              run_ids: tuple[str, ...] = ()) -> Spectrum:
    """Spectrum of the records that pass the analysis cut.

    The cut keeps SDD self-triggers outside veto coincidences (both veto
    layers fired).  Their amplitudes are counted per ADC channel, one
    chunk of records at a time, and the channel table is binned on the
    axis: raw channel numbers with ``response=None``, otherwise energy
    in eV (``response.energy_of``).
    The axis is half-open [lo, hi); what falls outside is tallied as
    under/overflow.
    """
    if bins <= 0:
        raise DomainError("bins must be positive")
    table = np.zeros(65536, dtype=np.int64)       # one entry per u16 adc
    for start in range(0, len(events), CHUNK_RECORDS):
        chunk = events[start:start + CHUNK_RECORDS]
        flags = chunk["trigger_flags"]
        keep = ((flags & TRIGGER_SDD) != 0) \
            & ((flags & VETO_COINCIDENCE) != VETO_COINCIDENCE)
        table += np.bincount(chunk["adc"][keep], minlength=table.size)
    values = np.arange(table.size, dtype=np.float64)
    if response is not None:
        values = response.energy_of(values)
    # keep the axis half-open: np.histogram would close the last bin
    inside = (values >= lo) & (values < hi)
    counts, _ = np.histogram(values[inside], bins=bins, range=(lo, hi),
                             weights=table[inside])
    return Spectrum(kind="channel" if response is None else "energy",
                    lo=lo, hi=hi, counts=counts,
                    live_time_s=live_time_s, run_ids=run_ids,
                    underflow=int(table[values < lo].sum()),
                    overflow=int(table[values >= hi].sum()))


def export_spectrum(spec: Spectrum, destination: BinaryIO | str | Path) -> None:
    """Write a spectrum as two-column text (bin center, counts).

    Metadata lines are prefixed with '#'.
    """
    lines = [
        f"# axis: {spec.kind}",
        f"# range: {spec.lo} {spec.hi}",
        f"# bins: {spec.nbins}",
        f"# live_time_s: {spec.live_time_s}",
        f"# detectors: {','.join(str(d) for d in range(SDD_COUNT))}",
        f"# run_ids: {','.join(spec.run_ids)}",
        f"# underflow: {spec.underflow}",
        f"# overflow: {spec.overflow}",
    ]
    for center, n in zip(spec.bin_centers, spec.counts):
        lines.append(f"{center:.6g} {int(n)}")
    text = "\n".join(lines) + "\n"
    if isinstance(destination, (str, Path)):
        Path(destination).write_text(text)
    else:
        destination.write(text.encode())
