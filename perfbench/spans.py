"""In-memory spans around the public functions of the pepsearch layers.

The tracer wraps every public module-level function of the seven layer
modules and rebinds each reference to it in every loaded ``pepsearch``
module, so calls made through ``from .eventio import read_run`` style
imports are recorded too.  Nothing under ``src/`` is edited.  Spans stay
in memory until the caller writes them out.

Times are ``time.perf_counter_ns()`` values.  On Linux that clock is
CLOCK_MONOTONIC, shared by every process on the machine, so spans
recorded in a child process line up with spans recorded by its parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

LAYERS = ("cli", "config", "simulate", "eventio", "calibrate", "limits",
          "efficiency")


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: str
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def _counts_read_run(args, kwargs, result):
    _, events = result
    return {"events": len(events), "bytes": int(events.nbytes)}


def _counts_write_run(args, kwargs, result):
    return {"bytes": int(result)}


def _counts_select_events(args, kwargs, result):
    return {"events_in": len(args[0]), "events_out": len(result)}


def _counts_histogram(args, kwargs, result):
    return {"kind": result.kind, "underflow": result.underflow,
            "overflow": result.overflow}


def _counts_simulate_run(args, kwargs, result):
    return {"events": len(result[1])}


def _counts_first_measurement(args, kwargs, result):
    return {"value": float(args[0].value)}


def _counts_calibrate_spectrum(args, kwargs, result):
    return {"peaks_fitted": len(result[1])}


def _counts_run_efficiency(args, kwargs, result):
    return {"samples": int(result.samples)}


# counts taken at the boundary of the named function, from its
# arguments and result
COUNTERS = {
    "eventio.read_run": _counts_read_run,
    "eventio.write_run": _counts_write_run,
    "eventio.select_events": _counts_select_events,
    "eventio.histogram": _counts_histogram,
    "simulate.simulate_run": _counts_simulate_run,
    # the first argument is N_on for subtract, raw N_off for normalize
    "limits.subtract": _counts_first_measurement,
    "limits.normalize_livetime": _counts_first_measurement,
    "calibrate.calibrate_spectrum": _counts_calibrate_spectrum,
    "efficiency.run_efficiency": _counts_run_efficiency,
}


class Tracer:
    """Records nested spans; one tracer per process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = ""
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter_ns(), 0, parent,
                    self.op)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"pepsearch.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}",
                                                        obj))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "pepsearch"
                                      or modname.startswith("pepsearch.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi)."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Span id -> its duration minus the part its children cover.

    Children may overlap one another (spans from concurrent child
    processes), so the covered part is the union of their intervals.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    return {s.id: s.duration_ns - covered_ns(children.get(s.id, ()),
                                             s.start_ns, s.end_ns)
            for s in spans}


def layer_self_s(spans: list[Span]) -> dict[str, float]:
    """Self time per layer in seconds; every layer is present."""
    own = self_times_ns(spans)
    out = {layer: 0 for layer in LAYERS}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0) + own[s.id]
    return {layer: ns / 1e9 for layer, ns in out.items()}


def total_s(spans: list[Span], name: str) -> float:
    """Summed inclusive time of the spans called ``name``."""
    return sum(s.duration_ns for s in spans if s.name == name) / 1e9


def layer_busy_s(spans: list[Span], layer: str) -> float:
    """Wall time during which any span of ``layer`` was open."""
    intervals = [(s.start_ns, s.end_ns) for s in spans if s.layer == layer]
    if not intervals:
        return 0.0
    lo = min(a for a, _ in intervals)
    hi = max(b for _, b in intervals)
    return covered_ns(intervals, lo, hi) / 1e9


def dump(spans: list[Span]) -> list[dict]:
    return [asdict(s) for s in spans]


def adopt(spans: list[Span], rows: list[dict], parent: int,
          op: str) -> None:
    """Append spans recorded elsewhere under ``parent``, renumbering ids."""
    base = len(spans)
    for row in rows:
        own_parent = row["parent"]
        spans.append(Span(
            id=base + row["id"], name=row["name"], start_ns=row["start_ns"],
            end_ns=row["end_ns"],
            parent=parent if own_parent is None else base + own_parent,
            op=op, counts=dict(row["counts"])))
