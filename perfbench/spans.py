"""Traced runs: spans around the calls into each beamnet module, kept in memory.

A span is recorded at the module attribute its caller looks the function up
through (for example both `beamnet.ebw.effective_beam_width` and
`beamnet.scaling.effective_beam_width`, and `beamnet.netsim.run_slot` for the
calls `estimate_throughput` makes).  The wrappers are installed only in the
traced run, and record only while `recording` is set.
"""

from __future__ import annotations

import functools
import inspect
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

MB = float(1 << 20)

# name -> unit, in the order the traced run reports them.
PER_LAYER_UNITS = {
    "patterns.construct.calls": "count",
    "patterns.construct.busy_s": "s",
    "patterns.gain.calls": "count",
    "patterns.gain.angles": "count",
    "patterns.gain.busy_s": "s",
    "patterns.gain.angles_per_s": "1/s",
    "ebw.wb.calls": "count",
    "ebw.wb.samples": "count",
    "ebw.wb.busy_s": "s",
    "ebw.wb.self_s": "s",
    "scaling.sweep.busy_s": "s",
    "scaling.rms_search.calls": "count",
    "scaling.rms_search.wb_evals": "count",
    "scaling.rms_search.busy_s": "s",
    "netsim.generate.busy_s": "s",
    "netsim.slot.calls": "count",
    "netsim.slot.links": "count",
    "netsim.slot.busy_s": "s",
    "netsim.slot.self_s": "s",
    "netsim.slot.ms_p50": "ms",
    "netsim.slot.ms_tail": "ms",
    "netsim.slot.peak_alloc_mb": "MB",
    "netsim.link.calls": "count",
    "netsim.link.trials": "count",
    "netsim.link.busy_s": "s",
    "netsim.link.peak_alloc_mb": "MB",
    "netsim.predict.busy_s": "s",
    "trace.overhead_s": "s",
}

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _bound_arg(fn, name: str):
    """work(args, kwargs) -> the value of fn's argument `name`, defaults applied."""
    sig = inspect.signature(fn)

    def work(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return work


def _angles(args, kwargs):
    """Number of angles passed to AntennaPattern.gain / gain_starred."""
    return np.size(args[1] if len(args) > 1 else kwargs["theta"])


class Tracer:
    """Records spans [layer, start, end, parent, work, peak_alloc_mb] in a list.

    While `track_memory` is set (and tracemalloc runs), spans of layers wrapped
    with peak=True also record the tracemalloc high-water mark reached during
    the call, above its start.  tracemalloc doubles the time of a sparse slot,
    so the run records memory in a pass of its own.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.recording = False
        self.track_memory = False
        self.memory_layers: set[str] = set()
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def _open(self, layer: str, work: int = 0) -> list:
        span = [layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, work, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, layer: str, work=None, work_result=None, peak=False):
        """Replace owner.attr by a wrapper that records a span per call.

        `work(args, kwargs)` gives the call's work count from its arguments;
        `work_result` gives it from the return value instead.
        """
        orig = getattr(owner, attr)
        if peak:
            self.memory_layers.add(layer)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return orig(*args, **kwargs)
            memory = peak and self.track_memory
            if memory:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            span = self._open(layer, 0 if work is None else int(work(args, kwargs)))
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(span)
            if memory:
                span[5] = (tracemalloc.get_traced_memory()[1] - base) / MB
            if work_result is not None:
                span[4] = int(work_result(result))
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, orig))

    def install(self, patterns, ebw, scaling, netsim) -> None:
        for name in ("esnla", "binomial_array", "chebyshev_array", "from_coefficients",
                     "parse_pattern_spec"):
            self.wrap(patterns, name, "patterns.construct")
        for name in ("gain", "gain_starred"):
            self.wrap(patterns.AntennaPattern, name, "patterns.gain", work=_angles)
        samples = _bound_arg(ebw.effective_beam_width, "samples")
        for module in (ebw, scaling):
            self.wrap(module, "effective_beam_width", "ebw.wb", work=samples)
        self.wrap(scaling, "sweep", "scaling.sweep")
        self.wrap(scaling, "optimize_chebyshev_rms", "scaling.rms_search")
        self.wrap(netsim, "generate_network", "netsim.generate")
        self.wrap(netsim, "run_slot", "netsim.slot", work_result=lambda out: len(out.tx),
                  peak=True)
        self.wrap(netsim, "link_success_probability", "netsim.link",
                  work=_bound_arg(netsim.link_success_probability, "slots"), peak=True)
        self.wrap(netsim, "multi_rayleigh_prediction", "netsim.predict")

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, orig = self._installed.pop()
            setattr(owner, attr, orig)

    @contextmanager
    def span(self, layer: str):
        """A span of the benchmark's own, such as a set-up or a round."""
        span = self._open(layer)
        try:
            yield
        finally:
            self._close(span)


def tail_percentile(count: int) -> float:
    """The highest candidate percentile with at least ten samples beyond it (50 if none)."""
    for p in TAIL_PERCENTILES:
        if count * (100.0 - p) / 100.0 >= 10.0:
            return p
    return 50.0


def _ancestors(spans: list[list], i: int):
    """Layers of the spans enclosing span i, innermost first."""
    p = spans[i][3]
    while p >= 0:
        yield spans[p][0]
        p = spans[p][3]


def _outermost(spans: list[list]) -> dict[str, list[int]]:
    """Per layer, the spans not nested in a span of the same layer (esnla calls
    from_coefficients; gain_starred calls gain)."""
    outer = defaultdict(list)
    for i, s in enumerate(spans):
        if s[0] not in _ancestors(spans, i):
            outer[s[0]].append(i)
    return outer


def summarize(spans: list[list], memory_spans: list[list], overhead_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced set-up and round, and the
    peak allocations from the spans of the memory pass.

    calls, busy_s and work count only the outermost span of a layer.  self_s
    is a span's duration minus the time its direct child spans cover.  ms_tail
    is taken at tail_percentile(slots of the round), which is fixed per workload.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    outer = _outermost(spans)
    memory_outer = _outermost(memory_spans)

    def calls(layer):
        return float(len(outer[layer]))

    def busy(layer):
        return float(sum(dur[i] for i in outer[layer]))

    def work(layer):
        return float(sum(spans[i][4] for i in outer[layer]))

    def self_time(layer):
        return float(sum(dur[i] - child[i] for i in outer[layer]))

    def peak(layer):
        return float(max((memory_spans[i][5] for i in memory_outer[layer]), default=0.0))

    slot_ms = np.array([dur[i] * 1e3 for i in outer["netsim.slot"]])
    tail = tail_percentile(len(slot_ms))
    gain_busy = busy("patterns.gain")
    return {
        "patterns.construct.calls": calls("patterns.construct"),
        "patterns.construct.busy_s": busy("patterns.construct"),
        "patterns.gain.calls": calls("patterns.gain"),
        "patterns.gain.angles": work("patterns.gain"),
        "patterns.gain.busy_s": gain_busy,
        "patterns.gain.angles_per_s": work("patterns.gain") / gain_busy if gain_busy else 0.0,
        "ebw.wb.calls": calls("ebw.wb"),
        "ebw.wb.samples": work("ebw.wb"),
        "ebw.wb.busy_s": busy("ebw.wb"),
        "ebw.wb.self_s": self_time("ebw.wb"),
        "scaling.sweep.busy_s": busy("scaling.sweep"),
        "scaling.rms_search.calls": calls("scaling.rms_search"),
        "scaling.rms_search.wb_evals": float(sum(
            1 for i in outer["ebw.wb"] if "scaling.rms_search" in _ancestors(spans, i)
        )),
        "scaling.rms_search.busy_s": busy("scaling.rms_search"),
        "netsim.generate.busy_s": busy("netsim.generate"),
        "netsim.slot.calls": calls("netsim.slot"),
        "netsim.slot.links": work("netsim.slot"),
        "netsim.slot.busy_s": busy("netsim.slot"),
        "netsim.slot.self_s": self_time("netsim.slot"),
        "netsim.slot.ms_p50": float(np.percentile(slot_ms, 50.0)) if len(slot_ms) else 0.0,
        "netsim.slot.ms_tail": float(np.percentile(slot_ms, tail)) if len(slot_ms) else 0.0,
        "netsim.slot.peak_alloc_mb": peak("netsim.slot"),
        "netsim.link.calls": calls("netsim.link"),
        "netsim.link.trials": work("netsim.link"),
        "netsim.link.busy_s": busy("netsim.link"),
        "netsim.link.peak_alloc_mb": peak("netsim.link"),
        "netsim.predict.busy_s": busy("netsim.predict"),
        "trace.overhead_s": float(overhead_s),
    }
