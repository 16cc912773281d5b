"""Spans around the calls the benchmark makes into each pillarkit layer.

A :class:`Tracer` replaces a function attribute (a name ``pillarkit.cli`` or
``pillarkit.toy`` imported, ``FeatureMap.save``, or a call a workload makes
itself) with a wrapper that records a span: name, start, end and parent.
Spans stay in memory and are written out when the run ends. A layer's self
time is its span's duration minus the part its child spans cover.

With ``memory=True`` the tracer also records, for each span, the peak
``tracemalloc`` allocation above the level at which the span opened. That
pass is separate from the timed one, because ``tracemalloc`` slows every
allocation.
"""

from __future__ import annotations

import functools
import json
import statistics
import tracemalloc
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

# span name -> per-layer time metric built from that span's self time
TIME_METRICS = {
    "cli.main": "cli.self_s",
    "pointcloud.load": "pointcloud.load_s",
    "gridding.batch": "gridding.batch_s",
    "gridding.scatter": "gridding.scatter_s",
    "gridding.save": "gridding.save_s",
    "descriptor.forward": "descriptor.forward_s",
    "descriptor.forward_train": "descriptor.forward_train_s",
    "autograd.backward": "autograd.backward_s",
    "autograd.optimizer": "autograd.optimizer_s",
    "toy.batch": "toy.batch_s",
    "toy.eval": "toy.eval_s",
    "toy.checkpoint": "toy.checkpoint_s",
    "toy.train": "toy.self_s",
}
# span name -> per-layer count metric giving that span's calls per op
CALL_METRICS = {
    "descriptor.forward": "descriptor.forward_calls",
    "autograd.backward": "autograd.backward_calls",
}
LAYERS = ("pointcloud", "gridding", "descriptor", "autograd", "toy", "cli")
OVERHEAD_METRIC = "trace.overhead_ratio"

SETUP = -1  # op index of spans recorded during set-up


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    op: int  # op the span belongs to, SETUP for set-up
    peak_bytes: int = 0  # memory pass only: peak allocation above the opening level


class Tracer:
    """Records spans and per-op counts; owns the patches it installs."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.op = SETUP
        self.input_key: object = None  # which input the current op runs on
        self.op_notes: dict[str, float] = defaultdict(float)  # counts of the current op
        self.input_notes: dict[object, dict[str, float]] = {}  # last op's counts per input
        self._stack: list[int] = []
        self._mem: list[list[int]] = []  # per open span: [opening level, peak so far]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, 0.0, parent, self.op))
        self._stack.append(index)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem.append([current, current])
        return index

    def _close(self, index: int, start: float, end: float) -> None:
        self._stack.pop()
        span = self.spans[index]
        span.start, span.end = start, end
        if self.memory:
            base, peak = self._mem.pop()
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            span.peak_bytes = peak - base
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = self._open(name)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index, start, perf_counter())

    def patch(self, owner: object, attr: str, name, note=None) -> None:
        """Wrap ``owner.attr`` so each call records a span.

        ``name`` is a span name, or a function of the call's ``(args, kwargs)``
        returning one. ``note(tracer, args, kwargs, result)`` runs after the
        span closes, to record counts outside the timed interval.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            result = self.call(span_name, original, *args, **kwargs)
            if note is not None:
                note(self, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per-op bookkeeping -----------------------------------------------------

    def begin_op(self, op: int, input_key: object) -> None:
        self.op = op
        self.input_key = input_key
        self.op_notes = defaultdict(float)

    def end_op(self) -> None:
        self.input_notes[self.input_key] = dict(self.op_notes)
        self.op = SETUP

    def note(self, name: str, value: float) -> None:
        self.op_notes[name] += value

    # -- summaries ---------------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def span_counts(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span.name] += 1
        return dict(counts)

    def layer_metrics(self, ops: int, setup_passes: int) -> dict[str, dict]:
        """Per-layer time, call and noted-count metrics of the traced ops.

        A time is the median over ops of the span's summed self time in one op.
        A span seen only during set-up is reported per set-up pass instead; its
        entry says so.
        """
        per_op: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        calls: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        setup: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            if span.op == SETUP:
                setup[span.name] += own
            else:
                per_op[span.name][span.op] += own
                calls[span.name][span.op] += 1
        out: dict[str, dict] = {}
        for span_name, metric in TIME_METRICS.items():
            if span_name in per_op:
                values = [per_op[span_name].get(i, 0.0) for i in range(ops)]
                out[metric] = {"value": statistics.median(values), "unit": "s", "phase": "op"}
            elif span_name in setup and setup_passes:
                out[metric] = {
                    "value": setup[span_name] / setup_passes, "unit": "s", "phase": "setup"
                }
            else:
                out[metric] = {"value": 0.0, "unit": "s", "phase": "unused"}
        for span_name, metric in CALL_METRICS.items():
            values = [calls[span_name].get(i, 0) for i in range(ops)]
            out[metric] = {"value": statistics.median(values) if ops else 0.0, "unit": "count"}
        # counts noted per op: the last op on each distinct input stands for it,
        # so the figures do not depend on how many ops a run managed
        inputs = list(self.input_notes.values())
        saved = [n["gridding.save_bytes"] for n in inputs if "gridding.save_bytes" in n]
        out["gridding.save_bytes"] = {
            "value": statistics.fmean(saved) if saved else 0.0, "unit": "bytes"
        }
        useful = sum(n.get("descriptor.useful_slots", 0.0) for n in inputs)
        slots = sum(n.get("descriptor.slots", 0.0) for n in inputs)
        out["descriptor.useful_slot_ratio"] = {
            "value": useful / slots if slots else 0.0, "unit": "ratio"
        }
        return out

    def peak_alloc_metrics(self) -> dict[str, dict]:
        peaks = dict.fromkeys(LAYERS, 0)
        for span in self.spans:
            layer = span.name.split(".", 1)[0]
            peaks[layer] = max(peaks[layer], span.peak_bytes)
        return {
            f"{layer}.peak_alloc_mb": {"value": peak / 2**20, "unit": "MB"}
            for layer, peak in peaks.items()
        }

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")

