"""In-memory spans and counters recorded around tactrack's public calls.

The benchmark never edits the program.  It replaces each public name with a
wrapper at the place where that name is looked up (a module global or a
class attribute), records a span per call and puts the original back when
the `patched` block exits.  All calls happen on one thread, so spans nest
strictly and a span's children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str            # "<layer>.<call>"
    start: float         # perf_counter seconds
    end: float
    parent: int          # index of the enclosing span, -1 for a root
    run: str | None      # shared by every span of one (object, episode, mode)
    error: str | None = None   # exception class name when the call raised

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


@dataclass
class Tracer:
    """Collects spans and counters; `run` tags everything recorded next."""

    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)   # (run, name) -> count
    gauges: dict = field(default_factory=dict)   # (run, name) -> last value
    run: str | None = None
    _stack: list = field(default_factory=list)

    def count(self, name: str, amount=1) -> None:
        self.counts[(self.run, name)] += amount

    def gauge(self, name: str, value) -> None:
        self.gauges[(self.run, name)] = value

    def total(self, name: str):
        return sum(v for (_, n), v in self.counts.items() if n == name)

    def run_mean(self, name: str) -> float:
        """Mean over runs of a gauge's last value; 0 when never set."""
        values = [v for (_, n), v in self.gauges.items() if n == name]
        return sum(values) / len(values) if values else 0.0

    def wrap(self, name: str, fn, after=None):
        """A function that calls `fn` inside a span called `name`.

        `after(result, args, kwargs)` runs once `fn` has returned, to record
        counts.  An exception from `fn` is noted on the span and re-raised
        unchanged.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, perf_counter(), math.nan,
                        tracer._stack[-1] if tracer._stack else -1, tracer.run)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span.error = type(err).__name__
                raise
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def counter(self, name: str, fn, key=None):
        """A function that calls `fn` and counts the call, without a span.

        With `key`, the count goes to `name + "." + key(*args)`.
        """
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(name if key is None else f"{name}.{key(*args)}")
            return fn(*args, **kwargs)

        return counted


@contextlib.contextmanager
def patched(replacements):
    """Set each `(owner, attribute, replacement)`; restore the originals on exit.

    The attribute must be defined on `owner` itself, which is where the
    program looks it up, so a wrapper can never shadow an inherited name by
    accident.
    """
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in replacements]
    try:
        for owner, attr, replacement in replacements:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


@dataclass
class NameTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: Counter = field(default_factory=Counter)


def totals_by_name(spans) -> dict:
    """name -> NameTotals over all spans."""
    out = defaultdict(NameTotals)
    for span, own in zip(spans, self_times(spans)):
        t = out[span.name]
        t.calls += 1
        t.total_s += span.duration
        t.self_s += own
        if span.error is not None:
            t.errors[span.error] += 1
    return dict(out)


def self_by_layer(spans) -> dict:
    """layer -> summed self time in seconds."""
    out = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        out[span.layer] += own
    return dict(out)


def percentile(values, q: float) -> float:
    """Linearly interpolated percentile, q in [0, 100] (numpy's default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def latency_summary(values) -> dict:
    """Median and p90 with the sample count and the samples beyond p90.

    A p90 is trustworthy only with at least ten samples beyond it; the
    report flags it otherwise.
    """
    p90 = percentile(values, 90)
    return {"p50": percentile(values, 50), "p90": p90, "n": len(values),
            "beyond_p90": sum(1 for v in values if v > p90)}
