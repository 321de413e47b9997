"""Structured spans: named intervals on named tracks, grouped by job.

A :class:`Span` is the unit every instrumentation hook emits: collective
invocations (start -> complete per rank), recovery episodes, and job
lifecycles.  Spans are deliberately tiny (slotted, no timestamps taken —
virtual time is passed in by the caller) because the DFCCL hot path creates
one per rank per invocation.

Two emission styles:

* ``begin()`` / ``end()`` for intervals whose end is observed later (the
  span stays in the tracer's *open* set meanwhile, so a flight-recorder dump
  taken mid-flight still shows it);
* ``record()`` for intervals reconstructed after the fact (a recovery
  episode learns its detection time when it starts the rerun).
"""


class Span:
    """One named interval. ``track`` picks the row in the chrome trace;
    ``job`` picks the process group; ``attrs`` is an open dict."""

    __slots__ = ("name", "category", "start_us", "end_us", "track", "job",
                 "attrs")

    def __init__(self, name, category, start_us, track=None, job=None,
                 attrs=None):
        self.name = name
        self.category = category
        self.start_us = start_us
        self.end_us = None
        self.track = track
        self.job = job
        self.attrs = attrs

    @property
    def duration_us(self):
        if self.end_us is None:
            return None
        return self.end_us - self.start_us

    def to_dict(self):
        return {
            "name": self.name,
            "category": self.category,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "track": self.track,
            "job": self.job,
            "attrs": dict(self.attrs) if self.attrs else {},
        }

    def __repr__(self):
        state = f"..{self.end_us}" if self.end_us is not None else "..open"
        return (f"Span({self.name!r}, {self.category!r}, "
                f"{self.start_us}{state}, track={self.track!r})")


class SpanTracer:
    """Creates spans and hands the finished ones to the flight recorder."""

    def __init__(self, recorder):
        self._recorder = recorder
        self._open = set()

    def begin(self, name, category, start_us, track=None, job=None,
              attrs=None):
        span = Span(name, category, start_us, track=track, job=job,
                    attrs=attrs)
        self._open.add(span)
        return span

    def end(self, span, end_us, **extra_attrs):
        span.end_us = end_us
        if extra_attrs:
            if span.attrs is None:
                span.attrs = extra_attrs
            else:
                span.attrs.update(extra_attrs)
        self._open.discard(span)
        self._recorder.record_span(span)
        return span

    def record(self, name, category, start_us, end_us, track=None, job=None,
               attrs=None):
        """One-shot: emit an already-finished interval."""
        span = Span(name, category, start_us, track=track, job=job,
                    attrs=attrs)
        span.end_us = end_us
        self._recorder.record_span(span)
        return span

    def event(self, name, category, time_us, attrs=None):
        """Instant marker (no duration) into the flight-recorder ring."""
        self._recorder.record_event(time_us, category, name, attrs)

    def open_spans(self):
        """Spans begun but not yet ended (included in dumps)."""
        return list(self._open)
