"""Bounded flight recorder: always-on, cheap enough to never turn off.

Two independent rings, so a flood of engine step events can never evict the
(much rarer, much more valuable) spans:

* ``ring`` — raw events.  The engine appends its 4-tuple step records
  ``(time_us, actor, status, detail)`` directly (one ``deque.append`` per
  step, the entire hot-path cost of the recorder); instant markers arrive as
  5-tuples ``("event", time_us, category, name, attrs)`` via
  :meth:`record_event`.
* ``spans`` — completed :class:`~repro.obs.spans.Span` objects.

``dump()`` serializes both rings plus whatever context the trigger site
passes (a deadlock wait graph, a recovery event, a fuzzer divergence) into a
plain JSON-safe dict.
"""

from collections import deque

DEFAULT_EVENT_CAPACITY = 4096
DEFAULT_SPAN_CAPACITY = 2048


class FlightRecorder:
    def __init__(self, event_capacity=DEFAULT_EVENT_CAPACITY,
                 span_capacity=DEFAULT_SPAN_CAPACITY):
        self.ring = deque(maxlen=event_capacity)
        self.spans = deque(maxlen=span_capacity)

    def record_event(self, time_us, category, name, attrs=None):
        self.ring.append(("event", time_us, category, name, attrs))

    def record_span(self, span):
        self.spans.append(span)

    def step_events(self):
        """The engine's raw ``(time, actor, status, detail)`` step records."""
        return [event for event in self.ring if len(event) == 4]

    def marker_events(self):
        return [event for event in self.ring if len(event) == 5]

    def serialized_events(self):
        out = []
        for event in self.ring:
            if len(event) == 4:
                time_us, actor, status, detail = event
                out.append({"type": "step", "time_us": time_us,
                            "actor": actor, "status": status,
                            "detail": detail})
            else:
                _, time_us, category, name, attrs = event
                out.append({"type": "event", "time_us": time_us,
                            "category": category, "name": name,
                            "attrs": attrs})
        return out

    def dump(self, reason, open_spans=(), context=None, metrics=None):
        """Plain-data snapshot of everything the recorder holds right now."""
        return {
            "reason": reason,
            "events": self.serialized_events(),
            "spans": [span.to_dict() for span in self.spans],
            "open_spans": [span.to_dict() for span in open_spans],
            "context": context or {},
            "metrics": metrics or {},
        }
