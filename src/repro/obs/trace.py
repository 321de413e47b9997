"""Chrome trace-event export of an :class:`~repro.obs.Observability`.

The export holds

* **pid 0** — the engine: one thread row per actor, sliced from the flight
  recorder's (bounded) step events, and instant markers (kills, abandons,
  job arrivals) as "i" events;
* **pid 1** — spans with no job attribution (single-tenant collectives,
  recovery episodes), one thread row per span track;
* **pid 2+** — one process group per job, so multi-tenant runs show each
  tenant's per-rank collective tracks side by side;
* a counter track ("C" events) per span process charting in-flight
  collectives over time.

Timestamps are virtual microseconds throughout, which is the unit the
trace-event format expects.
"""

import json


def _actor_slices(steps, events, pid, first_tid):
    """Per-actor "X" slices from raw step records."""
    by_actor = {}
    for time_us, actor, status, detail in steps:
        by_actor.setdefault(actor, []).append((float(time_us), status, detail))
    tids = {}
    for tid, (actor, records) in enumerate(sorted(by_actor.items()),
                                           start=first_tid):
        tids[actor] = tid
        events.append({"name": "thread_name", "ph": "M", "pid": pid,
                       "tid": tid, "args": {"name": actor}})
        previous = records[0][0]
        for index, (time_us, status, detail) in enumerate(records):
            start = previous if index > 0 else time_us
            events.append({
                "name": detail or status, "cat": status, "ph": "X",
                "ts": start, "dur": max(0.0, time_us - start),
                "pid": pid, "tid": tid, "args": {"status": status},
            })
            previous = time_us
    return tids


def _span_events(spans, events, pid):
    """Span "X" rows (one thread per track) plus an in-flight counter.

    Returns the track -> tid map so flow events can target the rows."""
    tracks = sorted({span.track or "spans" for span in spans}, key=str)
    tids = {track: tid for tid, track in enumerate(tracks, start=1)}
    for track, tid in tids.items():
        events.append({"name": "thread_name", "ph": "M", "pid": pid,
                       "tid": tid, "args": {"name": str(track)}})
    deltas = []
    for span in spans:
        end = span.end_us if span.end_us is not None else span.start_us
        args = dict(span.attrs) if span.attrs else {}
        if span.end_us is None:
            args["open"] = True
        events.append({
            "name": span.name, "cat": span.category, "ph": "X",
            "ts": span.start_us, "dur": max(0.0, end - span.start_us),
            "pid": pid, "tid": tids[span.track or "spans"], "args": args,
        })
        if span.category == "collective" and span.end_us is not None:
            deltas.append((span.start_us, 1))
            deltas.append((span.end_us, -1))
    inflight = 0
    for ts, delta in sorted(deltas):
        inflight += delta
        events.append({"name": "inflight_collectives", "ph": "C", "ts": ts,
                       "pid": pid, "tid": 0,
                       "args": {"collectives": inflight}})
    return tids


def _flow_events(flows, events, track_maps):
    """Matched send->recv arrows: paired "s"/"f" flow events.

    Each flow dict names a (job, track, ts) source and destination (the shape
    :func:`repro.obs.analysis.critical_path_flows` produces).  Flows whose
    track has no span row (e.g. evicted from the bounded ring) are skipped —
    the exporter stays valid with any subset of flows, including none.
    """
    for flow in flows:
        pid, tids = track_maps.get(flow.get("job"), (None, None))
        if tids is None:
            continue
        tid_from = tids.get(flow["from_track"])
        tid_to = tids.get(flow["to_track"])
        if tid_from is None or tid_to is None:
            continue
        name = flow.get("name", "flow")
        category = flow.get("category", "flow")
        flow_id = flow["id"]
        events.append({"name": name, "cat": category, "ph": "s",
                       "id": flow_id, "pid": pid, "tid": tid_from,
                       "ts": flow["ts_from"]})
        events.append({"name": name, "cat": category, "ph": "f", "bp": "e",
                       "id": flow_id, "pid": pid, "tid": tid_to,
                       "ts": flow["ts_to"]})


def chrome_trace_events(obs, process_name="repro-engine", flows=None):
    """Convert an observability hub's recorded state to trace-event objects.

    ``flows`` (optional) is a list of flow specs — see
    :func:`repro.obs.analysis.critical_path_flows` — rendered as arrows
    between the span rows they name.  The output is a valid trace with or
    without them.
    """
    recorder = obs.recorder
    events = [{"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
               "args": {"name": process_name}}]
    _actor_slices(recorder.step_events(), events, pid=0, first_tid=1)
    for marker in recorder.marker_events():
        _, time_us, category, name, attrs = marker
        events.append({"name": name, "cat": category, "ph": "i",
                       "ts": float(time_us), "pid": 0, "tid": 0, "s": "g",
                       "args": dict(attrs) if attrs else {}})

    spans = list(recorder.spans) + obs.tracer.open_spans()
    jobless = [span for span in spans if span.job is None]
    jobs = sorted({span.job for span in spans if span.job is not None},
                  key=str)
    track_maps = {}
    if jobless:
        events.append({"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                       "args": {"name": "collectives"}})
        track_maps[None] = (1, _span_events(jobless, events, pid=1))
    for pid, job in enumerate(jobs, start=2):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": f"job:{job}"}})
        track_maps[job] = (pid, _span_events(
            [span for span in spans if span.job == job], events, pid=pid))
    if flows:
        _flow_events(flows, events, track_maps)
    return events


def write_chrome_trace(obs, path, process_name="repro-engine", flows=None):
    """Write an observability trace as a ``chrome://tracing`` JSON file.

    Returns the number of events written.  ``path`` may be a filesystem path
    or an open text file.
    """
    events = chrome_trace_events(obs, process_name=process_name, flows=flows)
    document = {"traceEvents": events, "displayTimeUnit": "ms"}
    if hasattr(path, "write"):
        json.dump(document, path)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
    return len(events)
