"""Per-link traffic aggregation: bytes, messages, alpha-beta busy time.

Channels count pushes and bytes inline (two integer adds on the executor
fast path); everything else here is derived analytically at aggregation
time — per-link busy is ``alpha * messages + bytes / (beta * 1e3)`` using
the interconnect link each channel rides on — so the hot path never touches
a dict of per-link accumulators.

Backends call :func:`record_link_metrics` from ``diagnostics()``, which
folds the rows into labeled ``link_*`` gauges on the metrics registry.
"""


def link_rows(communicators):
    """Aggregate per-(src, dst)-device traffic across communicators.

    Returns rows sorted by device pair.  A channel seen through multiple
    communicator views is counted once.
    """
    totals = {}
    seen = set()
    for communicator in communicators:
        for (src_rank, dst_rank), channel in communicator.channels().items():
            if id(channel) in seen:
                continue
            seen.add(id(channel))
            link = communicator.link(src_rank, dst_rank)
            busy_us = (link.alpha_us * channel.pushed_count
                       + channel.bytes_pushed / (link.beta_gbps * 1e3))
            key = (str(channel.src_device), str(channel.dst_device))
            row = totals.get(key)
            if row is None:
                row = totals[key] = {"src": key[0], "dst": key[1],
                                     "bytes": 0, "messages": 0,
                                     "busy_us": 0.0}
            row["bytes"] += channel.bytes_pushed
            row["messages"] += channel.pushed_count
            row["busy_us"] += busy_us
    return [totals[key] for key in sorted(totals)]


def link_utilization_timeline(obs, window_us=None, max_windows=64):
    """Windowed per-link utilization from a run's time-attribution traces.

    Lifetime totals (:func:`link_rows`) hide congestion transients; this
    buckets every traced send by its completion time into fixed windows and
    reports per-(src, dst) bytes, messages, alpha-beta busy time and the
    busy/window utilization ratio.  Requires ``obs.enable_analysis()`` to
    have been active during the run (returns an empty timeline otherwise).
    ``window_us`` defaults to the run span divided into ``max_windows``.
    """
    analysis = getattr(obs, "analysis", None)
    events = []
    horizon = 0.0
    for record in (analysis.records if analysis is not None else ()):
        executor = record.executor
        communicator = executor.communicator
        trace = record.trace
        for index, primitive in zip(range(len(trace) // 3),
                                    executor.primitives):
            if not primitive.sends or primitive.send_peer is None:
                continue
            peer = primitive.send_peer
            link = communicator.link(executor.group_rank, peer)
            wire_us = link.transfer_time_us(primitive.nbytes)
            end = trace[3 * index + 1]
            horizon = end if end > horizon else horizon
            events.append((end,
                           str(communicator.device_id(executor.group_rank)),
                           str(communicator.device_id(peer)),
                           primitive.nbytes, wire_us))
    if not events:
        return {"window_us": float(window_us or 0), "links": []}
    if window_us is None:
        window_us = max(1.0, horizon / max_windows)
    per_link = {}
    for end, src, dst, nbytes, wire_us in events:
        slot = int(end / window_us)
        windows = per_link.setdefault((src, dst), {})
        bucket = windows.get(slot)
        if bucket is None:
            bucket = windows[slot] = {"start_us": slot * window_us,
                                      "end_us": (slot + 1) * window_us,
                                      "bytes": 0, "messages": 0,
                                      "busy_us": 0.0}
        bucket["bytes"] += nbytes
        bucket["messages"] += 1
        bucket["busy_us"] += wire_us
    links = []
    for (src, dst) in sorted(per_link):
        windows = [per_link[(src, dst)][slot]
                   for slot in sorted(per_link[(src, dst)])]
        for bucket in windows:
            bucket["utilization"] = bucket["busy_us"] / window_us
        links.append({"src": src, "dst": dst, "windows": windows})
    return {"window_us": float(window_us), "links": links}


def record_link_metrics(metrics, communicators):
    """Fold :func:`link_rows` into labeled gauges; returns the rows."""
    rows = link_rows(communicators)
    for row in rows:
        labels = {"src": row["src"], "dst": row["dst"]}
        metrics.gauge("link_bytes_total", labels).set(row["bytes"])
        metrics.gauge("link_messages_total", labels).set(row["messages"])
        metrics.gauge("link_busy_us", labels).set(row["busy_us"])
    return rows
