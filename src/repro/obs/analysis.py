"""Critical-path and time-attribution engine over the span layer.

PR 7 made the system *emit* telemetry; this module *explains* it.  When
:meth:`~repro.obs.observability.Observability.enable_analysis` is called
before a run, every :class:`~repro.collectives.primitives.PrimitiveExecutor`
built afterwards gets a flat execution trace (``(start, end, busy)`` per
executed primitive) and is registered here together with its collective
identity.  After the run, :func:`analyze_run` reconstructs the cross-rank
causal DAG:

* **nodes** are executed primitives (one per trace triple);
* **local edges** follow each rank's serial primitive order;
* **cross-rank edges** follow matched send→recv pairs, recovered by FIFO
  order per channel — the k-th push into a channel is consumed by the k-th
  pop, across every invocation sharing that channel.

The *critical path* of an invocation is the backward walk from its
latest-ending primitive, at each step following whichever predecessor bound
the start of real work (the local predecessor or the matched sender).
Elapsed virtual time then telescopes **exactly** into attributed buckets:

``queueing_us``
    Time a rank's part was submitted (or a predecessor was finished) but no
    primitive was executing: daemon scheduling, spin backoff, channel
    backpressure, and waits on earlier invocations.
``alpha_us`` / ``beta_us``
    Per-message link latency and byte/bandwidth time of on-path sends.
``memory_us``
    Device-local reduce/copy time when it dominates (or no send).
``overhead_us``
    The cost model's fixed per-primitive control overhead.
``contention_us``
    Dilation of on-path work beyond the modeled busy time — the clock-rate
    (SM contention / slowdown-injection) factor.  Signed: a clock running
    *faster* than modeled shows up negative rather than silently vanishing.
``completion_us``
    Last primitive end → completion signal (CQE write, callbacks).
``residual_us``
    ``measured - sum(everything above)``; ~0 by construction, kept as the
    conservation check the CI obs-smoke job gates at 1%.

Straggler skew is reported separately (it is a *property of ranks*, not a
slice of the critical path): per-rank completion z-scores with the slowest
rank named.  Tier splits (``local`` NVLink/PCIe vs ``intra_pod`` RDMA vs
cross-pod ``spine``) break the on-path wire time down by fabric level.

Everything here is duck-typed against the executor/communicator surface and
the run record (``CollectiveRun``: ``start_times``, ``complete_times``,
``expected_ranks``); nothing imports the collectives package, so ``obs``
stays a leaf layer.
"""

from array import array
from math import sqrt

#: The summing buckets of one decomposition, in render order.
BUCKET_NAMES = ("queueing_us", "alpha_us", "beta_us", "memory_us",
                "overhead_us", "contention_us", "completion_us",
                "residual_us")

#: Fabric tiers the on-path wire time (alpha + beta) is split across.
TIER_NAMES = ("local_us", "intra_pod_us", "spine_us")


class ExecutionRecord:
    """One attached executor: its trace plus the collective identity."""

    __slots__ = ("backend", "coll_name", "invocation_key", "owner",
                 "group_rank", "track", "job", "executor", "trace",
                 "algorithm", "kind", "nbytes")

    def __init__(self, backend, coll_name, invocation_key, owner, group_rank,
                 track, job, executor, trace, algorithm, kind, nbytes):
        self.backend = backend
        self.coll_name = coll_name
        self.invocation_key = invocation_key
        self.owner = owner
        self.group_rank = group_rank
        self.track = track
        self.job = job
        self.executor = executor
        self.trace = trace
        self.algorithm = algorithm
        self.kind = kind
        self.nbytes = nbytes


class AnalysisLog:
    """Registry of traced executors for one run (``obs.analysis``)."""

    def __init__(self):
        self.records = []
        #: Filled by :func:`analyze_run`; consumed by ``calibration_report``.
        self.results = None

    def attach(self, executor, owner, group_rank, invocation_key):
        """Give ``executor`` a trace and remember where it came from.

        ``owner`` is the collective run (``CollectiveRun``) the executor
        belongs to; its identity is copied as of now, since recovery may
        re-resolve the algorithm of a later generation.
        """
        trace = array("d")
        executor.trace = trace
        spec = owner.spec
        record = ExecutionRecord(owner.backend, owner.name, invocation_key,
                                 owner, group_rank, owner.track(group_rank),
                                 owner.job, executor, trace, owner.algorithm,
                                 spec.kind.value, spec.nbytes)
        self.records.append(record)
        return record


# -- causal DAG reconstruction ----------------------------------------------


def _match_channels(records):
    """FIFO-match sends to recvs: ``(id(record), prim_idx) -> sender``.

    Channels are matched globally across invocations — DFCCL invocations of
    one collective share channels, and workloads keep several iterations in
    flight, so per-invocation matching would misattribute pipelined data.
    Per-channel push order is push time (each sender's clock is serial) and
    pop order is pop time, so sorting each side by time recovers FIFO order.
    """
    pushes = {}
    pops = {}
    for record in records:
        executor = record.executor
        rank, channel_of = executor.group_rank, executor.communicator.channel
        trace = record.trace
        for index, primitive in zip(range(len(trace) // 3),
                                    executor.primitives):
            if primitive.recvs and primitive.recv_peer is not None:
                channel = channel_of(primitive.recv_peer, rank)
                pops.setdefault(id(channel), []).append(
                    (trace[3 * index], record, index))
            if primitive.sends and primitive.send_peer is not None:
                channel = channel_of(rank, primitive.send_peer)
                pushes.setdefault(id(channel), []).append(
                    (trace[3 * index + 1], record, index))
    arrivals = {}
    for channel_key, pop_list in pops.items():
        push_list = pushes.get(channel_key)
        if not push_list:
            continue
        push_list.sort(key=lambda entry: entry[0])
        pop_list.sort(key=lambda entry: entry[0])
        for pop_entry, push_entry in zip(pop_list, push_list):
            _, pop_record, pop_index = pop_entry
            push_end, push_record, push_index = push_entry
            arrivals[(id(pop_record), pop_index)] = (
                push_end, push_record, push_index)
    return arrivals


def _recv_wait_us(record, index, t0, arrivals):
    entry = arrivals.get((id(record), index))
    if entry is None:
        return 0.0
    return max(0.0, entry[0] - t0)


def _walk_critical_path(last_node, arrivals, member=None):
    """Backward walk from ``last_node``; returns (path, cross-rank edges).

    At each node the binding predecessor is whichever of {local previous
    primitive, matched sender} finished later; ``member`` (when given)
    restricts sender-edge traversal to records of the same invocation — a
    binding send from an *earlier* invocation ends the walk there, and the
    wait for it is charged to queueing at the origin.
    """
    path = []
    edges = []
    record, index = last_node
    while True:
        path.append((record, index))
        trace = record.trace
        local_end = trace[3 * (index - 1) + 1] if index > 0 else None
        sender = arrivals.get((id(record), index))
        if sender is not None and member is not None \
                and not member(sender[1]):
            sender = None
        if sender is not None and (local_end is None
                                   or sender[0] >= local_end):
            send_end, send_record, send_index = sender
            edges.append({
                "from_record": send_record, "from_index": send_index,
                "to_record": record, "to_index": index,
                "send_end_us": send_end,
            })
            record, index = send_record, send_index
        elif local_end is not None:
            index -= 1
        else:
            break
    path.reverse()
    edges.reverse()
    return path, edges


# -- bucket decomposition ----------------------------------------------------


def _tier_of(executor, peer):
    """Fabric tier of the (rank -> peer) link within one communicator."""
    communicator = executor.communicator
    link = communicator.link(executor.group_rank, peer)
    if link.link_type.name != "RDMA":
        return "local_us"
    topology = communicator.interconnect.topology
    src = communicator.device_id(executor.group_rank)
    dst = communicator.device_id(peer)
    if topology.pod_of(src.node) != topology.pod_of(dst.node):
        return "spine_us"
    return "intra_pod_us"


def _straggler_section(completes, track_of):
    """Per-rank completion z-scores; names the slowest rank."""
    if not completes:
        return None
    ranks = sorted(completes)
    times = [completes[rank] for rank in ranks]
    mean = sum(times) / len(times)
    variance = sum((value - mean) ** 2 for value in times) / len(times)
    std = sqrt(variance)
    slowest = max(ranks, key=lambda rank: completes[rank])
    return {
        "slowest_rank": track_of(slowest),
        "slowest_group_rank": slowest,
        "completion_z": ((completes[slowest] - mean) / std) if std else 0.0,
        "skew_us": completes[slowest] - mean,
        "mean_completion_us": mean,
        "completion_std_us": std,
    }


def _analyze_group(records, arrivals, member, start_floor, end_ceiling,
                   completes, track_of):
    """Shared decomposition: walk the path, telescope time into buckets."""
    last = None
    for record in records:
        count = len(record.trace) // 3
        if count == 0:
            continue
        end = record.trace[3 * (count - 1) + 1]
        if last is None or end > last[2]:
            last = (record, count - 1, end)
    if last is None:
        return None
    path, edges = _walk_critical_path((last[0], last[1]), arrivals,
                                      member=member)
    buckets = dict.fromkeys(BUCKET_NAMES, 0.0)
    tiers = dict.fromkeys(TIER_NAMES, 0.0)
    link_wire = {}
    previous_end = start_floor
    for record, index in path:
        executor = record.executor
        primitive = executor.primitives[index]
        trace = record.trace
        t0 = trace[3 * index]
        end = trace[3 * index + 1]
        busy = trace[3 * index + 2]
        wait = _recv_wait_us(record, index, t0, arrivals)
        # Segment identity: end - previous_end == queue + dilated work.  The
        # wait term collapses to zero when the matched sender *is* the
        # predecessor (its time was counted upstream); a wait on anything
        # else (earlier invocation, backpressure) is genuine queueing.
        buckets["queueing_us"] += (t0 + wait) - previous_end
        dilated = end - t0 - wait
        overhead, alpha, beta, memory = executor.split_busy(primitive, busy)
        buckets["overhead_us"] += overhead
        buckets["alpha_us"] += alpha
        buckets["beta_us"] += beta
        buckets["memory_us"] += memory
        buckets["contention_us"] += dilated - busy
        wire = alpha + beta
        if wire > 0.0:
            peer = primitive.send_peer
            tiers[_tier_of(executor, peer)] += wire
            communicator = executor.communicator
            pair = (str(communicator.device_id(executor.group_rank)),
                    str(communicator.device_id(peer)))
            link_wire[pair] = link_wire.get(pair, 0.0) + wire
        previous_end = end
    buckets["completion_us"] = end_ceiling - last[2]
    measured = end_ceiling - start_floor
    accounted = sum(buckets.values())
    buckets["residual_us"] = measured - accounted
    slowest_link = (max(link_wire, key=link_wire.get) if link_wire else None)
    straggler = _straggler_section(completes, track_of)
    flow_edges = []
    for edge in edges:
        to_record, to_index = edge["to_record"], edge["to_index"]
        recv_t0 = to_record.trace[3 * to_index]
        flow_edges.append({
            "from_track": edge["from_record"].track,
            "to_track": to_record.track,
            "job": to_record.job,
            "ts_from": edge["send_end_us"],
            "ts_to": max(recv_t0, edge["send_end_us"]),
            "nbytes": to_record.executor.primitives[to_index].nbytes,
        })
    path_work_us = measured - buckets["queueing_us"] - buckets["residual_us"]
    return {
        "measured_us": measured,
        "buckets": buckets,
        "conservation_error": (abs(buckets["residual_us"]) / measured
                               if measured else 0.0),
        "tiers": tiers,
        "critical_path": {
            "nodes": len(path),
            "cross_rank_edges": len(edges),
            "path_time_us": path_work_us,
            "last_rank": last[0].track,
            "slowest_rank": (straggler["slowest_rank"] if straggler
                             else last[0].track),
            "slowest_link": (f"{slowest_link[0]}->{slowest_link[1]}"
                             if slowest_link else None),
            "edges": flow_edges,
        },
        "straggler": straggler,
    }


def analyze_run(obs):
    """Decompose every traced invocation plus the run as a whole.

    Returns ``{"invocations": [...], "run": {...}}`` (plain dicts throughout)
    and stores it at ``obs.analysis.results`` for ``calibration_report`` to
    fold bucket-level feedback into its cells.
    """
    analysis = obs.analysis
    if analysis is None:
        raise ValueError("analysis not enabled: call obs.enable_analysis() "
                         "before the run")
    records = [record for record in analysis.records
               if len(record.trace) >= 3]
    arrivals = _match_channels(records)

    groups = {}
    for record in records:
        groups.setdefault(record.invocation_key, []).append(record)

    invocations = []
    run_starts = []
    run_completes = []
    for key in sorted(groups, key=str):
        group = groups[key]
        owner = group[0].owner
        starts, completes = owner.start_times, owner.complete_times
        if not starts or not completes:
            continue
        run_starts.append(min(starts.values()))
        run_completes.append(max(completes.values()))
        tracks = {record.group_rank: record.track for record in group}

        def track_of(rank, tracks=tracks):
            return tracks.get(rank, f"rank{rank}")

        result = _analyze_group(
            group, arrivals,
            member=lambda rec, key=key: rec.invocation_key == key,
            start_floor=min(starts.values()),
            end_ceiling=max(completes.values()),
            completes=completes, track_of=track_of)
        if result is None:
            continue
        sample = group[0]
        result.update({
            "invocation": list(key) if isinstance(key, tuple) else key,
            "collective": sample.coll_name,
            "backend": sample.backend,
            "algorithm": sample.algorithm,
            "kind": sample.kind,
            "nbytes": sample.nbytes,
            # As the calibration log records it: the ranks whose completion
            # the invocation expects (post-shrink), not the traced executors.
            "group_size": len(owner.expected_ranks()),
        })
        invocations.append(result)

    run_result = None
    if invocations and records:
        final_completes = {}
        final_tracks = {}
        for record in records:
            for rank, value in record.owner.complete_times.items():
                slot = (record.invocation_key[0]
                        if isinstance(record.invocation_key, tuple)
                        else record.invocation_key, rank)
                if value > final_completes.get(slot, float("-inf")):
                    final_completes[slot] = value
                    final_tracks[slot] = record.track
        # Collapse to per-track latest completion for the straggler view.
        by_track = {}
        for slot, value in final_completes.items():
            track = final_tracks[slot]
            by_track[track] = max(by_track.get(track, float("-inf")), value)
        run_result = _analyze_group(
            records, arrivals, member=None,
            start_floor=min(run_starts),
            end_ceiling=max(run_completes),
            completes=by_track, track_of=lambda track: track)

    results = {"invocations": invocations, "run": run_result}
    analysis.results = results
    if obs.enabled and invocations:
        histogram = obs.metrics.histogram("collective_critical_path_us")
        for invocation in invocations:
            histogram.observe(invocation["critical_path"]["path_time_us"])
    return results


def critical_path_flows(results):
    """Chrome-trace flow specs (send→recv arrows) along every critical path.

    Feed the returned list to
    :func:`repro.obs.trace.chrome_trace_events`'s ``flows`` parameter.
    """
    flows = []
    flow_id = 0
    sources = list(results.get("invocations") or ())
    run_result = results.get("run")
    if run_result is not None:
        sources.append(dict(run_result, invocation="run"))
    seen = set()
    for result in sources:
        for edge in result["critical_path"]["edges"]:
            key = (edge["from_track"], edge["to_track"],
                   edge["ts_from"], edge["ts_to"])
            if key in seen:
                continue
            seen.add(key)
            flows.append({
                "id": flow_id,
                "name": "critical-path",
                "category": "critical-path",
                "job": edge["job"],
                "from_track": edge["from_track"],
                "to_track": edge["to_track"],
                "ts_from": edge["ts_from"],
                "ts_to": edge["ts_to"],
            })
            flow_id += 1
    return flows


def render_analysis(results, title="time attribution"):
    """Human-readable per-invocation bucket table plus the critical path."""
    lines = [title, "=" * len(title)]
    for result in results.get("invocations") or ():
        path = result["critical_path"]
        lines.append("")
        lines.append(f"{result['collective']} #{result['invocation']}"
                     f" [{result['backend']}/{result['algorithm']}"
                     f" {result['kind']} {result['nbytes']}B"
                     f" x{result['group_size']}]:"
                     f" measured {result['measured_us']:.1f}us")
        buckets = result["buckets"]
        for name in BUCKET_NAMES:
            value = buckets[name]
            share = value / result["measured_us"] if result["measured_us"] else 0.0
            lines.append(f"  {name:<15} {value:>12.2f}us  {share:>6.1%}")
        tiers = result["tiers"]
        tier_text = ", ".join(f"{name[:-3]}={tiers[name]:.1f}us"
                              for name in TIER_NAMES)
        lines.append(f"  wire tiers: {tier_text}")
        lines.append(f"  critical path: {path['nodes']} primitives,"
                     f" {path['cross_rank_edges']} cross-rank hops,"
                     f" slowest rank {path['slowest_rank']},"
                     f" slowest link {path['slowest_link']}")
        straggler = result["straggler"]
        if straggler:
            lines.append(f"  straggler: {straggler['slowest_rank']}"
                         f" z={straggler['completion_z']:.2f}"
                         f" skew={straggler['skew_us']:.1f}us")
        lines.append(f"  conservation error:"
                     f" {result['conservation_error']:.3%}")
    run_result = results.get("run")
    if run_result is not None:
        lines.append("")
        lines.append(f"run: measured {run_result['measured_us']:.1f}us, "
                     "buckets "
                     + ", ".join(f"{name}={run_result['buckets'][name]:.1f}"
                                 for name in BUCKET_NAMES))
    if not results.get("invocations"):
        lines.append("(no traced invocations)")
    return "\n".join(lines)
