"""Fault-induced deadlock analysis: engine reports → wait-for cycles.

The round-based simulator in this package predicts deadlock *ratios* from
abstract invocation orders; this module closes the loop for *fault-induced*
deadlocks observed in the full engine.  When a rank crashes mid-collective,
the engine's deadlock report contains the blocked actors and the wait keys
they can never see signalled.  :func:`analyze_fault_deadlock` lifts that
report into the same :class:`DependencyGraph` formalism used by Sec. 2.4:

* nodes are ranks (one per GPU) plus one ``("crashed", rank)`` node per dead
  device;
* an edge ``A -> B`` means rank A busy-waits on data (or buffer space, or a
  kernel completion) that only rank B can produce;
* a crashed rank points at its crash marker and the marker points back —
  the standard wait-for-graph encoding of a failed process that holds its
  resources forever and waits on a recovery that never comes.

A cycle through a ``crashed`` node is the signature of a fault-induced hang:
every path of waiters that reaches the dead rank can never be satisfied.  The
same analysis on a DFCCL run comes back empty, because the daemon kernel's
bounded spinning means no actor ever *blocks* on a dead peer — it preempts,
and the recovery layer re-forms the group.

:func:`repro.testing.differential.replay_program` attaches this analysis to
every replay, so the chaos experiments (the fault plans of
``repro.bench.CHAOS_PLANS``) and the fuzzer read it as ``result.analysis``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.deadlock.dependency_graph import DependencyGraph


@dataclass
class FaultDeadlockAnalysis:
    """Wait-for structure extracted from an engine deadlock under faults."""

    time_us: float
    blocked_actors: list = field(default_factory=list)
    edges: dict = field(default_factory=dict)
    cycle: list = None
    crashed_ranks: tuple = ()

    @property
    def deadlocked(self):
        return bool(self.blocked_actors)

    @property
    def fault_induced(self):
        """True when the wait-for cycle passes through a crashed rank."""
        if not self.cycle:
            return False
        return any(node[0] == "crashed" for node in self.cycle)


def _rank_of_device_id(cluster, device_id):
    return cluster.rank_of(cluster.device_by_id(device_id))


def _resolve_key_rank(key, cluster, actors_by_name):
    """The rank that would have signalled ``key``, or ``None``."""
    tag = key[0] if isinstance(key, tuple) and key else None
    if tag == "chan-readable" or tag == "chan-writable":
        channel = cluster.engine.object_by_id("channel", key[1])
        if channel is None:
            return None
        device_id = channel.src_device if tag == "chan-readable" else channel.dst_device
        return _rank_of_device_id(cluster, device_id)
    if tag == "kernel-done":
        actor = actors_by_name.get(key[1])
        device = getattr(actor, "device", None)
        if device is None:
            return None
        return cluster.rank_of(device)
    if tag == "nccl-op-done":
        op = cluster.engine.object_by_id("nccl-op", key[1])
        if op is None:
            return None
        return cluster.rank_of(op.devices[key[2]])
    return None


def analyze_fault_deadlock(report, cluster):
    """Lift an engine :class:`DeadlockReport` into a rank-level wait-for graph.

    Returns a :class:`FaultDeadlockAnalysis`; ``report`` may be ``None`` (no
    deadlock was recorded), in which case the analysis is empty.
    """
    analysis = FaultDeadlockAnalysis(
        time_us=report.time_us if report is not None else 0.0,
        crashed_ranks=tuple(
            cluster.rank_of(device) for device in cluster.failed_devices()
        ),
    )
    if report is None:
        return analysis

    analysis.blocked_actors = list(report.involved())
    actors_by_name = {actor.name: actor for actor in cluster.engine.actors()}
    graph = DependencyGraph()

    for actor in report.blocked_actors:
        device = getattr(actor, "device", None)
        if device is None:
            continue
        src = ("rank", cluster.rank_of(device))
        for key in report.wait_graph.get(actor.name, ()):
            dst_rank = _resolve_key_rank(key, cluster, actors_by_name)
            if dst_rank is not None:
                graph.add_edge(src, ("rank", dst_rank))

    # A crashed rank holds its resources forever while "waiting" on a
    # recovery that never happens: encode that as a two-node cycle so every
    # chain of waiters reaching the dead rank is part of an irresolvable
    # wait-for cycle.
    for rank in analysis.crashed_ranks:
        graph.add_edge(("rank", rank), ("crashed", rank))
        graph.add_edge(("crashed", rank), ("rank", rank))

    analysis.edges = graph.edges()
    analysis.cycle = graph.find_cycle()
    return analysis

