"""DFCCL behind the unified ``repro.api`` front-end.

The adapter is the DFCCL library instance of one cluster (Listing 1's
``dfcclInit`` / ``Register`` / ``Run`` / ``Destroy``): it owns the per-GPU
:class:`~repro.core.RankContext` objects, the communicator pool, the
recovery manager and the one map of registered collectives.  It registers
one DFCCL collective per logical ``(spec, key)`` of each process group with
auto-assigned collective ids.  Each call joins one rank's part of the
collective's next :class:`~repro.core.registration.Invocation`; the Work's
submit op is the ``dfcclRun*`` call (an SQE push through
:meth:`~repro.core.api.RankContext.submit_invocation`) and its wait op
blocks until the poller delivered the rank's completion or recovery aborted
the part.

One daemon kernel per GPU serves every job.  A group's ``job`` namespaces
its collectives, both in the collective-id space and in the communicator
pool.
"""

from __future__ import annotations

from dataclasses import replace

from repro.common.errors import InvalidStateError
from repro.core import (
    CommunicatorPool,
    DfcclConfig,
    RankContext,
    RecoveryManager,
    RegisteredCollective,
)
from repro.gpusim.host import CallHook
from repro.obs import record_link_metrics
from repro.api.backend import CollectiveBackend, register_backend


class DfcclCollectiveBackend(CollectiveBackend):
    """DFCCL as a :class:`CollectiveBackend`: one library instance per cluster."""

    name = "dfccl"

    def __init__(self, cluster, config=None, chunk_bytes=None, algorithm=None):
        super().__init__(cluster)
        overrides = {}
        if chunk_bytes is not None:
            overrides["chunk_bytes"] = chunk_bytes
        if algorithm is not None:
            overrides["algorithm"] = algorithm
        self.config = replace(config or DfcclConfig(), **overrides).validate()
        self.pool = CommunicatorPool(cluster.interconnect)
        #: Rank contexts by global rank, created on first use (``dfcclInit``).
        self.contexts = {}
        #: Registered collectives by ``(group, spec, key)``.
        self.collectives = {}
        self._next_coll_id = 0
        self.recovery_manager = None
        if self.config.recovery_enabled:
            self.recovery_manager = RecoveryManager(self)
            cluster.engine.add_actor(self.recovery_manager)
        #: Names of the gauges this backend registered (frozen by close).
        self._gauge_names = []
        obs = cluster.engine.obs
        if obs.enabled:
            registry = obs.metrics
            for field in ("hits", "misses", "created", "reused", "active",
                          "discarded", "free", "double_releases"):
                self._gauge_names.append(registry.gauge_fn(
                    f"pool_{field}",
                    lambda field=field: self.pool.stats()[field]))
            for field in ("launches", "preemptions", "voluntary_quits",
                          "spin_polls", "spin_waits", "primitives_executed"):
                self._gauge_names.append(registry.gauge_fn(
                    f"daemon_{field}",
                    lambda field=field: self._daemon_total(field)))

    def _daemon_total(self, field):
        return sum(getattr(ctx.stats, field) for ctx in self.contexts.values())

    # -- rank contexts and registration ---------------------------------------

    def init_rank(self, global_rank):
        """Create (or return) the rank context for one GPU — ``dfcclInit``."""
        ctx = self.contexts.get(global_rank)
        if ctx is None:
            ctx = self.contexts[global_rank] = RankContext(self, global_rank)
            if self.recovery_manager is not None:
                self.cluster.engine.signal(
                    self.recovery_manager.rank_registered_key)
        return ctx

    def ensure_collective(self, group, spec, key):
        """Register the logical collective once — ``dfcclRegister*``.

        Collective ids come from one backend-wide counter: ``n``, or
        ``(job, n)`` for a group with a ``job``, whose communicators are
        also pooled under that job.
        """
        ident = (group, spec, key)
        coll = self.collectives.get(ident)
        if coll is None:
            job = group.job
            n = self._next_coll_id
            self._next_coll_id += 1
            devices = [self.cluster.device(rank) for rank in group.ranks]
            suffix = "" if key is None else f":{key}"
            # ProcessGroup already resolved the effective priority (explicit
            # per-call value or the group default) into the spec.
            coll = self.collectives[ident] = RegisteredCollective(
                n if job is None else (job, n), spec, devices, group.ranks,
                self.cluster.interconnect, self.config,
                self.pool.acquire(devices, job=job), priority=spec.priority,
                name=f"{group.name}:{spec.kind.value}{suffix}", job=job,
            )
            for rank in group.ranks:
                self.init_rank(rank).register(coll)
        return coll

    def join(self, group, spec, key, index, rank):
        """``rank``'s part of the collective's next invocation."""
        coll = self.ensure_collective(group, spec, key)
        group_rank = self.init_rank(rank).group_rank_for(coll)
        return coll.next_invocation_for_rank(group_rank), group_rank

    def submit_op(self, work):
        """Host op of ``dfcclRun*``: push the rank's SQE to its daemon."""
        ctx, invocation = self.contexts[work.rank], work.run
        return CallHook(
            lambda host: ctx.submit_invocation(invocation, work.group_rank, host.now),
            detail=f"dfccl_run coll {invocation.coll_id}",
        )

    # -- lifecycle --------------------------------------------------------------

    def finalize_ops(self, rank):
        """Teardown ops for ``rank``'s host program (``dfcclDestroy``)."""
        return [self.init_rank(rank).destroy_op()]

    def _job_collectives(self, job):
        return [(ident, coll) for ident, coll in self.collectives.items()
                if coll.job == job]

    def quiesce(self, job, time_us):
        """Abort ``job``'s unresolved invocation parts (job preemption).

        The scheduler preempts a placed job by killing its rank processes
        mid-run; their submitted collective parts would otherwise sit in the
        daemon task queues forever, holding outstanding accounting and SQ/CQ
        slots.  Aborting each unresolved part releases the accounting and
        makes the daemon kernels drop the matching task entries lazily (the
        same mechanism recovery's abandon path uses).  A collective caught
        mid-invocation gets its communicator invalidated — its channels may
        hold half-delivered chunks and must be discarded, not recycled — while
        a collective preempted at an invocation boundary keeps its
        communicator clean for pooled reuse when the job resumes.  Returns
        the number of rank parts aborted.
        """
        aborted = 0
        for _, coll in self._job_collectives(job):
            if coll.abandoned:
                continue
            dirty = False
            for invocation in coll.invocations:
                if invocation.fully_complete():
                    continue
                if not invocation.start_times and not invocation.complete_times:
                    continue  # created but never touched: nothing to abort
                dirty = True
                for rank in sorted(invocation.expected_ranks()):
                    if coll.devices[rank].failed:
                        continue
                    ctx = self.contexts[coll.global_ranks[rank]]
                    if ctx.abort_invocation(invocation, time_us):
                        aborted += 1
            if dirty and not coll.communicator.invalidated:
                coll.communicator.invalidate()
        return aborted

    def unregister_all(self, job=None):
        """Unregister ``job``'s collectives — ``dfcclUnregister``.

        Each communicator goes back to the pool, so a later registration
        over the same device set reuses its channels (unless it was
        failure-invalidated, in which case the pool discards it).  A
        collective with an invocation part still in flight on a live rank
        stays registered; returns the number unregistered.
        """
        released = 0
        for ident, coll in self._job_collectives(job):
            contexts = [self.contexts[rank] for rank in coll.global_ranks]
            try:
                # Every rank is checked before any is changed, so a refused
                # collective stays registered everywhere.
                for ctx in contexts:
                    ctx.ensure_unregisterable(coll)
            except InvalidStateError:
                continue
            # A later call on the same group re-registers instead of
            # submitting to a dead id.
            del self.collectives[ident]
            for ctx in contexts:
                ctx.unregister(coll)
            self.pool.release(coll.communicator)
            released += 1
        return released

    def release_job(self, job):
        """Evict a departed job's communicator-pool namespace."""
        self.pool.evict_job(job)

    def close(self):
        """Freeze the pool and daemon gauges, cut the contexts and the
        recovery manager loose from the run and forget the collectives.
        The contexts, their stats and the recovery stats stay readable."""
        self.cluster.engine.obs.metrics.freeze_gauges(self._gauge_names)
        for ctx in self.contexts.values():
            ctx.close()
        for coll in self.collectives.values():
            coll.close()
        # Keyed by process group, and a group points back at the backend.
        self.collectives.clear()
        if self.recovery_manager is not None:
            self.recovery_manager.backend = None

    # -- reporting -----------------------------------------------------------------

    def stats(self, rank):
        """Per-rank daemon-kernel counters (``dfcclGetStats``)."""
        return self.init_rank(rank).stats

    def diagnostics(self):
        """Pool, daemon and recovery statistics for conformance reports."""
        daemon_stats = {rank: ctx.stats
                        for rank, ctx in sorted(self.contexts.items())}
        diag = {
            "pool": self.pool.stats(),
            "daemon_stats": daemon_stats,
            "preemptions": sum(stats.preemptions for stats in daemon_stats.values()),
            "voluntary_quits": sum(stats.voluntary_quits
                                   for stats in daemon_stats.values()),
        }
        manager = self.recovery_manager
        if manager is not None:
            stats = manager.stats
            diag["recovery"] = {
                "scans": stats.scans,
                "recoveries": stats.recoveries,
                "invocations_rerun": stats.invocations_rerun,
                "suspected_stragglers": stats.suspected_stragglers,
                "abandoned": stats.abandoned,
                "events": [
                    {
                        "time_us": event.time_us,
                        "coll_id": event.coll_id,
                        "failed_ranks": event.failed_ranks,
                        "survivor_ranks": event.survivor_ranks,
                        "detection_latency_us": event.detection_latency_us,
                        "generation": event.generation,
                    }
                    for event in stats.events
                ],
            }
        obs = self.cluster.engine.obs
        if obs.enabled:
            record_link_metrics(
                obs.metrics,
                [coll.communicator for coll in self.collectives.values()])
            diag["metrics"] = obs.metrics.snapshot()
        return diag

    def core_time_us(self, rank, runs):
        """The daemon's execute and prepare time per written CQE."""
        stats = self.stats(rank)
        return ((stats.execute_time_us + stats.preparing_time_us)
                / max(1, stats.cqes_written))

    def preemptions(self, rank):
        """Times ``rank``'s daemon preempted a collective."""
        return self.stats(rank).preemptions


register_backend("dfccl", DfcclCollectiveBackend)
