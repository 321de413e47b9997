"""DFCCL behind the unified ``repro.api`` front-end.

The adapter owns (or shares) a :class:`~repro.core.DfcclBackend` and
registers one DFCCL collective per logical ``(spec, key)`` of each process
group with auto-assigned collective ids.  Each call becomes a
:class:`DfcclWork` bound to one rank's part of the collective's next
invocation; its submit op is the ``dfcclRun*`` call (an SQE push through
:meth:`~repro.core.api.RankContext.submit_invocation`) and its wait op
blocks until the rank's callback fired or recovery aborted the part.

``job_view`` returns a view sharing the same DfcclBackend — one daemon
kernel per GPU serves every tenant — whose registrations are namespaced by
the job id, both in the collective-id space and in the communicator pool.
"""

from __future__ import annotations

import statistics
from dataclasses import replace

from repro.common.errors import ConfigurationError, InvalidStateError
from repro.core import DfcclBackend, DfcclConfig
from repro.gpusim.host import CallHook, WaitForSignal
from repro.obs import record_link_metrics
from repro.api.backend import CollectiveBackend, register_backend
from repro.api.work import CompletionInfo, Work


class DfcclWork(Work):
    """Work future over one rank's part of one DFCCL invocation."""

    def __init__(self, group, rank, key, index, rank_ctx, invocation, group_rank,
                 callback=None):
        super().__init__(group, rank, key, index)
        self.rank_ctx = rank_ctx
        #: The backend-side :class:`~repro.core.registration.Invocation`.
        self.invocation = invocation
        self.group_rank = group_rank
        #: What the poller runs, as ``callback(invocation)``, when this
        #: rank's part completes: the user's ``callback(work)``.
        self.callback = (None if callback is None
                         else lambda invocation: callback(self))

    def submit_op(self):
        """Host-program op submitting this rank's part to the daemon."""
        return CallHook(
            lambda host: self.rank_ctx.submit_invocation(
                self.invocation, self.group_rank, self.callback, host.now),
            detail=f"dfccl_run coll {self.invocation.coll_id}",
        )

    def wait_op(self):
        """Host-program op blocking until this rank's part resolves."""
        invocation, group_rank = self.invocation, self.group_rank
        return WaitForSignal(
            invocation.completion_key(group_rank),
            predicate=lambda: invocation.is_resolved(group_rank),
            detail=f"wait coll {invocation.coll_id} inv {invocation.index}",
        )

    @property
    def done(self):
        """Whether this rank's callback fired (user-visible completion)."""
        return self.invocation.is_done(self.group_rank)

    @property
    def aborted(self):
        """Whether recovery abandoned this rank's part."""
        return self.invocation.is_aborted(self.group_rank)

    @property
    def started_at_us(self):
        """Virtual time this rank submitted, or ``None`` before submission."""
        return self.invocation.start_times.get(self.group_rank)

    def completion_info(self):
        """The rank's :class:`CompletionInfo`, or ``None`` while running."""
        invocation = self.invocation
        group_rank = self.group_rank
        if not invocation.is_complete(group_rank):
            return None
        # The signature this rank's GPU part actually completed under — a
        # rank that finished before a later recovery keeps the pre-crash
        # full-group identity even though it is observed afterwards.
        signature = invocation.completion_signatures.get(
            group_rank, invocation.participant_signature()
        )
        cluster = self.group.backend.cluster
        executor = invocation.executor_if_cached(group_rank)
        if executor is not None:
            # Ground truth: the member set of the communicator this rank
            # actually communicated over.
            members = tuple(cluster.rank_of(device)
                            for device in executor.communicator.devices)
        else:
            members = tuple(invocation.coll.global_ranks[rank]
                            for rank in signature[1])
        return CompletionInfo(
            signature=signature,
            member_ranks=members,
            time_us=invocation.complete_times.get(group_rank),
        )

    def primitive_sequence(self):
        """The primitive sequence this rank compiled (for conformance checks)."""
        executor = self.invocation.executor_if_cached(self.group_rank)
        if executor is None:
            executor = self.invocation.executor_for(self.group_rank)
        return list(executor.primitives)


class DfcclCollectiveBackend(CollectiveBackend):
    """DFCCL as a :class:`CollectiveBackend`."""

    name = "dfccl"

    def __init__(self, cluster, config=None, dfccl=None, job=None,
                 chunk_bytes=None, algorithm=None):
        super().__init__(cluster)
        if dfccl is None:
            overrides = {}
            if chunk_bytes is not None:
                overrides["chunk_bytes"] = chunk_bytes
            if algorithm is not None:
                overrides["algorithm"] = algorithm
            dfccl = DfcclBackend(
                cluster, replace(config or DfcclConfig(), **overrides))
            #: Whether finalize should destroy the rank contexts: only when
            #: this adapter created them — a shared backend outlives any one
            #: view (multi-tenant job views never destroy).
            self.owns_backend = True
        else:
            self.owns_backend = False
        self.dfccl = dfccl
        self.job = job
        self._collectives = {}
        obs = cluster.engine.obs
        if self.owns_backend and obs.enabled:
            registry = obs.metrics
            registry.gauge_fn("pool_hits",
                              lambda: self.dfccl.pool.stats()["hits"])
            registry.gauge_fn("pool_misses",
                              lambda: self.dfccl.pool.stats()["misses"])
            registry.gauge_fn("pool_created",
                              lambda: self.dfccl.pool.stats()["created"])
            registry.gauge_fn("pool_reused",
                              lambda: self.dfccl.pool.stats()["reused"])
            registry.gauge_fn("pool_active",
                              lambda: self.dfccl.pool.stats()["active"])
            registry.gauge_fn("pool_discarded",
                              lambda: self.dfccl.pool.stats()["discarded"])
            registry.gauge_fn("pool_free",
                              lambda: self.dfccl.pool.stats()["free"])
            registry.gauge_fn("pool_double_releases",
                              lambda: self.dfccl.pool.stats()["double_releases"])
            registry.gauge_fn("daemon_launches",
                              lambda: self._daemon_total("launches"))
            registry.gauge_fn("daemon_preemptions",
                              lambda: self._daemon_total("preemptions"))
            registry.gauge_fn("daemon_voluntary_quits",
                              lambda: self._daemon_total("voluntary_quits"))
            registry.gauge_fn("daemon_spin_polls",
                              lambda: self._daemon_total("spin_polls"))
            registry.gauge_fn("daemon_primitives_executed",
                              lambda: self._daemon_total("primitives_executed"))

    def _daemon_total(self, field):
        return sum(getattr(stats, field)
                   for stats in self.dfccl.all_stats().values())

    # -- registration ----------------------------------------------------------

    def _effective_job(self, group):
        return group.job if group.job is not None else self.job

    def ensure_collective(self, group, spec, key):
        """Register the logical collective with DFCCL once, caching the result."""
        ident = (group, spec, key)
        coll = self._collectives.get(ident)
        if coll is None:
            job = self._effective_job(group)
            coll_id = self.dfccl.allocate_coll_id(job=job)
            suffix = "" if key is None else f":{key}"
            # ProcessGroup already resolved the effective priority (explicit
            # per-call value or the group default) into the spec.
            coll = self.dfccl.register_collective(
                coll_id, spec, ranks=group.ranks, priority=spec.priority,
                name=f"{group.name}:{spec.kind.value}{suffix}",
                job=job,
            )
            self._collectives[ident] = coll
        return coll

    def create_work(self, group, spec, key, index, rank, callback=None, stream=None):
        """Bind ``rank``'s part of the collective's next invocation to a Work."""
        coll = self.ensure_collective(group, spec, key)
        rank_ctx = self.dfccl.context(rank)
        group_rank = rank_ctx.group_rank_for(coll)
        return DfcclWork(group, rank, key, index, rank_ctx,
                         coll.next_invocation_for_rank(group_rank), group_rank,
                         callback=callback)

    # -- lifecycle --------------------------------------------------------------

    def finalize_ops(self, rank):
        """Teardown ops for ``rank``'s host program (``dfcclDestroy``)."""
        if not self.owns_backend:
            # Shared rank contexts serve other views; the daemon kernels
            # quit voluntarily once every tenant drained.
            return []
        return [self.dfccl.destroy_op(rank)]

    def quiesce(self, time_us):
        """Abort this view's unresolved invocation parts (job preemption).

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
        for coll in list(self._collectives.values()):
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
                    ctx = self.dfccl.contexts.get(coll.global_ranks[rank])
                    if ctx is not None and ctx.abort_invocation(invocation,
                                                                time_us):
                        aborted += 1
            if dirty and not coll.communicator.invalidated:
                coll.communicator.invalidate()
        return aborted

    def unregister_all(self):
        """Unregister this view's collectives, recycling their communicators.

        Collectives with an invocation still in flight (e.g. abandoned by
        recovery) are left registered; returns the number unregistered.
        """
        released = 0
        for ident, coll in list(self._collectives.items()):
            try:
                self.dfccl.unregister_collective(coll.coll_id)
            except (ConfigurationError, InvalidStateError):
                continue
            # Drop the cached registration too, so a later call on the same
            # group re-registers instead of submitting to a dead id.
            del self._collectives[ident]
            released += 1
        return released

    def job_view(self, job):
        """A tenant-namespaced view sharing this adapter's daemon kernels."""
        return DfcclCollectiveBackend(self.cluster, dfccl=self.dfccl, job=job)

    def release_job(self, job):
        """Evict a departed tenant's communicator-pool namespace."""
        self.dfccl.pool.evict_job(job)

    # -- reporting -----------------------------------------------------------------

    def stats(self, rank):
        """Per-rank daemon-kernel counters (``dfcclGetStats``)."""
        return self.dfccl.stats(rank)

    def diagnostics(self):
        """Pool, daemon and recovery statistics for conformance reports."""
        daemon_stats = self.dfccl.all_stats()
        diag = {
            "pool": self.dfccl.pool.stats(),
            "daemon_stats": daemon_stats,
            "preemptions": sum(stats.preemptions for stats in daemon_stats.values()),
            "voluntary_quits": sum(stats.voluntary_quits
                                   for stats in daemon_stats.values()),
        }
        manager = self.dfccl.recovery_manager
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
                [coll.communicator for coll in self.dfccl._collectives.values()])
            diag["metrics"] = obs.metrics.snapshot()
        return diag

    def perf_report(self, group, works_by_rank):
        """Latency/occupancy summary of a finished benchmark run."""
        first = group.ranks[0]
        works = works_by_rank[first]
        stats = self.dfccl.stats(first)
        completed = max(1, stats.cqes_written)
        return {
            "algorithm": works[0].invocation.coll.algorithm,
            "latency_us": statistics.fmean(
                work.invocation.latency_us() for work in works),
            "core_time_us": (stats.execute_time_us + stats.preparing_time_us) / completed,
            "preemptions": stats.preemptions,
            "predicted_cost_us": statistics.fmean(
                work.invocation.coll.predicted_cost_us for work in works
            ),
        }


register_backend("dfccl", DfcclCollectiveBackend)
