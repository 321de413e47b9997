"""Elastic recovery: crash detection and group-shrink rebuild.

DFCCL's CPU side already restarts the daemon kernel whenever collectives are
outstanding and the kernel is not running; this module extends that elasticity
to *rank failures*.  A :class:`RecoveryManager` (one service actor per
backend) watches every rank's in-flight invocations.  When a collective's CQE
has not arrived within ``crash_detect_timeout_us`` and one of its participants
sits on a failed device, the manager:

1. invalidates the collective's communicator (its connectors may hold chunks
   of the dead rank mid-flight, so they must never be reused) and evicts every
   pooled communicator spanning the failed devices;
2. shrinks the group — the collective is re-formed over the surviving ranks
   with a fresh communicator from the :class:`CommunicatorPool`;
3. restarts each surviving rank's collective part from position 0 with a
   newly compiled primitive sequence: the running daemon's task entries are
   rebound to it in place, so no stale executor survives and no daemon
   has to quit;
4. leaves completed ranks alone: a survivor that already finished its part
   keeps its completion, and the re-run spans only the unfinished survivors
   over a dedicated communicator.

Because the daemon kernel is preemptible and voluntarily quits, the surviving
ranks were never wedged — they were spinning within bounded thresholds — so
recovery is purely constructive: nothing needs to be forcibly killed on the
survivors.  This is exactly the property the unbounded-busy-wait baseline
lacks: its dedicated kernels hold their blocks while waiting on a dead peer
and can never be recycled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import (
    MAX_RECOVERIES_PER_COLLECTIVE,
    RECOVERY_POLL_INTERVAL_US,
)
from repro.gpusim.engine import Actor, StepResult


@dataclass
class RecoveryEvent:
    """One completed recovery action (for experiments and assertions)."""

    time_us: float
    coll_id: int
    failed_ranks: tuple
    survivor_ranks: tuple
    invocations_rerun: int
    detection_latency_us: float
    generation: int


@dataclass
class RecoveryStats:
    """Aggregated recovery bookkeeping of one backend."""

    scans: int = 0
    recoveries: int = 0
    invocations_rerun: int = 0
    suspected_stragglers: int = 0
    abandoned: int = 0
    events: list = field(default_factory=list)


class RecoveryManager(Actor):
    """Service actor performing CQE-timeout crash detection and group shrink."""

    daemon = True

    def __init__(self, backend):
        super().__init__("dfccl-recovery-manager")
        self.backend = backend
        self.config = backend.config
        self.stats = RecoveryStats()
        self._suspected_invocations = set()
        #: Signalled by the backend whenever a new rank context appears
        #: (numbered by the engine: several backends can share a cluster).
        self.rank_registered_key = (
            "dfccl-rank-registered",
            backend.cluster.engine.next_id("recovery-manager"))

    # -- scheduling ------------------------------------------------------------

    def _active_contexts(self):
        return [ctx for ctx in self.backend.contexts.values()
                if not ctx.device.failed]

    def step(self):
        contexts = self._active_contexts()
        if not contexts:
            return StepResult.blocked(
                [self.rank_registered_key], "recovery manager awaiting ranks"
            )
        if all(ctx.destroyed and not ctx.inflight for ctx in contexts):
            return StepResult.done("all surviving ranks destroyed")
        if not any(ctx.inflight for ctx in contexts):
            keys = [ctx.submitted_key for ctx in contexts]
            keys.append(self.rank_registered_key)
            return StepResult.blocked(keys, "recovery manager idle")

        self._scan(self.now)
        return StepResult.sleep(
            self.now + RECOVERY_POLL_INTERVAL_US,
            "recovery manager scanning",
        )

    # -- detection -------------------------------------------------------------

    def _scan(self, now):
        """Check every in-flight invocation for a CQE timeout on a dead group."""
        self.stats.scans += 1
        timeout = self.config.crash_detect_timeout_us
        confirmed_failures = set()
        # Failed members per collective: one pass over each membership per
        # scan, however many ranks have one of its invocations in flight.
        failed_by_coll = {}
        for ctx in self._active_contexts():
            for invocation, submit_time in list(ctx.inflight.items()):
                if now - submit_time < timeout:
                    continue
                coll = invocation.coll
                if coll.abandoned:
                    continue
                failed = failed_by_coll.get(coll)
                if failed is None:
                    failed = failed_by_coll[coll] = coll.failed_devices()
                if not failed:
                    # Timed out but everyone is alive: a straggler or a long
                    # queue, not a crash.  Keep waiting (the daemon's bounded
                    # spinning guarantees progress as soon as data arrives).
                    if invocation.invocation_id not in self._suspected_invocations:
                        self._suspected_invocations.add(invocation.invocation_id)
                        self.stats.suspected_stragglers += 1
                    continue
                confirmed_failures.update(failed)
        if confirmed_failures:
            self._recover_after_failure(confirmed_failures, now)
        return len(confirmed_failures)

    # -- recovery --------------------------------------------------------------

    def _recover_after_failure(self, failed_devices, now):
        """Shrink every registered collective spanning a confirmed-dead device.

        Failure knowledge is cluster-wide once confirmed: collectives that
        have not timed out yet but span a dead device would inevitably do so,
        and shrinking them proactively avoids one timeout period per
        collective.
        """
        failed_ids = {device.device_id for device in failed_devices}
        self.backend.pool.release_all_for(failed_ids)
        for coll in list(self.backend.collectives.values()):
            failed_ranks = [rank for rank in coll.active_ranks()
                            if coll.devices[rank].device_id in failed_ids]
            if failed_ranks:
                self._recover_collective(coll, failed_ranks, now)

    def _abandon(self, coll, now):
        """Abandon a collective that cannot be re-formed.

        Every surviving rank's unfinished part is abort-resolved: waiters
        blocked on the completion are woken (the wait returns ``aborted``),
        outstanding accounting is released, and daemon task entries are
        dropped lazily by the daemon's own abandoned-entry check.  Without
        this, survivors of e.g. a broadcast whose root died would wait for
        data that can never arrive — the hang the differential fuzzer's
        fault programs caught.
        """
        for ctx in self.backend.contexts.values():
            ctx.settle_daemon()
        coll.abandoned = True
        self.stats.abandoned += 1
        obs = self._obs()
        if obs is not None:
            obs.metrics.counter("recovery_abandoned").inc()
            obs.tracer.event(f"abandon:{coll.name}", "recovery", now,
                             attrs={"coll_id": str(coll.coll_id)})
        for invocation in coll.invocations:
            for rank in sorted(invocation.expected_ranks()):
                if coll.devices[rank].failed:
                    continue
                ctx = self.backend.contexts.get(coll.global_ranks[rank])
                if ctx is not None:
                    ctx.abort_invocation(invocation, now)

    def _recover_collective(self, coll, failed_ranks, now):
        if coll.abandoned:
            return
        if coll.spec.kind.rooted and coll.spec.root in failed_ranks:
            # The root's data died with its device; a rooted collective
            # cannot be re-formed from the survivors.
            coll.communicator.invalidate()
            self._abandon(coll, now)
            return
        if coll.plan.generation >= MAX_RECOVERIES_PER_COLLECTIVE:
            self._abandon(coll, now)
            return
        detection_latency = now - max(
            coll.devices[rank].fail_time_us
            if coll.devices[rank].fail_time_us is not None else now
            for rank in failed_ranks
        )

        coll.communicator.invalidate()
        survivors = coll.shrink(failed_ranks, self.backend.pool)
        if not survivors:
            self._abandon(coll, now)
            return

        # Dedicated communicators from earlier recoveries are superseded
        # either way: invalidate and discard them (they may span the newly
        # failed device).  Done for every invocation before anything is
        # re-formed, so an abandonment below cannot skip the cleanup.
        for invocation in coll.invocations:
            stale = invocation.take_rerun_communicator()
            if stale is not None and not stale.invalidated:
                stale.invalidate()
                self.backend.pool.release(stale)

        rerun_sets = []
        for invocation in coll.invocations:
            if invocation.fully_complete():
                continue
            rerun = tuple(rank for rank in survivors
                          if not invocation.is_complete(rank))
            if not rerun:
                continue
            if coll.spec.kind.rooted and coll.spec.root not in rerun:
                # The root survived but already finished its primitive
                # sequence; its sends cannot be replayed, so the unfinished
                # survivors can never complete this invocation.  Abandon
                # before re-forming anything.
                self._abandon(coll, now)
                return
            rerun_sets.append((invocation, rerun))

        rerun_count = 0
        for invocation, rerun in rerun_sets:
            if rerun == survivors:
                # Every survivor restarts: the re-run is the new membership
                # itself, over the collective's own communicator and plan.
                rerun, communicator = survivors, coll.communicator
            else:
                # Some survivors already finished their part; the re-run spans
                # only the unfinished ones over a dedicated communicator.
                communicator = self.backend.pool.acquire(
                    [coll.devices[rank] for rank in rerun], job=coll.job
                )
            invocation.begin_recovery(rerun, communicator)
            rerun_count += 1
            for rank in rerun:
                ctx = self.backend.contexts.get(coll.global_ranks[rank])
                if ctx is not None and not ctx.device.failed:
                    ctx.recover_invocation(invocation, now)

        self.stats.recoveries += 1
        self.stats.invocations_rerun += rerun_count
        self.stats.events.append(RecoveryEvent(
            time_us=now,
            coll_id=coll.coll_id,
            failed_ranks=tuple(sorted(failed_ranks)),
            survivor_ranks=tuple(survivors),
            invocations_rerun=rerun_count,
            detection_latency_us=detection_latency,
            generation=coll.plan.generation,
        ))
        obs = self._obs()
        if obs is not None:
            context = {
                "coll_id": str(coll.coll_id),
                "failed_ranks": sorted(failed_ranks),
                "survivor_ranks": list(survivors),
                "invocations_rerun": rerun_count,
                "generation": coll.plan.generation,
            }
            obs.metrics.counter("recovery_episodes").inc()
            obs.metrics.counter("recovery_invocations_rerun").inc(rerun_count)
            obs.tracer.record(
                f"recovery:{coll.name}", "recovery",
                now - detection_latency, now, track="recovery",
                job=coll.job, attrs=dict(context))
            obs.auto_dump("recovery", context=context)

    def _obs(self):
        obs = self.backend.cluster.engine.obs
        return obs if obs.enabled else None
