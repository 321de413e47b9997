"""DFCCL's CPU side: the per-GPU rank context.

The flow mirrors Listing 1 of the paper:

* ``dfcclInit`` — ``repro.api``'s DFCCL adapter creates one
  :class:`RankContext` (SQ, CQ, poller thread) per GPU;
* ``dfcclRegister*`` — the adapter registers each process-group collective
  once, with its spec, device set and priority, on every member's context;
* ``RankContext.submit_invocation`` (``dfcclRun*``) — invoke a registered
  collective; the call is asynchronous and non-blocking, and the poller
  later delivers the completion, running the callbacks the invocation's
  ``Work`` futures registered on it;
* ``RankContext.destroy`` (``dfcclDestroy``) — insert the exiting SQE and
  tear down.

Applications do not call these directly: the adapter produces the submit
and wait host ops of each rank's ``repro.api.Work`` future.
"""

from __future__ import annotations

from repro.common.errors import InvalidStateError
from repro.core.config import RELAUNCH_DELAY_US
from repro.core.daemon import DaemonKernel
from repro.core.poller import Poller
from repro.core.queues import Sqe, SubmissionQueue, make_completion_queue
from repro.core.scheduling import DaemonStats
from repro.gpusim.host import CallHook


class RankContext:
    """Per-GPU DFCCL state: queues, registered collectives, daemon, poller."""

    def __init__(self, backend, global_rank):
        self.backend = backend
        self.config = backend.config
        self.cluster = backend.cluster
        self.global_rank = global_rank
        self.device = self.cluster.device(global_rank)

        self.sq = SubmissionQueue()
        self.cq = make_completion_queue(self.config.cq_variant)

        self.registered = {}
        #: The daemon's launch shape: the largest grid and block size among
        #: registered collectives, recomputed only when registrations change.
        self.daemon_grid_size = 1
        self.daemon_block_size = 256
        self.stats = DaemonStats()

        self.destroyed = False
        self.finally_exited = False

        #: Submitted-but-not-yet-delivered (outstanding) invocations with
        #: their submit times; the recovery manager scans this for CQE
        #: timeouts.
        self.inflight = {}
        self._pending_entries = []
        self._daemon_generation = 0
        self._last_quit_time_us = 0.0
        self.current_daemon = None

        self.cluster.engine.add_actor(Poller(self))

    # -- wait keys -----------------------------------------------------------------

    @property
    def submitted_key(self):
        return ("dfccl-submitted", self.global_rank)

    @property
    def cqe_key(self):
        return ("dfccl-cqe", self.global_rank)

    @property
    def destroyed_key(self):
        return ("dfccl-destroyed", self.global_rank)

    # -- registration -----------------------------------------------------------------

    def register(self, coll):
        """Register a collective on this rank (called by the backend)."""
        self.registered[coll.coll_id] = coll
        self._update_launch_shape()

    def group_rank_for(self, coll):
        return coll.group_rank_of_device(self.device)

    def _update_launch_shape(self):
        colls = self.registered.values()
        self.daemon_grid_size = max((coll.grid_size for coll in colls), default=1)
        self.daemon_block_size = max((coll.block_size for coll in colls),
                                     default=256)

    # -- submission (dfccl_run_*) ------------------------------------------------------

    def submit_invocation(self, invocation, group_rank, time_us):
        """CPU side of ``dfccl_run_*``: insert the SQE."""
        if self.destroyed:
            raise InvalidStateError(
                f"rank {self.global_rank} context already destroyed"
            )
        invocation.mark_started(group_rank, time_us)
        coll = invocation.coll
        if coll.abandoned:
            # Submitting into an abandoned collective aborts immediately: the
            # daemon would only drop the entry later, and the group can never
            # re-form (recovery already decided the root's data is gone or
            # the recovery budget is spent).
            invocation.mark_aborted(group_rank, time_us=time_us)
            self.cluster.engine.signal(
                invocation.completion_key(group_rank), time_us)
            return
        self.sq.push(
            Sqe(
                coll_id=coll.coll_id,
                invocation_id=invocation.index,
                priority=coll.priority,
                submit_time_us=time_us,
            )
        )
        self.inflight[invocation] = time_us
        engine = self.cluster.engine
        engine.signal(self.submitted_key, time_us)
        self.ensure_daemon_running(time_us)

    def invocation_for_sqe(self, sqe):
        """Resolve a fetched SQE, or ``None`` if its collective is gone.

        A ``None`` is only reachable through preemption: the job's rank
        process was killed and its collectives unregistered after the SQE
        was pushed but before any daemon block fetched it.  The daemon
        drops such stale SQEs.
        """
        coll = self.registered.get(sqe.coll_id)
        if coll is None:
            return None
        return coll.invocation(sqe.invocation_id)

    # -- daemon lifecycle ---------------------------------------------------------------

    def ensure_daemon_running(self, time_us):
        """Event-driven starting: launch the daemon kernel if it is not running."""
        if self.daemon_alive or self.finally_exited or self.device.failed:
            return None
        self._daemon_generation += 1
        kernel = DaemonKernel(self, self._daemon_generation)
        self.current_daemon = kernel
        self.device.enqueue_kernel(kernel, stream_name="dfccl-daemon", time_us=time_us)
        return kernel

    def maybe_relaunch_daemon(self, time_us):
        """Relaunch after a voluntary quit once the back-off delay elapsed."""
        if self.daemon_alive or self.finally_exited:
            return None
        if time_us - self._last_quit_time_us < RELAUNCH_DELAY_US:
            return None
        return self.ensure_daemon_running(time_us)

    def on_daemon_exit(self, daemon, final, remaining_entries):
        """Called by the daemon kernel when it quits (voluntarily or finally)."""
        self.current_daemon = None
        self._last_quit_time_us = daemon.now
        if final:
            self.finally_exited = True
        for entry in remaining_entries:
            self._pending_entries.append((entry.invocation, entry.priority))
        # Wake the poller so it notices the quit and can schedule a relaunch.
        self.cluster.engine.signal(self.cqe_key, daemon.now)

    def take_pending_entries(self):
        """Hand incomplete collectives of previous daemon generations to a new one."""
        pending, self._pending_entries = self._pending_entries, []
        return pending

    def settle_daemon(self):
        """Settle the running daemon's timed wait before a change its next
        retry would see (an aborted or abandoned collective)."""
        if self.current_daemon is not None:
            self.current_daemon.settle()

    @property
    def daemon_alive(self):
        return self.current_daemon is not None

    def close(self):
        """Drop the references back to the backend and the running daemon,
        which both point here (see
        :meth:`~repro.gpusim.cluster.Cluster.close`)."""
        self.backend = self.current_daemon = None

    # -- elastic recovery ---------------------------------------------------------

    def recover_invocation(self, invocation, time_us):
        """Restart this rank's part of a recovering invocation.

        ``Invocation.begin_recovery`` has already dropped the cached executor.
        The collective gets a fresh CQE-timeout window, and the running
        daemon's task entries for it are rebound in place to the executor
        of the shrunken sequence, with their active-context slot evicted, so
        their next turn runs from position 0 over the new communicator.
        Entries still in the SQ or handed back by a quit compile it when a
        daemon adopts them.
        """
        if invocation in self.inflight:
            self.inflight[invocation] = time_us
        daemon = self.current_daemon
        if daemon is None:
            # The daemon quit while the collective was stuck; relaunch it
            # immediately (recovery overrides the relaunch back-off).
            self.ensure_daemon_running(time_us)
            return
        daemon.settle()
        for entry in daemon.task_queue:
            if entry.invocation is invocation:
                entry.executor = invocation.executor_for(entry.group_rank)
                daemon.active_cache.evict(entry.coll_id)

    # -- unregistration (dfccl_unregister_*) -----------------------------------------

    def ensure_unregisterable(self, coll):
        """Raise if this rank still has an in-flight invocation of ``coll``.

        A failed rank never objects — its in-flight invocations died with the
        device and can never finish.
        """
        if self.device.failed:
            return
        for invocation in coll.invocations:
            if (invocation in self.inflight
                    and not invocation.is_done(self.group_rank_for(coll))):
                raise InvalidStateError(
                    f"cannot unregister collective {coll.coll_id} on rank "
                    f"{self.global_rank}: invocation {invocation.index} in flight"
                )

    def unregister(self, coll):
        """Forget a collective on this rank (its in-flight check passed)."""
        del self.registered[coll.coll_id]
        self._update_launch_shape()

    # -- completion ------------------------------------------------------------------------

    def on_gpu_complete(self, invocation, time_us):
        """Hook called by the daemon when this rank's part of an invocation completes."""
        if invocation.fully_complete():
            # Recycle a dedicated rerun communicator once the last expected
            # rank finished; the collective's own communicator stays live.
            communicator = invocation.take_rerun_communicator()
            if communicator is not None and communicator is not invocation.coll.communicator:
                self.backend.pool.release(communicator)

    def abort_invocation(self, invocation, time_us):
        """Resolve this rank's part of an abandoned collective without a
        completion: accounting is released and any blocked waiter woken.

        Idempotent; a part that already completed keeps its completion.
        """
        self.settle_daemon()
        group_rank = self.group_rank_for(invocation.coll)
        if not invocation.mark_aborted(group_rank, time_us=time_us):
            return False
        # A submitted part is outstanding, and no CQE will ever release it.
        self.inflight.pop(invocation, None)
        self.cluster.engine.signal(
            invocation.completion_key(group_rank), time_us)
        return True

    def deliver_completion(self, cqe, clock):
        """Deliver a completed collective's CQE, running its callbacks
        (poller side)."""
        coll = self.registered[cqe.coll_id]
        invocation = coll.invocation(cqe.invocation_id)
        group_rank = self.group_rank_for(coll)
        invocation.deliver(group_rank)
        self.inflight.pop(invocation, None)
        self.cluster.engine.signal(invocation.completion_key(group_rank), clock.now)

    # -- destruction --------------------------------------------------------------------------

    def destroy(self, time_us):
        """CPU side of ``dfccl_destroy``: request final daemon exit."""
        if self.destroyed:
            return
        self.destroyed = True
        if self.daemon_alive:
            self.sq.push(Sqe(coll_id=-1, invocation_id=-1, exiting=True,
                             submit_time_us=time_us))
        else:
            self.finally_exited = True
        self.cluster.engine.signal(self.destroyed_key, time_us)

    def destroy_op(self):
        """Host op performing ``dfccl_destroy`` for this rank."""
        return CallHook(lambda host: self.destroy(host.now), detail="dfccl_destroy")

