"""CUDA-aware MPI as a third ``repro.api`` backend.

The Sec. 2.1 baseline is analytic
(:func:`~repro.ncclsim.mpi_all_reduce_time_us`); here it becomes a driveable
execution platform: every collective is a host-staged rendezvous — each
rank's submit records its arrival, the wait op blocks until every member
arrived and then sleeps out the model's transfer time.  No GPU kernels are
involved, which is exactly the property the paper motivates NCCL (and then
DFCCL) against.

The ring-all-reduce cost formula is applied to every collective kind: the
host-staged path is dominated by staging latency and bandwidth, not by the
algorithm shape, and this model only needs to be faithful enough for the
crossover comparisons.
"""

from __future__ import annotations

import statistics

from repro.collectives.plan import CollectiveRun
from repro.gpusim.host import CallHook, HostOp
from repro.gpusim.engine import StepResult
from repro.ncclsim import mpi_all_reduce_time_us
from repro.api.backend import CollectiveBackend, register_backend


class _MpiCollective(CollectiveRun):
    """Shared rendezvous state of one host-staged collective invocation.

    A rank starts at its arrival; ``ranks`` are the members' cluster ranks,
    and ``op_id`` is drawn from the cluster's engine.
    """

    backend = "mpi"
    algorithm = "host-staged-ring"
    #: The analytic model has no per-bucket prediction.
    predicted_breakdown = None

    def __init__(self, op_id, spec, ranks, job=None, obs=None, index=0):
        super().__init__(f"mpi-op{op_id}-{spec.kind.value}", spec, tuple(ranks),
                         job=job, obs=obs, index=index)
        self.op_id = op_id
        self.duration_us = mpi_all_reduce_time_us(spec.nbytes, len(ranks))

    @property
    def predicted_cost_us(self):
        """The model's transfer time, which the wait sleeps out."""
        return self.duration_us

    @property
    def submitted_key(self):
        return ("mpi-all-submitted", self.op_id)

    def all_submitted(self):
        return len(self.start_times) == self.group_size

    def finish_time_us(self):
        return max(self.start_times.values()) + self.duration_us

    def primitive_sequence(self, rank):
        """None: a host-staged rendezvous runs no primitive schedule."""
        return None


class _MpiWaitOp(HostOp):
    """Block until the rendezvous formed, sleep out the transfer, then
    deliver the rank's completion."""

    def __init__(self, work):
        self.work = work

    def poll(self, host):
        coll, rank = self.work.run, self.work.group_rank
        if not coll.all_submitted():
            return StepResult.blocked([coll.submitted_key],
                                      f"mpi rendezvous op {coll.op_id}")
        target = coll.finish_time_us()
        if host.now < target:
            return StepResult.sleep(target, f"mpi transfer op {coll.op_id}")
        coll.mark_complete(rank, host.now)
        coll.deliver(rank)
        return StepResult.progress(f"mpi op {coll.op_id} done")


class MpiCollectiveBackend(CollectiveBackend):
    """Analytic host-staged MPI as a :class:`CollectiveBackend`."""

    name = "mpi"

    def __init__(self, cluster, chunk_bytes=None, algorithm=None, config=None):
        # ``chunk_bytes`` / ``algorithm`` / ``config`` are accepted for knob
        # uniformity with the other factories; the analytic model has no use
        # for them.
        del chunk_bytes, algorithm, config
        super().__init__(cluster)
        self._collectives = {}
        #: Names of the gauges this backend registered (frozen by close).
        self._gauge_names = ()
        obs = cluster.engine.obs
        if obs.enabled:
            registry = obs.metrics
            self._gauge_names = (
                registry.gauge_fn("mpi_host_staged_ops",
                                  lambda: len(self._collectives)),
                registry.gauge_fn("mpi_rendezvous_completed",
                                  lambda: self._rendezvous_completed()),
                registry.gauge_fn("mpi_rendezvous_pending",
                                  lambda: (len(self._collectives)
                                           - self._rendezvous_completed())),
            )

    def close(self):
        """Freeze the rendezvous gauges (they close over the backend)."""
        self.cluster.engine.obs.metrics.freeze_gauges(self._gauge_names)

    def _rendezvous_completed(self):
        return sum(1 for coll in self._collectives.values()
                   if coll.fully_complete())

    def diagnostics(self):
        """Host-staged op and rendezvous counters, plus the metrics snapshot.

        Overrides the empty :class:`CollectiveBackend` default so the
        cross-backend parity suite can assert all three backends report
        diagnostics.
        """
        completed = self._rendezvous_completed()
        diag = {
            "backend": "mpi",
            "host_staged_ops": len(self._collectives),
            "rendezvous_completed": completed,
            "rendezvous_pending": len(self._collectives) - completed,
        }
        obs = self.cluster.engine.obs
        if obs.enabled:
            diag["metrics"] = obs.metrics.snapshot()
        return diag

    def join(self, group, spec, key, index, rank):
        """``rank``'s part of invocation ``index``'s analytic rendezvous."""
        ident = (group.group_id, spec, key, index)
        coll = self._collectives.get(ident)
        if coll is None:
            engine = self.cluster.engine
            coll = _MpiCollective(engine.next_id("mpi-op"), spec, group.ranks,
                                  job=group.job, obs=engine.obs, index=index)
            self._collectives[ident] = coll
        return coll, group.group_rank(rank)

    def submit_op(self, work):
        """Host op marking the rank's arrival at the rendezvous."""
        coll = work.run

        def submit(host):
            coll.mark_started(work.group_rank, host.now)
            if coll.all_submitted():
                host.cluster.engine.signal(coll.submitted_key, host.now)

        return CallHook(submit, detail=f"mpi submit op {coll.op_id}")

    def wait_op(self, work):
        """Host op waiting out the rendezvous (there is no GPU to signal)."""
        return _MpiWaitOp(work)

    def core_time_us(self, rank, runs):
        """The model's transfer time, which every run sleeps out."""
        return statistics.fmean(run.duration_us for run in runs)


register_backend("mpi", MpiCollectiveBackend)
