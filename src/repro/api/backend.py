"""The ``CollectiveBackend`` protocol and the backend registry.

One execution-platform abstraction fronts every collective engine in the
repo: applications obtain a backend with :func:`make_backend`, carve process
groups out of it with :meth:`CollectiveBackend.new_group`, and drive the
returned :class:`~repro.api.work.Work` futures — without knowing whether a
shared daemon kernel (DFCCL), dedicated busy-waiting kernels (NCCL) or an
analytic host-staged path (MPI) executes the primitives underneath.

Backends self-register in :data:`BACKENDS`; third-party engines plug in via
:func:`register_backend` without touching any consumer code.  All of the
``backend == "dfccl"``-style string dispatch that used to be copied across
workloads, multijob, faults and bench lives here and nowhere else.
"""

from __future__ import annotations

import statistics

from repro.common.errors import ConfigurationError
from repro.gpusim.host import WaitForSignal
from repro.api.group import ProcessGroup

#: Registry of backend factories: name -> factory(cluster, **knobs).
BACKENDS = {}


def register_backend(name, factory):
    """Register a backend factory under ``name`` (overwrites silently)."""
    BACKENDS[name] = factory
    return factory


def make_backend(name, cluster, **knobs):
    """Instantiate a registered backend over ``cluster``.

    ``knobs`` are passed through to the backend factory.  Every factory
    accepts the common knobs ``config=``, ``chunk_bytes=`` and
    ``algorithm=``, ignoring those it cannot honour, so one experiment
    driver can sweep backends with a uniform knob set; any other name a
    factory does not take raises ``TypeError``.
    """
    factory = BACKENDS.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown collective backend {name!r} "
            f"(registered: {', '.join(sorted(BACKENDS))})"
        )
    return factory(cluster, **knobs)


class CollectiveBackend:
    """Abstract execution platform behind :class:`ProcessGroup`.

    Subclasses implement :meth:`join` and :meth:`submit_op` (and usually
    :meth:`ensure_collective`); everything else has conservative defaults,
    so a minimal backend is a run factory plus a submit op.
    """

    name = "abstract"
    #: Name of the CPU-orchestration baseline whose CPU time a training loop
    #: over this backend charges (see
    #: :func:`repro.workloads.backends.coordination_cost`).  DFCCL needs
    #: none: deadlock freedom is the backend's job.
    training_orchestrator = None

    def __init__(self, cluster):
        self.cluster = cluster
        self._next_group_id = 0
        cluster.attach(self)

    # -- group creation -------------------------------------------------------

    def new_group(self, ranks=None, job=None, priority=0, name=None):
        """Create a :class:`ProcessGroup` over ``ranks`` (default: all GPUs).

        ``job`` names the job the group belongs to, the only job name a
        backend reads: it keeps the job's resources apart from other jobs'
        (DFCCL collective ids and pooled communicators; NCCL kernel tags and
        launch stream).  ``priority`` is the default collective priority of
        the group's calls.
        """
        if ranks is None:
            ranks = list(range(self.cluster.world_size))
        group_id = self._next_group_id
        self._next_group_id += 1
        return ProcessGroup(self, ranks, group_id=group_id, job=job,
                            priority=priority, name=name)

    # -- per-collective hooks ---------------------------------------------------

    def ensure_collective(self, group, spec, key):
        """Materialize a logical collective ahead of its first call (no-op)."""

    def join(self, group, spec, key, index, rank):
        """``(run, group_rank)``: the run ``rank``'s call ``index`` joins.

        ``run`` is the :class:`~repro.collectives.plan.CollectiveRun` of the
        logical collective's invocation the call belongs to, shared by every
        member rank, and ``group_rank`` the rank's place in it.
        """
        raise NotImplementedError

    def submit_op(self, work):
        """Host op submitting ``work``'s part of its run."""
        raise NotImplementedError

    def wait_op(self, work):
        """Host op blocking until ``work``'s part is done or aborted.

        The default waits on the run's completion key, which the backend
        signals when it delivers or aborts the rank's part.
        """
        run, rank = work.run, work.group_rank
        return WaitForSignal(run.completion_key(rank),
                             predicate=lambda: run.is_resolved(rank),
                             detail=f"wait {run.name} #{run.index} rank {rank}")

    # -- lifecycle ---------------------------------------------------------------

    def finalize_ops(self, rank):
        """Host ops a rank program appends after its last collective."""
        return []

    def close(self):
        """Drop the backend's references into its finished run; called by
        :meth:`~repro.gpusim.cluster.Cluster.close`.  Statistics and
        diagnostics stay readable."""

    def unregister_all(self, job=None):
        """Unregister every collective of ``job``'s groups; returns the count."""
        return 0

    def release_job(self, job):
        """Drop backend-side resources of a departed job (no-op)."""

    # -- reporting -------------------------------------------------------------------

    def stats(self, rank):
        """Backend-specific per-rank statistics object (or ``None``)."""
        return None

    def diagnostics(self):
        """Backend-specific post-run diagnostics as a plain dict."""
        return {}

    def perf_report(self, works):
        """Latency / core-time / algorithm metrics for a timed-run program.

        ``works`` are one rank's works, one per timed invocation in
        submission order.  Returns ``algorithm``, ``latency_us`` (end to
        end, so including :meth:`launch_overhead_us`), ``core_time_us``,
        ``preemptions`` and ``predicted_cost_us``.
        """
        rank = works[0].rank
        runs = [work.run for work in works]
        overhead = self.launch_overhead_us(rank)
        return {
            "algorithm": runs[0].algorithm,
            "latency_us": statistics.fmean(
                run.latency_us() + overhead for run in runs),
            "core_time_us": self.core_time_us(rank, runs),
            "preemptions": self.preemptions(rank),
            "predicted_cost_us": statistics.fmean(
                run.predicted_cost_us for run in runs),
        }

    def launch_overhead_us(self, rank):
        """Host-side time before a run starts on ``rank`` (none by default)."""
        return 0.0

    def core_time_us(self, rank, runs):
        """Mean time ``rank`` spent executing ``runs``."""
        raise NotImplementedError(f"{self.name} backend has no perf report")

    def preemptions(self, rank):
        """Times ``rank``'s collectives were preempted (none by default)."""
        return 0

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"
