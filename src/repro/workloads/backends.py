"""The backend-agnostic training backend.

:class:`GroupTrainingBackend` turns one rank's iteration schedule (compute
phases and collective items) into host ops for the simulated rank process by
driving any :class:`repro.api.CollectiveBackend` through one
:class:`~repro.api.ProcessGroup` per collective group.  Every distinct
schedule collective becomes one logical group collective (keyed by the
schedule item key); repeated iterations become successive invocations, so the
same codepath covers DFCCL's register-once/submit-many flow and the NCCL
baseline's kernel-per-call flow.

Backends that need CPU-side coordination to be safe (the dedicated-kernel
baseline) name an *orchestrator* in
:attr:`~repro.api.CollectiveBackend.training_orchestrator`: one of the
CPU-orchestration baselines of Sec. 2.5, which stop deadlocks by making every
GPU invoke collectives in the same order.  The plans already give every rank a
consistent order, so a baseline only adds its CPU time
(:func:`coordination_cost`).  DFCCL contributes none — deadlock freedom is the
backend's job.
"""

from __future__ import annotations

from repro.api import make_backend
from repro.common.errors import ConfigurationError
from repro.gpusim.host import CpuCompute
from repro.workloads.parallelism import CollectiveItem, ComputeItem


#: The CPU-orchestration baselines :func:`coordination_cost` accepts, each
#: with its display name (the ``TrainingResult`` backend label and the CPU op
#: labels).
ORCHESTRATORS = {
    "horovod": "horovod",
    "kungfu": "kungfu",
    "oneflow": "oneflow-static",
    "megatron": "megatron-manual",
}


def coordination_cost(name, world_size, num_collectives):
    """CPU time a baseline adds: ``(per_collective_us, per_step_us, first_step_us)``.

    * ``horovod`` — a central coordinator negotiates every collective: half
      its 5 ms cycle plus a gather/broadcast round trip, and half a cycle per
      step;
    * ``kungfu`` — the calling order is negotiated in the first step
      (400 us per distinct collective plus a round trip per rank), then
      decentralized schedulers check every collective's turn;
    * ``oneflow`` — the compiler sorts collectives statically (a one-time
      20 ms compile), leaving a tiny dispatch cost;
    * ``megatron`` — a hand-written order, with a tiny dispatch cost.
    """
    if name == "horovod":
        return 2600.0 + 2.0 * world_size, 2500.0, 0.0
    if name == "kungfu":
        return 2100.0, 0.0, 400.0 * num_collectives + 100.0 * world_size
    if name == "oneflow":
        return 2.0, 0.0, 20000.0
    if name == "megatron":
        return 3.0, 0.0, 0.0
    raise ConfigurationError(f"unknown orchestrator {name!r}")


class GroupTrainingBackend:
    """Drive training collectives through any ``repro.api`` backend.

    ``backend`` is a :class:`~repro.api.CollectiveBackend` instance or a
    registered backend name (extra ``knobs`` go to :func:`make_backend`).
    ``orchestrator`` is ``"auto"`` (ask the backend), ``None`` (no CPU
    coordination), or a baseline name :func:`coordination_cost` accepts.

    ``job`` names the job the run belongs to on a backend shared with other
    jobs: every group is created with it, and the run adds no teardown ops
    (the shared daemon kernels quit on their own once every job drained).
    Groups are named ``pg0``, ``pg1``, … per training backend.
    """

    def __init__(self, cluster, backend="dfccl", orchestrator="auto",
                 job=None, **knobs):
        self.cluster = cluster
        self.backend = (make_backend(backend, cluster, **knobs)
                        if isinstance(backend, str) else backend)
        self.job = job
        if orchestrator == "auto":
            orchestrator = self.backend.training_orchestrator
        if orchestrator is not None and orchestrator not in ORCHESTRATORS:
            raise ConfigurationError(f"unknown orchestrator {orchestrator!r}")
        self.orchestrator = orchestrator
        self._groups = {}
        self._cost = None

    @property
    def name(self):
        if self.orchestrator is None:
            return self.backend.name
        return f"{self.backend.name}+{ORCHESTRATORS[self.orchestrator]}"

    # -- preparation ------------------------------------------------------------

    def _group_for(self, group_ranks):
        group = self._groups.get(group_ranks)
        if group is None:
            group = self.backend.new_group(list(group_ranks), job=self.job,
                                           name=f"pg{len(self._groups)}")
            self._groups[group_ranks] = group
        return group

    def prepare(self, plan):
        """Declare every distinct collective of the plan exactly once.

        Declaration order is the sorted schedule-key order, which keeps
        backend-side id assignment (and hence communicator acquisition)
        deterministic across runs.
        """
        unique = plan.unique_collectives()
        if self.orchestrator is not None:
            self._cost = coordination_cost(self.orchestrator, plan.world_size,
                                           len(unique))
        for key, item in sorted(unique.items(), key=lambda kv: kv[0]):
            self._group_for(item.group_ranks).ensure_collective(
                _spec_for(item), key=key
            )

    # -- per-iteration program construction ----------------------------------------

    def iteration_ops(self, rank, schedule, iteration):
        """Host ops executing one iteration of ``schedule`` on ``rank``."""
        ops = []
        per_collective = 0.0
        if self._cost is not None:
            per_collective, per_step, first_step = self._cost
            label = ORCHESTRATORS[self.orchestrator]
            startup_delay = per_step + first_step if iteration == 0 else per_step
            if startup_delay > 0:
                ops.append(CpuCompute(startup_delay, f"{label}-coordination"))

        works = []
        for item in schedule:
            if isinstance(item, ComputeItem):
                ops.append(CpuCompute(item.duration_us, item.label))
            elif isinstance(item, CollectiveItem):
                if per_collective > 0:
                    ops.append(CpuCompute(per_collective, f"{label}-negotiate"))
                group = self._group_for(item.group_ranks)
                work = group.collective(rank, _spec_for(item), key=item.key)
                works.append(work)
                ops.append(work.submit_op())
            else:  # pragma: no cover - defensive
                raise ConfigurationError(f"unknown schedule item {item!r}")
        ops.extend(work.wait_op() for work in works)
        return ops

    # -- lifecycle ------------------------------------------------------------------

    def finalize_ops(self, rank):
        if self.job is not None:
            return []
        return self.backend.finalize_ops(rank)

    def unregister_all(self):
        """Unregister every collective of this run's job (job teardown)."""
        return self.backend.unregister_all(self.job)

    def stats(self, rank):
        return self.backend.stats(rank)


def _spec_for(item):
    """Translate a schedule collective item into a CollectiveSpec."""
    from repro.common.types import CollectiveSpec

    root = 0
    return CollectiveSpec(
        kind=item.kind,
        count=max(1, item.count),
        root=root,
        priority=item.priority,
        algorithm=getattr(item, "algorithm", None),
    )
