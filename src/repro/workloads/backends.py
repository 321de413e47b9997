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
:attr:`~repro.api.CollectiveBackend.training_orchestrator`; its negotiated order
and per-step delays are charged exactly as the paper's baselines do.  DFCCL
contributes none — deadlock freedom is the backend's job.
"""

from __future__ import annotations

from repro.api import make_backend
from repro.common.errors import ConfigurationError
from repro.gpusim.host import CpuCompute
from repro.workloads.parallelism import CollectiveItem, ComputeItem


def resolve_orchestrator(spec, world_size):
    """Resolve an orchestrator knob: ``None``, a name, or an instance."""
    if spec is None:
        return None
    if isinstance(spec, str):
        # Imported on first use, so runs without a baseline never load it.
        from repro.orchestration import make_orchestrator

        return make_orchestrator(spec, world_size=world_size)
    return spec


class GroupTrainingBackend:
    """Drive training collectives through any ``repro.api`` backend.

    ``backend`` is a :class:`~repro.api.CollectiveBackend` instance or a
    registered backend name (extra ``knobs`` go to :func:`make_backend`).
    ``orchestrator`` is ``"auto"`` (ask the backend), ``None`` (no CPU
    coordination), an orchestrator name, or an instance.

    ``job`` names the job the run belongs to on a backend shared with other
    jobs: every group is created with it, and the run adds no teardown ops
    (the shared daemon kernels quit on their own once every job drained).
    Groups are named ``pg0``, ``pg1``, … per training backend.

    ``shuffle_submissions`` randomizes the completion-wait order per
    iteration (with ``rng``), modelling frameworks that consume collective
    results out of order.
    """

    def __init__(self, cluster, backend="dfccl", orchestrator="auto",
                 shuffle_submissions=False, rng=None, job=None, **knobs):
        self.cluster = cluster
        self.backend = (make_backend(backend, cluster, **knobs)
                        if isinstance(backend, str) else backend)
        self.job = job
        self._orchestrator_spec = orchestrator
        self.orchestrator = None
        self.shuffle_submissions = shuffle_submissions
        self.rng = rng
        self._groups = {}
        self._decisions = {}
        self._plan = None

    @property
    def name(self):
        if self.orchestrator is None:
            return self.backend.name
        return f"{self.backend.name}+{self.orchestrator.name}"

    # -- preparation ------------------------------------------------------------

    def _resolve_orchestrator(self, world_size):
        spec = self._orchestrator_spec
        if spec == "auto":
            spec = self.backend.training_orchestrator
        return resolve_orchestrator(spec, world_size)

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
        self._plan = plan
        self.orchestrator = self._resolve_orchestrator(plan.world_size)
        for key, item in sorted(plan.unique_collectives().items(), key=lambda kv: kv[0]):
            self._group_for(item.group_ranks).ensure_collective(
                _spec_for(item), key=key
            )

    # -- per-iteration program construction ----------------------------------------

    def _decision(self, iteration):
        decision = self._decisions.get(iteration)
        if decision is None:
            per_rank_orders = {
                rank: [item.key for item in self._plan.collective_items(rank)]
                for rank in self._plan.ranks()
            }
            decision = self.orchestrator.coordinate(per_rank_orders, step_index=iteration)
            self._decisions[iteration] = decision
        return decision

    def iteration_ops(self, rank, schedule, iteration):
        """Host ops executing one iteration of ``schedule`` on ``rank``."""
        ops = []
        decision = None
        if self.orchestrator is not None:
            decision = self._decision(iteration)
            startup_delay = decision.per_step_delay_us
            if iteration == 0:
                startup_delay += decision.one_time_delay_us
            if startup_delay > 0:
                ops.append(CpuCompute(startup_delay,
                                      f"{self.orchestrator.name}-coordination"))

        collective_items = [item for item in schedule if isinstance(item, CollectiveItem)]
        submit_order = {item.key: index for index, item in enumerate(collective_items)}
        if self.shuffle_submissions and self.rng is not None:
            shuffled = self.rng.child("iter", iteration, rank).shuffle(list(collective_items))
            submit_order = {item.key: index for index, item in enumerate(shuffled)}

        works = []
        for item in schedule:
            if isinstance(item, ComputeItem):
                ops.append(CpuCompute(item.duration_us, item.label))
            elif isinstance(item, CollectiveItem):
                if decision is not None and decision.per_collective_delay_us > 0:
                    ops.append(CpuCompute(decision.per_collective_delay_us,
                                          f"{self.orchestrator.name}-negotiate"))
                group = self._group_for(item.group_ranks)
                work = group.collective(rank, _spec_for(item), key=item.key)
                works.append((submit_order[item.key], work))
                ops.append(work.submit_op())
            else:  # pragma: no cover - defensive
                raise ConfigurationError(f"unknown schedule item {item!r}")
        for _, work in sorted(works, key=lambda pair: pair[0]):
            ops.append(work.wait_op())
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
