"""Per-job backend contexts on the shared cluster.

A placed job becomes a :class:`~repro.workloads.trainer.TrainingRun` whose
plan is *rank-mapped*: the job plans in its own local rank space (0..n-1) and
a :class:`RankMappedPlan` view translates every schedule onto the leased
global ranks, which need not be contiguous.

One :class:`ClusterJobRunner` serves every backend through ``repro.api``:
the runner holds a single shared :class:`~repro.api.CollectiveBackend`, and
each placed job creates its process groups on it under its job id.  What
that means is backend-defined, mirroring the paper's comparison:

* under ``"dfccl"`` one daemon kernel per GPU serves every co-located
  tenant, with collective ids namespaced by job and communicators pooled per
  ``(job, device set)``;
* under ``"nccl"`` each job launches dedicated per-collective kernels on
  per-job streams (plus its orchestrator's CPU time).  Co-located jobs'
  dedicated kernels contend for SM block slots, which is what lets the baseline
  deadlock *across* jobs.

Every runner applies a small seeded per-rank *launch jitter* modelling
dataloader and framework skew between rank processes — the disorder that
interleaves co-located jobs' kernel launches differently on different GPUs.
"""

from __future__ import annotations

from dataclasses import replace

from repro.api import CollectiveBackend, make_backend
from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRNG
from repro.workloads.backends import GroupTrainingBackend
from repro.workloads.parallelism import CollectiveItem, ComputeItem
from repro.workloads.trainer import TrainingRun


class RankMappedPlan:
    """View of a job-local :class:`ParallelPlan` on leased global ranks.

    With ``jitter_us > 0`` every rank's iteration starts with a seeded
    launch skew.  Real rank processes of one job never hit their collective
    launches at exactly the same instant (dataloader, Python overhead,
    interrupts); the skew is what interleaves co-located jobs differently on
    different GPUs.
    """

    def __init__(self, plan, rank_map, job_id=None, jitter_us=0.0, seed=0):
        if len(rank_map) != plan.world_size:
            raise ConfigurationError(
                f"lease has {len(rank_map)} ranks but the plan needs {plan.world_size}"
            )
        if len(set(rank_map)) != len(rank_map):
            raise ConfigurationError(f"lease ranks must be distinct, got {rank_map}")
        self.plan = plan
        self.rank_map = list(rank_map)
        self._to_local = {global_rank: local
                          for local, global_rank in enumerate(self.rank_map)}
        self._jitter_us = jitter_us
        self._rng = DeterministicRNG(seed).child("launch-jitter", job_id)
        self._calls = {}

    @property
    def iteration_variant(self):
        """Tells TrainingRun to re-derive the schedule each iteration."""
        return self._jitter_us > 0

    # -- delegated geometry ----------------------------------------------------

    @property
    def world_size(self):
        return self.plan.world_size

    @property
    def global_batch_size(self):
        return self.plan.global_batch_size

    def ranks(self):
        return list(self.rank_map)

    def local_rank(self, global_rank):
        return self._to_local[global_rank]

    # -- schedule translation --------------------------------------------------

    def _map_item(self, item):
        if isinstance(item, CollectiveItem):
            return replace(
                item,
                group_ranks=tuple(self.rank_map[local] for local in item.group_ranks),
            )
        return item

    def _mapped_schedule(self, global_rank):
        local = self._to_local[global_rank]
        return [self._map_item(item) for item in self.plan.iteration_schedule(local)]

    def iteration_schedule(self, global_rank):
        schedule = self._mapped_schedule(global_rank)
        if self._jitter_us > 0:
            # Fresh skew per (rank, call): each iteration of each rank drifts
            # independently, exactly like real dataloader timing.
            call = self._calls.get(global_rank, 0)
            self._calls[global_rank] = call + 1
            skew = self._rng.child(global_rank, call).uniform(0.0, self._jitter_us)
            schedule.insert(0, ComputeItem(skew, "launch-jitter"))
        return schedule

    def collective_items(self, global_rank):
        # The unjittered schedule: asking for the collectives must not draw
        # a launch skew.
        return [item for item in self._mapped_schedule(global_rank)
                if isinstance(item, CollectiveItem)]

    def unique_collectives(self):
        return {key: self._map_item(item)
                for key, item in self.plan.unique_collectives().items()}


class ClusterJobRunner:
    """Builds and installs placed jobs' host programs over one shared backend.

    ``backend`` is a registered ``repro.api`` backend name (extra ``knobs``
    go to :func:`make_backend`) or an already-built
    :class:`~repro.api.CollectiveBackend`.  The backend decides the
    orchestration baseline whose CPU time a job's training loop charges
    (DFCCL: none, NCCL: ``"megatron"``, the hand-written order).
    """

    def __init__(self, cluster, backend="dfccl", launch_jitter_us=25.0, seed=0,
                 **knobs):
        self.cluster = cluster
        self.backend = (make_backend(backend, cluster, **knobs)
                        if not isinstance(backend, CollectiveBackend) else backend)
        self.launch_jitter_us = launch_jitter_us
        self.seed = seed
        self.runs = {}
        self.hosts = {}

    def _training_backend(self, record):
        return GroupTrainingBackend(self.cluster, self.backend,
                                    job=record.spec.job_id)

    def launch(self, record, time_us, on_rank_complete):
        """Install the job's rank processes; returns the TrainingRun.

        A record resumed after preemption (``record.epoch > 0``) runs only
        its remaining iterations (checkpointed-complete ones are not re-run)
        with warmup already spent, under epoch-suffixed host names so the
        fresh rank processes never collide with the evicted epoch's.
        """
        spec = record.spec
        remaining = spec.iterations - record.completed_iterations
        if record.epoch > 0 or remaining != spec.iterations:
            run_spec = replace(spec, iterations=remaining, warmup=0)
        else:
            run_spec = spec
        plan = RankMappedPlan(run_spec.build_plan(), record.lease.ranks,
                              job_id=spec.job_id, jitter_us=self.launch_jitter_us,
                              seed=self.seed)
        run = TrainingRun(
            self.cluster, plan, self._training_backend(record),
            iterations=run_spec.iterations, warmup=run_spec.warmup,
            on_rank_complete=on_rank_complete,
        )
        prefix = (spec.job_id if record.epoch == 0
                  else f"{spec.job_id}~e{record.epoch}")
        self.hosts[spec.job_id] = run.install(name_prefix=prefix,
                                              start_time_us=time_us)
        self.runs[spec.job_id] = run
        return run

    def preempt(self, record, time_us):
        """Checkpoint and evict a placed job's rank processes mid-run.

        Kills the job's host actors (their in-flight collective parts are
        aborted through the backend's ``quiesce`` of the job, so the shared
        daemon kernels drop the orphaned task entries), unregisters the epoch's
        collectives, and reports the checkpoint boundary: how many leading
        iterations every rank fully completed this epoch.  The job's
        communicator-pool namespace is deliberately *not* evicted — a resume
        on the same device set reuses the pooled communicators (visible as
        ``pool_hits``).  Returns ``(completed_iterations, aborted_parts)``.
        """
        run = self.runs.pop(record.job_id, None)
        if run is None:
            raise ConfigurationError(
                f"job {record.job_id} has no installed run to preempt"
            )
        completed = run.completed_iterations()
        for host in self.hosts.pop(record.job_id, []):
            self.cluster.engine.kill_actor(host, time_us)
            self.cluster.hosts.pop(host.name, None)
        aborted = self.backend.quiesce(record.job_id, time_us)
        run.backend.unregister_all()
        return completed, aborted

    @property
    def supports_preemption(self):
        """Whether this runner's backend can quiesce an evicted job.

        The dedicated-kernel baseline cannot: its in-flight kernels hold
        their SM blocks until completion and have no abort path — exactly
        the property the paper's comparison turns on — so the scheduler
        stays run-to-completion over it.
        """
        return hasattr(self.backend, "quiesce")

    def release(self, record):
        """Tear down the finished job's backend state.

        Unregisters the job's collectives and then drops its backend-side
        namespace (under DFCCL: the pool entries keyed by the unique job id,
        which no later tenant can ever reuse), keeping the shared backend
        bounded over a long churn stream.
        """
        run = self.runs.get(record.job_id)
        if run is None:
            return 0
        released = run.backend.unregister_all()
        self.backend.release_job(record.spec.job_id)
        return released

    def collect(self, record, total_time_us):
        """Fill ``record.result`` once the simulation stopped."""
        run = self.runs.get(record.job_id)
        if run is None:
            return None
        record.result = run.collect(total_time_us, partial=True)
        return record.result
