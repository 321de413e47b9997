"""The control plane: a continuously running scheduler service.

:class:`ControlPlane` extends the multi-tenant :class:`ClusterScheduler`
from a batch admitter into a *service*:

* **live submission** — jobs may be submitted while the engine runs (from a
  scheduled action or a host hook); the service actor is woken through
  :meth:`~repro.gpusim.engine.Engine.wake_actor` whatever state it parked in;
* **admission control** — per-tenant quotas reject jobs that could never run
  within their tenant's GPU budget and cap each tenant's concurrently leased
  GPUs at placement time;
* **priority preemption with checkpoint/restore** — a queued job of higher
  effective priority may evict lower-priority running jobs; the victim is
  checkpointed at its last fully-completed iteration boundary (in-flight
  collective parts are aborted out of the daemon queues), requeued, and
  later resumed running only its remaining iterations.  Preemption requires
  a backend that can quiesce an evicted job — the dedicated-kernel baseline
  cannot abort its in-flight kernels, so over it the control plane degrades
  to non-preemptive scheduling (exactly the property the paper's comparison
  turns on);
* **starvation aging** — a queued job's effective priority rises with its
  waiting time, so high-priority churn cannot starve low-priority tenants;
* **elastic growth and rejoin** — :meth:`grow_cluster` adds a node to the
  live cluster mid-run and immediately places queued work on it; a running
  job that loses a leased rank is checkpoint-evicted and requeued at full
  size (the *rejoin* path — the scheduler-level inverse of recovery's group
  shrink);
* **migration** — :meth:`migrate` checkpoints a running job and re-places it,
  preferring devices outside its old lease.

Determinism: everything external — submissions, migrations, growth — enters
through the :meth:`schedule` action queue, ordered by ``(time, sequence)``,
so equal seeds replay identical histories.
"""

from __future__ import annotations

from dataclasses import replace

from repro.common.errors import ConfigurationError, InvalidStateError
from repro.controlplane.checkpoint import JobCheckpoint, collective_fingerprints
from repro.gpusim.engine import StepResult
from repro.multijob.jobs import JobRecord, JobState
from repro.multijob.placement import DeviceLease
from repro.multijob.scheduler import ClusterScheduler


class ControlPlane(ClusterScheduler):
    """Scheduler-as-a-service: preemption, checkpoint/restore, elasticity."""

    def __init__(self, cluster, runner, policy="packed", tenants_per_gpu=2,
                 name="control-plane", preemption=True,
                 max_preemptions_per_job=3, starvation_boost_us=None,
                 quotas=None, rejoin=True):
        super().__init__(cluster, runner, policy=policy,
                         tenants_per_gpu=tenants_per_gpu, name=name)
        #: Preemption needs a backend able to quiesce an evicted job.
        self.preemption = preemption and getattr(
            runner, "supports_preemption", False)
        self.max_preemptions_per_job = max_preemptions_per_job
        self.starvation_boost_us = starvation_boost_us
        #: Tenant -> max concurrently leased GPUs (absent tenants: unlimited).
        self.quotas = dict(quotas or {})
        self.rejoin_enabled = rejoin
        self._actions = []       # (time_us, seq, callable) sorted
        self._action_seq = 0
        self._in_step = False
        self.migrations = 0
        self.rejoins = 0
        self.grow_events = 0

    def on_registered(self, engine):
        super().on_registered(engine)
        if engine.obs.enabled:
            engine.obs.metrics.gauge_fn(
                "jobs_running",  # refresh over the base registration
                lambda: sum(1 for record in self.jobs.values()
                            if record.state is JobState.RUNNING))

    # -- the action queue --------------------------------------------------------

    def schedule(self, time_us, action):
        """Run ``action(control_plane, now)`` at virtual time ``time_us``.

        The deterministic entry point for everything external: live
        submissions, migrations, cluster growth.  Actions at equal times run
        in scheduling order.  Returns ``self`` for chaining.
        """
        self._action_seq += 1
        self._actions.append((float(time_us), self._action_seq, action))
        self._actions.sort(key=lambda entry: entry[:2])
        if self._started and self.engine is not None and not self._in_step:
            self.engine.wake_actor(self)
        return self

    def _run_due_actions(self, now):
        ran = 0
        while self._actions and self._actions[0][0] <= now:
            _, _, action = self._actions.pop(0)
            action(self, now)
            ran += 1
        return ran

    # -- live admission ----------------------------------------------------------

    def submit(self, spec):
        """Admit one job spec — before the run *or live, mid-simulation*.

        A live submission's arrival time is clamped forward to ``now`` (the
        service cannot admit into the past) and the service actor is woken
        out of whatever sleep or block it parked in.
        """
        if not self._started:
            return super().submit(spec)
        spec.validate()
        if spec.job_id in self.jobs or any(
            pending.job_id == spec.job_id for pending in self._pending_arrivals
        ):
            raise ConfigurationError(f"job id {spec.job_id!r} already submitted")
        if spec.world_size > self.cluster.world_size:
            raise ConfigurationError(
                f"job {spec.job_id} wants {spec.world_size} GPUs but the "
                f"cluster has {self.cluster.world_size}"
            )
        now = self.now
        if spec.arrival_time_us < now:
            spec = replace(spec, arrival_time_us=now)
        self._pending_arrivals.append(spec)
        self._pending_arrivals.sort(key=lambda pending: (pending.arrival_time_us,
                                                         pending.job_id))
        if self.engine is not None and not self._in_step:
            self.engine.wake_actor(self)
        return spec

    def _admit_due(self, now):
        """Admit due arrivals, rejecting jobs no quota could ever satisfy."""
        while self._pending_arrivals and \
                self._pending_arrivals[0].arrival_time_us <= now:
            spec = self._pending_arrivals.pop(0)
            record = JobRecord(spec=spec)
            self.jobs[spec.job_id] = record
            self.events.append((spec.arrival_time_us, "arrive", spec.job_id))
            obs = self._obs()
            if obs is not None:
                obs.tracer.event(f"arrive:{spec.job_id}", "job",
                                 spec.arrival_time_us,
                                 attrs={"world_size": spec.world_size,
                                        "tenant": spec.tenant})
            quota = self.quotas.get(spec.tenant)
            if quota is not None and spec.world_size > quota:
                record.state = JobState.REJECTED
                self.events.append((now, "reject", spec.job_id))
                if obs is not None:
                    obs.metrics.counter("jobs_rejected").inc()
                    obs.tracer.event(f"reject:{spec.job_id}", "job", now,
                                     attrs={"tenant": spec.tenant,
                                            "quota": quota})

    # -- priority, quota and placement --------------------------------------------

    def _effective_priority(self, record, now):
        """Spec priority plus starvation aging (one level per boost period)."""
        priority = record.spec.priority
        if self.starvation_boost_us:
            waited = max(0.0, now - record.spec.arrival_time_us)
            priority += int(waited / self.starvation_boost_us)
        return priority

    def _queued_records(self, now=None):
        def order(record):
            priority = (record.spec.priority if now is None
                        else self._effective_priority(record, now))
            return (-priority, record.spec.arrival_time_us, record.job_id)
        return sorted((record for record in self.jobs.values()
                       if record.state is JobState.QUEUED), key=order)

    def _tenant_leased(self, tenant):
        return sum(len(record.lease.ranks) for record in self.jobs.values()
                   if record.state is JobState.RUNNING
                   and record.spec.tenant == tenant)

    def _within_quota(self, record):
        quota = self.quotas.get(record.spec.tenant)
        if quota is None:
            return True
        return self._tenant_leased(record.spec.tenant) + \
            record.spec.world_size <= quota

    def _try_place_queued(self, now):
        """Placement pass: backfill first, then preempt for what still waits."""
        placed = 0
        for record in self._queued_records(now):
            if not self._within_quota(record):
                continue
            ranks = self.policy.place(
                record.spec.world_size, self._effective_load(),
                self.tenants_per_gpu, self.cluster,
            )
            if ranks is None and self.preemption:
                ranks = self._place_with_preemption(record, now)
            if ranks is None:
                continue
            self._grant(record, ranks, now)
            placed += 1
        return placed

    def _place_with_preemption(self, record, now):
        """Evict lower-priority running jobs to make room for ``record``.

        Victims are simulated on a hypothetical load map first — nothing is
        evicted unless the eviction set provably fits the job — then evicted
        youngest-start first (least sunk work), lowest priority first.
        """
        wanted = self._effective_priority(record, now)
        candidates = sorted(
            (victim for victim in self.jobs.values()
             if victim.state is JobState.RUNNING
             and victim.preemptions < self.max_preemptions_per_job
             and not self._about_to_finish(victim)
             and self._effective_priority(victim, now) < wanted),
            key=lambda victim: (self._effective_priority(victim, now),
                                -victim.lease.granted_at_us,
                                victim.job_id),
        )
        if not candidates:
            return None
        hypothetical = self._effective_load()
        chosen = []
        fits = None
        for victim in candidates:
            for rank in victim.lease.ranks:
                if not self.cluster.device(rank).failed:
                    hypothetical[rank] -= 1
            chosen.append(victim)
            fits = self.policy.place(
                record.spec.world_size, hypothetical,
                self.tenants_per_gpu, self.cluster,
            )
            if fits is not None:
                break
        if fits is None:
            return None
        for victim in chosen:
            self._preempt(victim, now, reason=f"preempted-by:{record.job_id}")
        return self.policy.place(
            record.spec.world_size, self._effective_load(),
            self.tenants_per_gpu, self.cluster,
        )

    def _about_to_finish(self, record):
        """True when every iteration already ran and only the completion
        hooks are pending (at this same virtual instant).  Evicting such a
        job would record a preemption for capacity its finish is about to
        release anyway."""
        run = self.runner.runs.get(record.job_id)
        if run is None:
            return False
        return record.completed_iterations + run.completed_iterations() \
            >= record.spec.iterations

    def _maybe_finish(self, record, time_us):
        super()._maybe_finish(record, time_us)
        if record.state is JobState.COMPLETED:
            # Normal completion confirms every spec iteration ran — keep the
            # cumulative counter truthful for resumed jobs too.
            record.completed_iterations = record.spec.iterations

    # -- checkpoint / restore ------------------------------------------------------

    def _preempt(self, record, now, reason):
        """Checkpoint-evict a running job; requeue it (or finish it outright)."""
        if record.state is not JobState.RUNNING:
            raise InvalidStateError(
                f"cannot preempt job {record.job_id} in state {record.state.value}"
            )
        run = self.runner.runs.get(record.job_id)
        fingerprints = ()
        if run is not None:
            fingerprints = collective_fingerprints(
                run.backend.backend, getattr(run.plan, "local_rank", None))
        completed, aborted = self.runner.preempt(record, now)
        record.completed_iterations += completed
        record.checkpoint = JobCheckpoint(
            job_id=record.job_id,
            epoch=record.epoch,
            completed_iterations=record.completed_iterations,
            taken_at_us=now,
            reason=reason,
            aborted_parts=aborted,
            fingerprints=fingerprints,
        )
        for rank in record.lease.ranks:
            self.load[rank] -= 1
        record.lease = None
        record.ranks_done = {}
        record.preemptions += 1
        record.epoch += 1
        self.events.append((now, f"preempt:{reason}", record.job_id))
        obs = self._obs()
        if obs is not None:
            obs.metrics.counter("jobs_preempted").inc()
            span = self._job_spans.pop(record.job_id, None)
            if span is not None:
                obs.tracer.end(span, now, state="preempted", reason=reason)
        if record.completed_iterations >= record.spec.iterations:
            # Eviction landed exactly on the final boundary: every iteration
            # is checkpointed, so the job is complete without a resume.
            record.state = JobState.COMPLETED
            record.finish_time_us = now
            self.runner.backend.release_job(record.job_id)
            self.events.append((now, "finish", record.job_id))
        else:
            record.state = JobState.QUEUED
        return record.checkpoint

    def _grant(self, record, ranks, now):
        """Lease ``ranks`` to the job — a first placement or a resume."""
        resumed = record.epoch > 0
        record.lease = DeviceLease(record.job_id, tuple(ranks), now)
        if record.start_time_us is None:
            record.start_time_us = now
        record.state = JobState.RUNNING
        for rank in ranks:
            self.load[rank] += 1
        self.events.append((now, "resume" if resumed else "place",
                            record.job_id))
        obs = self._obs()
        if obs is not None:
            if resumed:
                obs.metrics.counter("jobs_resumed").inc()
            else:
                # Queueing delay is arrival-to-*first*-placement; a resume
                # is service interruption, not queueing.
                obs.metrics.histogram("jobs_queueing_delay_us").observe(
                    max(0.0, now - record.spec.arrival_time_us))
            self._job_spans[record.job_id] = obs.tracer.begin(
                f"job:{record.job_id}", "job", now,
                track="lifecycle", job=record.job_id,
                attrs={"ranks": list(ranks),
                       "priority": record.spec.priority,
                       "epoch": record.epoch})

        def on_rank_complete(rank, time_us, job_id=record.job_id,
                             epoch=record.epoch):
            current = self.jobs[job_id]
            if current.epoch != epoch or current.state is not JobState.RUNNING:
                return  # stale hook from an evicted epoch's rank process
            self.on_rank_done(job_id, rank, time_us)

        self.runner.launch(record, now, on_rank_complete)

    # -- migration -----------------------------------------------------------------

    def migrate(self, job_id, time_us=None):
        """Checkpoint a running job and re-place it, avoiding its old ranks.

        When capacity outside the old lease exists the job moves; otherwise
        it re-enters the queue like any preempted job.  Returns the record.
        """
        record = self.jobs[job_id]
        if record.state is not JobState.RUNNING:
            raise InvalidStateError(
                f"cannot migrate job {job_id} in state {record.state.value}"
            )
        if not self.preemption:
            raise InvalidStateError(
                "migration needs a preemption-capable (quiesce) backend"
            )
        now = self.now if time_us is None else time_us
        old_ranks = tuple(record.lease.ranks)
        self._preempt(record, now, reason="migrate")
        self.migrations += 1
        obs = self._obs()
        if obs is not None:
            obs.metrics.counter("jobs_migrated").inc()
        if record.state is JobState.QUEUED:
            masked = self._effective_load()
            for rank in old_ranks:
                masked[rank] = self.tenants_per_gpu
            ranks = self.policy.place(record.spec.world_size, masked,
                                      self.tenants_per_gpu, self.cluster)
            if ranks is not None:
                self._grant(record, ranks, now)
            else:
                self._try_place_queued(now)
        return record

    # -- elastic growth and rejoin ---------------------------------------------------

    def grow_cluster(self, node=None, time_us=None):
        """Add a node to the live cluster and place queued work on it."""
        now = self.now if time_us is None else time_us
        added = self.cluster.add_node(node, time_us=now)
        for device in added:
            self.load[self.cluster.rank_of(device)] = 0
        self.grow_events += 1
        self.events.append((now, "grow", self.cluster.spec.nodes[-1].name))
        obs = self._obs()
        if obs is not None:
            obs.metrics.counter("cluster_grow_events").inc()
            obs.tracer.event("cluster-grow", "controlplane", now,
                             attrs={"devices": [d.name for d in added],
                                    "world_size": self.cluster.world_size})
        self._try_place_queued(now)
        return added

    def _reap_failed_ranks(self, now):
        """Rejoin path first: a running job that lost a leased rank is
        checkpoint-evicted and requeued at *full* size, so its next placement
        re-forms the whole group on healthy devices (the scheduler-level
        inverse of recovery's shrink).  Jobs past their preemption budget
        fall through to the base reaper and finish degraded."""
        if self.rejoin_enabled and self.preemption:
            for record in list(self.jobs.values()):
                if record.state is not JobState.RUNNING:
                    continue
                if record.preemptions >= self.max_preemptions_per_job:
                    continue
                if any(self.cluster.device(rank).failed
                       for rank in record.lease.ranks):
                    self._preempt(record, now, reason="rejoin")
                    self.rejoins += 1
                    obs = self._obs()
                    if obs is not None:
                        obs.metrics.counter("jobs_rejoined").inc()
        super()._reap_failed_ranks(now)

    # -- engine protocol -----------------------------------------------------------

    def step(self):
        self._started = True
        self._in_step = True
        try:
            now = self.now
            self._run_due_actions(now)
            self._admit_due(now)
            self._reap_failed_ranks(now)
            self._try_place_queued(now)
        finally:
            self._in_step = False

        if not self._pending_arrivals and not self._actions and all(
            record.terminal for record in self.jobs.values()
        ):
            return StepResult.done("control plane drained")

        wake_times = []
        if self._pending_arrivals:
            wake_times.append(self._pending_arrivals[0].arrival_time_us)
        if self._actions:
            wake_times.append(self._actions[0][0])
        if wake_times:
            return StepResult.sleep(min(wake_times),
                                    "awaiting next arrival or action")
        return StepResult.blocked([self.wake_key], "jobs running; queue parked")

    # -- reporting -----------------------------------------------------------------

    def summary(self, total_time_us=None):
        """Base scheduler summary plus the control-plane counters.

        ``starved`` counts jobs that ended unfinished *without ever being
        placed* — the service's headline no-starvation claim is
        ``starved == 0`` over a saturating stream.  Rejected jobs are an
        admission-policy outcome, not starvation, and are excluded from the
        never-placed count.
        """
        data = super().summary(total_time_us)
        records = list(self.jobs.values())
        rejected = sum(1 for record in records
                       if record.state is JobState.REJECTED)
        data["never_placed"] = max(0, data["never_placed"] - rejected)
        data.update({
            "rejected": rejected,
            "preemptions": sum(record.preemptions for record in records),
            "preempted_jobs": sum(1 for record in records
                                  if record.preemptions > 0),
            "resumed_jobs": sum(1 for record in records if record.epoch > 1
                                or (record.epoch == 1
                                    and record.lease is not None)),
            "migrations": self.migrations,
            "rejoins": self.rejoins,
            "grow_events": self.grow_events,
            "starved": sum(1 for record in records
                           if record.state is JobState.UNFINISHED
                           and record.start_time_us is None),
        })
        return data


def install_control_plane(cluster, runner, specs=(), policy="packed",
                          tenants_per_gpu=2, **kwargs):
    """Create a control plane, admit ``specs`` and register it."""
    service = ControlPlane(cluster, runner, policy=policy,
                           tenants_per_gpu=tenants_per_gpu, **kwargs)
    service.submit_all(specs)
    cluster.engine.add_actor(service)
    return service
