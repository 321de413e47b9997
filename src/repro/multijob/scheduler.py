"""The multi-tenant cluster scheduler.

:class:`ClusterScheduler` is an engine actor that admits :class:`JobSpec`
streams, leases device sets through a placement policy, launches each placed
job's rank processes through a job runner, and frees the lease when the job's
last (surviving) rank finishes — immediately retrying queued jobs on the
freed capacity.

Scheduling discipline: queued jobs are served in (effective priority desc,
arrival, job id) order with *backfill* — a job that does not fit is skipped,
and a smaller later job may start first.  On top of that the scheduler runs
as a service:

* **live submission** — jobs may be submitted while the engine runs (from a
  scheduled action or a host hook); the actor is woken through
  :meth:`~repro.gpusim.engine.Engine.wake_actor` whatever state it parked in;
* **admission control** — per-tenant ``quotas`` reject jobs that could never
  run within their tenant's GPU budget and cap each tenant's concurrently
  leased GPUs at placement time;
* **starvation aging** — with ``starvation_boost_us`` a queued job's
  effective priority rises one level per waited period, so high-priority
  churn cannot starve low-priority tenants;
* **priority preemption with checkpoint/restore** (``preemption=True``) — a
  queued job of higher effective priority may evict lower-priority running
  jobs; the victim is checkpointed at its last fully-completed iteration
  boundary (in-flight collective parts are aborted out of the daemon
  queues), requeued, and later resumed running only its remaining
  iterations.  Preemption requires a backend that can quiesce an evicted
  job — the dedicated-kernel baseline cannot abort its in-flight kernels, so
  over it the scheduler stays run-to-completion (exactly the property the
  paper's comparison turns on).  With preemption off, leases are never
  revoked;
* **rejoin** (with preemption) — a running job that loses a leased rank is
  checkpoint-evicted and requeued at full size, the scheduler-level inverse
  of recovery's group shrink; without preemption it finishes degraded;
* **elastic growth and migration** — :meth:`grow_cluster` adds a node to the
  live cluster and immediately places queued work on it; :meth:`migrate`
  checkpoints a running job and re-places it, preferring devices outside its
  old lease.

Determinism: everything external — submissions, migrations, growth — enters
through the :meth:`schedule` action queue, ordered by ``(time, sequence)``,
so equal seeds replay identical histories.

The scheduler is a *worker* actor (not a daemon): it keeps the simulation
alive across arrival gaps, and when every running job's rank processes are
blocked — the cross-job SM-contention deadlock the dedicated-kernel baseline
is susceptible to — the scheduler itself is merely blocked on its wake key,
so the engine's deadlock detector fires exactly as it should.
"""

from __future__ import annotations

from dataclasses import replace

from repro.common.errors import ConfigurationError, InvalidStateError
from repro.gpusim.engine import Actor, StepResult
from repro.multijob.checkpoint import JobCheckpoint, collective_fingerprints
from repro.multijob.jobs import JobRecord, JobState
from repro.multijob.placement import DeviceLease, make_placement_policy


class _FailureWatch(Actor):
    """Service actor delivering device failures to the scheduler promptly.

    The scheduler actor is either sleeping toward the next arrival or blocked
    on its wake key; a crash that eliminates a running job's last outstanding
    rank would otherwise go unreaped until the next wake, inflating the job's
    JCT and delaying lease reuse.  The watch blocks on every live device's
    ``failed_key``, reaps synchronously when one fires, and signals the
    scheduler's wake key.
    """

    daemon = True

    def __init__(self, scheduler):
        super().__init__(f"{scheduler.name}-failure-watch")
        self.scheduler = scheduler
        self._seen = set()

    def step(self):
        cluster = self.scheduler.cluster
        newly_failed = [device for device in cluster.devices
                        if device.failed and device.name not in self._seen]
        if newly_failed:
            for device in newly_failed:
                self._seen.add(device.name)
            self.scheduler._reap_failed_ranks(self.now)
            if self.engine is not None:
                self.engine.signal(self.scheduler.wake_key, self.now)
        keys = [device.failed_key for device in cluster.devices
                if not device.failed]
        if not keys:
            return StepResult.done("every device has failed")
        return StepResult.blocked(keys, "watching for device failures")


class ClusterScheduler(Actor):
    """Leases GPUs of one shared cluster to an open-loop stream of jobs."""

    def __init__(self, cluster, runner, policy="packed", tenants_per_gpu=2,
                 name="cluster-scheduler", preemption=False,
                 max_preemptions_per_job=3, starvation_boost_us=None,
                 quotas=None):
        super().__init__(name)
        if tenants_per_gpu < 1:
            raise ConfigurationError(
                f"tenants_per_gpu must be at least 1, got {tenants_per_gpu}"
            )
        if starvation_boost_us is not None and starvation_boost_us < 0:
            # A negative period would lower a queued job's priority the
            # longer it waits.
            raise ConfigurationError(
                "starvation_boost_us must be non-negative, got "
                f"{starvation_boost_us}"
            )
        self.cluster = cluster
        self.runner = runner
        self.policy = make_placement_policy(policy)
        self.tenants_per_gpu = tenants_per_gpu
        #: Preemption needs a backend able to quiesce an evicted job.
        self.preemption = preemption and runner.supports_preemption
        self.max_preemptions_per_job = max_preemptions_per_job
        self.starvation_boost_us = starvation_boost_us
        #: Tenant -> max concurrently leased GPUs (absent tenants: unlimited).
        self.quotas = dict(quotas or {})
        self.jobs = {}
        self._pending_arrivals = []      # JobSpecs sorted by arrival time
        self._actions = []               # (time_us, seq, callable) sorted
        self._action_seq = 0
        self._started = False
        self._in_step = False
        self.migrations = 0
        self.rejoins = 0
        self.grow_events = 0
        # Event log: (time_us, event, job_id) for trace inspection.
        self.events = []
        #: Open job-lifecycle spans (placement -> finish), by job id.
        self._job_spans = {}

    def on_registered(self, engine):
        super().on_registered(engine)
        engine.add_actor(_FailureWatch(self))
        if engine.obs.enabled:
            registry = engine.obs.metrics
            registry.gauge_fn("jobs_admitted", lambda: len(self.jobs))
            registry.gauge_fn("jobs_running",
                              lambda: sum(1 for r in self.jobs.values()
                                          if r.state is JobState.RUNNING))
            registry.gauge_fn("jobs_completed",
                              lambda: sum(1 for r in self.jobs.values()
                                          if r.terminal))

    def _obs(self):
        obs = self.cluster.engine.obs
        return obs if obs.enabled else None

    # -- wait keys -------------------------------------------------------------

    @property
    def wake_key(self):
        """Signalled on job completion so a blocked scheduler re-evaluates."""
        return ("multijob-wake", self.name)

    def _wake(self):
        """Rouse the actor out of whatever sleep or block it parked in."""
        if self._started and self.engine is not None and not self._in_step:
            self.engine.wake_actor(self)

    # -- the action queue ------------------------------------------------------

    def schedule(self, time_us, action):
        """Run ``action(scheduler, now)`` at virtual time ``time_us``.

        The deterministic entry point for everything external: live
        submissions, migrations, cluster growth.  Actions at equal times run
        in scheduling order.  Returns ``self`` for chaining.
        """
        self._action_seq += 1
        self._actions.append((float(time_us), self._action_seq, action))
        self._actions.sort(key=lambda entry: entry[:2])
        self._wake()
        return self

    def _run_due_actions(self, now):
        while self._actions and self._actions[0][0] <= now:
            _, _, action = self._actions.pop(0)
            action(self, now)

    # -- admission -------------------------------------------------------------

    def submit(self, spec):
        """Admit one job spec — before the run *or live, mid-simulation*.

        A live submission's arrival time is clamped forward to ``now`` (the
        scheduler cannot admit into the past).
        """
        spec.validate()
        if spec.job_id in self.jobs or any(
            pending.job_id == spec.job_id for pending in self._pending_arrivals
        ):
            raise ConfigurationError(f"job id {spec.job_id!r} already submitted")
        if spec.world_size > self.cluster.world_size:
            raise ConfigurationError(
                f"job {spec.job_id} wants {spec.world_size} GPUs but the cluster "
                f"has {self.cluster.world_size}"
            )
        if self._started and spec.arrival_time_us < self.now:
            spec = replace(spec, arrival_time_us=self.now)
        self._pending_arrivals.append(spec)
        self._pending_arrivals.sort(key=lambda pending: (pending.arrival_time_us,
                                                         pending.job_id))
        self._wake()
        return spec

    def submit_all(self, specs):
        for spec in specs:
            self.submit(spec)
        return self

    # -- engine protocol -------------------------------------------------------

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
            return StepResult.done("all jobs finished")

        # Everything due at or before now was drained above, so the earliest
        # pending arrival or action is strictly in the future.
        wake_times = []
        if self._pending_arrivals:
            wake_times.append(self._pending_arrivals[0].arrival_time_us)
        if self._actions:
            wake_times.append(self._actions[0][0])
        if wake_times:
            return StepResult.sleep(min(wake_times),
                                    "awaiting next arrival or action")

        # Nothing left to admit: park until a completion (or the failure
        # watch) signals the wake key.  If every running job is wedged this
        # block participates in the engine's deadlock detection.
        return StepResult.blocked([self.wake_key], "jobs running; queue parked")

    # -- admission / placement internals --------------------------------------

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

    def _effective_priority(self, record, now):
        """Spec priority plus starvation aging (one level per boost period)."""
        priority = record.spec.priority
        if self.starvation_boost_us:
            waited = max(0.0, now - record.spec.arrival_time_us)
            priority += int(waited / self.starvation_boost_us)
        return priority

    def _queued_records(self, now):
        def order(record):
            return (-self._effective_priority(record, now),
                    record.spec.arrival_time_us, record.job_id)
        return sorted((record for record in self.jobs.values()
                       if record.state is JobState.QUEUED), key=order)

    def _within_quota(self, record):
        quota = self.quotas.get(record.spec.tenant)
        if quota is None:
            return True
        leased = sum(len(other.lease.ranks) for other in self.jobs.values()
                     if other.state is JobState.RUNNING
                     and other.spec.tenant == record.spec.tenant)
        return leased + record.spec.world_size <= quota

    def _effective_load(self):
        """Global rank -> the RUNNING jobs whose lease holds it, with failed
        devices reported as full (never placeable)."""
        cluster = self.cluster
        load = dict.fromkeys(range(cluster.world_size), 0)
        for record in self.jobs.values():
            if record.state is JobState.RUNNING:
                for rank in record.lease.ranks:
                    load[rank] += 1
        for rank in load:
            if cluster.device(rank).failed:
                load[rank] = self.tenants_per_gpu
        return load

    def _try_place_queued(self, now):
        """Placement pass: backfill first, then preempt for what still waits."""
        for record in self._queued_records(now):
            if not self._within_quota(record):
                continue
            ranks = self.policy.place(
                record.spec.world_size, self._effective_load(),
                self.tenants_per_gpu, self.cluster,
            )
            if ranks is None and self.preemption:
                ranks = self._place_with_preemption(record, now)
            if ranks is not None:
                self._grant(record, ranks, now)

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

    def _grant(self, record, ranks, now):
        """Lease ``ranks`` to the job — a first placement or a resume."""
        resumed = record.epoch > 0
        record.lease = DeviceLease(record.job_id, tuple(ranks), now)
        if record.start_time_us is None:
            record.start_time_us = now
        record.state = JobState.RUNNING
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

    # -- completion ------------------------------------------------------------

    def on_rank_done(self, job_id, rank, time_us):
        """Hook run by each rank process's final host op."""
        record = self.jobs[job_id]
        record.ranks_done[rank] = time_us
        self._maybe_finish(record, time_us)

    def _maybe_finish(self, record, time_us):
        if record.state is not JobState.RUNNING:
            return
        lost = [rank for rank in record.lease.ranks
                if rank not in record.ranks_done]
        if any(not self.cluster.device(rank).failed for rank in lost):
            return  # a live leased rank still owes its completion
        if lost:
            record.state = JobState.DEGRADED
        else:
            record.state = JobState.COMPLETED
            # Normal completion confirms every spec iteration ran — keep the
            # cumulative counter truthful for resumed jobs too.
            record.completed_iterations = record.spec.iterations
        record.finish_time_us = time_us
        # Recycle the job's backend state (pooled communicators etc.).
        self.runner.release(record)
        self.events.append((time_us, "finish", record.job_id))
        obs = self._obs()
        if obs is not None:
            span = self._job_spans.pop(record.job_id, None)
            if span is not None:
                obs.tracer.end(span, time_us, state=record.state.value)
        # Freed capacity: place queued work immediately, then wake the
        # scheduler actor so it can notice overall completion.
        self._try_place_queued(time_us)
        if self.engine is not None:
            self.engine.signal(self.wake_key, time_us)

    def _reap_failed_ranks(self, now):
        """Re-check running jobs whose leased devices died (fault churn).

        With preemption, a running job that lost a leased rank is
        checkpoint-evicted and requeued at *full* size first (the rejoin
        path), so its next placement re-forms the whole group on healthy
        devices.  Jobs past their preemption budget, and every job without
        preemption, finish degraded once their survivors are done.  A crash
        can land *after* every surviving rank already finished, in which case
        no further completion hook will ever fire for the job.
        """
        if self.preemption:
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
        for record in self.jobs.values():
            if record.state is JobState.RUNNING:
                self._maybe_finish(record, now)

    # -- checkpoint / restore --------------------------------------------------

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
                self.runner.backend, record.job_id,
                getattr(run.plan, "local_rank", None))
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

    # -- migration and elastic growth ------------------------------------------

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
                "migration needs preemption on a backend that can quiesce jobs"
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

    def grow_cluster(self, node=None, time_us=None):
        """Add a node to the live cluster and place queued work on it."""
        now = self.now if time_us is None else time_us
        added = self.cluster.add_node(node, time_us=now)
        self.grow_events += 1
        self.events.append((now, "grow", self.cluster.spec.nodes[-1].name))
        obs = self._obs()
        if obs is not None:
            obs.metrics.counter("cluster_grow_events").inc()
            obs.tracer.event("cluster-grow", "scheduler", now,
                             attrs={"devices": [d.name for d in added],
                                    "world_size": self.cluster.world_size})
        self._try_place_queued(now)
        return added

    # -- collection ------------------------------------------------------------

    def finalize(self, total_time_us):
        """Mark never-finished jobs, collect per-job results, return records.

        Call after ``engine.run()`` returns (completion, deadline or recorded
        deadlock).  Arrivals the run never reached (a deadline cut before
        their arrival time) are admitted as unfinished/never-placed records,
        so summary denominators always cover the whole submitted stream.
        """
        while self._pending_arrivals:
            spec = self._pending_arrivals.pop(0)
            self.jobs[spec.job_id] = JobRecord(spec=spec)
        for record in self.jobs.values():
            if not record.terminal:
                record.state = JobState.UNFINISHED
            if record.lease is not None:
                self.runner.collect(record, total_time_us)
        return sorted(self.jobs.values(), key=lambda record: record.job_id)

    # -- metrics ---------------------------------------------------------------

    def job_rows(self):
        return [record.row() for record in
                sorted(self.jobs.values(), key=lambda record: record.job_id)]

    def summary(self, total_time_us=None):
        """Aggregate multi-tenant metrics over every admitted job.

        ``never_placed`` counts unfinished jobs that were never placed (the
        cluster lacked capacity); rejected jobs are an admission-policy
        outcome and are excluded from it.  ``starved`` counts jobs that ended
        unfinished without ever being placed — the no-starvation claim is
        ``starved == 0`` over a saturating stream.
        """
        records = list(self.jobs.values())
        finished = [record for record in records if record.finished]
        unfinished = [record for record in records if not record.finished]
        rejected = sum(1 for record in records
                       if record.state is JobState.REJECTED)
        # Unfinished jobs split into never-placed (queued to the end: the
        # cluster lacked capacity) and placed-but-stuck (wedged, or cut off
        # by the caller's deadline).  Whether "stuck" means *deadlocked* is
        # the engine's call — the bench layer gates on the deadlock report.
        placed_unfinished = [record for record in unfinished
                             if record.lease is not None]
        jcts = [record.jct_us for record in finished if record.jct_us is not None]
        queueing = [record.queueing_delay_us for record in records
                    if record.queueing_delay_us is not None]
        slo_evaluated = [record for record in records
                         if record.slo_attained is not None]
        completed_samples = sum(record.samples_processed for record in finished)
        makespan = total_time_us
        if makespan is None:
            makespan = max((record.finish_time_us for record in finished),
                           default=0.0)
        return {
            "jobs": len(records),
            "completed": len(finished),
            "degraded": sum(1 for record in finished
                            if record.state is JobState.DEGRADED),
            "unfinished": len(unfinished),
            "never_placed": max(0, len(unfinished) - len(placed_unfinished)
                                - rejected),
            "stuck_ratio": (len(placed_unfinished) / len(records)) if records else 0.0,
            "mean_jct_us": (sum(jcts) / len(jcts)) if jcts else None,
            "max_jct_us": max(jcts) if jcts else None,
            "mean_queueing_delay_us": (sum(queueing) / len(queueing))
                                      if queueing else None,
            "aggregate_goodput_samples_per_s": (
                completed_samples / (makespan / 1e6) if makespan else 0.0
            ),
            "slo_attainment": (
                sum(1 for record in slo_evaluated if record.slo_attained)
                / len(slo_evaluated) if slo_evaluated else None
            ),
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
        }


def install_scheduler(cluster, runner, specs, policy="packed", tenants_per_gpu=2,
                      **options):
    """Create a scheduler, admit ``specs`` and register it with the engine.

    ``options`` are the remaining :class:`ClusterScheduler` keywords
    (``preemption``, ``max_preemptions_per_job``, ``starvation_boost_us``,
    ``quotas``, ``name``).
    """
    scheduler = ClusterScheduler(cluster, runner, policy=policy,
                                 tenants_per_gpu=tenants_per_gpu, **options)
    scheduler.submit_all(specs)
    cluster.engine.add_actor(scheduler)
    return scheduler
