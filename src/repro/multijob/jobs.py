"""Job specifications and per-job lifecycle records.

A :class:`JobSpec` is the unit of admission to the multi-tenant cluster: a
model, a (tp, dp, pp) parallelism grid, a priority, an arrival time and an
optional SLO.  The scheduler turns an admitted spec into a :class:`JobRecord`
tracking the lease, the lifecycle timestamps, and the metrics an operator
reads off a multi-tenant cluster — queueing delay, job completion time (JCT),
goodput and SLO attainment.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError
from repro.workloads.models import gpt2_model, resnet50_model, vit_model
from repro.workloads.parallelism import ParallelPlan

#: Models a tenant may request, by name (the JobSpec schema's ``model`` field).
MODEL_FACTORIES = {
    "resnet50": resnet50_model,
    "vit": vit_model,
    "gpt2-small": lambda: gpt2_model("small"),
}


class JobState(enum.Enum):
    """Lifecycle of a job on the shared cluster."""

    QUEUED = "queued"          # admitted, waiting for a device lease
    RUNNING = "running"        # leased and executing
    COMPLETED = "completed"    # every rank finished
    DEGRADED = "degraded"      # survivors finished after losing leased ranks
    UNFINISHED = "unfinished"  # still incomplete at collection (deadlock/stuck)
    REJECTED = "rejected"      # refused at admission (e.g. over tenant quota)


@dataclass(frozen=True)
class JobSpec:
    """One tenant's training job (the documented multi-tenant schema)."""

    job_id: str
    model: str = "resnet50"
    tp: int = 1
    dp: int = 2
    pp: int = 1
    iterations: int = 2
    warmup: int = 0
    microbatch_size: int = 32
    num_microbatches: int = 1
    grad_buckets: int = 2
    priority: int = 0
    arrival_time_us: float = 0.0
    slo_us: float = None
    #: Tenant (billing account) the job belongs to; ``None`` is the default
    #: tenant.  The scheduler's per-tenant quotas key off this.
    tenant: str = None

    @property
    def world_size(self):
        return self.tp * self.dp * self.pp

    def validate(self):
        if not self.job_id:
            raise ConfigurationError("a job needs a non-empty job_id")
        if self.model not in MODEL_FACTORIES:
            raise ConfigurationError(
                f"unknown model {self.model!r}; choose from {sorted(MODEL_FACTORIES)}"
            )
        if self.tp < 1 or self.dp < 1 or self.pp < 1:
            raise ConfigurationError("tp, dp and pp must all be at least 1")
        if self.iterations <= self.warmup:
            raise ConfigurationError("iterations must exceed warmup")
        if self.arrival_time_us < 0:
            raise ConfigurationError(
                f"arrival time must be non-negative, got {self.arrival_time_us}"
            )
        if self.slo_us is not None and self.slo_us <= 0:
            raise ConfigurationError(f"slo_us must be positive, got {self.slo_us}")
        return self

    @property
    def total_samples(self):
        """Samples the job processes over its measured iterations."""
        return self.microbatch_size * self.num_microbatches * self.dp * self.iterations

    def build_plan(self):
        """The job-local :class:`ParallelPlan` (ranks 0..world_size-1)."""
        model = MODEL_FACTORIES[self.model]()
        return ParallelPlan(
            model,
            tp=self.tp, dp=self.dp, pp=self.pp,
            microbatch_size=self.microbatch_size,
            num_microbatches=self.num_microbatches,
            grad_buckets=self.grad_buckets,
        )

    def describe(self):
        """Plain-dict form (the documented JobSpec schema)."""
        return {
            "job_id": self.job_id,
            "model": self.model,
            "tp": self.tp, "dp": self.dp, "pp": self.pp,
            "world_size": self.world_size,
            "iterations": self.iterations,
            "priority": self.priority,
            "arrival_time_us": self.arrival_time_us,
            "slo_us": self.slo_us,
            "tenant": self.tenant,
        }


@dataclass
class JobRecord:
    """Mutable per-job state the scheduler maintains."""

    spec: JobSpec
    state: JobState = JobState.QUEUED
    lease: object = None                     # DeviceLease once placed
    start_time_us: float = None              # first lease grant time
    finish_time_us: float = None
    ranks_done: dict = field(default_factory=dict)   # global rank -> time_us
    result: object = None                    # TrainingResult once collected
    # -- preemption state (checkpoint-restore / migration / rejoin) -----------
    preemptions: int = 0                     # times evicted mid-run
    epoch: int = 0                           # placements so far (0 = fresh)
    completed_iterations: int = 0            # cumulative across epochs
    checkpoint: object = None                # JobCheckpoint while evicted

    # -- metrics ---------------------------------------------------------------

    @property
    def job_id(self):
        return self.spec.job_id

    @property
    def finished(self):
        return self.state in (JobState.COMPLETED, JobState.DEGRADED)

    @property
    def terminal(self):
        return self.finished or self.state in (JobState.UNFINISHED,
                                               JobState.REJECTED)

    @property
    def queueing_delay_us(self):
        if self.start_time_us is None:
            return None
        return self.start_time_us - self.spec.arrival_time_us

    @property
    def jct_us(self):
        """Job completion time: arrival to last rank completion."""
        if self.finish_time_us is None:
            return None
        return self.finish_time_us - self.spec.arrival_time_us

    @property
    def samples_processed(self):
        """Samples actually pushed through, discounting ranks lost to crashes.

        A degraded job's crashed ranks stopped contributing; crediting the
        full ``total_samples`` would inflate goodput for exactly the jobs a
        churn experiment is about.  The surviving-rank fraction is an
        estimate (exact per-rank sample accounting is below the fidelity of
        the compute model) but it is conservative and monotone in the loss.
        """
        if not self.finished:
            return 0
        if self.state is JobState.COMPLETED or self.lease is None:
            return self.spec.total_samples
        fraction = len(self.ranks_done) / max(1, len(self.lease.ranks))
        return int(self.spec.total_samples * fraction)

    @property
    def goodput_samples_per_s(self):
        """Samples per second over the whole arrival-to-completion span."""
        jct = self.jct_us
        if not jct or not self.finished:
            return 0.0
        return self.samples_processed / (jct / 1e6)

    @property
    def slo_attained(self):
        """Whether the job finished within its SLO (None when no SLO set).

        Rejected jobs are not evaluated: admission control refused them by
        policy, so they never had an SLO window to attain.
        """
        if self.spec.slo_us is None or self.state is JobState.REJECTED:
            return None
        return self.finished and self.jct_us is not None \
            and self.jct_us <= self.spec.slo_us

    def row(self):
        """One metrics row (the shape ``bench.multijob_experiments`` reports)."""
        return {
            "job": self.job_id,
            "model": self.spec.model,
            "world_size": self.spec.world_size,
            "priority": self.spec.priority,
            "tenant": self.spec.tenant,
            "state": self.state.value,
            "arrival_us": self.spec.arrival_time_us,
            "queueing_delay_us": self.queueing_delay_us,
            "jct_us": self.jct_us,
            "goodput_samples_per_s": self.goodput_samples_per_s,
            "slo_attained": self.slo_attained,
            "leased_ranks": tuple(self.lease.ranks) if self.lease else (),
            "preemptions": self.preemptions,
            "epoch": self.epoch,
            "completed_iterations": self.completed_iterations,
            "checkpoint": (self.checkpoint.describe()
                           if self.checkpoint else None),
        }
