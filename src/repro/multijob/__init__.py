"""Multi-tenant job scheduling (``repro.multijob``).

The paper's failure mode — dedicated collective kernels holding SM resources
while waiting on peers — compounds when *multiple jobs* share GPUs: one job's
resident kernels can fence another job's kernels out of the SM slots they
need to unblock the first job's peers, a hold-and-wait cycle that spans job
boundaries.  This package turns the simulated cluster into a shared one:

* :mod:`repro.multijob.jobs` — the :class:`JobSpec` admission schema and
  per-job lifecycle records with JCT / queueing-delay / goodput / SLO
  metrics;
* :mod:`repro.multijob.arrivals` — seeded open-loop arrival generation with
  Zipf-distributed tenant demand;
* :mod:`repro.multijob.placement` — ``packed`` / ``spread`` /
  ``nvlink-affine`` device-lease policies;
* :mod:`repro.multijob.scheduler` — the :class:`ClusterScheduler` actor:
  admission, quotas, backfilling placement, lease recycling, failure
  reaping, and (opt-in) priority preemption, rejoin, migration and live
  cluster growth;
* :mod:`repro.multijob.checkpoint` — the :class:`JobCheckpoint` an evicted
  job resumes from;
* :mod:`repro.multijob.runtime` — per-job backend contexts: one shared
  DFCCL daemon per GPU across all tenants, or dedicated NCCL kernels per
  job that contend for SM block slots.

One driver, :func:`repro.bench.run_multijob`, builds and runs a shared
cluster for every experiment in :mod:`repro.bench.multijob_experiments`
(including the preemption ablation) and for the elastic fuzzer in
:mod:`repro.testing.elastic`.
"""

from repro.multijob.arrivals import estimate_standalone_us, generate_jobs, zipf_weights
from repro.multijob.checkpoint import JobCheckpoint, collective_fingerprints
from repro.multijob.jobs import MODEL_FACTORIES, JobRecord, JobSpec, JobState
from repro.multijob.placement import (
    PLACEMENT_POLICIES,
    DeviceLease,
    NvlinkAffinePolicy,
    PackedPolicy,
    PlacementPolicy,
    SpreadPolicy,
    make_placement_policy,
)
from repro.multijob.runtime import ClusterJobRunner, RankMappedPlan
from repro.multijob.scheduler import ClusterScheduler, install_scheduler

__all__ = [
    "MODEL_FACTORIES",
    "PLACEMENT_POLICIES",
    "ClusterJobRunner",
    "ClusterScheduler",
    "DeviceLease",
    "JobCheckpoint",
    "JobRecord",
    "JobSpec",
    "JobState",
    "NvlinkAffinePolicy",
    "PackedPolicy",
    "PlacementPolicy",
    "RankMappedPlan",
    "SpreadPolicy",
    "collective_fingerprints",
    "estimate_standalone_us",
    "generate_jobs",
    "install_scheduler",
    "make_placement_policy",
    "zipf_weights",
]
