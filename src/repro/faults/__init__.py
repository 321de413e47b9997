"""Fault injection and chaos scenarios (``repro.faults``).

The paper's evaluation exercises healthy clusters; this package adds the
degraded-resource conditions real deployments see — stragglers, link flaps,
transient kernel stalls, rank crashes — as first-class, reproducible events
in the discrete-event engine:

* :mod:`repro.faults.plan` — the :class:`FaultPlan` schema: composable,
  seeded schedules of :class:`FaultEvent` records;
* :mod:`repro.faults.injector` — the :class:`FaultInjector` service actor
  that replays a plan into a cluster;
* :mod:`repro.faults.scenarios` — chaos runners driving DFCCL and the NCCL
  baseline through identical plans, including the headline rank-crash
  comparison (baseline deadlocks with a wait-for cycle through the dead rank;
  DFCCL detects the crash by CQE timeout, shrinks the group and completes).
  A chaos scenario is a :mod:`repro.testing` program replayed by the
  fuzzer's driver, so import the runners from :mod:`repro.faults.scenarios`
  itself: re-exporting them here would make ``repro.faults`` import
  ``repro.testing``, which imports :mod:`repro.faults.plan` back.

The matching recovery machinery lives in :mod:`repro.core.recovery`.
"""

from repro.faults.injector import FaultInjector, install_fault_plan
from repro.faults.plan import FAULT_KINDS, AtomicAction, FaultEvent, FaultPlan

__all__ = [
    "AtomicAction",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "install_fault_plan",
]
