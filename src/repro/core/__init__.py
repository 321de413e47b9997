"""DFCCL — the Deadlock Free Collective Communication Library (the paper's contribution).

The package mirrors the architecture of Fig. 4:

* CPU side: the per-GPU :class:`RankContext` (created, registered on and
  destroyed by ``repro.api``'s DFCCL adapter, submitted to through a
  ``repro.api.Work``), the submission queue (SQ), the completion queue (CQ,
  in three implementation variants), and the poller thread, which delivers
  completions and runs their callbacks.
* GPU side: the daemon kernel, which fetches SQEs, keeps collectives in its
  task queue, executes their primitives in a two-phase-blocking manner with
  spin thresholds, preempts stuck collectives via context switch, writes CQEs,
  and voluntarily quits when idle or when nothing can progress.

Scheduling (Sec. 4.3) is provided by the adaptive stickiness adjustment
scheme: an ordering policy (FIFO or priority based) plus a spin-threshold
policy (naive fixed or adaptive gang-scheduling).
"""

from repro.core.api import RankContext
from repro.core.communicator_pool import CommunicatorPool
from repro.core.config import DfcclConfig
from repro.core.context import ActiveContextCache
from repro.core.daemon import DaemonKernel
from repro.core.recovery import RecoveryEvent, RecoveryManager, RecoveryStats
from repro.core.queues import (
    CompletionQueueBase,
    OptimizedCasCQ,
    OptimizedRingCQ,
    SubmissionQueue,
    VanillaRingCQ,
    make_completion_queue,
)
from repro.core.registration import RegisteredCollective
from repro.core.scheduling import (
    AdaptiveSpinPolicy,
    FifoOrderingPolicy,
    NaiveSpinPolicy,
    PriorityOrderingPolicy,
)

__all__ = [
    "ActiveContextCache",
    "AdaptiveSpinPolicy",
    "CommunicatorPool",
    "CompletionQueueBase",
    "DaemonKernel",
    "DfcclConfig",
    "FifoOrderingPolicy",
    "NaiveSpinPolicy",
    "OptimizedCasCQ",
    "OptimizedRingCQ",
    "PriorityOrderingPolicy",
    "RankContext",
    "RecoveryEvent",
    "RecoveryManager",
    "RecoveryStats",
    "RegisteredCollective",
    "SubmissionQueue",
    "VanillaRingCQ",
    "make_completion_queue",
]
