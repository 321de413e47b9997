"""DFCCL's settable values and its fixed parameters.

:class:`DfcclConfig` holds the values callers vary.  Everything else is a
module constant below: the scheduling defaults trade busy-waiting time
against context-switch and queueing overheads, the trade-off of expression
(2) in the paper.  The paper picks them with an automated profiler (Sec. 4.3
/ 4.5); here they are fixed values, and every simulated time in the
benchmarks depends on them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collectives.selector import ALGORITHM_CHOICES
from repro.collectives.sequences import DEFAULT_CHUNK_BYTES

# -- queues ------------------------------------------------------------------
#: Submission queue capacity (SQEs).
SQ_CAPACITY = 1024
#: Completion queue capacity (CQEs).
CQ_CAPACITY = 1024

# -- scheduling ----------------------------------------------------------------
#: Initial spin threshold (polls) for the collective at the task queue front.
INITIAL_SPIN_THRESHOLD = 20_000
#: Multiplicative decay of the initial threshold per queue position.
SPIN_POSITION_DECAY = 0.5
#: Floor for the initial spin threshold of any queue position.
MIN_SPIN_THRESHOLD = 2_000
#: Threshold multiplier applied after a primitive succeeds (gang scheduling).
SPIN_SUCCESS_BOOST = 20.0
#: Highest threshold success boosts reach.
SPIN_THRESHOLD_CEILING = INITIAL_SPIN_THRESHOLD * SPIN_SUCCESS_BOOST
#: Fixed threshold used by the naive policy (the Fig. 11 case study).
NAIVE_SPIN_THRESHOLD = 10_000
#: First spin quantum (polls) of a failing retry, and the quantum a success
#: resets it to.
INITIAL_SPIN_QUANTUM = 500
#: Largest spin quantum (polls).  A spinning daemon burns its budget in
#: quanta doubling from ``INITIAL_SPIN_QUANTUM`` up to this cap; a quantum is
#: the granularity at which a retry can see new data, so it fixes the virtual
#: time.  It does not cost engine steps: the retries of a wait are passed
#: without a step and replayed when it ends.
SPIN_BATCH = 20_000

# -- daemon lifecycle --------------------------------------------------------------
#: Daemon voluntarily quits after this long without fetching an SQE or
#: making progress (us).
QUIT_PERIOD_US = 600.0
#: Virtual time one idle SQ-polling step of the daemon covers (us).
IDLE_POLL_INTERVAL_US = 5.0
#: Poller wake-up interval while collectives are outstanding (us).
POLLER_INTERVAL_US = 40.0
#: Minimum downtime before the poller relaunches a voluntarily-quit daemon (us).
RELAUNCH_DELAY_US = 100.0
#: Per-CQE callback execution cost on the CPU (us).
CALLBACK_COST_US = 0.8

# -- fault tolerance / elastic recovery -------------------------------------------------
#: Recovery manager scan interval while collectives are outstanding (us).
RECOVERY_POLL_INTERVAL_US = 250.0
#: Maximum recoveries per collective before giving up (guards against
#: cascading failures eating the whole group).
MAX_RECOVERIES_PER_COLLECTIVE = 8

# -- context management ----------------------------------------------------------------
#: Active context slots per block in shared memory (direct-mapped cache).
ACTIVE_CONTEXT_SLOTS = 4
#: Per-collective context size in the global-memory context buffer (bytes).
CONTEXT_BYTES_PER_COLLECTIVE = 4 << 10
#: Shared-memory bytes per task-queue entry.
TASK_QUEUE_ENTRY_BYTES = 12
#: Shared-memory bytes per active context slot.
ACTIVE_SLOT_BYTES = 256
#: Global-memory bytes per collective for completion counters and metadata.
COUNTER_BYTES_PER_COLLECTIVE = 8
#: Fixed global-memory bytes for SQ/CQ pointers and kernel bookkeeping.
FIXED_GLOBAL_BYTES = 3 << 10

# -- timing constants (Fig. 7) -----------------------------------------------------------
#: Reading one SQE from page-locked host memory (us).
SQE_READ_COST_US = 5.3
#: Parsing an SQE inside the daemon kernel (us).
SQE_PARSE_COST_US = 0.75
#: Loading a collective's context into shared memory (us).
CONTEXT_LOAD_COST_US = 0.45
#: Saving a collective's dynamic context to global memory (us).
CONTEXT_SAVE_COST_US = 0.05
#: One host-memory access from the GPU when writing a CQE (us).
HOST_MEMORY_OP_COST_US = 1.2
#: Memory fence cost on the CQE path (us).
MEMORY_FENCE_COST_US = 1.1
#: Single 64-bit atomicCAS_system to host memory (us).
CAS_SYSTEM_COST_US = 2.0
#: Cost of polling an empty SQ once (us).
SQ_POLL_COST_US = 0.3


@dataclass(frozen=True)
class DfcclConfig:
    """The settable values of one DFCCL instance (shared by every rank)."""

    #: Ring-slice chunk size used when compiling primitive sequences.
    chunk_bytes: int = DEFAULT_CHUNK_BYTES
    #: Collective algorithm: "ring", "tree", "hierarchical", or "auto"
    #: (topology-aware selection per registered collective, mirroring
    #: NCCL's tuner).
    algorithm: str = "ring"
    #: Completion queue implementation: "vanilla", "optimized-ring", "optimized-cas".
    cq_variant: str = "optimized-cas"
    #: Ordering policy: "fifo" or "priority".
    ordering: str = "fifo"
    #: Spin-threshold policy: "adaptive" or "naive".
    spin_policy: str = "adaptive"
    #: Enable crash detection and elastic group-shrink recovery.
    recovery_enabled: bool = True
    #: An in-flight collective whose CQE has not arrived after this long is
    #: checked for failed participants (CQE-timeout crash detection).
    crash_detect_timeout_us: float = 1500.0

    def validate(self):
        if self.algorithm not in ALGORITHM_CHOICES:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.cq_variant not in ("vanilla", "optimized-ring", "optimized-cas"):
            raise ValueError(f"unknown cq_variant {self.cq_variant!r}")
        if self.ordering not in ("fifo", "priority"):
            raise ValueError(f"unknown ordering policy {self.ordering!r}")
        if self.spin_policy not in ("adaptive", "naive"):
            raise ValueError(f"unknown spin policy {self.spin_policy!r}")
        if self.crash_detect_timeout_us <= 0:
            raise ValueError("crash_detect_timeout_us must be positive")
        return self
