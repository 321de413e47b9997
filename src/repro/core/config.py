"""Tunable parameters of DFCCL.

The scheduling defaults trade busy-waiting time against context-switch and
queueing overheads, the trade-off of expression (2) in the paper.  The paper
picks them with an automated profiler (Sec. 4.3 / 4.5); here they are fixed
values, and every simulated time in the benchmarks depends on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.collectives.cost import CostModel
from repro.collectives.selector import ALGORITHM_CHOICES


@dataclass(frozen=True)
class DfcclConfig:
    """Configuration of one DFCCL instance (shared by every rank)."""

    # -- data plane ------------------------------------------------------------
    #: Ring-slice chunk size used when compiling primitive sequences.
    chunk_bytes: int = 128 << 10
    #: Collective algorithm: "ring", "tree", or "auto" (topology-aware
    #: selection per registered collective, mirroring NCCL's tuner).
    algorithm: str = "ring"
    #: Connector FIFO depth.
    channel_capacity: int = 8
    #: Primitive cost model (shared with the NCCL baseline for fair comparison).
    cost_model: CostModel = field(default_factory=CostModel)

    # -- queues ------------------------------------------------------------------
    #: Submission queue capacity (SQEs).
    sq_capacity: int = 1024
    #: Completion queue capacity (CQEs).
    cq_capacity: int = 1024
    #: Completion queue implementation: "vanilla", "optimized-ring", "optimized-cas".
    cq_variant: str = "optimized-cas"

    # -- scheduling ----------------------------------------------------------------
    #: Ordering policy: "fifo" or "priority".
    ordering: str = "fifo"
    #: Spin-threshold policy: "adaptive" or "naive".
    spin_policy: str = "adaptive"
    #: Initial spin threshold (polls) for the collective at the task queue front.
    initial_spin_threshold: int = 20_000
    #: Multiplicative decay of the initial threshold per queue position.
    spin_position_decay: float = 0.5
    #: Floor for the initial spin threshold of any queue position.
    min_spin_threshold: int = 2_000
    #: Threshold multiplier applied after a primitive succeeds (gang scheduling).
    spin_success_boost: float = 20.0
    #: Fixed threshold used by the naive policy (the Fig. 11 case study).
    naive_spin_threshold: int = 10_000
    #: Polls attempted per daemon step when spinning (simulation granularity).
    spin_batch: int = 20_000
    #: Maximum number of back-to-back primitive successes per daemon step.
    primitives_per_step: int = 8

    # -- daemon lifecycle --------------------------------------------------------------
    #: Daemon voluntarily quits after this long without fetching an SQE or
    #: making progress (us).
    quit_period_us: float = 600.0
    #: Virtual time one idle SQ-polling step of the daemon covers (us).
    idle_poll_interval_us: float = 5.0
    #: Poller wake-up interval while collectives are outstanding (us).
    poller_interval_us: float = 40.0
    #: Minimum downtime before the poller relaunches a voluntarily-quit daemon (us).
    relaunch_delay_us: float = 100.0
    #: Per-CQE callback execution cost on the CPU (us).
    callback_cost_us: float = 0.8

    # -- fault tolerance / elastic recovery -------------------------------------------------
    #: Enable crash detection and elastic group-shrink recovery.
    recovery_enabled: bool = True
    #: An in-flight collective whose CQE has not arrived after this long is
    #: checked for failed participants (CQE-timeout crash detection).
    crash_detect_timeout_us: float = 1500.0
    #: Recovery manager scan interval while collectives are outstanding (us).
    recovery_poll_interval_us: float = 250.0
    #: Maximum recoveries per collective before giving up (guards against
    #: cascading failures eating the whole group).
    max_recoveries_per_collective: int = 8

    # -- context management ----------------------------------------------------------------
    #: Active context slots per block in shared memory (direct-mapped cache).
    active_context_slots: int = 4
    #: Per-collective context size in the global-memory context buffer (bytes).
    context_bytes_per_collective: int = 4 << 10
    #: Shared-memory bytes per task-queue entry.
    task_queue_entry_bytes: int = 12
    #: Shared-memory bytes per active context slot.
    active_slot_bytes: int = 256
    #: Global-memory bytes per collective for completion counters and metadata.
    counter_bytes_per_collective: int = 8
    #: Fixed global-memory bytes for SQ/CQ pointers and kernel bookkeeping.
    fixed_global_bytes: int = 3 << 10

    # -- timing constants (Fig. 7) -----------------------------------------------------------
    #: Reading one SQE from page-locked host memory (us).
    sqe_read_cost_us: float = 5.3
    #: Parsing an SQE inside the daemon kernel (us).
    sqe_parse_cost_us: float = 0.75
    #: Loading a collective's context into shared memory (us).
    context_load_cost_us: float = 0.45
    #: Saving a collective's dynamic context to global memory (us).
    context_save_cost_us: float = 0.05
    #: One host-memory access from the GPU when writing a CQE (us).
    host_memory_op_cost_us: float = 1.2
    #: Memory fence cost on the CQE path (us).
    memory_fence_cost_us: float = 1.1
    #: Single 64-bit atomicCAS_system to host memory (us).
    cas_system_cost_us: float = 2.0
    #: Cost of polling an empty SQ once (us).
    sq_poll_cost_us: float = 0.3

    def with_overrides(self, **kwargs):
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def validate(self):
        if self.algorithm not in ALGORITHM_CHOICES:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.cq_variant not in ("vanilla", "optimized-ring", "optimized-cas"):
            raise ValueError(f"unknown cq_variant {self.cq_variant!r}")
        if self.ordering not in ("fifo", "priority"):
            raise ValueError(f"unknown ordering policy {self.ordering!r}")
        if self.spin_policy not in ("adaptive", "naive"):
            raise ValueError(f"unknown spin policy {self.spin_policy!r}")
        if self.initial_spin_threshold <= 0:
            raise ValueError("initial_spin_threshold must be positive")
        if not 0 < self.spin_position_decay <= 1:
            raise ValueError("spin_position_decay must be in (0, 1]")
        if self.spin_success_boost < 1:
            raise ValueError("spin_success_boost must be at least 1")
        if self.crash_detect_timeout_us <= 0:
            raise ValueError("crash_detect_timeout_us must be positive")
        if self.recovery_poll_interval_us <= 0:
            raise ValueError("recovery_poll_interval_us must be positive")
        if self.max_recoveries_per_collective < 1:
            raise ValueError("max_recoveries_per_collective must be at least 1")
        return self


DEFAULT_CONFIG = DfcclConfig()
