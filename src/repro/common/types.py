"""Core enums and small value types shared across the library."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class DataType(enum.Enum):
    """Element types supported by collectives (mirrors ``ncclDataType_t``)."""

    INT8 = ("int8", 1)
    UINT8 = ("uint8", 1)
    INT32 = ("int32", 4)
    UINT32 = ("uint32", 4)
    INT64 = ("int64", 8)
    UINT64 = ("uint64", 8)
    FLOAT16 = ("float16", 2)
    BFLOAT16 = ("bfloat16", 2)
    FLOAT32 = ("float32", 4)
    FLOAT64 = ("float64", 8)

    def __init__(self, label, nbytes):
        self.label = label
        self.nbytes = nbytes

    def byte_size(self, count):
        """Return the buffer size in bytes for ``count`` elements."""
        return self.nbytes * count


class ReduceOp(enum.Enum):
    """Reduction operators supported by reducing collectives."""

    SUM = "sum"
    PROD = "prod"
    MAX = "max"
    MIN = "min"
    AVG = "avg"


class CollectiveKind(enum.Enum):
    """The collective operations provided by both NCCL and DFCCL."""

    ALL_REDUCE = "all_reduce"
    ALL_GATHER = "all_gather"
    REDUCE_SCATTER = "reduce_scatter"
    REDUCE = "reduce"
    BROADCAST = "broadcast"
    SEND_RECV = "send_recv"
    ALL_TO_ALL = "all_to_all"

    @property
    def reduces(self):
        """Whether the collective applies a reduction operator."""
        return self in (
            CollectiveKind.ALL_REDUCE,
            CollectiveKind.REDUCE_SCATTER,
            CollectiveKind.REDUCE,
        )

    @property
    def rooted(self):
        """Whether the collective's semantics depend on a specific root rank."""
        return self in (CollectiveKind.BROADCAST, CollectiveKind.REDUCE)


class PrimitiveAction(enum.Flag):
    """Basic actions a collective primitive is fused from (Sec. 4.1)."""

    NONE = 0
    SEND = enum.auto()
    RECV = enum.auto()
    REDUCE = enum.auto()
    COPY = enum.auto()


class LinkType(enum.Enum):
    """Interconnect link classes with paper-testbed-inspired defaults.

    ``alpha_us`` is the per-message latency, ``beta_gbps`` the sustained
    bandwidth in GB/s.  The values are calibrated so that the simulated
    bandwidth/latency curves have the same shape as the paper's Fig. 8.
    """

    SHM_PIX = ("shm_pix", 1.6, 11.0)
    SHM_SYS = ("shm_sys", 2.4, 8.0)
    NVLINK = ("nvlink", 1.0, 40.0)
    RDMA = ("rdma", 5.0, 6.0)
    LOOPBACK = ("loopback", 0.2, 200.0)

    def __init__(self, label, alpha_us, beta_gbps):
        self.label = label
        self.alpha_us = alpha_us
        self.beta_gbps = beta_gbps


@dataclass(frozen=True)
class DeviceId:
    """Globally unique identifier of a simulated GPU."""

    node: int
    local_rank: int

    def __str__(self):
        return f"node{self.node}:gpu{self.local_rank}"


@dataclass(frozen=True)
class CollectiveSpec:
    """Immutable description of a registered collective.

    The spec corresponds to the arguments of ``dfcclRegister*`` in the paper:
    the operation kind, element count and type, the reduction operator, the
    participating device set, the root (for rooted collectives) and an optional
    user priority.
    """

    kind: CollectiveKind
    count: int
    dtype: DataType = DataType.FLOAT32
    op: ReduceOp = ReduceOp.SUM
    root: int = 0
    priority: int = 0
    #: Optional per-collective algorithm hint ("ring" / "tree" /
    #: "hierarchical" / "auto").  ``None`` defers to the backend-level knob;
    #: validation happens at algorithm-resolution time
    #: (:meth:`repro.collectives.AlgorithmSelector.resolve`), keeping this
    #: module free of collective-layer imports.
    algorithm: str = None

    @property
    def nbytes(self):
        """Total input buffer size in bytes."""
        return self.dtype.byte_size(self.count)

    def validate(self):
        """Raise ``ValueError`` for specs that no backend could execute."""
        if self.count <= 0:
            raise ValueError(f"collective count must be positive, got {self.count}")
        if self.root < 0:
            raise ValueError(f"collective root must be non-negative, got {self.root}")
        if self.kind.reduces and self.op is None:
            raise ValueError(f"{self.kind.value} requires a reduction operator")
        return self
