"""NCCL baseline: dedicated busy-waiting collective kernels.

The baseline reproduces the properties of NCCL that make it deadlock-prone
(Sec. 2.3): each collective call launches a dedicated kernel onto a CUDA
stream; once resident, the kernel holds its blocks and busy-waits indefinitely
on its connectors until every peer is ready; there is no preemption.  The
launch order, stream assignment and GPU synchronization are entirely up to the
application, which is exactly how the circular dependencies of Fig. 1 arise.
"""

from repro.ncclsim.kernels import NcclCollectiveKernel, grid_size_for
from repro.ncclsim.mpi_baseline import mpi_all_reduce_time_us
from repro.ncclsim.ops import NcclCollectiveOp

__all__ = [
    "NcclCollectiveKernel",
    "NcclCollectiveOp",
    "grid_size_for",
    "mpi_all_reduce_time_us",
]
