"""Analytic CUDA-aware MPI baseline for the Sec. 2.1 comparison.

The paper motivates NCCL by showing its all-reduce throughput exceeds
CUDA-aware MPI by up to 6.7x once the buffer exceeds 32 KB.  We model the MPI
path analytically: a host-staged ring all-reduce with a much higher
per-message latency and a much lower effective bandwidth than the on-GPU NCCL
path, which is sufficient to reproduce the crossover and the large-buffer gap.
"""

from __future__ import annotations

#: Per-message software latency of the MPI path (us).
MPI_ALPHA_US = 18.0
#: Effective staging bandwidth through host memory (GB/s).
MPI_BETA_GBPS = 1.4


def mpi_all_reduce_time_us(nbytes, world_size):
    """Ring all-reduce time: 2(n-1) steps of n-th sized chunks."""
    if world_size <= 1:
        return MPI_ALPHA_US
    steps = 2 * (world_size - 1)
    chunk = nbytes / world_size
    return steps * (MPI_ALPHA_US + chunk / (MPI_BETA_GBPS * 1e3))
