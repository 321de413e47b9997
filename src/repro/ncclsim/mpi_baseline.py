"""Analytic CUDA-aware MPI baseline for the Sec. 2.1 comparison.

The paper motivates NCCL by showing its all-reduce throughput exceeds
CUDA-aware MPI by up to 6.7x once the buffer exceeds 32 KB.  We model the MPI
path analytically: a host-staged ring all-reduce with a much higher
per-message latency and a much lower effective bandwidth than the on-GPU NCCL
path, which is sufficient to reproduce the crossover and the large-buffer gap.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CudaAwareMpiModel:
    """Alpha/beta model of CUDA-aware MPI all-reduce."""

    #: Per-message software latency of the MPI path (us).
    alpha_us: float = 18.0
    #: Effective staging bandwidth through host memory (GB/s).
    beta_gbps: float = 1.4

    def all_reduce_time_us(self, nbytes, world_size):
        """Ring all-reduce time: 2(n-1) steps of n-th sized chunks."""
        if world_size <= 1:
            return self.alpha_us
        steps = 2 * (world_size - 1)
        chunk = nbytes / world_size
        return steps * (self.alpha_us + chunk / (self.beta_gbps * 1e3))
