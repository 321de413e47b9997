"""Collective algorithm layer shared by the NCCL baseline and DFCCL.

This package implements the data-plane concepts of Sec. 4.1 of the paper:

* the four buffers used by a collective (send/recv buffers and send/recv
  connectors, the latter realized as bounded ring-buffer channels),
* the primitives that collectives are fused from (``send``, ``recv``,
  ``reduce``, ``copy`` and their fusions such as ``recvReduceSend``),
* chunking of the input buffer and compilation of the per-rank schedule
  (a loop body of primitive runs) for each algorithm with the Simple
  protocol,
* communicators, which own the inter-GPU channels,
* collective plans, which resolve a collective once per membership.

Both backends execute the *same* primitive sequences; they differ only in how
long a primitive is allowed to busy-wait (indefinitely for NCCL, up to a spin
threshold for DFCCL) and in who schedules the next primitive.
"""

from repro.collectives.channels import Channel, Communicator
from repro.collectives.plan import CollectivePlan
from repro.collectives.primitives import (
    ExecOutcome,
    Primitive,
    PrimitiveExecutor,
    PrimitiveOutcome,
    Schedule,
)
from repro.collectives.selector import (
    ALGORITHM_CHOICES,
    AlgorithmChoice,
    AlgorithmSelector,
)
from repro.collectives.sequences import (
    ALGORITHM_HIERARCHICAL,
    ALGORITHM_RING,
    ALGORITHM_TREE,
    ALGORITHMS,
    HIERARCHICAL_KINDS,
    binary_tree_relations,
    binomial_tree_relations,
    chain_relations,
    chunk_loops,
    generate_primitive_sequence,
    hierarchical_island_size,
)

__all__ = [
    "ALGORITHM_CHOICES",
    "ALGORITHM_HIERARCHICAL",
    "ALGORITHM_RING",
    "ALGORITHM_TREE",
    "ALGORITHMS",
    "HIERARCHICAL_KINDS",
    "AlgorithmChoice",
    "AlgorithmSelector",
    "Channel",
    "CollectivePlan",
    "Communicator",
    "ExecOutcome",
    "Primitive",
    "PrimitiveExecutor",
    "PrimitiveOutcome",
    "Schedule",
    "binary_tree_relations",
    "binomial_tree_relations",
    "chain_relations",
    "chunk_loops",
    "generate_primitive_sequence",
    "hierarchical_island_size",
]
