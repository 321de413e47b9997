"""Parallelism planning: per-rank, per-iteration schedules of compute and collectives.

A :class:`ParallelPlan` maps a model onto a (tp, dp, pp) grid of ranks and
generates, for every rank, the schedule of one training iteration: compute
phases interleaved with the collective operations of that rank's TP group, DP
group and PP neighbours.  Schedules use stable collective *keys* so that all
ranks of a group generate exactly the same collectives — the invocation order,
however, is up to the backend.  DFCCL tolerates any order; the NCCL baselines
rely on the plan's consistent order, and their orchestration method only adds
CPU time (:func:`~repro.workloads.backends.coordination_cost`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.common.errors import ConfigurationError
from repro.common.types import CollectiveKind


@dataclass(frozen=True)
class ComputeItem:
    """A GPU/CPU compute phase of the given duration."""

    duration_us: float
    label: str = "compute"


@dataclass(frozen=True)
class CollectiveItem:
    """One collective operation of the iteration schedule."""

    key: tuple
    kind: CollectiveKind
    count: int
    group_ranks: tuple
    priority: int = 0
    #: Optional per-collective schedule hint, carried into
    #: :attr:`CollectiveSpec.algorithm` (``None`` = backend default).
    algorithm: str = None

    @property
    def nbytes(self):
        return self.count * 4


class ParallelPlan:
    """Maps a model onto tp × dp × pp ranks and emits per-rank schedules."""

    def __init__(self, model, tp=1, dp=1, pp=1, microbatch_size=32, num_microbatches=1,
                 grad_buckets=12):
        if tp < 1 or dp < 1 or pp < 1:
            raise ConfigurationError("tp, dp and pp must all be at least 1")
        self.model = model
        self.tp = tp
        self.dp = dp
        self.pp = pp
        self.microbatch_size = microbatch_size
        self.num_microbatches = num_microbatches
        self.grad_buckets = grad_buckets

    # -- rank geometry ------------------------------------------------------------------

    @property
    def world_size(self):
        return self.tp * self.dp * self.pp

    @property
    def global_batch_size(self):
        return self.microbatch_size * self.num_microbatches * self.dp

    def ranks(self):
        """Global ranks the plan occupies, in job-local order.

        Plain plans occupy ranks ``0..world_size-1``; multi-tenant
        rank-mapped views map them onto the leased device set, which need not
        be contiguous.
        """
        return list(range(self.world_size))

    def rank(self, pp_index, dp_index, tp_index):
        return (pp_index * self.dp + dp_index) * self.tp + tp_index

    def coordinates(self, rank):
        tp_index = rank % self.tp
        dp_index = (rank // self.tp) % self.dp
        pp_index = rank // (self.tp * self.dp)
        return pp_index, dp_index, tp_index

    def tp_group(self, pp_index, dp_index):
        return tuple(self.rank(pp_index, dp_index, t) for t in range(self.tp))

    def dp_group(self, pp_index, tp_index):
        return tuple(self.rank(pp_index, d, tp_index) for d in range(self.dp))

    def stage_layers(self, pp_index):
        """Contiguous slice of model layers owned by pipeline stage ``pp_index``."""
        layers = self.model.layers
        per_stage = max(1, math.ceil(len(layers) / self.pp))
        start = pp_index * per_stage
        return layers[start:start + per_stage]

    # -- schedule generation ----------------------------------------------------------------

    def iteration_schedule(self, rank):
        """The schedule of one training iteration for ``rank``."""
        pp_index, dp_index, tp_index = self.coordinates(rank)
        stage = self.stage_layers(pp_index)
        schedule = []

        activation_count = max(
            1, int(self.microbatch_size * max(layer.activation_count for layer in stage))
        ) if stage else self.microbatch_size
        activation_count = min(activation_count, 8 << 20)

        for microbatch in range(self.num_microbatches):
            # Receive activations from the previous pipeline stage.
            if self.pp > 1 and pp_index > 0:
                peer = self.rank(pp_index - 1, dp_index, tp_index)
                schedule.append(CollectiveItem(
                    key=("pp-fwd", pp_index, dp_index, tp_index, microbatch),
                    kind=CollectiveKind.SEND_RECV,
                    count=activation_count,
                    group_ranks=(peer, rank),
                ))
            # Forward compute of this stage (divided across the TP group).
            fwd = self.model.forward_time_us(self.microbatch_size, stage) / self.tp
            schedule.append(ComputeItem(fwd, f"fwd-mb{microbatch}"))
            # TP all-reduce of the stage output activations (forward).
            if self.tp > 1:
                schedule.append(CollectiveItem(
                    key=("tp-fwd", pp_index, dp_index, microbatch),
                    kind=CollectiveKind.ALL_REDUCE,
                    count=min(activation_count, 4 << 20),
                    group_ranks=self.tp_group(pp_index, dp_index),
                ))
            # Send activations to the next stage.
            if self.pp > 1 and pp_index < self.pp - 1:
                peer = self.rank(pp_index + 1, dp_index, tp_index)
                schedule.append(CollectiveItem(
                    key=("pp-fwd", pp_index + 1, dp_index, tp_index, microbatch),
                    kind=CollectiveKind.SEND_RECV,
                    count=activation_count,
                    group_ranks=(rank, peer),
                ))

        for microbatch in range(self.num_microbatches):
            # Backward pass with bucketed gradient all-reduces in the DP group.
            buckets = _stage_buckets(self.model, stage, self.grad_buckets)
            # Receive output gradients from the next stage.
            if self.pp > 1 and pp_index < self.pp - 1:
                peer = self.rank(pp_index + 1, dp_index, tp_index)
                schedule.append(CollectiveItem(
                    key=("pp-bwd", pp_index, dp_index, tp_index, microbatch),
                    kind=CollectiveKind.SEND_RECV,
                    count=activation_count,
                    group_ranks=(peer, rank),
                ))
            for bucket_index, (bucket_layers, bucket_params) in enumerate(buckets):
                bwd = self.model.backward_time_us(self.microbatch_size, bucket_layers)
                schedule.append(ComputeItem(bwd / self.tp, f"bwd-mb{microbatch}-b{bucket_index}"))
                if self.tp > 1:
                    schedule.append(CollectiveItem(
                        key=("tp-bwd", pp_index, dp_index, microbatch, bucket_index),
                        kind=CollectiveKind.ALL_REDUCE,
                        count=min(activation_count, 4 << 20),
                        group_ranks=self.tp_group(pp_index, dp_index),
                    ))
                if self.dp > 1 and microbatch == self.num_microbatches - 1:
                    schedule.append(CollectiveItem(
                        key=("dp-grad", pp_index, tp_index, bucket_index),
                        kind=CollectiveKind.ALL_REDUCE,
                        count=max(1, bucket_params // self.tp),
                        group_ranks=self.dp_group(pp_index, tp_index),
                        priority=bucket_index,
                    ))
            # Send input gradients to the previous stage.
            if self.pp > 1 and pp_index > 0:
                peer = self.rank(pp_index - 1, dp_index, tp_index)
                schedule.append(CollectiveItem(
                    key=("pp-bwd", pp_index - 1, dp_index, tp_index, microbatch),
                    kind=CollectiveKind.SEND_RECV,
                    count=activation_count,
                    group_ranks=(rank, peer),
                ))

        # Optimizer step.
        optimizer = 0.05 * self.model.forward_time_us(self.microbatch_size, stage) / self.tp
        schedule.append(ComputeItem(optimizer, "optimizer"))
        return schedule

    def collective_items(self, rank):
        return [item for item in self.iteration_schedule(rank)
                if isinstance(item, CollectiveItem)]

    def unique_collectives(self):
        """All distinct collective items across ranks, keyed by their schedule key."""
        unique = {}
        for rank in range(self.world_size):
            for item in self.collective_items(rank):
                unique.setdefault(item.key, item)
        return unique


class MoeParallelPlan(ParallelPlan):
    """A :class:`ParallelPlan` for mixture-of-experts models.

    Experts are sharded across the data-parallel group (DeepSpeed-MoE-style
    ``ep_size == dp``): every microbatch adds a token *dispatch* all-to-all
    before expert compute and a *combine* all-to-all after it, in forward and
    mirrored in backward.  Data-parallel gradient all-reduces carry
    ``dp_algorithm`` (default ``"hierarchical"``) as their per-collective
    schedule hint — on multi-node clusters the two-level schedule keeps the
    bucketed gradient traffic mostly on intra-island links while the
    all-to-alls cross them.
    """

    def __init__(self, model, num_experts=8, top_k=2, capacity_factor=1.25,
                 dp_algorithm="hierarchical", **kwargs):
        super().__init__(model, **kwargs)
        if num_experts < 1 or not 1 <= top_k <= num_experts:
            raise ConfigurationError(
                f"need 1 <= top_k <= num_experts, got top_k={top_k} "
                f"num_experts={num_experts}"
            )
        self.top_k = top_k
        self.capacity_factor = capacity_factor
        self.dp_algorithm = dp_algorithm

    def expert_tokens(self, activation_count):
        """Per-rank all-to-all element count of one dispatch/combine."""
        routed = activation_count * self.top_k * self.capacity_factor
        return max(1, min(int(routed), 4 << 20))

    def _expert_exchange(self, phase, pp_index, dp_index, tp_index, microbatch,
                         count):
        """The dispatch + combine all-to-all pair of one expert invocation."""
        group = self.dp_group(pp_index, tp_index)
        return [
            CollectiveItem(
                key=(f"ep-{phase}-{direction}", pp_index, tp_index, microbatch),
                kind=CollectiveKind.ALL_TO_ALL,
                count=count,
                group_ranks=group,
            )
            for direction in ("dispatch", "combine")
        ]

    def iteration_schedule(self, rank):
        """The dense schedule plus expert-parallel all-to-all exchanges.

        With ``dp == 1`` there is a single expert shard and no exchange; the
        schedule degenerates to the dense plan with hinted gradient
        all-reduces (of which there are then none either).
        """
        pp_index, dp_index, tp_index = self.coordinates(rank)
        stage = self.stage_layers(pp_index)
        activation_count = max(
            1, int(self.microbatch_size * max(layer.activation_count for layer in stage))
        ) if stage else self.microbatch_size
        tokens = self.expert_tokens(min(activation_count, 8 << 20))

        schedule = []
        for item in super().iteration_schedule(rank):
            if isinstance(item, CollectiveItem) and item.key[0] == "dp-grad":
                item = replace(item, algorithm=self.dp_algorithm)
            schedule.append(item)
            if self.dp < 2 or not isinstance(item, ComputeItem):
                continue
            label = item.label
            if label.startswith("fwd-mb"):
                microbatch = int(label[len("fwd-mb"):])
                schedule.extend(self._expert_exchange(
                    "fwd", pp_index, dp_index, tp_index, microbatch, tokens))
            elif label.startswith("bwd-mb") and label.endswith("-b0"):
                microbatch = int(label[len("bwd-mb"):-len("-b0")])
                schedule.extend(self._expert_exchange(
                    "bwd", pp_index, dp_index, tp_index, microbatch, tokens))
        return schedule


def _stage_buckets(model, stage_layers, grad_buckets):
    """Gradient buckets restricted to the layers of one pipeline stage."""
    if not stage_layers:
        return []
    temp = model.gradient_buckets(grad_buckets)
    stage_set = {layer.name for layer in stage_layers}
    buckets = []
    for layers, _ in temp:
        chosen = [layer for layer in layers if layer.name in stage_set]
        if chosen:
            buckets.append((chosen, sum(layer.param_count for layer in chosen)))
    return buckets
