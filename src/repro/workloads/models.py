"""Layer-level DNN model descriptions.

Only the quantities that influence collective communication matter here: how
many parameters each layer holds (gradient all-reduce volume), how large the
activations are (TP all-reduce and PP send/recv volume), and how long the
forward/backward compute of a layer takes on one GPU (to interleave the
collectives realistically).  Compute times are derived from a per-GPU
throughput constant calibrated against the iteration times the paper reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class LayerSpec:
    """One layer (or layer group) of a model."""

    name: str
    param_count: int
    activation_count: int
    flops_per_sample: float


@dataclass
class ModelSpec:
    """A model as a list of layers plus global metadata."""

    name: str
    layers: list = field(default_factory=list)
    #: Effective per-GPU compute throughput in FLOP/s used to turn layer FLOPs
    #: into compute time (calibrated to the paper's measured throughput).
    gpu_flops: float = 18e12

    @property
    def param_count(self):
        return sum(layer.param_count for layer in self.layers)

    def forward_time_us(self, batch_size, layers=None):
        """Forward compute time of ``layers`` (default: all) for one microbatch."""
        layers = self.layers if layers is None else layers
        flops = sum(layer.flops_per_sample for layer in layers) * batch_size
        return flops / self.gpu_flops * 1e6

    def backward_time_us(self, batch_size, layers=None):
        """Backward compute is roughly 2x the forward FLOPs."""
        return 2.0 * self.forward_time_us(batch_size, layers)

    def gradient_buckets(self, num_buckets):
        """Split layers into contiguous gradient buckets (last layers first).

        Returns a list of (layer_list, param_count) in backward order, the
        order in which data-parallel gradient all-reduces are issued.
        """
        if num_buckets <= 0:
            raise ValueError("num_buckets must be positive")
        layers = list(reversed(self.layers))
        per_bucket = max(1, math.ceil(len(layers) / num_buckets))
        buckets = []
        for start in range(0, len(layers), per_bucket):
            chunk = layers[start:start + per_bucket]
            buckets.append((chunk, sum(layer.param_count for layer in chunk)))
        return buckets


def resnet50_model():
    """ResNet50: ~25.6M parameters across 16 residual-block groups plus stem/fc."""
    layers = [LayerSpec("stem", 9_408 + 64, 802_816, 0.24e9)]
    # (blocks, params per block, activation, flops) per stage, roughly matching
    # the standard ResNet50 breakdown.
    stages = [
        (3, 215_808, 802_816, 0.68e9),
        (4, 1_219_584 // 4 + 280_064, 401_408, 0.85e9),
        (6, 7_098_368 // 6, 200_704, 0.98e9),
        (3, 14_964_736 // 3, 100_352, 1.12e9),
    ]
    for stage_index, (blocks, params, activation, flops) in enumerate(stages):
        for block in range(blocks):
            layers.append(
                LayerSpec(f"stage{stage_index}_block{block}", params, activation, flops)
            )
    layers.append(LayerSpec("fc", 2_048 * 1000 + 1000, 1000, 0.004e9))
    return ModelSpec("resnet50", layers)


def vit_model(variant="base"):
    """Vision Transformer: ViT-Base (12 layers, d=768) or ViT-Large (24, d=1024)."""
    if variant == "base":
        depth, hidden, seq = 12, 768, 197
    elif variant == "large":
        depth, hidden, seq = 24, 1024, 197
    else:
        raise ValueError(f"unknown ViT variant {variant!r}")
    layers = [LayerSpec("patch_embed", 768 * hidden // 768 * 16 * 16 * 3, seq * hidden,
                        0.1e9)]
    per_layer_params = 12 * hidden * hidden
    per_layer_flops = 24 * seq * hidden * hidden
    for index in range(depth):
        layers.append(
            LayerSpec(f"encoder{index}", per_layer_params, seq * hidden, per_layer_flops)
        )
    layers.append(LayerSpec("head", hidden * 1000, 1000, hidden * 1000 * 2))
    return ModelSpec(f"vit-{variant}", layers)


def gpt2_model(variant="small"):
    """GPT-2: small (12 layers, d=768) or medium (24 layers, d=1024)."""
    if variant == "small":
        depth, hidden, seq, vocab = 12, 768, 1024, 50_257
    elif variant == "medium":
        depth, hidden, seq, vocab = 24, 1024, 1024, 50_257
    else:
        raise ValueError(f"unknown GPT-2 variant {variant!r}")
    layers = [LayerSpec("embedding", vocab * hidden, seq * hidden, 0.2e9)]
    per_layer_params = 12 * hidden * hidden
    per_layer_flops = 24 * seq * hidden * hidden
    for index in range(depth):
        layers.append(
            LayerSpec(f"decoder{index}", per_layer_params, seq * hidden, per_layer_flops)
        )
    layers.append(LayerSpec("lm_head", vocab * hidden, seq * vocab, 2 * seq * vocab * hidden))
    return ModelSpec(f"gpt2-{variant}", layers)


def gpt_moe_model(variant="small", num_experts=8, top_k=2):
    """GPT with mixture-of-experts FFNs (Switch/GShard-style decoder stack).

    Every decoder layer keeps the dense attention block (``4·h²`` parameters)
    but replaces the FFN with ``num_experts`` experts of ``8·h²`` parameters
    each, of which every token activates ``top_k`` — so parameters scale with
    the expert count while per-sample FLOPs only scale with ``top_k``.  The
    expert-parallel all-to-all traffic this implies is added by
    :class:`~repro.workloads.parallelism.MoeParallelPlan`, which shards the
    experts across the data-parallel group.
    """
    if variant == "small":
        depth, hidden, seq, vocab = 12, 768, 1024, 50_257
    elif variant == "medium":
        depth, hidden, seq, vocab = 24, 1024, 1024, 50_257
    else:
        raise ValueError(f"unknown GPT-MoE variant {variant!r}")
    if num_experts < 1 or not 1 <= top_k <= num_experts:
        raise ValueError(
            f"need 1 <= top_k <= num_experts, got top_k={top_k} "
            f"num_experts={num_experts}"
        )
    layers = [LayerSpec("embedding", vocab * hidden, seq * hidden, 0.2e9)]
    attention_params = 4 * hidden * hidden
    expert_params = 8 * hidden * hidden
    attention_flops = 8 * seq * hidden * hidden
    active_expert_flops = top_k * 16 * seq * hidden * hidden
    for index in range(depth):
        layers.append(LayerSpec(
            f"moe_decoder{index}",
            attention_params + num_experts * expert_params,
            seq * hidden,
            attention_flops + active_expert_flops,
        ))
    layers.append(LayerSpec("lm_head", vocab * hidden, seq * vocab,
                            2 * seq * vocab * hidden))
    return ModelSpec(f"gpt-moe-{variant}-{num_experts}e", layers)
