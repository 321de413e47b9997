"""DNN training workload models and the training-loop driver.

The evaluation of the paper trains ResNet50 (data parallelism), ViT (data,
tensor and 3D-hybrid parallelism) and GPT-2 (3D-hybrid parallelism).  This
package models those workloads at the granularity that matters for collective
scheduling: per-iteration compute phases interleaved with collective
operations, derived from layer-level parameter and activation sizes, and a
parallelism planner that produces each rank's per-iteration schedule for DP,
TP, PP and 3D-hybrid configurations.  The trainer then drives either the
DFCCL backend or the NCCL backend (charging the CPU time of one of the
orchestration baselines, :func:`coordination_cost`) over the simulated cluster
and reports training throughput.
"""

from repro.workloads.models import (
    LayerSpec,
    ModelSpec,
    gpt2_model,
    gpt_moe_model,
    resnet50_model,
    vit_model,
)
from repro.workloads.parallelism import (
    CollectiveItem,
    ComputeItem,
    MoeParallelPlan,
    ParallelPlan,
)
from repro.workloads.backends import GroupTrainingBackend, coordination_cost
from repro.workloads.trainer import TrainingResult, TrainingRun

__all__ = [
    "CollectiveItem",
    "ComputeItem",
    "GroupTrainingBackend",
    "LayerSpec",
    "ModelSpec",
    "MoeParallelPlan",
    "ParallelPlan",
    "TrainingResult",
    "TrainingRun",
    "coordination_cost",
    "gpt2_model",
    "gpt_moe_model",
    "resnet50_model",
    "vit_model",
]
