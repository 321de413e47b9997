"""DNN training experiments (Figs. 10, 11, 12 and 13)."""

from __future__ import annotations

from repro.api import make_backend
from repro.core import DfcclConfig
from repro.gpusim import build_cluster
from repro.workloads import (
    GroupTrainingBackend,
    ParallelPlan,
    TrainingRun,
    gpt2_model,
    resnet50_model,
    vit_model,
)

#: Chunk size used for training runs (larger chunks keep the simulated
#: primitive counts manageable without changing who wins).
TRAINING_CHUNK_BYTES = 512 << 10


def _dfccl_backend(cluster):
    return GroupTrainingBackend(cluster, "dfccl", chunk_bytes=TRAINING_CHUNK_BYTES)


def _nccl_backend(cluster, orchestrator_name):
    return GroupTrainingBackend(cluster, "nccl", orchestrator=orchestrator_name,
                                chunk_bytes=TRAINING_CHUNK_BYTES)


def _run(plan, backend_factory, topology, iterations, warmup=1):
    cluster = build_cluster(topology)
    backend = backend_factory(cluster)
    run = TrainingRun(cluster, plan, backend, iterations=iterations, warmup=warmup)
    result = run.run()
    cluster.close()
    return result


# -- Fig. 10: ResNet50 data-parallel training ---------------------------------------------------


def fig10_resnet50_dp(server="3090", num_gpus=8, iterations=4, grad_buckets=24):
    """Fig. 10: ResNet50 DP throughput for OneFlow-static, DFCCL, KungFu, Horovod."""
    batch = 96 if server == "3090" else 48
    topology = "single-3090" if server == "3090" else "single-3080ti"
    model = resnet50_model()
    plan = ParallelPlan(model, tp=1, dp=num_gpus, pp=1, microbatch_size=batch,
                        grad_buckets=grad_buckets)
    rows = []
    systems = [
        ("oneflow-static", lambda c: _nccl_backend(c, "oneflow")),
        ("dfccl", _dfccl_backend),
        ("kungfu", lambda c: _nccl_backend(c, "kungfu")),
        ("horovod", lambda c: _nccl_backend(c, "horovod")),
    ]
    for label, factory in systems:
        result = _run(plan, factory, topology, iterations)
        rows.append({
            "system": label,
            "server": server,
            "throughput_samples_per_s": result.throughput_samples_per_s,
            "iteration_ms": result.mean_iteration_time_ms,
        })
    return rows


# -- Fig. 11: impact of adaptive scheduling ------------------------------------------------------


def fig11_adaptive_scheduling(num_gpus=4, iterations=3, grad_buckets=16, batch=96):
    """Fig. 11: context switches and task-queue lengths, naive vs adaptive policy."""
    model = resnet50_model()
    plan = ParallelPlan(model, tp=1, dp=num_gpus, pp=1, microbatch_size=batch,
                        grad_buckets=grad_buckets)
    results = {}
    for policy in ("naive", "adaptive"):
        cluster = build_cluster("single-3090")
        config = DfcclConfig(chunk_bytes=TRAINING_CHUNK_BYTES, spin_policy=policy)
        backend = GroupTrainingBackend(cluster, make_backend("dfccl", cluster,
                                                             config=config))
        run = TrainingRun(cluster, plan, backend, iterations=iterations, warmup=1)
        result = run.run()
        per_rank = {}
        for rank in range(num_gpus):
            stats = backend.stats(rank)
            per_rank[rank] = {
                "context_switches": dict(stats.context_switches_per_invocation),
                "task_queue_lengths": list(stats.task_queue_length_samples),
                "total_preemptions": stats.preemptions,
            }
        cluster.close()
        results[policy] = {
            "throughput_samples_per_s": result.throughput_samples_per_s,
            "per_rank": per_rank,
        }
    return results


# -- Fig. 12: ViT training under DP / TP / 3D hybrid ---------------------------------------------


VIT_CASES = {
    "dp-8gpu-base": {"variant": "base", "tp": 1, "dp": 8, "pp": 1, "topology": "single-3090"},
    "tp-8gpu-base": {"variant": "base", "tp": 8, "dp": 1, "pp": 1, "topology": "single-3090"},
    "3d-16gpu-base": {"variant": "base", "tp": 4, "dp": 2, "pp": 2, "topology": "dual-3090"},
    "3d-16gpu-large": {"variant": "large", "tp": 4, "dp": 2, "pp": 2, "topology": "dual-3090"},
}


def fig12_vit_training(case="dp-8gpu-base", iterations=4, microbatch=128):
    """Fig. 12: ViT training throughput, DFCCL vs (statically sorted) NCCL."""
    params = VIT_CASES[case]
    model = vit_model(params["variant"])
    plan = ParallelPlan(model, tp=params["tp"], dp=params["dp"], pp=params["pp"],
                        microbatch_size=microbatch, num_microbatches=1, grad_buckets=12)
    rows = []
    systems = [
        ("nccl", lambda c: _nccl_backend(c, "oneflow")),
        ("dfccl", _dfccl_backend),
    ]
    for label, factory in systems:
        result = _run(plan, factory, params["topology"], iterations)
        rows.append({
            "case": case,
            "system": label,
            "throughput_samples_per_s": result.throughput_samples_per_s,
            "iteration_ms": result.mean_iteration_time_ms,
            "throughput_curve": result.cumulative_mean_throughput(),
        })
    return rows


# -- Fig. 13: GPT-2 3D-hybrid training ---------------------------------------------------------------


GPT2_CASES = {
    "3d-8gpu": {"variant": "small", "tp": 2, "dp": 2, "pp": 2, "topology": "single-3090"},
    "3d-16gpu": {"variant": "small", "tp": 4, "dp": 2, "pp": 2, "topology": "dual-3090"},
}


def fig13_gpt2_training(case="3d-8gpu", iterations=4, microbatch=18):
    """Fig. 13: GPT-2 per-iteration time, DFCCL vs Megatron-orchestrated NCCL."""
    params = GPT2_CASES[case]
    model = gpt2_model(params["variant"])
    plan = ParallelPlan(model, tp=params["tp"], dp=params["dp"], pp=params["pp"],
                        microbatch_size=microbatch, num_microbatches=2, grad_buckets=8)
    rows = []
    systems = [
        ("nccl-megatron", lambda c: _nccl_backend(c, "megatron")),
        ("dfccl", _dfccl_backend),
    ]
    for label, factory in systems:
        result = _run(plan, factory, params["topology"], iterations)
        rows.append({
            "case": case,
            "system": label,
            "iteration_ms": result.mean_iteration_time_ms,
            "iteration_cv": result.iteration_time_cv(),
            "throughput_samples_per_s": result.throughput_samples_per_s,
        })
    return rows
