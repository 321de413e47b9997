"""Tests for the CPU-orchestration baselines and the workload/trainer layer."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.types import CollectiveKind
from repro.gpusim import build_cluster
from repro.workloads import (
    CollectiveItem,
    ComputeItem,
    GroupTrainingBackend,
    MoeParallelPlan,
    ParallelPlan,
    coordination_cost,
    gpt2_model,
    gpt_moe_model,
    resnet50_model,
    vit_model,
)
from repro.workloads.parallelism import _stage_buckets


class TestOrchestrators:
    def test_unknown_orchestrator_rejected(self):
        with pytest.raises(ConfigurationError):
            GroupTrainingBackend(build_cluster("single-3090"), "nccl",
                                 orchestrator="bogus")

    def test_horovod_charges_cycle_latency(self):
        per_collective, _, _ = coordination_cost("horovod", 8, 3)
        assert per_collective > 1000.0

    def test_oneflow_static_is_cheap_at_steady_state(self):
        per_collective, _, first_step = coordination_cost("oneflow", 8, 3)
        assert first_step > 0.0
        assert per_collective < 10.0

    def test_kungfu_negotiates_once_then_enforces(self):
        # The first-step negotiation covers every distinct collective, and
        # every collective pays the enforcement check.
        per_collective, per_step, few = coordination_cost("kungfu", 3, 3)
        _, _, many = coordination_cost("kungfu", 3, 4)
        assert 0.0 < few < many
        assert per_step == 0.0
        assert per_collective > 0.0

    #: setting -> (result.backend, iteration_times_us, the coordination op of
    #: iterations 0 and 1, the op before every collective), as the
    #: per-baseline orchestrator classes charged them before they became
    #: ``coordination_cost``.
    EXPECTED = {
        None: ("nccl", [80929.24444444443, 80929.24444444443], None, None, None),
        "auto": ("nccl+megatron-manual", [80941.24444444443, 80941.24444444443],
                 None, None, ("megatron-manual-negotiate", 3.0)),
        "megatron": ("nccl+megatron-manual", [80941.24444444443, 80941.24444444443],
                     None, None, ("megatron-manual-negotiate", 3.0)),
        "horovod": ("nccl+horovod", [93845.24444444443, 93845.24444444446],
                    ("horovod-coordination", 2500.0), ("horovod-coordination", 2500.0),
                    ("horovod-negotiate", 2604.0)),
        "kungfu": ("nccl+kungfu", [89329.24444444443, 89329.24444444446],
                   ("kungfu-coordination", 1800.0), None, ("kungfu-negotiate", 2100.0)),
        "oneflow": ("nccl+oneflow-static", [80937.24444444443, 80937.24444444446],
                    ("oneflow-static-coordination", 20000.0), None,
                    ("oneflow-static-negotiate", 2.0)),
    }
    COMPUTE = [("fwd-mb0", 26531.555555555555), ("bwd-mb0-b0", 15445.333333333334),
               ("bwd-mb0-b1", 17422.222222222223), ("bwd-mb0-b2", 14506.666666666666),
               ("bwd-mb0-b3", 5688.88888888889), ("optimizer", 1326.5777777777778)]

    @pytest.mark.parametrize("setting", list(EXPECTED))
    def test_costs_charged_exactly(self, setting):
        from repro.gpusim.host import CpuCompute
        from repro.workloads import TrainingRun

        backend_label, times, first, steady, negotiate = self.EXPECTED[setting]
        plan = ParallelPlan(resnet50_model(), dp=2, microbatch_size=32, grad_buckets=4)

        def make(cluster):
            return GroupTrainingBackend(cluster, "nccl", orchestrator=setting,
                                        chunk_bytes=512 << 10)

        cluster = build_cluster("single-3090")
        result = TrainingRun(cluster, plan, make(cluster), iterations=3).run()
        assert result.backend == backend_label
        assert result.iteration_times_us == times

        backend = make(build_cluster("single-3090"))
        backend.prepare(plan)
        for iteration, startup in ((0, first), (1, steady)):
            expected = [startup] if startup else []
            for label, duration in self.COMPUTE:
                expected.append((label, duration))
                if negotiate and label.startswith("bwd-"):
                    expected.append(negotiate)
            ops = backend.iteration_ops(0, plan.iteration_schedule(0), iteration)
            assert [(op.label(), op.duration_us) for op in ops
                    if isinstance(op, CpuCompute)] == expected


class TestModels:
    def test_resnet50_parameter_count(self):
        model = resnet50_model()
        assert 20e6 < model.param_count < 35e6

    def test_vit_large_bigger_than_base(self):
        assert vit_model("large").param_count > vit_model("base").param_count

    def test_gpt2_has_embedding_and_head(self):
        model = gpt2_model("small")
        names = [layer.name for layer in model.layers]
        assert names[0] == "embedding" and names[-1] == "lm_head"

    def test_unknown_variants_rejected(self):
        with pytest.raises(ValueError):
            vit_model("huge")
        with pytest.raises(ValueError):
            gpt2_model("xl")

    def test_compute_time_scales_with_batch(self):
        model = resnet50_model()
        assert model.forward_time_us(64) > model.forward_time_us(32)
        assert model.backward_time_us(32) > model.forward_time_us(32)

    def test_gradient_buckets_cover_all_parameters(self):
        model = resnet50_model()
        buckets = model.gradient_buckets(8)
        assert sum(params for _, params in buckets) == model.param_count


class TestParallelPlan:
    def test_world_size_and_batch(self):
        plan = ParallelPlan(vit_model(), tp=2, dp=2, pp=2, microbatch_size=16,
                            num_microbatches=2)
        assert plan.world_size == 8
        assert plan.global_batch_size == 64

    def test_rank_coordinate_roundtrip(self):
        plan = ParallelPlan(vit_model(), tp=2, dp=2, pp=2)
        for rank in range(plan.world_size):
            pp_index, dp_index, tp_index = plan.coordinates(rank)
            assert plan.rank(pp_index, dp_index, tp_index) == rank

    def test_dp_schedule_has_gradient_allreduces(self):
        plan = ParallelPlan(resnet50_model(), dp=4, microbatch_size=32, grad_buckets=8)
        items = plan.collective_items(0)
        assert items
        assert all(item.kind.value == "all_reduce" for item in items)
        assert sum(item.count for item in items) == pytest.approx(
            resnet50_model().param_count, rel=0.01)

    def test_tp_schedule_has_activation_allreduces(self):
        plan = ParallelPlan(vit_model(), tp=4, microbatch_size=8)
        keys = {item.key[0] for item in plan.collective_items(0)}
        assert "tp-fwd" in keys and "tp-bwd" in keys

    def test_pp_schedule_has_send_recv(self):
        plan = ParallelPlan(gpt2_model(), tp=1, dp=1, pp=2, microbatch_size=4)
        kinds = {item.kind.value for item in plan.collective_items(0)}
        assert "send_recv" in kinds

    def test_group_members_generate_identical_collective_keys(self):
        plan = ParallelPlan(vit_model(), tp=2, dp=2, pp=1, microbatch_size=8,
                            grad_buckets=4)
        for item in plan.collective_items(0):
            for member in item.group_ranks:
                member_keys = {other.key for other in plan.collective_items(member)}
                assert item.key in member_keys

    def test_schedule_mixes_compute_and_collectives(self):
        plan = ParallelPlan(resnet50_model(), dp=2, microbatch_size=16, grad_buckets=4)
        schedule = plan.iteration_schedule(0)
        assert any(isinstance(item, ComputeItem) for item in schedule)
        assert any(isinstance(item, CollectiveItem) for item in schedule)

    def test_stage_buckets_subset_of_stage(self):
        model = gpt2_model()
        plan = ParallelPlan(model, pp=2)
        stage = plan.stage_layers(0)
        buckets = _stage_buckets(model, stage, 4)
        names = {layer.name for layers, _ in buckets for layer in layers}
        assert names <= {layer.name for layer in stage}

    def test_invalid_parallel_sizes_rejected(self):
        with pytest.raises(Exception):
            ParallelPlan(vit_model(), tp=0)


class TestMoeWorkload:

    def test_moe_model_has_expert_parameters(self):
        dense = gpt2_model("small")
        moe = gpt_moe_model("small", num_experts=8)
        assert moe.param_count > dense.param_count
        assert "8e" in moe.name

    def test_invalid_expert_config_rejected(self):
        with pytest.raises(Exception):
            gpt_moe_model("small", num_experts=4, top_k=5)
        with pytest.raises(Exception):
            MoeParallelPlan(gpt_moe_model(), num_experts=0)

    def test_schedule_interleaves_dispatch_and_combine(self):
        plan = MoeParallelPlan(gpt_moe_model("small"), dp=4, microbatch_size=4,
                               num_microbatches=2, grad_buckets=4)
        schedule = plan.iteration_schedule(0)
        a2a = [item for item in schedule
               if isinstance(item, CollectiveItem)
               and item.kind is CollectiveKind.ALL_TO_ALL]
        # dispatch + combine, forward and backward, per microbatch.
        assert len(a2a) == 4 * plan.num_microbatches
        phases = {item.key[0] for item in a2a}
        assert phases == {"ep-fwd-dispatch", "ep-fwd-combine",
                          "ep-bwd-dispatch", "ep-bwd-combine"}
        for item in a2a:
            assert item.group_ranks == plan.dp_group(0, 0)
            assert item.algorithm is None

    def test_dp_gradient_allreduces_carry_hierarchical_hint(self):
        plan = MoeParallelPlan(gpt_moe_model("small"), dp=4, microbatch_size=4,
                               grad_buckets=4)
        grads = [item for item in plan.iteration_schedule(0)
                 if isinstance(item, CollectiveItem)
                 and item.key[0] == "dp-grad"]
        assert grads
        assert all(item.algorithm == "hierarchical" for item in grads)

    def test_single_shard_degenerates_to_dense_schedule(self):
        moe = MoeParallelPlan(gpt_moe_model("small"), dp=1, microbatch_size=4)
        assert not any(
            isinstance(item, CollectiveItem)
            and item.kind is CollectiveKind.ALL_TO_ALL
            for item in moe.iteration_schedule(0)
        )

    def test_group_members_generate_identical_exchange_keys(self):
        plan = MoeParallelPlan(gpt_moe_model("small"), dp=2, tp=2,
                               microbatch_size=4, grad_buckets=4)
        for item in plan.collective_items(0):
            for member in item.group_ranks:
                member_keys = {other.key for other in plan.collective_items(member)}
                assert item.key in member_keys
