"""Experiment harness: one driver per table/figure of the paper's evaluation.

Every driver returns plain Python data (dicts / lists of rows) so it can be
used from the pytest-benchmark suite under ``benchmarks/``, from the runnable
examples, or interactively.  ``repro.bench.reporting`` renders the results in
a paper-like table format.
"""

from repro.bench.reporting import format_series, format_table
from repro.bench.collective_perf import (
    measure_collective,
    latency_breakdown,
    workload_independent_overheads,
    nccl_vs_mpi_comparison,
)
from repro.bench.deadlock_experiments import (
    run_table1_row,
    run_table1,
    sec61_random_order_program,
    sec61_sync_program,
    deadlock_sensitivity_sweep,
)
from repro.bench.fault_experiments import (
    CHAOS_PLANS,
    goodput_under_chaos,
    measure_recovery,
)
from repro.bench.multijob_experiments import (
    PREEMPTION_CLUSTER,
    deadlock_ratio_sweep,
    equivalent_hours,
    multijob_policy_comparison,
    multijob_under_churn,
    preemption_ablation,
    preemption_job_stream,
    preemption_slo_sweep,
    run_multijob,
)
from repro.bench.scale_experiments import (
    attribution_summary,
    machine_calibration_factor,
    run_scale_point,
    scale_sweep,
    selector_report,
    write_scale_report,
)
from repro.bench.training_experiments import (
    fig10_resnet50_dp,
    fig11_adaptive_scheduling,
    fig12_vit_training,
    fig13_gpt2_training,
)

__all__ = [
    "CHAOS_PLANS",
    "machine_calibration_factor",
    "attribution_summary",
    "run_scale_point",
    "scale_sweep",
    "selector_report",
    "write_scale_report",
    "PREEMPTION_CLUSTER",
    "deadlock_ratio_sweep",
    "deadlock_sensitivity_sweep",
    "equivalent_hours",
    "preemption_ablation",
    "preemption_job_stream",
    "preemption_slo_sweep",
    "goodput_under_chaos",
    "measure_recovery",
    "multijob_policy_comparison",
    "multijob_under_churn",
    "run_multijob",
    "fig10_resnet50_dp",
    "fig11_adaptive_scheduling",
    "fig12_vit_training",
    "fig13_gpt2_training",
    "format_series",
    "format_table",
    "latency_breakdown",
    "measure_collective",
    "nccl_vs_mpi_comparison",
    "run_table1",
    "run_table1_row",
    "sec61_random_order_program",
    "sec61_sync_program",
    "workload_independent_overheads",
]
