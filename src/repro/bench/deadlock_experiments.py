"""Deadlock experiments: Table 1 and the Sec. 6.1 deadlock-prevention programs."""

from __future__ import annotations

from repro.api import make_backend, wait_all
from repro.common.errors import DeadlockError
from repro.common.rng import DeterministicRNG
from repro.common.types import CollectiveKind, CollectiveSpec
from repro.deadlock import DeadlockSimulator, TABLE1_CONFIGS
from repro.gpusim import HostProgram, build_cluster
from repro.gpusim.host import DeviceSynchronize


# -- Table 1 -----------------------------------------------------------------------------


def run_table1_row(name, rounds=200, collective_scale=0.1, seed=0):
    """Estimate the deadlock ratio for one Table 1 configuration.

    ``collective_scale`` < 1 shrinks the per-group collective counts and boosts
    the probabilities by the same factor so that the expected number of
    disorder / synchronization events per round is preserved.
    """
    config = TABLE1_CONFIGS[name].scaled(collective_scale)
    simulator = DeadlockSimulator(
        config.build_policy(), config.model, config.disorder_prob, config.sync_prob,
        seed=seed,
    )
    estimate = simulator.estimate(rounds)
    return {
        "config": name,
        "model": config.model,
        "grouping": config.grouping,
        "disorder_prob": config.disorder_prob,
        "sync_prob": config.sync_prob,
        "rounds": rounds,
        "measured_ratio": estimate.ratio,
        "paper_ratio": TABLE1_CONFIGS[name].paper_ratio,
        "mean_disorder_events": estimate.mean_disorder_events,
        "mean_sync_events": estimate.mean_sync_events,
    }


#: Rows small enough to estimate quickly with default settings (the huge
#: 3,072-GPU and heavily synchronized rows are opt-in via ``run_table1(full=True)``).
TABLE1_FAST_ROWS = [
    "sq-free-1x8-1e-5",
    "sq-3d-444-1e-7",
    "sq-3d-444-1e-6",
    "sq-free-32x64-1e-6",
    "sq-free-32x64-1e-5",
    "sync-free-32x64-4e-5-4e-5",
    "sync-free-32x64-4e-5-8e-5",
]


def run_table1(rows=None, rounds=100, collective_scale=0.05, seed=0, full=False):
    """Run (a subset of) Table 1 and return one result dict per row."""
    if rows is None:
        rows = list(TABLE1_CONFIGS) if full else TABLE1_FAST_ROWS
    return [run_table1_row(name, rounds, collective_scale, seed) for name in rows]


def deadlock_sensitivity_sweep(rounds=150, seed=0):
    """Qualitative reproduction of the Sec. 2.4.3 sensitivity findings.

    Uses an 8-GPU free-grouping workload and sweeps the disorder and the
    synchronization probabilities independently, showing that (a) the deadlock
    ratio grows with both and (b) it is more sensitive to the synchronization
    probability than to the disorder probability.
    """
    from repro.deadlock.grouping import FreeGroupingPolicy

    groups = [([0, 1, 2, 3], 40), ([2, 3, 4, 5], 40), ([4, 5, 6, 7], 40),
              ([0, 1, 2, 3, 4, 5, 6, 7], 40)]
    policy = FreeGroupingPolicy(groups)
    base_disorder, base_sync = 2e-3, 2e-3
    rows = []
    for label, disorder, sync in [
        ("baseline", base_disorder, base_sync),
        ("disorder x4", base_disorder * 4, base_sync),
        ("sync x4", base_disorder, base_sync * 4),
    ]:
        simulator = DeadlockSimulator(policy, "synchronization", disorder, sync, seed=seed)
        estimate = simulator.estimate(rounds)
        rows.append({
            "case": label,
            "disorder_prob": disorder,
            "sync_prob": sync,
            "deadlock_ratio": estimate.ratio,
        })
    return rows


# -- Sec. 6.1 deadlock-prevention programs ------------------------------------------------------


def _sec61_result(api_backend, deadlocked, time_us, **extras):
    result = {"backend": api_backend.name, "deadlocked": deadlocked,
              "time_us": time_us, **extras}
    diagnostics = api_backend.diagnostics()
    for key in ("preemptions", "voluntary_quits"):
        if key in diagnostics:
            result[key] = diagnostics[key]
    return result


def sec61_random_order_program(backend="dfccl", num_gpus=8, num_collectives=8,
                               iterations=5, seed=11, min_bytes=256):
    """First Sec. 6.1 program: same collectives, unique random order per GPU.

    Buffer sizes grow from ``min_bytes`` by powers of two, as in the paper
    (256 B to 1 MB for eight collectives).  Returns a result dict; for the
    NCCL backend a deadlock is expected and reported as ``deadlocked=True``.
    """
    rng = DeterministicRNG(seed)
    sizes = [min_bytes << index for index in range(num_collectives)]
    cluster = build_cluster("single-3090")
    ranks = list(range(num_gpus))

    api_backend = make_backend(backend, cluster)
    group = api_backend.new_group(ranks)
    counts = {coll_id: max(1, nbytes // 4) for coll_id, nbytes in enumerate(sizes)}
    for coll_id in range(num_collectives):
        group.ensure_collective(
            CollectiveSpec(CollectiveKind.ALL_REDUCE, counts[coll_id]), key=coll_id
        )
    programs = []
    for rank in ranks:
        ops = []
        for iteration in range(iterations):
            order = rng.child("order", rank, iteration).permutation(num_collectives)
            works = [group.all_reduce(rank, counts[coll_id], key=coll_id)
                     for coll_id in order]
            ops.extend(work.submit_op() for work in works)
            ops.extend(wait_all(works))
        ops.extend(api_backend.finalize_ops(rank))
        programs.append(HostProgram(ops))
    cluster.add_hosts(programs)
    try:
        final_time = cluster.run()
    except DeadlockError:
        return _sec61_result(api_backend, True, cluster.engine.now)
    else:
        return _sec61_result(api_backend, False, final_time,
                             iterations=iterations)
    finally:
        cluster.close()


def sec61_sync_program(backend="dfccl", num_gpus=8, num_collectives=4, iterations=3,
                       seed=13, nbytes=64 << 10):
    """Second Sec. 6.1 program: disordered all-reduces separated by device syncs."""
    rng = DeterministicRNG(seed)
    cluster = build_cluster("single-3090")
    ranks = list(range(num_gpus))

    api_backend = make_backend(backend, cluster)
    group = api_backend.new_group(ranks)
    count = max(1, nbytes // 4)
    for coll_id in range(num_collectives):
        group.ensure_collective(
            CollectiveSpec(CollectiveKind.ALL_REDUCE, count), key=coll_id
        )
    programs = []
    for rank in ranks:
        ops = []
        for iteration in range(iterations):
            order = rng.child("order", rank, iteration).permutation(num_collectives)
            # Per-collective streams: with a device sync between launches the
            # dedicated-kernel baseline wedges exactly as in the paper.
            works = [group.all_reduce(rank, count, key=coll_id,
                                      stream=f"s{coll_id}")
                     for coll_id in order]
            for work in works:
                ops.append(work.submit_op())
                ops.append(DeviceSynchronize())
            ops.extend(wait_all(works))
        ops.extend(api_backend.finalize_ops(rank))
        programs.append(HostProgram(ops))
    cluster.add_hosts(programs)
    try:
        final_time = cluster.run()
    except DeadlockError:
        return _sec61_result(api_backend, True, cluster.engine.now)
    else:
        return _sec61_result(api_backend, False, final_time)
    finally:
        cluster.close()
