"""Collective bandwidth / latency experiments (Figs. 7, 8, 9 and the Sec. 2.1 claim).

``measure_collective`` runs one collective repeatedly on a fresh simulated
cluster through any registered ``repro.api`` backend and reports end-to-end
latency, core execution time and algorithm bandwidth, mirroring the rewritten
NCCL-Tests harness the paper uses.  The workload is a
:func:`~repro.testing.generator.collective_program` installed by the
fuzzer's :func:`~repro.testing.differential.install_program`; metric
extraction comes from the backend's
:meth:`~repro.api.CollectiveBackend.perf_report`.
"""

from __future__ import annotations

from repro.common.errors import DeadlockError, SimulationError
from repro.common.types import CollectiveKind
from repro.core import DfcclConfig
from repro.testing.differential import install_program
from repro.testing.generator import collective_program


def _kind_from_name(name):
    return CollectiveKind(name) if not isinstance(name, CollectiveKind) else name


def _run_timed(backend, program, **knobs):
    """Install and run ``program``; returns ``(backend, rank 0's works)``.

    Raises when the engine recorded a deadlock or any Work is not done: a
    timed run that did not finish has no latency to report.
    """
    cluster, api_backend, works = install_program(program, backend, **knobs)
    cluster.run()
    report = cluster.engine.deadlock_report
    if report is not None:
        raise DeadlockError(
            f"{backend} deadlocked at t={report.time_us:.2f}us",
            wait_graph=report.wait_graph, blocked=report.involved())
    if not all(work.done for _, _, work in works):
        raise SimulationError(f"{backend} left a timed Work undone")
    return api_backend, [work for rank, _, work in works if rank == 0]


def measure_collective(backend="dfccl", kind="all_reduce", nbytes=1 << 20,
                       world_size=8, topology="single-3090", iterations=3,
                       chunk_bytes=128 << 10, algorithm="ring"):
    """Measure one collective's end-to-end latency, core time and bandwidth.

    ``backend`` is any registered ``repro.api`` backend name.  ``algorithm``
    is ``"ring"``, ``"tree"`` or ``"auto"`` (topology-aware selection).
    Returns a dict with mean values over ``iterations`` timed runs; the
    ``algorithm`` key reports the resolved algorithm.
    """
    kind = _kind_from_name(kind)
    program = collective_program(topology, world_size, kind.value, nbytes,
                                 rounds=iterations, chunk_bytes=chunk_bytes,
                                 algorithm=algorithm)
    api_backend, works = _run_timed(backend, program)
    report = api_backend.perf_report(works)
    return {
        "backend": api_backend.name,
        "kind": kind.value,
        "nbytes": nbytes,
        "algorithm": report["algorithm"],
        "latency_us": report["latency_us"],
        "core_time_us": report["core_time_us"],
        "bandwidth_gbps": nbytes / (report["latency_us"] * 1e3),
        "preemptions": report["preemptions"],
    }


#: Buffer sizes for the ring-vs-tree crossover sweep (1 KB – 4 MB).
RING_TREE_SIZES = [1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20]


def sweep_ring_vs_tree(kind="all_reduce", world_size=16, topology="dual-3090",
                       sizes=None, iterations=2, backend="nccl"):
    """Fig. 8 companion: ring vs. tree latency and the ``auto`` selection.

    For every buffer size the collective is simulated with the ring and the
    tree algorithm plus ``algorithm="auto"``; each row reports both latencies,
    the measured winner and the algorithm ``auto`` resolved to, so the
    crossover and the selector's accuracy land in the Fig. 8 reporting.
    """
    if sizes is None:
        sizes = RING_TREE_SIZES
    rows = []
    for nbytes in sizes:
        measured = {
            algorithm: measure_collective(backend, kind, nbytes, world_size,
                                          topology, iterations=iterations,
                                          algorithm=algorithm)
            for algorithm in ("ring", "tree", "auto")
        }
        ring_latency = measured["ring"]["latency_us"]
        tree_latency = measured["tree"]["latency_us"]
        rows.append({
            "kind": _kind_from_name(kind).value,
            "nbytes": nbytes,
            "ring_latency_us": ring_latency,
            "tree_latency_us": tree_latency,
            "auto_latency_us": measured["auto"]["latency_us"],
            "auto_algorithm": measured["auto"]["algorithm"],
            "winner": "tree" if tree_latency < ring_latency else "ring",
        })
    return rows


def latency_breakdown(nbytes_small=4 << 10, nbytes_large=4 << 20, world_size=8,
                      topology="single-3090", kind="all_gather"):
    """Fig. 9: end-to-end latency vs core execution time, small and large buffers."""
    rows = []
    for label, nbytes in (("small", nbytes_small), ("large", nbytes_large)):
        for backend in ("nccl", "dfccl"):
            result = measure_collective(backend, kind, nbytes, world_size, topology)
            result["case"] = label
            rows.append(result)
    return rows


def workload_independent_overheads(world_size=8, topology="single-3090"):
    """Fig. 7(b,c) + Sec. 6.2: SQE read / preparing / CQE write times and memory.

    Runs the same all-reduce workload under each CQ variant and reports the
    measured per-CQE write time along with the fixed SQE-read and preparing
    overheads and the memory overhead report for 1,000 collectives.
    """
    from repro.core.context import memory_overhead_report

    rows = []
    for variant in ("vanilla", "optimized-ring", "optimized-cas"):
        program = collective_program(topology, world_size, rounds=3)
        dfccl, _ = _run_timed("dfccl", program,
                              config=DfcclConfig(cq_variant=variant))
        stats = dfccl.stats(0)
        rows.append({
            "cq_variant": variant,
            "sqe_read_us": stats.mean_sqe_read_time_us(),
            "preparing_us": (stats.preparing_time_us / max(1, stats.cqes_written)),
            "cqe_write_us": stats.mean_cqe_write_time_us(),
        })
    memory = memory_overhead_report(num_collectives=1000)
    return {"time_overheads": rows, "memory_overheads": memory}


def nccl_vs_mpi_comparison(world_size=8, topology="single-3090", sizes=None):
    """Sec. 2.1: NCCL all-reduce throughput vs CUDA-aware MPI.

    Both are measured by :func:`measure_collective`: NCCL on the simulated
    backend, MPI on the ``mpi`` backend's analytic host-staged model; the
    claim to reproduce is the crossover above 32 KB and a >6x large-buffer
    gap.
    """
    if sizes is None:
        sizes = [4 << 10, 32 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20]
    rows = []
    for nbytes in sizes:
        nccl = measure_collective("nccl", "all_reduce", nbytes, world_size, topology)
        mpi_bw = measure_collective("mpi", "all_reduce", nbytes, world_size,
                                    topology)["bandwidth_gbps"]
        rows.append({
            "nbytes": nbytes,
            "nccl_bw_gbps": nccl["bandwidth_gbps"],
            "mpi_bw_gbps": mpi_bw,
            "speedup": nccl["bandwidth_gbps"] / mpi_bw if mpi_bw else float("inf"),
        })
    return rows
