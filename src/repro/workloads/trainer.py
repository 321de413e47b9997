"""The training-loop driver.

``TrainingRun`` builds one host program per rank from the parallel plan and
the chosen backend, runs the simulated cluster, and reports per-iteration
times and throughput (samples per second), matching how the paper presents
Figs. 10, 12 and 13.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError
from repro.gpusim.host import CallHook, HostProgram


@dataclass
class TrainingResult:
    """Measured outcome of one training run."""

    backend: str
    iterations: int
    global_batch_size: int
    iteration_times_us: list = field(default_factory=list)
    per_rank_times_us: dict = field(default_factory=dict)
    total_time_us: float = 0.0

    @property
    def mean_iteration_time_us(self):
        if not self.iteration_times_us:
            return 0.0
        return statistics.fmean(self.iteration_times_us)

    @property
    def mean_iteration_time_ms(self):
        return self.mean_iteration_time_us / 1e3

    @property
    def throughput_samples_per_s(self):
        mean = self.mean_iteration_time_us
        if mean <= 0:
            return 0.0
        return self.global_batch_size / (mean / 1e6)

    def iteration_time_cv(self):
        """Coefficient of variation of per-iteration time (Sec. 6.4.3)."""
        if len(self.iteration_times_us) < 2:
            return 0.0
        mean = statistics.fmean(self.iteration_times_us)
        if mean == 0:
            return 0.0
        return statistics.pstdev(self.iteration_times_us) / mean

    def cumulative_mean_throughput(self):
        """Running mean throughput per iteration (how Fig. 12 reports curves)."""
        series = []
        total = 0.0
        for index, duration in enumerate(self.iteration_times_us, start=1):
            total += duration
            series.append(self.global_batch_size * index / (total / 1e6))
        return series


class TrainingRun:
    """Run ``iterations`` training iterations of ``plan`` on ``backend``.

    ``run()`` drives a dedicated cluster to completion.  Multi-tenant callers
    instead ``install()`` the run's host programs mid-simulation (the shared
    cluster is run by the scheduler) and ``collect()`` the result afterwards;
    ``on_rank_complete`` lets them observe per-rank completion times without
    owning the engine loop.
    """

    def __init__(self, cluster, plan, backend, iterations=5, warmup=1,
                 on_rank_complete=None):
        if iterations <= warmup:
            raise ConfigurationError("iterations must exceed warmup")
        self.cluster = cluster
        self.plan = plan
        self.backend = backend
        self.iterations = iterations
        self.warmup = warmup
        self.on_rank_complete = on_rank_complete
        self._start_times = {}
        self._end_times = {}

    def _record(self, store, rank, iteration):
        def hook(host):
            store[(rank, iteration)] = host.now
        return CallHook(hook, cost_us=0.0, detail=f"mark iter {iteration}")

    def _rank_done(self, rank):
        def hook(host):
            self.on_rank_complete(rank, host.now)
        return CallHook(hook, cost_us=0.0, detail=f"rank {rank} done")

    def build_programs(self):
        """Prepare the backend and build one host program per rank."""
        self.backend.prepare(self.plan)
        # Plans are normally iteration-invariant and their schedule is built
        # once per rank; a plan that varies per iteration (e.g. the jittered
        # multi-tenant view drawing fresh launch skew) opts in via the
        # ``iteration_variant`` attribute.
        iteration_variant = getattr(self.plan, "iteration_variant", False)
        programs = {}
        for rank in self.plan.ranks():
            ops = []
            schedule = None if iteration_variant else self.plan.iteration_schedule(rank)
            for iteration in range(self.iterations):
                if iteration_variant:
                    schedule = self.plan.iteration_schedule(rank)
                ops.append(self._record(self._start_times, rank, iteration))
                ops.extend(self.backend.iteration_ops(rank, schedule, iteration))
                ops.append(self._record(self._end_times, rank, iteration))
            ops.extend(self.backend.finalize_ops(rank))
            if self.on_rank_complete is not None:
                ops.append(self._rank_done(rank))
            programs[rank] = HostProgram(ops)
        return programs

    def install(self, name_prefix="trainer", start_time_us=None):
        """Add one host per rank to the cluster without running the engine.

        Returns the created hosts.  ``start_time_us`` starts the rank
        processes mid-simulation (jobs placed by the multi-tenant scheduler).
        """
        programs = self.build_programs()
        return [
            self.cluster.add_host(rank, program, name=f"{name_prefix}-rank{rank}",
                                  start_time_us=start_time_us)
            for rank, program in programs.items()
        ]

    def completed_iterations(self):
        """Leading iterations every rank fully recorded (checkpoint boundary).

        The multi-tenant scheduler checkpoints a preempted job at this
        boundary: iterations where some rank had not yet recorded its end
        mark are re-run on resume (their collectives are aborted at
        eviction), so no partial iteration is ever credited.
        """
        ranks = list(self.plan.ranks())
        completed = 0
        for iteration in range(self.iterations):
            if all((rank, iteration) in self._end_times for rank in ranks):
                completed += 1
            else:
                break
        return completed

    def collect(self, total_time_us, partial=False):
        """Assemble the :class:`TrainingResult` from the recorded marks.

        With ``partial=True`` ranks or iterations that never recorded (a rank
        lost to a crash, a job cut off at the deadline) are skipped instead of
        raising, and iteration times cover the ranks that did report.
        """
        ranks = list(self.plan.ranks())
        iteration_times = []
        per_rank = {rank: [] for rank in ranks}
        for iteration in range(self.iterations):
            durations = []
            for rank in ranks:
                start = self._start_times.get((rank, iteration))
                end = self._end_times.get((rank, iteration))
                if start is None or end is None:
                    if partial:
                        continue
                    raise ConfigurationError(
                        f"iteration {iteration} on rank {rank} was not recorded"
                    )
                per_rank[rank].append(end - start)
                durations.append(end - start)
            if durations:
                iteration_times.append(max(durations))

        measured = iteration_times[self.warmup:]
        return TrainingResult(
            backend=self.backend.name,
            iterations=len(measured),
            global_batch_size=self.plan.global_batch_size,
            iteration_times_us=measured,
            per_rank_times_us=per_rank,
            total_time_us=total_time_us,
        )

    def run(self):
        """Execute the run on a dedicated cluster and return the result."""
        self.install()
        total = self.cluster.run()
        return self.collect(total)
