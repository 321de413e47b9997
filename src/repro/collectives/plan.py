"""Collective plans: a collective resolved once per membership.

A collective's primitive-sequence composition is *static context* (Sec. 4.2):
it depends only on the spec, the participating devices and the resolved
algorithm, all fixed when the collective is registered.  A
:class:`CollectivePlan` holds the membership-derived part of that state for
one membership of one collective, and both backends place every rank's
schedule with it (:meth:`CollectivePlan.place`):

* DFCCL's :class:`~repro.core.registration.RegisteredCollective` owns one plan
  per ``generation``.  Registration builds the first; every elastic shrink or
  grow bumps the generation and replaces the plan.
* The NCCL baseline's ``repro.api`` adapter keeps one plan per
  ``(member ranks, spec)``, shared by the per-call ops of one logical
  collective.

A plan lives and dies with its owner: there is no global cache and nothing to
configure.

A :class:`CollectiveRun` is one invocation of a collective across its ranks,
and the one place every backend measures and completes it: per-rank start
and completion times, the per-rank ``"collective"`` span, the calibration
sample, and the completion callbacks behind ``repro.api``'s ``Work``.  It
also owns the ranks' executors: each is compiled on first use, traced for
time attribution and cached.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collectives.selector import AlgorithmSelector
from repro.common.errors import ConfigurationError, InvalidStateError
from repro.collectives.sequences import hierarchical_island_size


class CollectivePlan:
    """Membership, algorithm and cost prediction of one collective.

    ``devices`` are the collective's devices by group rank; ``excluded``
    names group ranks that are not members of this generation (elastic
    shrink).  Group ranks are stable, so a plan resolves membership-derived
    values once and answers the hot-path queries with lookups:

    * ``active_ranks`` — member group ranks, ascending (a tuple, which is
      also the sorted participant signature) — and ``active_set``;
    * ``rank_of_device`` — device to group rank, over every device;
    * ``island_size``, ``algorithm``, ``predicted_cost_us`` and
      ``predicted_breakdown`` for the member devices;
    * :meth:`place` — a rank's position in a schedule over the members or
      over a subset of them.
    """

    def __init__(self, spec, devices, interconnect, algorithm, chunk_bytes,
                 excluded=(), previous=None):
        if chunk_bytes <= 0:
            raise ConfigurationError(
                f"chunk_bytes must be positive, got {chunk_bytes}")
        self.spec = spec.validate()
        self.devices = tuple(devices)
        self.interconnect = interconnect
        self.chunk_bytes = chunk_bytes
        #: How many memberships came before this one: ``previous``'s
        #: generation plus one.
        self.generation = 0 if previous is None else previous.generation + 1
        self.active_ranks = tuple(rank for rank in range(len(self.devices))
                                  if rank not in excluded)
        self.active_set = frozenset(self.active_ranks)
        self.rank_of_device = {}
        for rank, device in enumerate(self.devices):
            self.rank_of_device.setdefault(device, rank)
        self._virtual_ranks = {rank: index
                               for index, rank in enumerate(self.active_ranks)}
        device_ids = [self.devices[rank].device_id for rank in self.active_ranks]
        self.island_size = hierarchical_island_size(
            device_id.node for device_id in device_ids)
        if device_ids or previous is None:
            selector = AlgorithmSelector(interconnect, chunk_bytes=chunk_bytes)
            kind, nbytes, size = spec.kind, spec.nbytes, len(device_ids)
            self.algorithm = selector.resolve(algorithm, kind, nbytes, size,
                                              device_ids)
            #: The selector's alpha-beta prediction for the resolved
            #: algorithm by bucket, and its sum: carried on every collective
            #: span and compared against measured virtual time in the
            #: calibration report.
            self.predicted_breakdown = selector.predicted_cost_breakdown(
                self.algorithm, kind, nbytes, size, device_ids)
            self.predicted_cost_us = sum(self.predicted_breakdown.values())
        else:
            # No member left: the collective is being abandoned, and its
            # remaining spans keep the last membership's resolution.
            self.algorithm = previous.algorithm
            self.predicted_cost_us = previous.predicted_cost_us
            self.predicted_breakdown = previous.predicted_breakdown

    def place(self, group_rank, participants=None):
        """Where ``group_rank`` sits in a schedule over ``participants``.

        ``participants`` is a tuple of group ranks, defaulting to the plan's
        ``active_ranks`` (answered from precomputed values).  Returns
        ``(virtual_rank, size, virtual_root, island_size)``: the rank's and
        the root's index among the participants, their count and their
        hierarchical island size, so after a group shrink the survivors form
        a dense ring/tree among themselves.  Raises ``ConfigurationError``
        for a rank that does not participate, and for a rooted kind whose
        root does not: the root's data cannot be reconstructed from the
        others.
        """
        if participants is None or participants is self.active_ranks:
            participants, island_size = self.active_ranks, self.island_size
            index_of = self._virtual_ranks.get
        else:
            island_size = hierarchical_island_size(
                self.devices[rank].device_id.node for rank in participants)
            index_of = dict(zip(participants, range(len(participants)))).get
        virtual_rank = index_of(group_rank)
        if virtual_rank is None:
            raise ConfigurationError(
                f"group rank {group_rank} is not a participant of {self!r} "
                f"(participants: {list(participants)})")
        virtual_root = index_of(self.spec.root)
        if virtual_root is None:
            if self.spec.kind.rooted:
                raise ConfigurationError(
                    f"root {self.spec.root} of {self!r} is not among the "
                    f"participants {list(participants)}; a rooted collective "
                    "cannot be re-formed without its root")
            virtual_root = 0
        return virtual_rank, len(participants), virtual_root, island_size

    def __repr__(self):
        return (f"<CollectivePlan {self.spec.kind.value} gen={self.generation} "
                f"members={len(self.active_ranks)}/{len(self.devices)} "
                f"algorithm={self.algorithm}>")


@dataclass(frozen=True)
class CompletionInfo:
    """What one rank's completed collective actually reduced over.

    ``signature`` is the ``(recovery_generation, group_ranks)`` identity of
    the participant set at completion time — all ranks sharing a signature
    must hold byte-identical results.  ``member_ranks`` are the *global*
    ranks whose contributions entered this rank's result (after any elastic
    group shrink), and ``time_us`` is the completion time.
    """

    signature: tuple
    member_ranks: tuple
    time_us: float


class CollectiveRun:
    """One invocation of one collective across its ranks: the run record.

    DFCCL's :class:`~repro.core.registration.Invocation`, the NCCL
    baseline's :class:`~repro.ncclsim.NcclCollectiveOp` and the MPI
    adapter's rendezvous are subclasses; each sets ``backend`` and a
    ``plan`` (or the ``algorithm``/``predicted_*`` values it would give).
    A subclass that runs primitive schedules defines ``_compile(rank)``,
    which builds the rank's executor, and ``trace_key``, its invocation's
    identity in the time-attribution log; :meth:`executor_for` calls the
    first once per rank.

    ``start_times`` and ``complete_times`` map group ranks to virtual time.
    When observability is on, :meth:`mark_started` opens the rank's
    ``"collective"`` span on track ``rank<global rank>`` under ``job``,
    :meth:`mark_complete` closes it, and the last expected completion
    records the calibration sample.  A span stays open while its rank is
    in flight, so a flight-recorder dump lists it.

    A rank is *done* once the backend delivered its completion
    (:meth:`deliver`) and the callbacks registered for it have run: DFCCL
    delivers when its poller drains the CQE, NCCL when the rank's kernel
    completes, MPI when the rank's rendezvous wait ends.
    """

    #: Backend label of the calibration samples.
    backend = None

    def __init__(self, name, spec, global_ranks, job=None, obs=None, index=0):
        self.name = name
        self.spec = spec
        #: Cluster rank of each group rank (shared with the owner, so a
        #: rejoin that re-seats a group rank is seen here).
        self.global_ranks = global_ranks
        self.job = job
        #: The engine's observability hub, or ``None`` when it is off.
        self.obs = obs if (obs is not None and obs.enabled) else None
        self.index = index
        self.start_times = {}
        self.complete_times = {}
        self._all_ranks = frozenset(range(len(global_ranks)))
        #: Group ranks whose part was aborted (read only; see
        #: :meth:`mark_aborted`).
        self.aborted_ranks = set()
        self._callbacks = {}
        self._delivered = set()
        self._spans = {}
        self._executors = {}

    @property
    def algorithm(self):
        return self.plan.algorithm

    @property
    def predicted_cost_us(self):
        return self.plan.predicted_cost_us

    @property
    def predicted_breakdown(self):
        return self.plan.predicted_breakdown

    @property
    def group_size(self):
        return len(self.global_ranks)

    def track(self, rank):
        """Span and trace track of group rank ``rank``."""
        return f"rank{self.global_ranks[rank]}"

    def expected_ranks(self):
        """Group ranks whose completion completes the run (a frozenset)."""
        return self._all_ranks

    def executor_for(self, rank):
        """``rank``'s executor: compiled by ``_compile`` on first use and
        registered for time attribution (when enabled), then cached."""
        executor = self._executors.get(rank)
        if executor is None:
            executor = self._executors[rank] = self._compile(rank)
            if self.obs is not None and self.obs.analysis is not None:
                self.obs.analysis.attach(executor, self, rank, self.trace_key)
        return executor

    def executor_if_cached(self, rank):
        """The executor ``rank`` compiled, without compiling a new one."""
        return self._executors.get(rank)

    def mark_started(self, rank, time_us):
        if rank in self.start_times:
            raise InvalidStateError(f"{self.name} #{self.index} started twice "
                                    f"on rank {rank}")
        self.start_times[rank] = time_us
        if self.obs is not None:
            self._spans[rank] = self.obs.tracer.begin(
                self.name, "collective", time_us, track=self.track(rank),
                job=self.job,
                attrs={"invocation": self.index, "group_rank": rank,
                       "algorithm": self.algorithm,
                       "predicted_cost_us": self.predicted_cost_us})

    def mark_complete(self, rank, time_us, executor=None):
        """Record ``rank``'s completion and close its span.

        ``executor`` puts the primitives it ran on the span: the analysis
        layer joins spans to execution traces through them.  Its
        ``position`` is never rewound (recovery compiles a new executor), so
        it is both the count executed and the final position.
        """
        if rank in self.complete_times:
            raise InvalidStateError(f"{self.name} #{self.index} completed "
                                    f"twice on rank {rank}")
        self.complete_times[rank] = time_us
        obs = self.obs
        if obs is None:
            return
        span = self._spans.pop(rank, None)
        if span is not None:
            if executor is not None:
                obs.tracer.end(span, time_us, primitives=executor.position,
                               final_position=executor.position)
            else:
                obs.tracer.end(span, time_us)
        if self.fully_complete() and self.start_times:
            obs.record_collective(
                self.backend, self.algorithm, self.spec.kind.value,
                self.spec.nbytes, len(self.expected_ranks()),
                self.latency_us(), predicted_us=self.predicted_cost_us,
                predicted_breakdown=self.predicted_breakdown)

    def mark_aborted(self, rank, time_us=None):
        """Abort ``rank``'s part (its collective was abandoned).

        No-op (returns ``False``) for a part that already completed or was
        already aborted; a completed part keeps its completion.
        """
        if rank in self.complete_times or rank in self.aborted_ranks:
            return False
        self.aborted_ranks.add(rank)
        obs = self.obs
        if obs is not None:
            obs.metrics.counter("collective_aborts").inc()
            span = self._spans.pop(rank, None)
            if span is not None:
                end = time_us if time_us is not None else span.start_us
                obs.tracer.end(span, end, aborted=True)
        return True

    def add_callback(self, rank, callback):
        """Run ``callback()`` when ``rank``'s completion is delivered."""
        self._callbacks.setdefault(rank, []).append(callback)

    def deliver(self, rank):
        """Deliver ``rank``'s completion: run its callbacks, then it is done.

        The caller wakes the rank's waiter.
        """
        for callback in self._callbacks.pop(rank, ()):
            callback()
        self._delivered.add(rank)

    def is_complete(self, rank):
        return rank in self.complete_times

    def is_done(self, rank):
        """True once ``rank``'s completion was delivered."""
        return rank in self._delivered

    def is_aborted(self, rank):
        return rank in self.aborted_ranks

    def is_resolved(self, rank):
        """Done or aborted: the rank's wait can return either way."""
        return rank in self._delivered or rank in self.aborted_ranks

    def completion_info(self, rank):
        """``rank``'s :class:`CompletionInfo`, or ``None`` while running.

        Without elastic recovery the participant set is the whole group,
        generation 0.
        """
        time_us = self.complete_times.get(rank)
        if time_us is None:
            return None
        return CompletionInfo(signature=(0, tuple(range(self.group_size))),
                              member_ranks=tuple(self.global_ranks),
                              time_us=time_us)

    def primitive_sequence(self, rank):
        """The :class:`Schedule` ``rank`` ran (compiled now if it never
        ran)."""
        return self.executor_for(rank).primitives

    def fully_complete(self):
        expected = self.expected_ranks()
        return (len(self.complete_times) >= len(expected)
                and expected <= self.complete_times.keys())

    def latency_us(self):
        """First start to last completion across the ranks."""
        return max(self.complete_times.values()) - min(self.start_times.values())
