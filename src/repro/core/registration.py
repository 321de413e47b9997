"""Registered collectives and their invocations.

``dfcclRegister*`` registers a collective once (its spec, device set and
priority); ``dfcclRun*`` then invokes it repeatedly.  A
:class:`RegisteredCollective` is the registration-time object shared by every
participating rank; an :class:`Invocation` is one run of it, tracking per-rank
executors, elastic recovery and completion.
"""

from __future__ import annotations

from repro.collectives.plan import CollectivePlan, CollectiveRun, CompletionInfo
from repro.collectives.primitives import PrimitiveExecutor
from repro.collectives.sequences import generate_primitive_sequence
from repro.common.errors import ConfigurationError
from repro.ncclsim.kernels import grid_size_for


class RegisteredCollective:
    """A collective registered with DFCCL (one per ``collId``)."""

    def __init__(self, coll_id, spec, devices, global_ranks, interconnect, config,
                 communicator, priority=0, name=None, job=None):
        self.coll_id = coll_id
        self.spec = spec
        self.devices = list(devices)
        #: Cluster rank of each group rank.
        self.global_ranks = list(global_ranks)
        self.priority = priority
        self.config = config
        self.interconnect = interconnect
        #: Pool namespace (tenant) this collective's communicators belong to.
        self.job = job
        self.name = name or f"dfccl-coll{coll_id}-{spec.kind.value}"
        #: The pooled communicator of the current membership.
        self.communicator = communicator
        #: Elastic-recovery state: original group ranks excluded by failure,
        #: and whether recovery gave up (e.g. the root of a rooted collective
        #: died — its data is gone).
        self.excluded_ranks = set()
        self.abandoned = False
        #: Membership, algorithm and cost prediction of the current
        #: generation; ``plan.generation`` counts the group's rebuilds.
        self.plan = self._compile_plan()
        #: The observability hub of the engine the participating devices run
        #: on (``None`` when the devices are unregistered or obs is off).
        engine = self.devices[0].engine if self.devices else None
        obs = engine.obs if engine is not None else None
        self.obs = obs if (obs is not None and obs.enabled) else None
        self.invocations = []
        self.run_counts = {}
        #: ``member_ranks`` of each communicator seen, by ``comm_id``.
        self._members = {}

    def _compile_plan(self, previous=None):
        """The plan of the current membership, one generation after
        ``previous`` (the first plan when ``None``)."""
        # A per-collective spec hint overrides the backend-wide config knob.
        return CollectivePlan(
            self.spec, self.devices, self.interconnect,
            self.spec.algorithm or self.config.algorithm,
            self.config.chunk_bytes, excluded=self.excluded_ranks,
            previous=previous,
        )

    @property
    def group_size(self):
        return len(self.devices)

    # -- elastic recovery (group shrink) ------------------------------------------

    def active_ranks(self):
        """Original group ranks that have not been excluded by a failure.

        Group ranks are *stable*: a collective registered over four devices
        keeps ranks 0..3 forever, exclusion only removes members.  Executors
        internally compact the surviving ranks into a dense virtual rank
        space so the ring/tree generators see a contiguous group.  Returns
        the plan's ascending tuple.
        """
        return self.plan.active_ranks

    def active_devices(self):
        return [self.devices[rank] for rank in self.plan.active_ranks]

    def failed_devices(self):
        """Member devices that have failed (one pass over the membership)."""
        devices = self.devices
        return [devices[rank] for rank in self.plan.active_ranks
                if devices[rank].failed]

    def shrink(self, failed_ranks, pool):
        """Exclude ``failed_ranks`` and rebuild the communicator over survivors.

        The old communicator must already be invalidated (the recovery path
        does this first); it is handed back to ``pool`` which discards it.
        Bumps the generation, which replaces the plan.  Returns the
        surviving original group ranks.
        """
        newly = set(failed_ranks) - self.excluded_ranks
        if not newly:
            return self.active_ranks()
        pool.release(self.communicator)
        self.excluded_ranks |= newly
        self.plan = self._compile_plan(previous=self.plan)
        survivors = self.active_ranks()
        if survivors:
            self.communicator = pool.acquire(self.active_devices(), job=self.job)
        return survivors

    @property
    def grid_size(self):
        """Blocks the collective would need (drives the daemon's launch shape)."""
        return grid_size_for(self.spec.nbytes)

    @property
    def block_size(self):
        return 256 if self.spec.nbytes < (1 << 20) else 512

    def group_rank_of_device(self, device):
        group_rank = self.plan.rank_of_device.get(device)
        if group_rank is None:
            raise ConfigurationError(
                f"device {device.name} does not participate in {self.name}"
            )
        return group_rank

    def member_ranks(self, communicator):
        """The global ranks of ``communicator``'s devices, a tuple built once
        per communicator (a device's group rank never changes)."""
        members = self._members.get(communicator.comm_id)
        if members is None:
            members = self._members[communicator.comm_id] = tuple(
                self.global_ranks[self.group_rank_of_device(device)]
                for device in communicator.devices)
        return members

    def invocation(self, index):
        """Return invocation ``index``, creating intermediate ones if needed."""
        while len(self.invocations) <= index:
            self.invocations.append(Invocation(self, len(self.invocations)))
        return self.invocations[index]

    def close(self):
        """Drop the invocations, which point back at the collective."""
        self.invocations = []

    def next_invocation_for_rank(self, group_rank):
        """The invocation the next ``dfcclRun*`` call of this rank refers to."""
        index = self.run_counts.get(group_rank, 0)
        self.run_counts[group_rank] = index + 1
        return self.invocation(index)

    def __repr__(self):
        return f"<RegisteredCollective {self.name} size={self.group_size} prio={self.priority}>"


class Invocation(CollectiveRun):
    """One run of a registered collective across all of its ranks.

    A rank starts at submission; ``expected_ranks`` follows elastic
    recovery.
    """

    backend = "dfccl"

    def __init__(self, coll, index):
        super().__init__(coll.name, coll.spec, coll.global_ranks, job=coll.job,
                         obs=coll.obs, index=index)
        self.coll = coll
        # Collective ids may be plain ints or (job, local id) tuples under the
        # multi-tenant scheduler; the invocation id only needs to be a unique
        # hashable key, so pair them instead of packing arithmetically.
        self.invocation_id = (coll.coll_id, index)
        self.context_switches = {}
        #: Participant signature as of each rank's GPU completion: a rank
        #: that finished before a later recovery keeps the group identity it
        #: actually reduced over.
        self.completion_signatures = {}
        #: Elastic-recovery state: the plan recovery last re-formed the
        #: invocation over (its members are the ranks expected to complete),
        #: the subset re-executing from scratch, and the dedicated
        #: communicator the re-run uses when some survivors already finished.
        self.recovery_generation = 0
        self._reformed_plan = None
        self._rerun_ranks = None
        self._rerun_communicator = None

    # -- identity ----------------------------------------------------------------

    @property
    def coll_id(self):
        return self.coll.coll_id

    @property
    def plan(self):
        """The collective's current plan (recovery replaces it)."""
        return self.coll.plan

    def completion_key(self, group_rank):
        return ("dfccl-inv-done", self.invocation_id, group_rank)

    # -- per-rank execution state ---------------------------------------------------

    @property
    def trace_key(self):
        return ("dfccl", self.coll_id, self.index, self.recovery_generation)

    def _compile(self, group_rank):
        """A re-running rank spans the re-run subset, over its dedicated
        communicator while it has one; any other rank spans the plan's
        members over the collective's communicator."""
        participants, communicator = None, self.coll.communicator
        if self._rerun_ranks is not None and group_rank in self._rerun_ranks:
            participants = self._rerun_ranks
            if self._rerun_communicator is not None:
                communicator = self._rerun_communicator
        plan, spec = self.plan, self.spec
        virtual_rank, size, root, island_size = plan.place(group_rank,
                                                            participants)
        sequence = generate_primitive_sequence(
            spec.kind, virtual_rank, size, spec.nbytes,
            chunk_bytes=plan.chunk_bytes, root=root, algorithm=plan.algorithm,
            island_size=island_size)
        return PrimitiveExecutor(virtual_rank, communicator, sequence)

    def begin_recovery(self, rerun_ranks, communicator):
        """Re-form this in-flight invocation over the current plan's members
        (the survivors of the shrink that just replaced it).

        The invocation now expects those members' completions;
        ``rerun_ranks`` (a subset) restart their primitive sequence from
        position 0 over ``communicator``.  Cached executors of re-running
        ranks are dropped so the next ``executor_for`` compiles the shrunken
        sequence.
        """
        self._reformed_plan = self.coll.plan
        self._rerun_ranks = tuple(rerun_ranks)
        self._rerun_communicator = communicator
        self.recovery_generation += 1
        for rank in rerun_ranks:
            self._executors.pop(rank, None)

    def take_rerun_communicator(self):
        """Detach and return the dedicated rerun communicator (or ``None``).

        Called when the rerun finished (to recycle the communicator) or when
        a further failure supersedes it (to invalidate it).
        """
        communicator, self._rerun_communicator = self._rerun_communicator, None
        return communicator

    # -- completion tracking --------------------------------------------------------

    def add_context_switch(self, group_rank, count=1):
        self.context_switches[group_rank] = self.context_switches.get(group_rank, 0) + count

    def completion_info(self, group_rank):
        """The signature this rank's GPU part completed under and the ranks
        of the communicator it ran over.

        A rank that finished before a later recovery keeps the pre-crash
        full-group identity even though it is observed afterwards.
        """
        time_us = self.complete_times.get(group_rank)
        if time_us is None:
            return None
        signature = self.completion_signatures.get(
            group_rank, self.participant_signature())
        coll = self.coll
        executor = self.executor_if_cached(group_rank)
        if executor is not None:
            # Ground truth: the member set of the communicator this rank
            # actually communicated over.
            members = coll.member_ranks(executor.communicator)
        else:
            members = tuple(coll.global_ranks[rank] for rank in signature[1])
        return CompletionInfo(signature=signature, member_ranks=members,
                              time_us=time_us)

    def expected_ranks(self):
        """The survivors once recovery re-formed the invocation, else the
        current plan's members."""
        return (self._reformed_plan or self.coll.plan).active_set

    def participant_signature(self):
        """Deterministic identity of the contributing rank set.

        Every surviving rank must observe the same signature when its
        callback fires — this is the simulation-level analogue of all ranks
        holding byte-identical reduction results.
        """
        return (self.recovery_generation,
                (self._reformed_plan or self.coll.plan).active_ranks)

    def __repr__(self):
        return (
            f"<Invocation coll={self.coll_id} #{self.index} "
            f"complete={len(self.complete_times)}/{self.group_size}>"
        )
