"""Seeded random collective-program generation.

A :class:`ProgramSpec` is a complete, declarative description of one
multi-rank program over the unified API: the process groups to create (with
jobs and priorities), the logical collective calls to issue (kind, size,
dtype, root, key, per-call priority and stream), the per-rank submission
order (possibly deliberately disordered, as in the paper's Fig. 1 recipes),
how many rounds each rank issues it, and an optional
:class:`~repro.faults.plan.FaultPlan`.

Everything is drawn from :class:`~repro.common.rng.DeterministicRNG` child
streams, so ``generate_program(seed, ...)`` is a pure function of its
arguments: the differential checker relies on that to assert deterministic
replay, and the minimizer relies on specs being plain data it can shrink.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRNG
from repro.faults.plan import FaultPlan

#: Collective call surface exercised by the generator (`barrier` is sugar for
#: a one-element all-reduce but goes through its own ProcessGroup entry point).
CALL_KINDS = ("all_reduce", "all_gather", "reduce_scatter", "all_to_all",
              "broadcast", "reduce", "barrier")

#: Kinds that carry a root argument.
ROOTED_KINDS = ("broadcast", "reduce")

#: Kinds whose result is a reduction (fingerprint-checkable).
REDUCING_KINDS = ("all_reduce", "reduce_scatter", "reduce", "barrier")

#: Default virtual-time deadline per program; a replay not finished by then
#: counts as stuck.
DEFAULT_DEADLINE_US = 1_000_000.0


@dataclass(frozen=True)
class GroupSpec:
    """One process group of a generated program."""

    index: int
    ranks: tuple
    job: str = None
    priority: int = 0


@dataclass(frozen=True)
class CallSpec:
    """One logical collective call (every member rank issues it once a round)."""

    call_id: int
    group_index: int
    kind: str
    count: int
    root: int = 0
    key: str = ""
    priority: int = None
    #: Launch stream; ``None`` is the backend's default stream.
    stream: str = None

    def describe(self):
        record = {"call_id": self.call_id, "group": self.group_index,
                  "kind": self.kind, "count": self.count, "key": self.key,
                  "stream": self.stream}
        if self.kind in ROOTED_KINDS:
            record["root"] = self.root
        if self.priority is not None:
            record["priority"] = self.priority
        return record


@dataclass(frozen=True)
class ProgramSpec:
    """A complete generated program (plain data, shrinkable)."""

    seed: int
    world_size: int
    topology: str
    chunk_bytes: int
    algorithm: str
    groups: tuple
    calls: tuple
    #: Per-rank call-id submission order, indexed by global rank.  Ranks not
    #: participating in any call have an empty tuple.
    orders: tuple
    fault_plan: FaultPlan = None
    deadline_us: float = DEFAULT_DEADLINE_US
    #: Times each rank issues its whole order, waiting for all of a round's
    #: Works before it issues the next round.
    rounds: int = 1

    def group(self, index):
        return self.groups[index]

    def call(self, call_id):
        for call in self.calls:
            if call.call_id == call_id:
                return call
        raise ConfigurationError(f"no call with id {call_id}")

    def order_for(self, rank):
        return self.orders[rank]

    @property
    def has_faults(self):
        return self.fault_plan is not None and len(self.fault_plan) > 0

    def crashed_ranks(self):
        return tuple(self.fault_plan.crash_ranks()) if self.has_faults else ()

    def describe(self):
        """The program as plain data (for logs and failure reports)."""
        return {
            "seed": self.seed,
            "world_size": self.world_size,
            "topology": self.topology,
            "chunk_bytes": self.chunk_bytes,
            "algorithm": self.algorithm,
            "groups": [
                {"index": group.index, "ranks": list(group.ranks),
                 "job": group.job, "priority": group.priority}
                for group in self.groups
            ],
            "calls": [call.describe() for call in self.calls],
            "orders": {rank: list(order) for rank, order in enumerate(self.orders)
                       if order},
            "fault_plan": self.fault_plan.describe() if self.has_faults else None,
            "deadline_us": self.deadline_us,
            "rounds": self.rounds,
        }

    def with_calls(self, calls):
        """A copy restricted to ``calls`` (orders filtered accordingly)."""
        keep = {call.call_id for call in calls}
        orders = tuple(
            tuple(call_id for call_id in order if call_id in keep)
            for order in self.orders
        )
        return replace(self, calls=tuple(calls), orders=orders)


def topology_for_world(world_size):
    """The smallest named testbed that fits ``world_size`` ranks."""
    if world_size < 1:
        raise ConfigurationError(f"world_size must be positive, got {world_size}")
    if world_size <= 8:
        return "single-3090"
    if world_size <= 16:
        return "dual-3090"
    if world_size <= 32:
        return "mixed-32"
    nodes = (world_size + 7) // 8
    return f"fat-tree-{nodes * 8}"


def collective_program(topology, world_size, kind="all_reduce", nbytes=1 << 20,
                       num_collectives=1, rounds=1, chunk_bytes=128 << 10,
                       algorithm="ring", fault_plan=None,
                       deadline_us=DEFAULT_DEADLINE_US):
    """One collective, repeated, on the world group, as a program.

    Every rank issues ``num_collectives`` ``kind`` calls of ``nbytes`` bytes
    (float32 elements, root 0), keyed ``0..num_collectives-1`` on the
    default stream, for ``rounds`` rounds, waiting for each round before the
    next.  This is the workload the performance harnesses time and the chaos
    scenarios fault.
    """
    calls = tuple(CallSpec(call_id=key, group_index=0, kind=kind,
                           count=max(1, nbytes // 4), key=key)
                  for key in range(num_collectives))
    return ProgramSpec(
        seed=0, world_size=world_size, topology=topology,
        chunk_bytes=chunk_bytes, algorithm=algorithm,
        groups=(GroupSpec(0, tuple(range(world_size))),),
        calls=calls, orders=(tuple(range(num_collectives)),) * world_size,
        fault_plan=fault_plan, deadline_us=deadline_us, rounds=rounds,
    )


def _draw_count(stream, max_count):
    """Log-uniform element count in [1, max_count]."""
    bits = stream.randint(0, max(0, max_count.bit_length() - 1))
    low = 1 << bits
    return stream.randint(low, min(max_count, (low << 1) - 1))


def generate_program(seed, world_size=8, max_calls=8, max_groups=3,
                     max_count=1 << 14, p_subgroup=0.5, p_disorder=0.3,
                     p_repeat=0.25, p_jobs=0.3, p_priority=0.3,
                     with_faults=False, algorithm=None, chunk_bytes=None,
                     topology=None, deadline_us=DEFAULT_DEADLINE_US):
    """Draw one random program from a seeded distribution.

    ``with_faults`` adds a seeded :class:`FaultPlan` (at least one rank crash
    plus background chaos); fault programs are checked for DFCCL
    deadlock-freedom rather than cross-backend parity, since the baseline
    backends have no recovery story by design.
    """
    if world_size < 2:
        raise ConfigurationError("generated programs need at least 2 ranks")
    rng = DeterministicRNG(seed).child("program", world_size)

    knob_stream = rng.child("knobs")
    if algorithm is None:
        algorithm = knob_stream.choice(["ring", "ring", "tree", "hierarchical",
                                        "auto"])
    if chunk_bytes is None:
        chunk_bytes = knob_stream.choice([16 << 10, 64 << 10, 128 << 10])
    if topology is None:
        topology = topology_for_world(world_size)

    # -- groups ---------------------------------------------------------------
    group_stream = rng.child("groups")
    groups = [GroupSpec(0, tuple(range(world_size)))]
    extra_groups = group_stream.randint(0, max_groups - 1)
    for index in range(1, extra_groups + 1):
        if group_stream.bernoulli(p_subgroup) and world_size > 2:
            size = group_stream.randint(2, world_size)
            ranks = tuple(sorted(group_stream.sample(range(world_size), size)))
        else:
            ranks = tuple(range(world_size))
        job = f"job{index}" if group_stream.bernoulli(p_jobs) else None
        priority = group_stream.randint(0, 2) if group_stream.bernoulli(p_priority) else 0
        groups.append(GroupSpec(index, ranks, job=job, priority=priority))

    # -- calls ----------------------------------------------------------------
    call_stream = rng.child("calls")
    calls = []
    num_calls = call_stream.randint(1, max_calls)
    for call_id in range(num_calls):
        if calls and call_stream.bernoulli(p_repeat):
            # Repeat an earlier logical collective: same group/kind/shape/key,
            # new call on its own stream — the next invocation index on
            # every member rank.
            base = call_stream.choice(calls)
            calls.append(replace(base, call_id=call_id, stream=f"s{call_id}"))
            continue
        group = groups[call_stream.randint(0, len(groups) - 1)]
        kind = call_stream.choice(CALL_KINDS)
        count = _draw_count(call_stream, max_count)
        root = (call_stream.randint(0, len(group.ranks) - 1)
                if kind in ROOTED_KINDS else 0)
        priority = (call_stream.randint(0, 3)
                    if call_stream.bernoulli(p_priority) else None)
        calls.append(CallSpec(
            call_id=call_id, group_index=group.index, kind=kind, count=count,
            root=root, key=f"c{call_id}", priority=priority,
            stream=f"s{call_id}",
        ))

    # -- per-rank submission orders -------------------------------------------
    orders = []
    for rank in range(world_size):
        order = [call.call_id for call in calls
                 if rank in groups[call.group_index].ranks]
        if len(order) > 1 and rng.child("order", rank).bernoulli(p_disorder):
            rng.child("shuffle", rank).shuffle(order)
        orders.append(tuple(order))

    # -- faults ---------------------------------------------------------------
    fault_plan = None
    if with_faults:
        fault_stream = rng.child("faults")
        horizon = min(deadline_us * 0.5, 50_000.0)
        fault_plan = FaultPlan.random(
            seed=fault_stream.randint(0, 1 << 30),
            world_size=world_size,
            horizon_us=horizon,
            expected_crashes=1.0,
            protect_ranks=(0,),
            name=f"fuzz-s{seed}",
        )
        if not fault_plan.crash_ranks():
            victim = fault_stream.randint(1, world_size - 1)
            fault_plan.add_crash(victim,
                                 at_us=fault_stream.uniform(0.05, 0.5) * horizon)

    return ProgramSpec(
        seed=seed,
        world_size=world_size,
        topology=topology,
        chunk_bytes=chunk_bytes,
        algorithm=algorithm,
        groups=tuple(groups),
        calls=tuple(calls),
        orders=tuple(orders),
        fault_plan=fault_plan,
        deadline_us=deadline_us,
    )
