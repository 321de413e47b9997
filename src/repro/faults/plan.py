"""Fault plans: composable, seeded schedules of failure events.

A :class:`FaultPlan` is a declarative schedule of :class:`FaultEvent` records.
Each event names a *kind*, a virtual time, a target (a rank or a rank pair)
and kind-specific parameters:

``rank_crash``
    The GPU and its rank process die at ``time_us``; resident kernels are
    killed where they stand and never release their resources.
``gpu_slowdown``
    A straggler: the rank's virtual time is dilated by ``factor`` for
    ``duration_us`` (``None`` = until the end of the run).
``link_degrade``
    The link between ``link=(rank_a, rank_b)`` loses bandwidth
    (divided by ``factor``) and gains latency (``alpha_add_us``) for
    ``duration_us``.
``link_flap``
    Sugar for a severe transient ``link_degrade`` (default 100x bandwidth
    loss + 500 us latency) — the link "goes away" briefly and comes back.
``kernel_stall``
    Every kernel resident on the rank freezes for ``duration_us`` once
    (driver hiccup / ECC scrub model).

Plans are built fluently (``FaultPlan("x").add_crash(3, at_us=200)``) or drawn
from a seeded distribution (:meth:`FaultPlan.random`) so chaos experiments are
exactly reproducible.  The :class:`repro.faults.injector.FaultInjector` turns
a plan into engine events.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRNG

FAULT_KINDS = ("rank_crash", "gpu_slowdown", "link_degrade", "link_flap",
               "kernel_stall")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault."""

    kind: str
    time_us: float
    rank: int = None
    link: tuple = None
    duration_us: float = None
    factor: float = 1.0
    alpha_add_us: float = 0.0

    def validate(self):
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(f"unknown fault kind {self.kind!r}")
        if self.time_us < 0:
            raise ConfigurationError(f"fault time must be non-negative, got {self.time_us}")
        if self.kind in ("rank_crash", "gpu_slowdown", "kernel_stall"):
            if self.rank is None or self.rank < 0:
                raise ConfigurationError(f"{self.kind} needs a non-negative rank")
        if self.kind in ("link_degrade", "link_flap"):
            if (not self.link or len(self.link) != 2
                    or self.link[0] == self.link[1] or min(self.link) < 0):
                raise ConfigurationError(
                    f"{self.kind} needs a (rank_a, rank_b) pair of distinct "
                    f"non-negative ranks"
                )
        if self.factor < 1.0:
            raise ConfigurationError(f"fault factor must be >= 1, got {self.factor}")
        if self.alpha_add_us < 0.0:
            raise ConfigurationError(
                f"fault alpha_add_us must be non-negative, got {self.alpha_add_us}"
            )
        if self.duration_us is not None and self.duration_us <= 0:
            raise ConfigurationError(
                f"fault duration must be positive, got {self.duration_us}"
            )
        if self.kind == "kernel_stall" and self.duration_us is None:
            raise ConfigurationError("kernel_stall needs a duration")
        return self

    def describe(self):
        """Plain-dict form of the event (the documented plan schema)."""
        record = {"kind": self.kind, "time_us": self.time_us}
        if self.rank is not None:
            record["rank"] = self.rank
        if self.link is not None:
            record["link"] = tuple(self.link)
        if self.duration_us is not None:
            record["duration_us"] = self.duration_us
        if self.factor != 1.0:
            record["factor"] = self.factor
        if self.alpha_add_us:
            record["alpha_add_us"] = self.alpha_add_us
        return record


@dataclass(frozen=True)
class AtomicAction:
    """One instantaneous action the injector applies (expanded from events)."""

    time_us: float
    action: str            # "crash" | "slowdown" | "restore_speed" |
    #                        "degrade" | "restore_link" | "stall"
    event: FaultEvent


@dataclass
class FaultPlan:
    """A named, ordered collection of fault events."""

    name: str = "fault-plan"
    events: list = field(default_factory=list)
    seed: int = None

    # -- fluent builders -------------------------------------------------------

    def add(self, event):
        self.events.append(event.validate())
        return self

    def add_crash(self, rank, at_us):
        return self.add(FaultEvent("rank_crash", at_us, rank=rank))

    def add_straggler(self, rank, at_us, factor=4.0, duration_us=None):
        return self.add(FaultEvent("gpu_slowdown", at_us, rank=rank,
                                   factor=factor, duration_us=duration_us))

    def add_link_flap(self, rank_a, rank_b, at_us, duration_us=200.0,
                      factor=100.0, alpha_add_us=500.0):
        return self.add(FaultEvent("link_flap", at_us, link=(rank_a, rank_b),
                                   factor=factor, alpha_add_us=alpha_add_us,
                                   duration_us=duration_us))

    def add_kernel_stall(self, rank, at_us, duration_us=100.0):
        return self.add(FaultEvent("kernel_stall", at_us, rank=rank,
                                   duration_us=duration_us))

    # -- derived views ---------------------------------------------------------

    def validate(self):
        for event in self.events:
            event.validate()
        return self

    def crash_ranks(self):
        return sorted({event.rank for event in self.events
                       if event.kind == "rank_crash"})

    def describe(self):
        """The plan as plain data (name, seed, event schema records)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "events": [event.describe() for event in self.events],
        }

    def timeline(self):
        """Expand events into time-ordered :class:`AtomicAction` records."""
        actions = []
        for event in self.events:
            event.validate()
            if event.kind == "rank_crash":
                actions.append(AtomicAction(event.time_us, "crash", event))
            elif event.kind == "gpu_slowdown":
                actions.append(AtomicAction(event.time_us, "slowdown", event))
                if event.duration_us is not None:
                    actions.append(AtomicAction(
                        event.time_us + event.duration_us, "restore_speed", event
                    ))
            elif event.kind in ("link_degrade", "link_flap"):
                actions.append(AtomicAction(event.time_us, "degrade", event))
                if event.duration_us is not None:
                    actions.append(AtomicAction(
                        event.time_us + event.duration_us, "restore_link", event
                    ))
            elif event.kind == "kernel_stall":
                actions.append(AtomicAction(event.time_us, "stall", event))
        actions.sort(key=lambda action: action.time_us)
        return actions

    def shifted(self, delta_us):
        """A copy of the plan with every event delayed by ``delta_us``."""
        shifted = FaultPlan(name=self.name, seed=self.seed)
        for event in self.events:
            shifted.add(replace(event, time_us=event.time_us + delta_us))
        return shifted

    # -- seeded generation -----------------------------------------------------

    @classmethod
    def random(cls, seed, world_size, horizon_us, expected_crashes=0.5,
               expected_stragglers=1.0, expected_flaps=1.0,
               expected_stalls=1.0, name=None, protect_ranks=()):
        """Draw a reproducible chaos schedule from a seeded distribution.

        ``expected_*`` are mean event counts over the horizon; actual counts
        are drawn from the same deterministic stream, so equal seeds give
        byte-identical plans.  ``protect_ranks`` are never crashed (a chaos
        experiment usually keeps rank 0 alive to observe completion).
        """
        if world_size < 2:
            raise ConfigurationError("a chaos plan needs at least two ranks")
        rng = DeterministicRNG(seed).child("fault-plan", world_size, horizon_us)
        plan = cls(name=name or f"random-s{seed}", seed=seed)

        def draw_count(stream, expected):
            # Poisson-ish small-count draw from a geometric series; exact
            # distribution does not matter, determinism and the mean do.
            count = 0
            while stream.bernoulli(expected / (expected + 1.0)) and count < 8:
                count += 1
            return count

        crash_stream = rng.child("crash")
        crashable = [rank for rank in range(world_size)
                     if rank not in set(protect_ranks)]
        for index in range(draw_count(crash_stream, expected_crashes)):
            if not crashable:
                break
            rank = crash_stream.choice(crashable)
            crashable.remove(rank)
            plan.add_crash(rank, at_us=crash_stream.uniform(0.1, 0.9) * horizon_us)

        straggler_stream = rng.child("straggler")
        for index in range(draw_count(straggler_stream, expected_stragglers)):
            plan.add_straggler(
                straggler_stream.randint(0, world_size - 1),
                at_us=straggler_stream.uniform(0.0, 0.8) * horizon_us,
                factor=straggler_stream.uniform(2.0, 8.0),
                duration_us=straggler_stream.uniform(0.05, 0.3) * horizon_us,
            )

        flap_stream = rng.child("flap")
        for index in range(draw_count(flap_stream, expected_flaps)):
            rank_a = flap_stream.randint(0, world_size - 1)
            rank_b = (rank_a + flap_stream.randint(1, world_size - 1)) % world_size
            plan.add_link_flap(
                rank_a, rank_b,
                at_us=flap_stream.uniform(0.0, 0.8) * horizon_us,
                duration_us=flap_stream.uniform(0.02, 0.15) * horizon_us,
            )

        stall_stream = rng.child("stall")
        for index in range(draw_count(stall_stream, expected_stalls)):
            plan.add_kernel_stall(
                stall_stream.randint(0, world_size - 1),
                at_us=stall_stream.uniform(0.0, 0.9) * horizon_us,
                duration_us=stall_stream.uniform(20.0, 200.0),
            )
        return plan

    def __len__(self):
        return len(self.events)

    def __repr__(self):
        return f"<FaultPlan {self.name!r} events={len(self.events)}>"
