"""The fault injector: replays a :class:`FaultPlan` into the event engine.

The injector is a service actor (``daemon = True``): it sleeps until the next
scheduled fault, applies it to the cluster, and finishes after the last one.
Because the engine only jumps virtual time to the earliest sleeper when every
worker is blocked, faults interleave with normal execution exactly as wall
clock faults would — including firing *while* collectives are mid-flight.
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError
from repro.gpusim.engine import Actor, StepResult


class FaultInjector(Actor):
    """Applies a fault plan's timeline to one simulated cluster."""

    daemon = True

    def __init__(self, cluster, plan, name=None):
        super().__init__(name or f"fault-injector-{plan.name}")
        self.cluster = cluster
        self.plan = plan.validate()
        for event in plan.events:
            ranks = (() if event.rank is None else (event.rank,)) + tuple(
                event.link or ())
            for rank in ranks:
                if not 0 <= rank < cluster.world_size:
                    raise ConfigurationError(
                        f"{event.kind} at {event.time_us}us names rank {rank}, "
                        f"outside the {cluster.world_size}-rank cluster")
        self._timeline = plan.timeline()
        self._cursor = 0
        #: Active slowdown factors per rank: overlapping stragglers stack
        #: (the worst factor wins) and one ending never cancels another.
        self._active_slowdowns = {}
        #: ``(time_us, action, event)`` records of everything applied.
        self.applied = []

    # -- engine protocol -------------------------------------------------------

    def step(self):
        if self._cursor >= len(self._timeline):
            return StepResult.done("fault plan exhausted")
        action = self._timeline[self._cursor]
        if action.time_us > self.now:
            return StepResult.sleep(action.time_us, f"armed {action.action}")
        self._cursor += 1
        detail = self._apply(action)
        return StepResult.progress(detail)

    # -- fault application -----------------------------------------------------

    def _device_id(self, rank):
        return self.cluster.device(rank).device_id

    def _apply(self, action):
        event = action.event
        now = max(self.now, action.time_us)
        if action.action == "crash":
            killed = self.cluster.fail_rank(event.rank, now)
            detail = f"crashed rank {event.rank} ({len(killed)} actors killed)"
        elif action.action == "slowdown":
            factors = self._active_slowdowns.setdefault(event.rank, [])
            factors.append(event.factor)
            self.cluster.device(event.rank).set_slowdown(max(factors), now)
            detail = f"slowed rank {event.rank} by {event.factor:g}x"
        elif action.action == "restore_speed":
            factors = self._active_slowdowns.get(event.rank, [])
            if event.factor in factors:
                factors.remove(event.factor)
            self.cluster.device(event.rank).set_slowdown(
                max(factors) if factors else 1.0, now
            )
            detail = f"restored rank {event.rank} speed"
        elif action.action == "degrade":
            rank_a, rank_b = event.link
            self.cluster.interconnect.degrade_link(
                self._device_id(rank_a), self._device_id(rank_b),
                beta_factor=event.factor, alpha_add_us=event.alpha_add_us,
            )
            detail = f"degraded link {rank_a}<->{rank_b} ({event.factor:g}x)"
        elif action.action == "restore_link":
            rank_a, rank_b = event.link
            self.cluster.interconnect.restore_link(
                self._device_id(rank_a), self._device_id(rank_b),
                beta_factor=event.factor, alpha_add_us=event.alpha_add_us,
            )
            detail = f"restored link {rank_a}<->{rank_b}"
        elif action.action == "stall":
            device = self.cluster.device(event.rank)
            if not device.failed:
                stalled = device.stall_resident(event.duration_us, now)
                detail = (f"stalled {len(stalled)} kernels on rank "
                          f"{event.rank} for {event.duration_us:g}us")
            else:
                detail = f"stall skipped: rank {event.rank} already failed"
        else:  # pragma: no cover - timeline() only emits the kinds above
            raise ConfigurationError(f"unknown fault action {action.action!r}")
        self.applied.append((now, action.action, event))
        return detail

    # -- introspection ---------------------------------------------------------

    @property
    def remaining(self):
        return len(self._timeline) - self._cursor


def install_fault_plan(cluster, plan, name=None):
    """Create a :class:`FaultInjector` for ``plan`` and register it."""
    injector = FaultInjector(cluster, plan, name=name)
    cluster.engine.add_actor(injector)
    return injector
