"""Virtual time used throughout the simulation.

All durations are expressed in microseconds as floats.  A ``VirtualClock`` is
attached to every simulated active entity (GPU, host thread, network link
endpoint); the event engine always advances the entity with the smallest local
time, which keeps all clocks within one scheduling quantum of each other.
"""

from __future__ import annotations


class VirtualClock:
    """A monotonically non-decreasing local clock measured in microseconds.

    ``rate`` is a time-dilation factor applied to relative advances: a clock
    with rate 2.0 belongs to an entity running at half speed, so every unit of
    work costs twice the virtual time.  Absolute jumps (``advance_to``) are
    unaffected — external events such as message arrivals happen at their real
    time regardless of how slow the local entity is.  Fault injection uses the
    rate to model straggler GPUs.
    """

    __slots__ = ("now", "rate")

    def __init__(self, start_us=0.0, rate=1.0):
        #: Current local time in microseconds.  A plain attribute, not a
        #: property: the simulator reads clocks millions of times per run and
        #: descriptor dispatch was measurable at 512 ranks.  Mutate only
        #: through :meth:`advance` / :meth:`advance_to`.
        self.now = float(start_us)
        self.rate = float(rate)

    def advance(self, delta_us):
        """Advance the clock by ``delta_us`` microseconds and return the new time."""
        if delta_us < 0:
            raise ValueError(f"cannot advance clock by negative time {delta_us}")
        self.now += delta_us * self.rate
        return self.now

    def advance_to(self, timestamp_us):
        """Move the clock forward to ``timestamp_us`` if it is in the future."""
        if timestamp_us > self.now:
            self.now = timestamp_us
        return self.now

    def __repr__(self):
        return f"VirtualClock(now={self.now:.3f}us)"
