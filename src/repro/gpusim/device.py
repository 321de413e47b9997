"""The simulated GPU: block resources, streams, synchronization, kernel launch.

A :class:`GpuDevice` is itself an engine actor.  Its step examines every
stream, launching the head kernel whenever enough block slots are free and no
earlier synchronization barrier is pending.  Resident kernels are actors of
their own (subclasses of :class:`KernelActor`); when one completes the device
reclaims its blocks, updates synchronization barriers and re-evaluates launch
opportunities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.common.errors import ConfigurationError, InvalidStateError
from repro.gpusim.engine import Actor, StepResult
from repro.gpusim.stream import Stream, SyncBarrier


@dataclass(frozen=True)
class SmInterferenceModel:
    """SM contention between co-resident kernels of *different* tenants.

    A GPU shared by several jobs runs each resident kernel slower: the SM
    scheduler time-slices warps across tenants, and cache/memory-bandwidth
    pressure grows with occupancy.  The model dilates every resident kernel's
    virtual clock by ``1 + slope * (tenants - 1) * occupancy`` (capped), where
    occupancy is the fraction of block slots in use.  Kernels of a single
    tenant — including DFCCL's one shared daemon kernel per GPU — are never
    dilated, which is precisely the daemon-kernel model's multi-tenant
    advantage.
    """

    slope: float = 0.6
    cap: float = 4.0

    def validate(self):
        if self.slope < 0.0:
            raise ConfigurationError(f"interference slope must be >= 0, got {self.slope}")
        if self.cap < 1.0:
            raise ConfigurationError(f"interference cap must be >= 1, got {self.cap}")
        return self

    def factor(self, num_tenants, occupied_blocks, max_blocks):
        """Dilation factor for the current residency mix (>= 1)."""
        if num_tenants <= 1 or max_blocks <= 0:
            return 1.0
        occupancy = min(1.0, occupied_blocks / max_blocks)
        return min(self.cap, 1.0 + self.slope * (num_tenants - 1) * occupancy)


class KernelActor(Actor):
    """Base class for kernels resident on a simulated GPU.

    Subclasses implement :meth:`run_step`, returning a :class:`StepResult`
    exactly as a normal actor would; the base class handles residency
    bookkeeping and completion notification.
    """

    #: Owning tenant (job id) for SM-contention accounting; ``None`` groups
    #: the kernel with every other untagged kernel of its device.
    tenant = None

    def __init__(self, name, device, grid_size=1, block_size=256):
        super().__init__(name)
        self.device = device
        self.grid_size = grid_size
        self.block_size = block_size
        self.launched = False
        self.completed = False
        self.launch_time_us = None
        self.complete_time_us = None

    # -- lifecycle -----------------------------------------------------------

    def on_launch(self, time_us):
        """Called by the device when the kernel becomes resident."""
        self.launched = True
        self.launch_time_us = time_us
        self.clock.advance_to(time_us)
        self.clock.rate = self.device.effective_kernel_rate()

    def complete(self, detail="kernel complete"):
        """Mark the kernel finished and notify the device.  Returns DONE."""
        if self.completed:
            raise InvalidStateError(f"kernel {self.name} completed twice")
        self.completed = True
        self.complete_time_us = self.now
        self.device.on_kernel_complete(self)
        return StepResult.done(detail)

    def step(self):
        if not self.launched:
            raise InvalidStateError(f"kernel {self.name} stepped before launch")
        return self.run_step()

    def run_step(self):
        raise NotImplementedError

    def settle(self):
        """End a timed wait of this kernel now (see :meth:`Engine.settle`).

        Call it before changing what the kernel's next retry would see other
        than through its wait keys: its clock or clock rate, or the state of
        a collective it holds.
        """
        if self.engine is not None:
            self.engine.settle(self)

    @property
    def completion_key(self):
        return ("kernel-done", self.name)


class SleepKernel(KernelActor):
    """A kernel that occupies its blocks for a fixed duration (compute stand-in).

    The sleep advances in bounded slices so that mid-flight rate changes —
    straggler slowdowns, multi-tenant SM interference — dilate the remaining
    work instead of being skipped over in one jump.
    """

    #: Maximum un-dilated work per engine step.
    SLICE_US = 50.0

    def __init__(self, name, device, duration_us, grid_size=1, block_size=256):
        super().__init__(name, device, grid_size, block_size)
        self.duration_us = duration_us
        self._remaining_us = float(duration_us)

    def run_step(self):
        if self._remaining_us > 0:
            slice_us = min(self._remaining_us, self.SLICE_US)
            self._remaining_us -= slice_us
            self.clock.advance(slice_us)
            return StepResult.progress("compute")
        return self.complete()


class GpuDevice(Actor):
    """One simulated GPU."""

    #: The device's launch scheduler is a service actor: it idles blocked on
    #: its work key and must not keep the simulation alive.
    daemon = True

    #: Host→device kernel launch overhead, charged on the device timeline.
    LAUNCH_OVERHEAD_US = 4.0
    #: Cost of one device-side scheduling pass.
    SCHED_PASS_US = 0.2

    def __init__(self, device_id, max_resident_blocks, interference=None):
        super().__init__(f"gpu-{device_id}")
        self.device_id = device_id
        #: Wait keys, built once (``work_key`` is read on every step):
        #: signalled whenever the device may be able to launch something,
        #: whenever it becomes completely idle, and once when it fails.
        self.work_key = ("gpu-work", str(device_id))
        self.idle_key = ("gpu-idle", str(device_id))
        self.failed_key = ("gpu-failed", str(device_id))
        self.max_resident_blocks = max_resident_blocks
        self.free_blocks = max_resident_blocks
        #: Optional :class:`SmInterferenceModel`; ``None`` disables dilation
        #: (tenant accounting stays on either way).
        self.interference = interference.validate() if interference is not None else None
        self._interference_factor = 1.0

        #: Launch scans visit streams in creation order, which fixes virtual
        #: time, so the default stream always comes first.
        self.streams = {"default": Stream("default")}
        self.resident = set()
        self.barriers = []
        self._sequence = itertools.count()
        self._barrier_ids = itertools.count()

        # Fault state (driven by repro.faults).
        self.failed = False
        self.fail_time_us = None
        self.slowdown_factor = 1.0

        #: Multi-tenant contention statistics: the most distinct tenants ever
        #: co-resident, and how often a launchable stream head was deferred
        #: solely because another tenant held its block slots.
        self.peak_resident_tenants = 0
        self.cross_tenant_block_waits = 0

    # -- fault injection -------------------------------------------------------

    def fail(self, time_us):
        """Crash the device: every resident kernel dies where it stands.

        Kernels are removed from engine scheduling without completion
        callbacks — their blocks are never reclaimed and their peers never
        receive another chunk, exactly as when a real rank process dies.
        Queued (not yet launched) kernels are dropped with the device.
        """
        if self.failed:
            return []
        self.failed = True
        self.fail_time_us = time_us
        killed = []
        for kernel in list(self.resident):
            if self.engine is not None:
                self.engine.kill_actor(kernel, time_us)
            killed.append(kernel)
        for stream in self.streams.values():
            stream.pending.clear()
        if self.engine is not None:
            self.engine.kill_actor(self, time_us)
            self.engine.signal(self.failed_key, time_us)
        return killed

    def set_slowdown(self, factor, time_us=None):
        """Dilate the device's virtual time by ``factor`` (straggler model).

        Applies to the device clock and every resident kernel; kernels
        launched later inherit the factor at launch.
        """
        if factor < 1.0:
            raise InvalidStateError(f"slowdown factor must be >= 1, got {factor}")
        self.slowdown_factor = float(factor)
        self.clock.rate = self.slowdown_factor
        rate = self.effective_kernel_rate()
        for kernel in self.resident:
            kernel.settle()
            kernel.clock.rate = rate
        return self.slowdown_factor

    def stall_resident(self, duration_us, time_us=None):
        """Freeze every resident kernel for ``duration_us`` (transient stall).

        The stall is an externally-timed event anchored at ``time_us`` (the
        fault time; each kernel's possibly-lagging local clock otherwise):
        kernels resume no earlier than stall start + duration, with no
        rate dilation.  A kernel already past that point is unaffected.
        """
        stalled = []
        for kernel in self.resident:
            kernel.settle()
            start = kernel.now if time_us is None else max(kernel.now, time_us)
            kernel.clock.advance_to(start + duration_us)
            if self.engine is not None:
                self.engine.observe_time(kernel.now)
            stalled.append(kernel)
        return stalled

    # -- multi-tenant SM accounting -------------------------------------------

    def resident_tenants(self):
        """Distinct tenants with at least one resident kernel."""
        return {kernel.tenant for kernel in self.resident}

    def tenant_blocks(self):
        """Block slots held per tenant, e.g. ``{None: 2, "job-a": 4}``."""
        held = {}
        for kernel in self.resident:
            held[kernel.tenant] = held.get(kernel.tenant, 0) + kernel.grid_size
        return held

    def effective_kernel_rate(self):
        """Clock-rate dilation applied to resident kernels (slowdown x contention)."""
        return self.slowdown_factor * self._interference_factor

    def _update_contention(self):
        """Recompute interference after a residency change and re-rate kernels."""
        tenants = self.resident_tenants()
        self.peak_resident_tenants = max(self.peak_resident_tenants, len(tenants))
        if self.interference is None:
            return
        factor = self.interference.factor(
            len(tenants),
            self.max_resident_blocks - self.free_blocks,
            self.max_resident_blocks,
        )
        if factor != self._interference_factor:
            self._interference_factor = factor
            rate = self.effective_kernel_rate()
            for kernel in self.resident:
                kernel.settle()
                kernel.clock.rate = rate

    # -- streams --------------------------------------------------------------

    def get_stream(self, name):
        """Return (creating if needed) the stream called ``name``."""
        stream = self.streams.get(name)
        if stream is None:
            stream = self.streams[name] = Stream(name)
        return stream

    def next_sequence(self):
        """Monotonic sequence number ordering enqueues and synchronizations."""
        return next(self._sequence)

    # -- host-visible operations ----------------------------------------------

    def enqueue_kernel(self, kernel, stream_name="default", time_us=0.0):
        """Enqueue ``kernel`` on a stream (host side of a kernel launch)."""
        if self.failed:
            raise InvalidStateError(
                f"cannot enqueue {kernel.name}: device {self.name} has failed"
            )
        self.get_stream(stream_name).pending.append(
            (self.next_sequence(), kernel))
        self._notify_work(time_us)

    def issue_sync(self, time_us):
        """Issue a device synchronization.

        Returns the :class:`SyncBarrier`; the caller blocks on its
        ``wait_key`` until the barrier clears.
        """
        sequence = self.next_sequence()
        outstanding = set(self.resident)
        for stream in self.streams.values():
            for enqueued, kernel in stream.pending:
                if enqueued < sequence:
                    outstanding.add(kernel)
        barrier = SyncBarrier(
            barrier_id=next(self._barrier_ids),
            sequence=sequence,
            issue_time_us=time_us,
            outstanding=outstanding,
        )
        if not barrier.outstanding:
            barrier.cleared = True
        else:
            self.barriers.append(barrier)
        self._notify_work(time_us)
        return barrier

    # -- device scheduling ----------------------------------------------------

    def _earliest_pending_barrier_sequence(self):
        pending = [barrier.sequence for barrier in self.barriers if not barrier.cleared]
        return min(pending) if pending else None

    def _launchable_stream(self):
        """Find a stream whose head kernel can launch now, or ``None``."""
        barrier_seq = self._earliest_pending_barrier_sequence()
        for stream in self.streams.values():
            if stream.active:
                # In-order stream semantics: earlier kernel still executing.
                continue
            if not stream.pending:
                continue
            sequence, kernel = stream.pending[0]
            if barrier_seq is not None and sequence > barrier_seq:
                continue
            if kernel.grid_size > self.free_blocks:
                # Head kernel fits no free SM slots.  When reclaiming the
                # blocks other tenants hold would let it launch, the wait is
                # cross-job contention — the condition under which
                # dedicated-kernel baselines deadlock across jobs — so make
                # it observable.  A kernel that would not fit even then is
                # self-blocked and not counted.
                other_tenant_blocks = sum(
                    blocks for tenant, blocks in self.tenant_blocks().items()
                    if tenant != kernel.tenant
                )
                if other_tenant_blocks > 0 and \
                        kernel.grid_size <= self.free_blocks + other_tenant_blocks:
                    self.cross_tenant_block_waits += 1
                continue
            return stream
        return None

    def step(self):
        stream = self._launchable_stream()
        if stream is None:
            return StepResult.blocked([self.work_key], "no launchable kernel")
        _, kernel = stream.pending.popleft()
        kernel.stream = stream
        stream.active += 1
        self.free_blocks -= kernel.grid_size
        self.resident.add(kernel)
        self.clock.advance(self.LAUNCH_OVERHEAD_US)
        self._update_contention()
        kernel.on_launch(self.now)
        self.engine.add_actor(kernel)
        self.clock.advance(self.SCHED_PASS_US)
        return StepResult.progress(f"launched {kernel.name} on {stream.name}")

    # -- completion handling --------------------------------------------------

    def on_kernel_complete(self, kernel):
        """Reclaim resources and update barriers when a kernel finishes."""
        if kernel not in self.resident:
            raise InvalidStateError(
                f"kernel {kernel.name} completed but was not resident on {self.name}"
            )
        self.resident.discard(kernel)
        self.free_blocks += kernel.grid_size
        self._update_contention()
        stream = getattr(kernel, "stream", None)
        if stream is not None:
            stream.active -= 1

        cleared = []
        for barrier in self.barriers:
            if not barrier.cleared and barrier.on_kernel_complete(kernel):
                cleared.append(barrier)
        self.barriers = [barrier for barrier in self.barriers if not barrier.cleared]

        if self.engine is not None:
            self.engine.signal(kernel.completion_key, kernel.now)
            for barrier in cleared:
                self.engine.signal(barrier.wait_key, kernel.now)
            self.engine.signal(self.work_key, kernel.now)
            if not self.resident and not self.has_pending_work():
                self.engine.signal(self.idle_key, kernel.now)

    def _notify_work(self, time_us):
        if self.engine is not None:
            self.engine.signal(self.work_key, time_us)

    def close(self):
        """Drop the kernels the device still holds: resident (a crashed
        rank's, or a deadlocked run's) and queued ones."""
        self.resident.clear()
        for stream in self.streams.values():
            stream.pending.clear()
        self.barriers = []

    # -- introspection --------------------------------------------------------

    def has_pending_work(self):
        return any(stream.pending for stream in self.streams.values())

