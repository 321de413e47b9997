"""Host (CPU) threads driving the simulated GPUs.

A :class:`HostThread` is the simulated rank process: it executes a
:class:`HostProgram`, a sequence of host operations such as launching a
kernel, synchronizing the device, burning CPU time, or waiting for a
completion callback.  Host programs may be plain lists of ops or generator
functions, so backends can build them dynamically at run time.
"""

from __future__ import annotations

from repro.gpusim.engine import Actor, StepResult


class HostOp:
    """Base class of everything a host program can execute.

    ``poll(host)`` is called repeatedly until it returns a non-``None``
    :class:`StepResult` whose status is not BLOCKED/SLEEP, at which point the
    program moves to the next op.  Returning ``None`` is shorthand for a
    PROGRESS result with the default CPU cost.
    """

    #: Default CPU cost of executing a non-blocking host op.
    DEFAULT_COST_US = 0.5

    def poll(self, host):
        raise NotImplementedError

    def label(self):
        return type(self).__name__


class LaunchKernel(HostOp):
    """Enqueue a kernel onto a stream of the host's GPU."""

    #: CPU-side cost of a kernel launch (driver call).
    CPU_LAUNCH_COST_US = 2.0

    def __init__(self, kernel_factory, stream="default"):
        self.kernel_factory = kernel_factory
        self.stream = stream

    def poll(self, host):
        kernel = self.kernel_factory(host)
        host.clock.advance(self.CPU_LAUNCH_COST_US)
        host.device.enqueue_kernel(kernel, self.stream, host.now)
        return StepResult.progress(f"launched {kernel.name}")


class DeviceSynchronize(HostOp):
    """Explicit GPU synchronization (``cudaDeviceSynchronize``)."""

    def __init__(self):
        self._barrier = None

    def poll(self, host):
        if self._barrier is None:
            host.clock.advance(1.0)
            self._barrier = host.device.issue_sync(host.now)
        if self._barrier.cleared:
            self._barrier = None
            return StepResult.progress("sync cleared")
        return StepResult.blocked([self._barrier.wait_key], "device synchronize")


class CpuCompute(HostOp):
    """Burn CPU time (model for the framework's Python/C++ work)."""

    def __init__(self, duration_us, label="cpu"):
        self.duration_us = duration_us
        self._label = label
        self._started = False

    def poll(self, host):
        if not self._started:
            self._started = True
            return StepResult.sleep(host.now + self.duration_us, self._label)
        return StepResult.progress(self._label)

    def label(self):
        return self._label


class WaitForSignal(HostOp):
    """Block on an engine key until ``predicate()`` holds."""

    def __init__(self, key, predicate, detail="wait"):
        self.key = key
        self.predicate = predicate
        self.detail = detail

    def poll(self, host):
        if self.predicate():
            return StepResult.progress(self.detail)
        return StepResult.blocked([self.key], self.detail)


class CallHook(HostOp):
    """Run an arbitrary callable (used by the DFCCL/NCCL CPU-side APIs)."""

    def __init__(self, fn, cost_us=None, detail="hook"):
        self.fn = fn
        self.cost_us = self.DEFAULT_COST_US if cost_us is None else cost_us
        self.detail = detail

    def poll(self, host):
        self.fn(host)
        host.clock.advance(self.cost_us)
        return StepResult.progress(self.detail)


class HostProgram:
    """A sequence of host ops."""

    def __init__(self, ops):
        self._ops = ops

    def iterator(self, host):
        return iter(list(self._ops))


class HostThread(Actor):
    """The simulated rank process bound to one GPU."""

    def __init__(self, name, device, cluster, program=None):
        super().__init__(name)
        self.device = device
        self.cluster = cluster
        self._program = program or HostProgram([])
        self._iterator = None
        self._current_op = None

    def step(self):
        if self._iterator is None:
            self._iterator = self._program.iterator(self)
        if self._current_op is None:
            try:
                self._current_op = next(self._iterator)
            except StopIteration:
                return StepResult.done("host program finished")
        result = self._current_op.poll(self)
        if result is None:
            self.clock.advance(HostOp.DEFAULT_COST_US)
            result = StepResult.progress(self._current_op.label())
        if result.status.value in ("progress", "done"):
            if result.status.value == "done":
                # Ops never end the whole program; treat as progress.
                result = StepResult.progress(result.detail)
            self._current_op = None
        return result
