"""Outside-in instrumentation of the simulator for one benchmark repetition.

Everything here lives in the benchmark's own files: the simulator is measured
through its public boundaries and is never edited.

* :class:`EngineProbe` wraps ``Engine.__init__`` and ``Engine.run``.  It is
  installed on every repetition, traced or not, because the end-to-end
  metrics need it: set-up time (first ``run`` entry minus ``__init__``
  entry), the final virtual time of every engine, and per-program latency.
* :class:`Boundary` counts calls to, and times, a group of public functions.
  ``ProcessGroup.collective`` is always counted (the rank-collective
  denominator); the other boundaries are installed on traced repetitions only.
* :class:`Patches` installs a wrapper by rebinding *every* ``repro`` module or
  class attribute that is the original object (``from x import f`` copies
  included), and restores them all at exit.
* :class:`Sampler` is a stdlib ``SIGPROF`` sampler that charges the wall time
  between two samples to the package of the innermost frame under
  ``src/repro/``.

Nothing here keeps a strong reference to a simulator object: engines are
tracked through a ``WeakKeyDictionary`` and every record holds plain numbers,
so ``peak_rss_mb`` measures the program, not the tracer.
"""

from __future__ import annotations

import functools
import importlib
import os
import signal
import sys
import weakref
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import repro

#: Frames in files below this directory are attributed to their package.
REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: Packages of ``repro``: each gets a ``<package>.self_s`` metric.
PACKAGES = tuple(sorted(
    name for name in os.listdir(REPRO_DIR)
    if os.path.isfile(os.path.join(REPRO_DIR, name, "__init__.py"))
))

#: Sampler bucket for time spent outside ``repro`` (the benchmark's own
#: code and the standard library called from it).
OTHER = "other"

#: Boundaries installed on traced repetitions: metric prefix -> public
#: functions, as (module, qualified name).  Functions in one group share a
#: nesting depth, so a call made from another member is counted but its time
#: is not added twice.
TRACED_BOUNDARIES = {
    "collectives.seqgen": (
        ("repro.collectives.sequences", "generate_primitive_sequence"),
    ),
    "collectives.select": (
        ("repro.collectives.selector", "AlgorithmSelector.choose"),
        ("repro.collectives.selector", "AlgorithmSelector.predicted_cost_us"),
        ("repro.collectives.selector", "AlgorithmSelector.predicted_cost_breakdown"),
        ("repro.collectives.selector", "AlgorithmSelector.link_parameters"),
    ),
    "gpusim.build": (("repro.gpusim.cluster", "Cluster.__init__"),),
    "workloads.install": (("repro.workloads.trainer", "TrainingRun.install"),),
    "testing.replay": (("repro.testing.differential", "replay_program"),),
}

#: The rank-collective boundary, counted on every repetition.
COLLECTIVE_BOUNDARY = ("repro.api.group", "ProcessGroup.collective")

#: Engine-level counters read at each ``Engine.run`` exit: per-layer metric
#: name -> observability metric name.  The daemon and pool gauges exist only
#: on engines that host a DFCCL backend.
ENGINE_COUNTERS = {
    "gpusim.signals": "engine_signals",
    "core.primitives_executed": "daemon_primitives_executed",
    "core.preemptions": "daemon_preemptions",
    "core.voluntary_quits": "daemon_voluntary_quits",
    "core.launches": "daemon_launches",
    "core.recovery_episodes": "recovery_episodes",
    "core.invocations_rerun": "recovery_invocations_rerun",
    "core.pool_hits": "pool_hits",
    "core.pool_misses": "pool_misses",
}


def resolve(module_name, qualname):
    """Import ``module_name`` and return the object at ``qualname`` in it."""
    target = importlib.import_module(module_name)
    for part in qualname.split("."):
        target = getattr(target, part)
    return target


def _namespaces():
    """Every loaded ``repro`` module and every class defined in one."""
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "repro":
            continue
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == name:
                yield value


class Patches:
    """Rebind wrappers into ``repro`` namespaces and undo every rebinding."""

    def __init__(self):
        self._undo = []

    def rebind(self, original, replacement):
        """Point every attribute that *is* ``original`` at ``replacement``.

        Covers the defining module, re-exports and ``from x import f`` copies
        in other modules (a function), or the owning class (a method).
        Returns the number of attributes rebound.
        """
        rebound = 0
        for namespace in _namespaces():
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, attr, replacement)
                    self._undo.append((namespace, attr, original))
                    rebound += 1
        if not rebound:
            raise LookupError(f"{original!r} is not bound in any repro namespace")
        return rebound

    def restore(self):
        """Undo every rebinding, most recent first."""
        while self._undo:
            namespace, attr, original = self._undo.pop()
            setattr(namespace, attr, original)


class Boundary:
    """Calls to, and inclusive seconds in, a group of public functions."""

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self._depth = 0

    def wrap(self, function):
        """Return a counting, timing wrapper around ``function``."""
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            self.calls += 1
            self._depth += 1
            start = perf_counter() if self._depth == 1 else None
            try:
                return function(*args, **kwargs)
            finally:
                self._depth -= 1
                if start is not None:
                    self.seconds += perf_counter() - start
        return wrapper


@dataclass
class EngineRecord:
    """Host timestamps and results of one engine (plain numbers only)."""

    init: float
    first_run: float = None
    last_exit: float = None
    final_us: float = None
    runs: int = 0
    run_s: float = 0.0
    steps: int = 0
    counters: dict = field(default_factory=dict)


class EngineProbe:
    """Wrappers for ``Engine.__init__`` and ``Engine.run``."""

    def __init__(self, read_counters=False):
        self.records = []
        self._by_engine = weakref.WeakKeyDictionary()
        self._read_counters = read_counters

    def wrap_init(self, init):
        """Wrapper stamping the engine's construction time."""
        @functools.wraps(init)
        def __init__(engine, *args, **kwargs):
            record = EngineRecord(init=perf_counter())
            self.records.append(record)
            self._by_engine[engine] = record
            init(engine, *args, **kwargs)
        return __init__

    def wrap_run(self, run):
        """Wrapper timing each run and keeping its final virtual time."""
        @functools.wraps(run)
        def run_wrapper(engine, *args, **kwargs):
            record = self._by_engine[engine]
            start = perf_counter()
            if record.first_run is None:
                record.first_run = start
            final_us = run(engine, *args, **kwargs)
            end = perf_counter()
            record.last_exit = end
            record.final_us = final_us
            record.runs += 1
            record.run_s += end - start
            if self._read_counters:
                record.steps = engine.step_count
                snapshot = (engine.obs.metrics.snapshot()
                            if engine.obs.enabled else {})
                record.counters = {name: snapshot[source]
                                   for name, source in ENGINE_COUNTERS.items()
                                   if source in snapshot}
            return final_us
        return run_wrapper


def _package_of(filename):
    """The ``repro`` package a source file belongs to, or ``None``."""
    if not filename.startswith(REPRO_DIR):
        return None
    head, sep, _ = filename[len(REPRO_DIR):].partition(os.sep)
    return head if sep else None


_UNSEEN = object()


class Sampler:
    """``SIGPROF`` sampler charging wall time to the innermost repro package.

    ``ITIMER_PROF`` fires on process CPU time; the kernel tick rounds the
    requested interval up (about 4 ms on a 250 Hz kernel).  Each sample
    charges the wall time since the previous one, so the per-package totals
    add up to the sampled interval.
    """

    def __init__(self, interval_s=0.001):
        self.interval_s = interval_s
        self.seconds = defaultdict(float)
        self.samples = 0
        self._layers = {}
        self._last = None
        self._previous_handler = None

    def layer_of(self, frame):
        """Package of the innermost frame under ``src/repro/``, else other."""
        while frame is not None:
            code = frame.f_code
            layer = self._layers.get(code, _UNSEEN)
            if layer is _UNSEEN:
                layer = self._layers[code] = _package_of(code.co_filename)
            if layer is not None:
                return layer
            frame = frame.f_back
        return OTHER

    def _on_signal(self, signum, frame):
        now = perf_counter()
        self.seconds[self.layer_of(frame)] += now - self._last
        self._last = now
        self.samples += 1

    def start(self):
        """Install the handler and start the profiling timer."""
        self._previous_handler = signal.signal(signal.SIGPROF, self._on_signal)
        self._last = perf_counter()
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)

    def stop(self):
        """Stop the timer, restore the handler, charge the tail to other."""
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous_handler)
        self.seconds[OTHER] += perf_counter() - self._last


class Probe:
    """All instrumentation of one repetition, as a context manager.

    Untraced: the engine probe and the rank-collective counter.  Traced: also
    the boundaries of :data:`TRACED_BOUNDARIES`, engine counters at each run
    exit and the sampler.
    """

    def __init__(self, traced=False):
        self.traced = traced
        self.engines = EngineProbe(read_counters=traced)
        self.collective = Boundary()
        self.boundaries = {}
        self.sampler = Sampler() if traced else None
        self._patches = Patches()

    def __enter__(self):
        from repro.gpusim.engine import Engine

        patches = self._patches
        try:
            patches.rebind(Engine.__init__, self.engines.wrap_init(Engine.__init__))
            patches.rebind(Engine.run, self.engines.wrap_run(Engine.run))
            original = resolve(*COLLECTIVE_BOUNDARY)
            patches.rebind(original, self.collective.wrap(original))
            if self.traced:
                for prefix, targets in TRACED_BOUNDARIES.items():
                    boundary = self.boundaries[prefix] = Boundary()
                    for module_name, qualname in targets:
                        original = resolve(module_name, qualname)
                        patches.rebind(original, boundary.wrap(original))
                self.sampler.start()
        except BaseException:
            patches.restore()
            raise
        return self

    def __exit__(self, *exc_info):
        if self.sampler is not None:
            self.sampler.stop()
        self._patches.restore()
        return False

    # -- results ------------------------------------------------------------------

    @property
    def collective_calls(self):
        """Calls to ``ProcessGroup.collective`` so far (rank-collectives)."""
        return self.collective.calls

    def summary(self):
        """End-to-end quantities every repetition reports."""
        records = self.engines.records
        return {
            "setup_s": sum(record.first_run - record.init for record in records
                           if record.first_run is not None),
            "sim_us": sum(record.final_us for record in records
                          if record.final_us is not None),
            "program_ms": [(record.last_exit - record.init) * 1e3
                           for record in records if record.last_exit is not None],
            "rank_collectives": self.collective.calls,
            "engines": len(records),
        }

    def per_layer(self):
        """Per-layer metrics of a traced repetition (name -> value)."""
        records = self.engines.records
        metrics = {
            "api.collective_calls": self.collective.calls,
            "api.collective_s": self.collective.seconds,
        }
        for prefix, boundary in self.boundaries.items():
            metrics[f"{prefix}_calls"] = boundary.calls
            metrics[f"{prefix}_s"] = boundary.seconds
        steps = sum(record.steps for record in records)
        run_s = sum(record.run_s for record in records)
        metrics.update({
            "gpusim.runs": sum(record.runs for record in records),
            "gpusim.run_s": run_s,
            "gpusim.steps": steps,
            "gpusim.us_per_step": run_s * 1e6 / steps if steps else 0.0,
        })
        totals = defaultdict(int)
        dfccl_steps = 0
        for record in records:
            for name, value in record.counters.items():
                totals[name] += value
            if "core.primitives_executed" in record.counters:
                dfccl_steps += record.steps
        for name in ENGINE_COUNTERS:
            metrics[name] = totals[name]
        metrics["core.useful_step_ratio"] = (
            totals["core.primitives_executed"] / dfccl_steps if dfccl_steps else 0.0)
        pooled = totals["core.pool_hits"] + totals["core.pool_misses"]
        metrics["core.pool_hit_ratio"] = totals["core.pool_hits"] / pooled if pooled else 0.0
        for package in PACKAGES + (OTHER,):
            metrics[f"{package}.self_s"] = self.sampler.seconds.get(package, 0.0)
        metrics["trace.samples"] = self.sampler.samples
        return metrics
