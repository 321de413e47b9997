"""Metrics registry: counters, gauges, histograms, and lazy gauge callbacks.

One registry instance lives on every :class:`~repro.obs.Observability` (and
therefore on every engine).  Design constraints, in order:

* **hot-path cost is zero unless a metric is touched** — most engine-level
  values (step counts, queue stats, pool stats, daemon stats) are registered
  as *gauge functions*: callables pulled only when :meth:`MetricsRegistry.
  snapshot` runs, so the simulation loop pays nothing for them;
* **names are a contract** — every metric name is declared through
  :func:`declare_metric` into :data:`METRIC_NAMES`, and ``tests/test_docs.py``
  asserts each declared name appears in ``docs/observability.md``;
* **two export formats** — :meth:`MetricsRegistry.snapshot` returns a flat
  JSON-safe dict, :meth:`MetricsRegistry.to_prometheus_text` renders the
  Prometheus text exposition format.

Labels are plain dicts; a labeled instrument is keyed by its full name,
``name{k="v",...}`` with keys sorted, which doubles as the snapshot key.
"""

from bisect import bisect_left

#: Registered metric names -> {"kind", "help"}.  Populated at import time by
#: the :func:`declare_metric` calls below; the docs contract iterates this.
METRIC_NAMES = {}


def declare_metric(name, kind, help_text):
    """Declare a metric name (the docs-contract registry). Returns ``name``."""
    METRIC_NAMES[name] = {"kind": kind, "help": help_text}
    return name


# --- engine ----------------------------------------------------------------
declare_metric("engine_steps", "gauge", "Actor steps executed by the engine")
declare_metric("engine_queue_entries", "gauge",
               "Entries in the indexed event queue (live + stale)")
declare_metric("engine_queue_live", "gauge",
               "Live entries in the indexed event queue")
declare_metric("engine_queue_stale", "gauge",
               "Invalidated-in-place queue entries awaiting compaction")
declare_metric("engine_queue_compactions", "gauge",
               "Times the event queue dropped its stale entries")
declare_metric("engine_queue_ready", "gauge",
               "Ready queue entries (a cohort of timed waiters is one)")
declare_metric("engine_signals", "gauge", "Wait-key signals delivered")
declare_metric("engine_retries_passed", "gauge",
               "Timed-wait retries the engine passed without a step")
declare_metric("engine_pass_heap_ops", "gauge",
               "Heap operations spent passing timed-wait retries "
               "(cohort rounds, joins and leaves)")
declare_metric("engine_deadlocks", "counter",
               "Engine-level deadlocks detected (wait-for cycles)")
declare_metric("engine_actors_killed", "counter",
               "Actors removed by fault injection (Engine.kill_actor)")

# --- flight recorder -------------------------------------------------------
declare_metric("flight_recorder_events", "gauge",
               "Step/marker events currently held in the bounded ring")
declare_metric("flight_recorder_spans", "gauge",
               "Completed spans currently held in the bounded ring")
declare_metric("flight_recorder_dumps", "gauge",
               "Flight-recorder dumps taken (deadlock / recovery / fuzzer)")

# --- collectives -----------------------------------------------------------
declare_metric("collective_invocations", "counter",
               "Collective invocations that fully completed")
declare_metric("collective_aborts", "counter",
               "Per-rank collective aborts (communicator-abort semantics)")
declare_metric("collective_latency_us", "histogram",
               "Submit-to-complete latency per collective invocation, "
               "labeled by backend and algorithm")

# --- interconnect links ----------------------------------------------------
declare_metric("link_bytes_total", "gauge",
               "Bytes pushed over a channel, labeled src/dst device")
declare_metric("link_messages_total", "gauge",
               "Messages pushed over a channel, labeled src/dst device")
declare_metric("link_busy_us", "gauge",
               "Alpha-beta busy-time estimate per link, labeled src/dst")

# --- communicator pool -----------------------------------------------------
declare_metric("pool_hits", "gauge", "CommunicatorPool reuse hits")
declare_metric("pool_misses", "gauge", "CommunicatorPool misses (fresh build)")
declare_metric("pool_created", "gauge", "Communicators ever created by the pool")
declare_metric("pool_reused", "gauge", "Communicators recycled by the pool")
declare_metric("pool_active", "gauge", "Communicators currently checked out")
declare_metric("pool_discarded", "gauge",
               "Communicators discarded (failure-invalidated or evicted)")
declare_metric("pool_free", "gauge",
               "Communicators currently pooled awaiting reuse")
declare_metric("pool_double_releases", "gauge",
               "Rejected re-releases of an already-pooled communicator")

# --- daemon kernels --------------------------------------------------------
declare_metric("daemon_launches", "gauge", "Daemon kernel launches (all GPUs)")
declare_metric("daemon_preemptions", "gauge",
               "Daemon burst-loop preemptions (all GPUs)")
declare_metric("daemon_voluntary_quits", "gauge",
               "Daemon voluntary quits on empty queues (all GPUs)")
declare_metric("daemon_spin_polls", "gauge",
               "Daemon spin polls while waiting for work (all GPUs)")
declare_metric("daemon_spin_waits", "gauge",
               "Timed engine waits entered by spinning daemons, one per run "
               "of fruitless passes (all GPUs)")
declare_metric("daemon_primitives_executed", "gauge",
               "Collective primitives executed by daemon kernels (all GPUs)")

# --- recovery --------------------------------------------------------------
declare_metric("recovery_episodes", "counter",
               "Completed recovery episodes (shrink + rerun)")
declare_metric("recovery_abandoned", "counter",
               "Collectives abandoned as unrecoverable (e.g. dead root)")
declare_metric("recovery_invocations_rerun", "counter",
               "Invocations replayed by recovery episodes")

# --- time attribution ------------------------------------------------------
declare_metric("collective_critical_path_us", "histogram",
               "Critical-path work time (measured minus queueing) per "
               "analyzed collective invocation")

# --- multi-tenant scheduler ------------------------------------------------
declare_metric("jobs_admitted", "gauge", "Jobs admitted by the scheduler")
declare_metric("jobs_running", "gauge", "Jobs currently placed and running")
declare_metric("jobs_completed", "gauge", "Jobs that reached a terminal state")
declare_metric("jobs_queueing_delay_us", "histogram",
               "Arrival-to-placement delay per job (the scheduler share of "
               "the queueing attribution bucket)")

# --- scheduler preemption, quotas and elasticity ---------------------------
declare_metric("jobs_preempted", "counter",
               "Jobs checkpointed and evicted by priority preemption")
declare_metric("jobs_resumed", "counter",
               "Preempted jobs re-placed and resumed from checkpoint")
declare_metric("jobs_migrated", "counter",
               "Jobs checkpointed and moved to a different placement")
declare_metric("jobs_rejoined", "counter",
               "Running jobs evicted after losing a leased rank and requeued "
               "at full size (elastic rejoin)")
declare_metric("jobs_rejected", "counter",
               "Jobs refused at admission (tenant quota exceeded)")
declare_metric("cluster_grow_events", "counter",
               "Nodes added to the live cluster by elastic growth")

# --- mpi backend -----------------------------------------------------------
declare_metric("mpi_host_staged_ops", "gauge",
               "Host-staged collective ops created by the MPI backend")
declare_metric("mpi_rendezvous_completed", "gauge",
               "MPI host-staged ops whose rendezvous fully completed")
declare_metric("mpi_rendezvous_pending", "gauge",
               "MPI host-staged ops still waiting on member ranks")


def _full_name(name, labels):
    if not labels:
        return name
    inner = ",".join(f'{key}="{labels[key]}"' for key in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonic counter."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        self.value += amount


class Gauge:
    """Point-in-time value, explicitly set."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, value):
        self.value = value


class Histogram:
    """Power-of-four bucketed histogram (1us .. ~68s spans 19 buckets)."""

    __slots__ = ("count", "total", "min", "max", "bucket_counts")

    #: Upper bounds (inclusive, ``le``) of the finite buckets.
    BOUNDS = tuple(float(1 << shift) for shift in range(0, 37, 2))

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self.bucket_counts = [0] * (len(self.BOUNDS) + 1)

    def observe(self, value):
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.bucket_counts[bisect_left(self.BOUNDS, value)] += 1

    def snapshot(self):
        """JSON-safe dict with cumulative (Prometheus-style) buckets."""
        buckets = []
        cumulative = 0
        for bound, bucket in zip(self.BOUNDS, self.bucket_counts):
            cumulative += bucket
            if cumulative:  # elide the empty low tail
                buckets.append([bound, cumulative])
        buckets.append(["+Inf", self.count])
        return {"count": self.count, "sum": self.total,
                "min": self.min, "max": self.max, "buckets": buckets}


class MetricsRegistry:
    """Named instruments plus lazy gauge callbacks, with two exporters."""

    def __init__(self):
        self._counters = {}
        self._gauges = {}
        self._histograms = {}
        self._gauge_fns = {}

    # -- instrument accessors (create on first touch) -----------------------

    def counter(self, name, labels=None):
        key = _full_name(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name, labels=None):
        key = _full_name(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name, labels=None):
        key = _full_name(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram()
        return instrument

    def gauge_fn(self, name, fn, labels=None):
        """Register a callable evaluated only at snapshot time.

        This is the zero-hot-path-cost path: engine/pool/daemon/scheduler
        state is *pulled* when someone asks, never pushed per step.
        Returns the full metric name.
        """
        full_name = _full_name(name, labels)
        self._gauge_fns[full_name] = fn
        return full_name

    def freeze_gauges(self, names):
        """Replace the named gauge callbacks by their current values.

        A closed cluster's components call this, so their gauges drop the
        objects they closed over and keep reading their final values.
        """
        for name in names:
            self._gauge_fns[name] = lambda value=self._gauge_fns[name](): value

    # -- exporters ----------------------------------------------------------

    def snapshot(self):
        """Flat JSON-safe dict: full metric name -> number (or hist dict)."""
        snap = {}
        for key, counter in self._counters.items():
            snap[key] = counter.value
        for key, gauge in self._gauges.items():
            snap[key] = gauge.value
        for key, fn in self._gauge_fns.items():
            snap[key] = fn()
        for key, histogram in self._histograms.items():
            snap[key] = histogram.snapshot()
        return snap

    def to_prometheus_text(self):
        """Prometheus text exposition format (one sample per line)."""
        lines = []
        emitted = set()

        def meta(full_name):
            base = full_name.split("{", 1)[0]
            if base not in emitted and base in METRIC_NAMES:
                emitted.add(base)
                info = METRIC_NAMES[base]
                lines.append(f"# HELP {base} {info['help']}")
                lines.append(f"# TYPE {base} {info['kind']}")

        scalars = {}
        for key, counter in self._counters.items():
            scalars[key] = counter.value
        for key, gauge in self._gauges.items():
            scalars[key] = gauge.value
        for key, fn in self._gauge_fns.items():
            scalars[key] = fn()
        for key in sorted(scalars):
            meta(key)
            lines.append(f"{key} {scalars[key]}")
        for key in sorted(self._histograms):
            meta(key)
            histogram = self._histograms[key]
            base, _, labels = key.partition("{")
            labels = labels[:-1] if labels else ""
            cumulative = 0
            for bound, bucket in zip(histogram.BOUNDS,
                                     histogram.bucket_counts):
                cumulative += bucket
                inner = f'{labels},le="{bound:g}"' if labels else f'le="{bound:g}"'
                lines.append(f"{base}_bucket{{{inner}}} {cumulative}")
            inner = f'{labels},le="+Inf"' if labels else 'le="+Inf"'
            lines.append(f"{base}_bucket{{{inner}}} {histogram.count}")
            suffix = f"{{{labels}}}" if labels else ""
            lines.append(f"{base}_sum{suffix} {histogram.total}")
            lines.append(f"{base}_count{suffix} {histogram.count}")
        return "\n".join(lines) + "\n"
