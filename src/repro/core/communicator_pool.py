"""Communicator pool (Sec. 3.2).

DFCCL manages the resources for inter-GPU data transfer transparently: the
pool creates and allocates communicators (channel sets) for registered
collectives on demand, and recycles them when a collective is unregistered.
Each concurrently registered collective gets its own communicator so that a
preempted collective's connectors are never reused by another collective
(required for the correctness argument of Sec. 4.5).

Under multi-tenancy the pool is additionally namespaced by *job*: entries are
keyed by ``(job, device set)`` so one job's released connectors are never
handed to another job's collective — cross-job reuse would let a preempted
collective of job A observe chunk flags written by job B.  The pool records
hit/miss/active counters so cross-job reuse bugs show up in ``stats()``
instead of as silent data corruption.

The elastic-recovery path extends the contract to failures: a communicator
whose channels were invalidated by a rank crash is *discarded* instead of
recycled, and ``release_all_for`` evicts every pooled communicator spanning a
failed device so a later ``acquire`` can never hand out channels to a dead
peer.
"""

from __future__ import annotations

from collections import defaultdict

from repro.collectives.channels import Communicator


class CommunicatorPool:
    """Creates, hands out and recycles communicators keyed by (job, device set)."""

    def __init__(self, interconnect):
        self.interconnect = interconnect
        self._free = defaultdict(list)
        self.created = 0
        self.reused = 0
        self.discarded = 0
        self.double_releases = 0
        self._active = 0

    @staticmethod
    def _key(devices, job=None):
        # Device ids are hashable value objects; keying by the ids themselves
        # (rather than their string form) keeps distinct devices distinct and
        # the ordering of the member list significant.  ``job`` namespaces the
        # entry so tenants never exchange communicators.
        return (job, tuple(device.device_id for device in devices))

    def acquire(self, devices, job=None):
        """Return a communicator over ``devices``, reusing a released one if possible.

        ``job`` restricts reuse to communicators released under the same job
        namespace (``None`` is the single-tenant namespace).
        """
        key = self._key(devices, job)
        free_list = self._free[key]
        if free_list:
            self.reused += 1
            communicator = free_list.pop()
        else:
            self.created += 1
            communicator = Communicator(list(devices), self.interconnect)
        communicator.pool_key = key
        communicator.pool_state = "active"
        self._active += 1
        return communicator

    def release(self, communicator):
        """Return a communicator to the pool for reuse.

        Failure-invalidated communicators are discarded instead: their
        connectors belonged to a collective that died mid-flight and must
        never carry another collective's chunks.  A communicator that is
        already pooled — or was already discarded — is left untouched and
        counted: releasing it twice would otherwise hand identical channels
        to two collectives or corrupt the active/discarded accounting.
        Returns ``True`` when the communicator was pooled, ``False``
        otherwise.
        """
        if getattr(communicator, "pool_state", "active") != "active":
            self.double_releases += 1
            return False
        self._active = max(0, self._active - 1)
        if communicator.invalidated:
            communicator.pool_state = "discarded"
            self.discarded += 1
            return False
        communicator.reset_channels()
        key = getattr(communicator, "pool_key", None)
        if key is None:
            key = self._key(communicator.devices)
            communicator.pool_key = key
        communicator.pool_state = "pooled"
        self._free[key].append(communicator)
        return True

    def release_all_for(self, devices):
        """Evict every pooled communicator spanning any of ``devices``.

        Used by the recovery path after a rank crash: any free communicator
        whose member set includes a failed device can never be handed out
        again, regardless of which job it belongs to.  Accepts devices or
        device ids; returns the eviction count.
        """
        doomed = {getattr(device, "device_id", device) for device in devices}
        dropped = 0
        for key in list(self._free):
            _, member_ids = key
            if doomed.isdisjoint(member_ids):
                continue
            for communicator in self._free[key]:
                communicator.pool_state = "discarded"
            dropped += len(self._free[key])
            del self._free[key]
        self.discarded += dropped
        return dropped

    def evict_job(self, job):
        """Discard every pooled communicator of one job namespace.

        Called when a tenant leaves the cluster for good: its namespaced
        entries can never match a future ``acquire`` (job ids are unique per
        stream), so keeping them would grow the pool without bound over a
        churn stream.  Returns the eviction count.
        """
        dropped = 0
        for key in list(self._free):
            if key[0] != job:
                continue
            for communicator in self._free[key]:
                communicator.pool_state = "discarded"
            dropped += len(self._free[key])
            del self._free[key]
        self.discarded += dropped
        return dropped

    def jobs(self):
        """Job namespaces with at least one pooled communicator."""
        return sorted({key[0] for key, entries in self._free.items() if entries},
                      key=lambda job: (job is not None, str(job)))

    def stats(self):
        """Counters for observability (cross-job reuse bugs show up here).

        ``hits``/``misses`` alias ``reused``/``created``; ``active`` counts
        communicators currently handed out; ``double_releases`` counts
        rejected re-releases of an already-pooled communicator.
        """
        free = sum(len(entries) for entries in self._free.values())
        return {
            "created": self.created,
            "reused": self.reused,
            "discarded": self.discarded,
            "free": free,
            "hits": self.reused,
            "misses": self.created,
            "active": self._active,
            "double_releases": self.double_releases,
        }
