"""The torch.distributed-style process group over any collective backend.

A :class:`ProcessGroup` is created by ``backend.new_group(ranks, ...)`` and
exposes the collective call surface (``all_reduce`` … ``barrier``).  Calls
return :class:`~repro.api.work.Work` futures; collective ids are assigned
automatically:

* a *logical collective* is identified by its spec plus an optional user
  ``key`` (two same-shaped collectives a program treats as distinct — e.g.
  the two deliberately disordered all-reduces of the paper's Fig. 1(c)
  recipe — disambiguate with different keys);
* each rank's N-th call of a logical collective joins that collective's N-th
  *invocation*, so repeated calls (training iterations) line up across ranks
  without any manual id bookkeeping, in whatever per-rank order the
  application produces them.
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError
from repro.common.types import CollectiveKind, CollectiveSpec, DataType, ReduceOp
from repro.api.work import Work

#: Reserved logical-collective key prefix for ``barrier`` calls.
_BARRIER_KEY = "__barrier__"


class ProcessGroup:
    """A fixed set of global ranks issuing collectives through one backend."""

    def __init__(self, backend, ranks, group_id=0, job=None, priority=0, name=None):
        if len(set(ranks)) != len(ranks):
            raise ConfigurationError(f"process-group ranks must be distinct, got {ranks}")
        if not ranks:
            raise ConfigurationError("a process group needs at least one rank")
        self.backend = backend
        self.ranks = list(ranks)
        self.group_id = group_id
        self.job = job
        self.priority = priority
        self.name = name or f"pg{group_id}"
        #: Per-logical-collective, per-rank call counters (invocation index).
        self._call_counts = {}
        #: Canonical spec per logical collective (first registration wins).
        self._specs = {}

    @property
    def size(self):
        """Number of member ranks."""
        return len(self.ranks)

    def group_rank(self, global_rank):
        """Map a global rank to its dense 0-based rank within this group."""
        try:
            return self.ranks.index(global_rank)
        except ValueError:
            raise ConfigurationError(
                f"rank {global_rank} is not a member of group {self.name}"
            ) from None

    # -- generic call path ---------------------------------------------------------

    def _canonical(self, spec, key):
        """Resolve the logical-collective identity and its canonical spec.

        With an explicit ``key`` the key IS the identity — the first call's
        spec becomes canonical, so per-rank shape asymmetries of one logical
        collective (a pipeline send/recv whose sender and receiver quote
        different buffer sizes) still meet in one backend-side op, exactly
        like NCCL's match-by-call-order.  Without a key, the shape is the
        identity.
        """
        ident = spec if key is None else key
        canonical = self._specs.get(ident)
        if canonical is None:
            self._specs[ident] = spec
            canonical = spec
        return ident, canonical

    def ensure_collective(self, spec, key=None):
        """Eagerly materialize a logical collective (registration order).

        Optional: collectives are created lazily on first call, but callers
        that care about deterministic backend-side id assignment (the trainer
        registers in sorted schedule-key order) declare them up front.  The
        declared spec becomes the collective's canonical spec.
        """
        spec.validate()
        _, canonical = self._canonical(spec, key)
        self.backend.ensure_collective(self, canonical, key)

    def collective(self, rank, spec, key=None, callback=None, stream=None):
        """Join the next invocation of the logical collective ``(spec, key)``.

        Returns the :class:`Work` future for ``rank``'s part.  ``callback``
        is invoked as ``callback(work)`` when the backend delivers this
        rank's completion; ``stream`` is a launch-stream hint for backends
        with dedicated kernels (ignored by DFCCL's shared daemon kernel).
        """
        spec.validate()
        if rank not in self.ranks:
            raise ConfigurationError(
                f"rank {rank} is not a member of group {self.name}"
            )
        if spec.root >= self.size:
            raise ConfigurationError(
                f"root {spec.root} is out of range for group {self.name} "
                f"of size {self.size}"
            )
        ident, canonical = self._canonical(spec, key)
        counters = self._call_counts.setdefault(ident, {})
        index = counters.get(rank, 0)
        counters[rank] = index + 1
        run, group_rank = self.backend.join(self, canonical, key, index, rank)
        return Work(self, rank, key, index, run, group_rank, callback=callback,
                    stream=stream)

    # -- the collective call surface ----------------------------------------------

    def _priority(self, priority):
        return self.priority if priority is None else priority

    def all_reduce(self, rank, count, dtype=DataType.FLOAT32, op=ReduceOp.SUM,
                   key=None, priority=None, callback=None, stream=None,
                   algorithm=None):
        """Reduce ``count`` elements across the group, result on every rank.

        ``algorithm`` overrides the backend-wide schedule knob for this
        logical collective only: ``"ring"``, ``"tree"``, ``"hierarchical"``
        or ``"auto"`` (cost-model selection); ``None`` defers to the backend.
        """
        spec = CollectiveSpec(CollectiveKind.ALL_REDUCE, count, dtype, op,
                              priority=self._priority(priority),
                              algorithm=algorithm)
        return self.collective(rank, spec, key=key, callback=callback, stream=stream)

    def all_gather(self, rank, count, dtype=DataType.FLOAT32,
                   key=None, priority=None, callback=None, stream=None):
        """Concatenate every rank's ``count`` elements onto every rank."""
        spec = CollectiveSpec(CollectiveKind.ALL_GATHER, count, dtype,
                              priority=self._priority(priority))
        return self.collective(rank, spec, key=key, callback=callback, stream=stream)

    def reduce_scatter(self, rank, count, dtype=DataType.FLOAT32, op=ReduceOp.SUM,
                       key=None, priority=None, callback=None, stream=None):
        """Reduce across the group, each rank keeping one 1/n shard."""
        spec = CollectiveSpec(CollectiveKind.REDUCE_SCATTER, count, dtype, op,
                              priority=self._priority(priority))
        return self.collective(rank, spec, key=key, callback=callback, stream=stream)

    def all_to_all(self, rank, count, dtype=DataType.FLOAT32,
                   key=None, priority=None, callback=None, stream=None):
        """Personalized exchange: every rank sends a distinct slice to every peer.

        ``count`` is the per-rank send-buffer element count (one 1/n slice per
        peer), matching ``torch.distributed.all_to_all_single``.  This is the
        MoE expert-parallel dispatch/combine collective; it runs the pairwise
        exchange schedule regardless of the algorithm knob.
        """
        spec = CollectiveSpec(CollectiveKind.ALL_TO_ALL, count, dtype,
                              priority=self._priority(priority))
        return self.collective(rank, spec, key=key, callback=callback, stream=stream)

    def broadcast(self, rank, count, dtype=DataType.FLOAT32, root=0,
                  key=None, priority=None, callback=None, stream=None):
        """Copy ``count`` elements from group rank ``root`` to every rank."""
        spec = CollectiveSpec(CollectiveKind.BROADCAST, count, dtype, root=root,
                              priority=self._priority(priority))
        return self.collective(rank, spec, key=key, callback=callback, stream=stream)

    def reduce(self, rank, count, dtype=DataType.FLOAT32, op=ReduceOp.SUM, root=0,
               key=None, priority=None, callback=None, stream=None):
        """Reduce ``count`` elements across the group onto group rank ``root``."""
        spec = CollectiveSpec(CollectiveKind.REDUCE, count, dtype, op, root=root,
                              priority=self._priority(priority))
        return self.collective(rank, spec, key=key, callback=callback, stream=stream)

    def barrier(self, rank, key=None, callback=None, stream=None):
        """A rendezvous of every group member (a one-element all-reduce)."""
        barrier_key = (_BARRIER_KEY,) if key is None else (_BARRIER_KEY, key)
        return self.all_reduce(rank, 1, key=barrier_key, callback=callback,
                               stream=stream)

    def __repr__(self):
        return (f"<ProcessGroup {self.name} backend={self.backend.name} "
                f"size={self.size}>")
