"""Collective plans: a collective resolved once per membership.

A collective's primitive-sequence composition is *static context* (Sec. 4.2):
it depends only on the spec, the participating devices and the resolved
algorithm, all fixed when the collective is registered.  A
:class:`CollectivePlan` holds the membership-derived part of that state for
one membership of one collective, and both backends build their executors
from it:

* DFCCL's :class:`~repro.core.registration.RegisteredCollective` owns one plan
  per ``generation``.  Registration builds the first; every elastic shrink or
  grow bumps the generation and replaces the plan.
* The NCCL baseline's ``repro.api`` adapter keeps one plan per
  ``(member ranks, spec)``, shared by the per-call ops of one logical
  collective.

A plan lives and dies with its owner: there is no global cache and nothing to
configure.
"""

from __future__ import annotations

from repro.collectives.selector import AlgorithmSelector
from repro.collectives.sequences import hierarchical_island_size


class CollectivePlan:
    """Membership, algorithm and cost prediction of one collective.

    ``devices`` are the collective's devices by group rank; ``excluded``
    names group ranks that are not members of this generation (elastic
    shrink).  Group ranks are stable, so a plan resolves membership-derived
    values once and answers the hot-path queries with lookups:

    * ``active_ranks`` — member group ranks, ascending (a tuple, which is
      also the sorted participant signature) — and ``active_set``;
    * ``rank_of_device`` — device to group rank, over every device;
    * ``island_size``, ``algorithm``, ``predicted_cost_us`` and
      ``predicted_breakdown`` for the member devices.
    """

    def __init__(self, spec, devices, interconnect, algorithm, chunk_bytes,
                 cost_model=None, excluded=(), generation=0, previous=None):
        self.spec = spec.validate()
        self.devices = tuple(devices)
        self.interconnect = interconnect
        self.chunk_bytes = chunk_bytes
        self.cost_model = cost_model
        self.generation = generation
        self.active_ranks = tuple(rank for rank in range(len(self.devices))
                                  if rank not in excluded)
        self.active_set = frozenset(self.active_ranks)
        self.rank_of_device = {}
        for rank, device in enumerate(self.devices):
            self.rank_of_device.setdefault(device, rank)
        self._virtual_ranks = {rank: index
                               for index, rank in enumerate(self.active_ranks)}
        device_ids = [self.devices[rank].device_id for rank in self.active_ranks]
        self.island_size = hierarchical_island_size(
            device_id.node for device_id in device_ids)
        if device_ids or previous is None:
            selector = AlgorithmSelector(interconnect, cost_model=cost_model)
            kind, nbytes, size = spec.kind, spec.nbytes, len(device_ids)
            self.algorithm = selector.resolve(algorithm, kind, nbytes, size,
                                              device_ids)
            #: The selector's alpha-beta prediction for the resolved
            #: algorithm by bucket, and its sum: carried on every collective
            #: span and compared against measured virtual time in the
            #: calibration report.
            self.predicted_breakdown = selector.predicted_cost_breakdown(
                self.algorithm, kind, nbytes, size, device_ids)
            self.predicted_cost_us = sum(self.predicted_breakdown.values())
        else:
            # No member left: the collective is being abandoned, and its
            # remaining spans keep the last membership's resolution.
            self.algorithm = previous.algorithm
            self.predicted_cost_us = previous.predicted_cost_us
            self.predicted_breakdown = previous.predicted_breakdown

    def virtual_rank(self, participants, group_rank):
        """Index of ``group_rank`` within ``participants``, or ``None``.

        ``participants`` is a tuple of group ranks; the plan's own
        ``active_ranks`` is answered from a precomputed map.
        """
        if participants is self.active_ranks:
            return self._virtual_ranks.get(group_rank)
        try:
            return participants.index(group_rank)
        except ValueError:
            return None

    def island_size_of(self, participants):
        """Hierarchical island size of ``participants`` (a tuple of group ranks)."""
        if participants is self.active_ranks:
            return self.island_size
        return hierarchical_island_size(
            self.devices[rank].device_id.node for rank in participants)

    def __repr__(self):
        return (f"<CollectivePlan {self.spec.kind.value} gen={self.generation} "
                f"members={len(self.active_ranks)}/{len(self.devices)} "
                f"algorithm={self.algorithm}>")
