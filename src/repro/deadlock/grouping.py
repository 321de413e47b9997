"""GPU grouping policies for the deadlock simulator (Sec. 2.4.1).

A *group* is a set of GPUs sharing a separate list of collectives.  A GPU may
belong to several groups; the collectives it invokes are the union over its
groups.  Two policies are studied:

* the 3D grouping policy of 3D-hybrid parallel training: GPUs form TP groups,
  DP groups (across TP groups within a PP stage) and PP groups, with
  collectives planned for the TP and DP groups;
* the free grouping policy, where the configuration directly lists each
  group's GPUs and collective count (used to emulate irregular, Pathways-like
  workloads).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError


@dataclass
class GpuGroup:
    """One group: member GPUs plus the number of collectives planned for it."""

    group_id: int
    gpus: list
    num_collectives: int
    kind: str = "free"

    def collective_ids(self):
        """Globally unique (group, index) collective identifiers."""
        return [(self.group_id, index) for index in range(self.num_collectives)]


class ThreeDGroupingPolicy:
    """TP / DP / PP grouping of 3D-hybrid parallelism (Fig. 3).

    GPUs are arranged as a (pp, dp, tp) grid in rank-major order: rank =
    ((pp_index * dp_size) + dp_index) * tp_size + tp_index.  TP groups and DP
    groups carry collectives; PP communication is point-to-point and is not
    modelled as a group (matching the paper's configuration, which only
    specifies collective counts for TP and DP groups).
    """

    def __init__(self, tp_size, dp_size, pp_size, tp_collectives, dp_collectives):
        if tp_size < 1 or dp_size < 1 or pp_size < 1:
            raise ConfigurationError("group sizes must be at least 1")
        self.tp_size = tp_size
        self.dp_size = dp_size
        self.pp_size = pp_size
        self.tp_collectives = tp_collectives
        self.dp_collectives = dp_collectives

    @property
    def num_gpus(self):
        return self.tp_size * self.dp_size * self.pp_size

    def rank(self, pp_index, dp_index, tp_index):
        return (pp_index * self.dp_size + dp_index) * self.tp_size + tp_index

    def build_groups(self):
        """Return the list of :class:`GpuGroup` (TP groups then DP groups)."""
        groups = []
        group_id = 0
        for pp_index in range(self.pp_size):
            for dp_index in range(self.dp_size):
                gpus = [self.rank(pp_index, dp_index, tp_index)
                        for tp_index in range(self.tp_size)]
                groups.append(GpuGroup(group_id, gpus, self.tp_collectives, kind="tp"))
                group_id += 1
        for pp_index in range(self.pp_size):
            for tp_index in range(self.tp_size):
                gpus = [self.rank(pp_index, dp_index, tp_index)
                        for dp_index in range(self.dp_size)]
                groups.append(GpuGroup(group_id, gpus, self.dp_collectives, kind="dp"))
                group_id += 1
        return groups


class FreeGroupingPolicy:
    """Explicitly specified groups (GPU lists and collective counts)."""

    def __init__(self, groups):
        self._groups = []
        for group_id, (gpus, num_collectives) in enumerate(groups):
            if not gpus:
                raise ConfigurationError(f"group {group_id} has no GPUs")
            self._groups.append(GpuGroup(group_id, list(gpus), num_collectives))

    @property
    def num_gpus(self):
        return max(max(group.gpus) for group in self._groups) + 1

    def build_groups(self):
        return list(self._groups)

    @classmethod
    def paper_case(cls, num_groups, num_gpus, collectives_small, collectives_large,
                   extra_gpus_per_group=0):
        """Construct the paper's (32, 64) / (32, 128) free-grouping cases.

        28 groups have three GPUs each and four groups have eight GPUs each
        (plus ``extra_gpus_per_group`` for the 128-GPU variant); half of the
        groups get ``collectives_small`` collectives and half
        ``collectives_large``.  GPU membership is assigned round-robin so that
        GPUs variably belong to one to five groups, mirroring the overlap the
        paper describes.
        """
        if num_groups != 32:
            raise ConfigurationError("the paper's free-grouping cases use 32 groups")
        sizes = [3] * 28 + [8] * 4
        sizes = [size + extra_gpus_per_group for size in sizes]
        groups = []
        cursor = 0
        for index, size in enumerate(sizes):
            gpus = [(cursor + offset) % num_gpus for offset in range(size)]
            cursor = (cursor + size) % num_gpus
            count = collectives_small if index % 2 == 0 else collectives_large
            groups.append((gpus, count))
        return cls(groups)


@dataclass
class GroupedWorkload:
    """Resolved view used by the simulator: per-GPU collective memberships."""

    groups: list
    num_gpus: int
    per_gpu_collectives: dict = field(default_factory=dict)

    @classmethod
    def from_policy(cls, policy):
        groups = policy.build_groups()
        num_gpus = policy.num_gpus
        per_gpu = {gpu: [] for gpu in range(num_gpus)}
        for group in groups:
            for coll_id in group.collective_ids():
                for gpu in group.gpus:
                    per_gpu[gpu].append(coll_id)
        return cls(groups=groups, num_gpus=num_gpus, per_gpu_collectives=per_gpu)

    def overlap_degree(self, gpu):
        """Number of groups the GPU belongs to (Sec. 2.4.3, observation 5)."""
        return sum(1 for group in self.groups if gpu in group.gpus)
