"""The unified application-facing API (``repro.api``).

One execution-platform abstraction in the spirit of SYSFLOW fronts every
collective engine in the repo:

* :func:`make_backend` / :data:`BACKENDS` — the backend registry
  (``"dfccl"``, ``"nccl"``, ``"mpi"`` built in; :func:`register_backend`
  adds more);
* :class:`CollectiveBackend` — the protocol adapters implement; each
  adapter is its engine's one instance per cluster (the DFCCL adapter owns
  the rank contexts, pool, recovery manager and registered collectives);
* :class:`ProcessGroup` — torch.distributed-style groups created via
  ``backend.new_group(ranks, job=..., priority=...)``, exposing
  ``all_reduce`` / ``all_gather`` / ``reduce_scatter`` / ``broadcast`` /
  ``reduce`` / ``barrier`` with auto-assigned collective ids; a group's
  ``job`` is the only job name a backend reads, so jobs share one backend;
* :class:`Work` / :func:`wait_all` — the one per-rank future on every
  backend: a collective run plus the rank's place in it, whose host ops
  submit and await the rank's part.

A minimal program::

    from repro.api import make_backend, wait_all
    from repro.gpusim import HostProgram, build_cluster

    cluster = build_cluster("single-3090")
    backend = make_backend("dfccl", cluster)
    group = backend.new_group()               # every GPU
    programs = []
    for rank in group.ranks:
        works = [group.all_reduce(rank, count=1 << 20, key=i) for i in (0, 1)]
        ops = [work.submit_op() for work in works] + wait_all(works)
        programs.append(HostProgram(ops + backend.finalize_ops(rank)))
    cluster.add_hosts(programs)
    cluster.run()

The same program runs unchanged over any registered backend — that is the
whole point.
"""

from repro.api.backend import (
    BACKENDS,
    CollectiveBackend,
    make_backend,
    register_backend,
)
from repro.api.group import ProcessGroup
from repro.api.work import CompletionInfo, Work, wait_all
from repro.api.dfccl_adapter import DfcclCollectiveBackend
from repro.api.nccl_adapter import NcclCollectiveBackend
from repro.api.mpi_adapter import MpiCollectiveBackend

__all__ = [
    "BACKENDS",
    "CollectiveBackend",
    "CompletionInfo",
    "DfcclCollectiveBackend",
    "MpiCollectiveBackend",
    "NcclCollectiveBackend",
    "ProcessGroup",
    "Work",
    "make_backend",
    "register_backend",
    "wait_all",
]
