"""Work futures: the unified asynchronous-completion surface of ``repro.api``.

Every collective call on a :class:`~repro.api.ProcessGroup` returns a
:class:`Work` — one rank's part of one collective invocation, the pair of a
:class:`~repro.collectives.plan.CollectiveRun` (DFCCL's ``Invocation``, the
NCCL baseline's ``NcclCollectiveOp`` or the MPI rendezvous) and the rank's
group rank in it.  Completion, timing and introspection are answered from
the run, identically on every backend; the backend supplies only the host
ops that submit (``submit_op``) and await (``wait_op``) the rank's part.

Work is the only future in the repo and the only submit/wait surface.
"""

from __future__ import annotations

from repro.collectives.plan import CompletionInfo

__all__ = ["CompletionInfo", "Work", "wait_all"]


class Work:
    """One rank's future for one collective invocation.

    ``key`` is the logical collective the call joined (user key or ``None``
    for shape-identity) and ``index`` the per-rank invocation number of that
    logical collective, auto-assigned by call order on the process group.
    ``run`` is the invocation's shared run record and ``group_rank`` this
    rank's place in it.  ``callback(work)`` runs when the backend delivers
    the rank's completion; ``stream`` is a launch-stream hint that only
    backends with dedicated kernels read.
    """

    def __init__(self, group, rank, key, index, run, group_rank, callback=None,
                 stream=None):
        self.group = group
        self.rank = rank
        self.key = key
        self.index = index
        self.run = run
        self.group_rank = group_rank
        self.stream = stream
        if callback is not None:
            run.add_callback(group_rank, lambda: callback(self))

    # -- host ops -------------------------------------------------------------

    def submit_op(self):
        """Host op performing the asynchronous submission/launch."""
        return self.group.backend.submit_op(self)

    def wait_op(self):
        """Host op blocking until this rank's part is done or aborted."""
        return self.group.backend.wait_op(self)

    def ops(self):
        """Submit immediately followed by wait (synchronous-style usage)."""
        return [self.submit_op(), self.wait_op()]

    # -- completion -----------------------------------------------------------

    @property
    def done(self):
        """True once this rank's completion was delivered and its callbacks ran."""
        return self.run.is_done(self.group_rank)

    @property
    def aborted(self):
        """True when the backend resolved this part without completing it.

        Only elastic backends abort (DFCCL's recovery abandons a collective
        it cannot re-form — e.g. a rooted collective whose root died — and
        wakes the waiters); backends without recovery never do.
        """
        return self.run.is_aborted(self.group_rank)

    def completion_info(self):
        """A :class:`CompletionInfo` once complete, else ``None``."""
        return self.run.completion_info(self.group_rank)

    def primitive_sequence(self):
        """The primitives this rank executed, or ``None`` when unavailable.

        Backends that compile per-rank primitive sequences (DFCCL, NCCL)
        return the compiled :class:`~repro.collectives.primitives.Schedule`
        (a read-only sequence of primitive views); analytic backends return
        ``None``.
        """
        return self.run.primitive_sequence(self.group_rank)

    @property
    def started_at_us(self):
        """Submission/launch time of this rank's part, or ``None``."""
        return self.run.start_times.get(self.group_rank)

    @property
    def finished_at_us(self):
        """Completion time of this rank's part, or ``None``."""
        info = self.completion_info()
        return info.time_us if info is not None else None

    def __repr__(self):
        return (f"<Work {self.run.backend} key={self.key!r} #{self.index} "
                f"rank={self.rank} done={self.done}>")


def wait_all(works):
    """Host ops waiting for every work in submission order."""
    return [work.wait_op() for work in works]
