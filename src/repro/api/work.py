"""Work futures: the unified asynchronous-completion surface of ``repro.api``.

Every collective call on a :class:`~repro.api.ProcessGroup` returns a
:class:`Work` — one rank's part of one collective invocation.  A Work knows
how to produce the host ops that perform the asynchronous submission
(``submit_op``) and the completion wait (``wait_op``), reports completion via
``done``, and exposes post-run introspection (``completion_info``,
``primitive_sequence``) that is identical in shape for every backend.

Work is the only future in the repo and the only submit/wait surface: each
backend adapter's Work subclass is the one piece of code that turns a
collective call into host ops.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CompletionInfo:
    """What one rank's completed collective actually reduced over.

    ``signature`` is the ``(recovery_generation, group_ranks)`` identity of
    the participant set at completion time — all ranks sharing a signature
    must hold byte-identical results.  ``member_ranks`` are the *global*
    ranks whose contributions entered this rank's result (after any elastic
    group shrink), and ``time_us`` is the completion time.
    """

    signature: tuple
    member_ranks: tuple
    time_us: float


class Work:
    """One rank's future for one collective invocation.

    ``key`` is the logical collective the call joined (user key or ``None``
    for shape-identity) and ``index`` the per-rank invocation number of that
    logical collective, auto-assigned by call order on the process group.
    """

    def __init__(self, group, rank, key, index):
        self.group = group
        self.rank = rank
        self.key = key
        self.index = index

    # -- host ops -------------------------------------------------------------

    def submit_op(self):
        """Host op performing the asynchronous submission/launch."""
        raise NotImplementedError

    def wait_op(self):
        """Host op blocking until this rank's part completed."""
        raise NotImplementedError

    def ops(self):
        """Submit immediately followed by wait (synchronous-style usage)."""
        return [self.submit_op(), self.wait_op()]

    # -- completion -----------------------------------------------------------

    @property
    def done(self):
        """True once this rank's part of the invocation completed."""
        raise NotImplementedError

    @property
    def aborted(self):
        """True when the backend resolved this part without completing it.

        Only elastic backends abort (DFCCL's recovery abandons a collective
        it cannot re-form — e.g. a rooted collective whose root died — and
        wakes the waiters); backends without recovery never do.
        """
        return False

    def completion_info(self):
        """A :class:`CompletionInfo` once complete, else ``None``."""
        raise NotImplementedError

    def primitive_sequence(self):
        """The primitives this rank executed, or ``None`` when unavailable.

        Backends that compile per-rank primitive sequences (DFCCL, NCCL)
        return the compiled sequence; analytic backends return ``None``.
        """
        return None

    @property
    def started_at_us(self):
        """Submission/launch time of this rank's part, or ``None``."""
        return None

    @property
    def finished_at_us(self):
        """Completion time of this rank's part, or ``None``."""
        info = self.completion_info()
        return info.time_us if info is not None else None

    def __repr__(self):
        return (f"<{type(self).__name__} key={self.key!r} #{self.index} "
                f"rank={self.rank} done={self.done}>")


def wait_all(works):
    """Host ops waiting for every work in submission order."""
    return [work.wait_op() for work in works]
