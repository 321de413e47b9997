"""Job checkpoints: what the scheduler saves when it evicts a job.

A preempted (or migrated, or rejoin-evicted) job is checkpointed at its last
*iteration boundary* every rank fully recorded — partial iterations are never
credited, their collective parts are aborted at eviction and re-run on
resume.  The :class:`JobCheckpoint` carries the cumulative progress plus a
fingerprint of the epoch's collective state, so tests (and the elastic
fuzzer) can assert that a resumed job re-forms exactly the groups it had and
completes byte-identical reductions.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class JobCheckpoint:
    """Durable state of one evicted job (everything resume needs)."""

    job_id: str
    #: Placement epoch the checkpoint closed (0 = the job's first placement).
    epoch: int
    #: Cumulative fully-completed iterations across every epoch so far; the
    #: resumed run executes ``spec.iterations - completed_iterations``.
    completed_iterations: int
    taken_at_us: float
    #: Why the job was evicted: ``"preempted-by:<job>"``, ``"migrate"`` or
    #: ``"rejoin"`` (a leased rank died).
    reason: str
    #: Collective parts aborted out of the daemon queues at eviction.
    aborted_parts: int = 0
    #: Sorted :func:`collective_fingerprints` of the epoch's registrations.
    fingerprints: tuple = field(default=())

    def describe(self):
        """Plain-dict form (JSON-safe, used by bench reports and the fuzzer)."""
        return {
            "job_id": self.job_id,
            "epoch": self.epoch,
            "completed_iterations": self.completed_iterations,
            "taken_at_us": self.taken_at_us,
            "reason": self.reason,
            "aborted_parts": self.aborted_parts,
            "fingerprints": [list(entry) for entry in self.fingerprints],
        }


def collective_fingerprints(backend, job, to_local=None):
    """Fingerprint ``job``'s registered collectives on a DFCCL backend.

    Returns a sorted tuple of ``(name, kind, members, invocations,
    complete)`` entries — one per registration — where ``members`` are the
    participating ranks (mapped through ``to_local`` when the caller plans
    in job-local rank space) and ``complete`` counts fully-completed
    invocations.  Two runs of the same job that reach the same iteration
    boundary produce identical fingerprints, which is what the elastic
    fuzzer's determinism check leans on.
    """
    entries = []
    for coll in backend.collectives.values():
        if coll.job != job:
            continue
        members = []
        for rank in coll.active_ranks():
            global_rank = coll.global_ranks[rank]
            members.append(to_local(global_rank) if to_local is not None
                           else global_rank)
        entries.append((
            coll.name,
            coll.spec.kind.value,
            tuple(sorted(members)),
            len(coll.invocations),
            sum(1 for invocation in coll.invocations
                if invocation.fully_complete()),
        ))
    return tuple(sorted(entries))
