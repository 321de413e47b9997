"""Replay generated programs through any backend and check parity invariants.

:func:`replay_program` executes one :class:`~repro.testing.generator.ProgramSpec`
on a fresh simulated cluster through one registered ``repro.api`` backend —
building the exact ProcessGroup/Work program every rank would write by hand —
and returns a :class:`ReplayResult` of plain data: per-work completion
records, the primitive sequences each rank executed, the engine outcome and
its deadlock analysis.  Its first half, :func:`install_program`, is the
repository's one program driver: the chaos scenarios of
:mod:`repro.faults.scenarios` replay through it, and the benchmark harnesses
install a :func:`~repro.testing.generator.collective_program` with it and
run the cluster themselves.  Replays share one outcome rule — a run is
``completed`` when every surviving rank's Work is done or aborted,
``deadlock`` when the engine recorded a deadlock, and ``stuck`` otherwise.

:func:`check_program` replays through every requested backend and verifies:

``liveness``
    Fault-free programs complete on every backend before the deadline.
``deadlock-freedom``
    DFCCL never ends in an engine deadlock, fault plan or not.
``sequence parity``
    Backends that compile per-rank primitive sequences (DFCCL, NCCL) must
    produce identical sequences for every (rank, logical collective,
    invocation).
``fingerprints``
    Within a backend, ranks sharing a completion signature must agree on the
    reduced value; across backends, each rank's invocation must reduce over
    the same member set (fault-free programs).
``determinism``
    Replaying the same program twice on the same backend yields identical
    results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api import make_backend, wait_all
from repro.common.rng import DeterministicRNG
from repro.deadlock.fault_scenarios import analyze_fault_deadlock
from repro.faults.injector import install_fault_plan
from repro.gpusim import HostProgram, build_cluster
from repro.testing.generator import REDUCING_KINDS, ROOTED_KINDS

#: Backends checked by default (everything registered out of the box).
DEFAULT_BACKENDS = ("dfccl", "nccl", "mpi")

#: The backend whose deadlock-freedom is an invariant of the system under
#: test (the paper's claim), and the one used for determinism replays.
DEADLOCK_FREE_BACKEND = "dfccl"


def contribution_values(ranks, seed):
    """Deterministic per-rank integer contributions to the reductions."""
    rng = DeterministicRNG(seed)
    return {rank: rng.child("contribution", rank).randint(1, 1 << 20)
            for rank in ranks}


@dataclass
class WorkRecord:
    """Plain-data view of one rank's part of one invocation."""

    rank: int
    call_id: int
    key: str
    index: int
    kind: str
    done: bool
    #: Resolved-without-completion (recovery abandoned the collective, e.g.
    #: a rooted collective whose root crashed).  done and aborted are
    #: mutually exclusive.
    aborted: bool = False
    sequence: object = None         # the executed Schedule, or None
    members: tuple = None           # global ranks reduced over
    signature: tuple = None
    reduced: int = None             # fingerprint over members (reducing kinds)
    time_us: float = None

    def logical(self):
        return (self.key, self.index)


@dataclass
class ReplayResult:
    """Everything one backend produced for one program."""

    backend: str
    outcome: str                    # "completed" | "stuck" | "deadlock"
    time_us: float
    records: list = field(default_factory=list)
    survivor_ranks: tuple = ()
    diagnostics: dict = field(default_factory=dict)
    #: Rank-level wait-for analysis of the engine's deadlock report (empty
    #: when the run did not deadlock).
    analysis: object = None
    #: Flight-recorder dump of the replay (``capture_obs=True`` only); kept
    #: out of :meth:`comparable_state` so determinism replays never compare
    #: observability payloads.
    flight_dump: dict = None

    @property
    def completed(self):
        return self.outcome == "completed"

    @property
    def deadlocked(self):
        return self.outcome == "deadlock"

    def by_rank_logical(self):
        """``{(rank, key, index): record}`` over all records."""
        return {(record.rank, record.key, record.index): record
                for record in self.records}

    def sequences_available(self):
        return any(record.sequence is not None for record in self.records)

    def fingerprints_consistent(self):
        """True when ranks sharing a signature agree on members and sum."""
        divergences = []
        _check_fingerprints_within(self, divergences)
        return not divergences

    def comparable_state(self):
        """The deterministic-replay fingerprint of this result.

        Its schedules compare in compiled form: equal segments need no
        primitive built."""
        return (
            self.outcome,
            self.time_us,
            tuple(sorted(
                (record.rank, record.call_id, record.key, record.index,
                 record.done, record.aborted, record.sequence, record.members,
                 record.signature, record.reduced, record.time_us)
                for record in self.records
            )),
        )


@dataclass(frozen=True)
class Divergence:
    """One violated invariant."""

    invariant: str
    backend: str
    detail: str
    rank: int = None
    key: str = None
    index: int = None

    def __str__(self):
        where = ""
        if self.rank is not None:
            where = f" rank={self.rank}"
        if self.key is not None:
            where += f" key={self.key!r}#{self.index}"
        return f"[{self.invariant}] {self.backend}{where}: {self.detail}"


@dataclass
class CheckResult:
    """Outcome of one differential check."""

    program: object
    backends: tuple
    divergences: list = field(default_factory=list)
    results: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.divergences

    def summary(self):
        if self.ok:
            return (f"ok: seed={self.program.seed} world={self.program.world_size} "
                    f"calls={len(self.program.calls)} backends={list(self.backends)}")
        lines = [f"FAIL: seed={self.program.seed} "
                 f"({len(self.divergences)} divergences)"]
        lines.extend(f"  {divergence}" for divergence in self.divergences)
        return "\n".join(lines)


def _issue_call(group, call, rank):
    """Issue one CallSpec on ``group`` for ``rank``; returns the Work."""
    kwargs = {"key": call.key, "priority": call.priority, "stream": call.stream}
    if call.kind == "barrier":
        # Barrier takes no count/priority; its key namespacing is internal.
        return group.barrier(rank, key=call.key, stream=call.stream)
    if call.kind in ROOTED_KINDS:
        kwargs["root"] = call.root
    method = getattr(group, call.kind)
    return method(rank, call.count, **kwargs)


def install_program(program, backend_name, observability=None, **knobs):
    """Build ``program``'s cluster and backend and install every rank's program.

    Returns ``(cluster, backend, works)``, one ``(rank, call, work)`` triple
    per issued call; ``cluster.run()`` executes the program and records,
    not raises, an engine deadlock.  ``observability`` is the cluster's hub
    (default: a fresh enabled one); ``knobs`` are forwarded to
    :func:`repro.api.make_backend` on top of the program's own
    ``chunk_bytes`` / ``algorithm``.
    """
    cluster = build_cluster(program.topology, deadlock_mode="record",
                            observability=observability)
    if program.world_size > cluster.world_size:
        raise ValueError(
            f"topology {program.topology} has only {cluster.world_size} GPUs "
            f"for a {program.world_size}-rank program"
        )
    backend = make_backend(backend_name, cluster,
                           chunk_bytes=program.chunk_bytes,
                           algorithm=program.algorithm, **knobs)

    groups = {
        spec.index: backend.new_group(list(spec.ranks), job=spec.job,
                                      priority=spec.priority)
        for spec in program.groups
    }
    if program.fault_plan is not None:
        install_fault_plan(cluster, program.fault_plan)

    works = []
    for rank in range(program.world_size):
        order = program.order_for(rank)
        if not order:
            continue
        ops = []
        for _ in range(program.rounds):
            round_works = []
            for call_id in order:
                call = program.call(call_id)
                work = _issue_call(groups[call.group_index], call, rank)
                round_works.append(work)
                works.append((rank, call, work))
            ops.extend(work.submit_op() for work in round_works)
            ops.extend(wait_all(round_works))
        ops.extend(backend.finalize_ops(rank))
        cluster.add_host(rank, HostProgram(ops))
    return cluster, backend, works


def replay_program(program, backend_name, seed=17, capture_obs=False, **knobs):
    """Replay ``program`` through one backend; returns a :class:`ReplayResult`.

    The program is built by :func:`install_program` (``knobs`` go with it)
    and run until its deadline.  With ``capture_obs=True`` the result
    carries a flight-recorder dump of the run (step events, spans, metrics)
    in ``flight_dump`` — the artifact the fuzzer writes next to a minimized
    failing program.
    """
    cluster, backend, works = install_program(program, backend_name, **knobs)
    final_time_us = cluster.run(until_us=program.deadline_us)

    contributions = contribution_values(range(program.world_size), seed)
    # Reduced value of each member tuple: the works of one communicator
    # share theirs, so each sum is taken once.
    sums = {}
    records = []
    for rank, call, work in works:
        record = WorkRecord(
            rank=rank, call_id=call.call_id, key=work.key, index=work.index,
            kind=call.kind, done=work.done, aborted=work.aborted,
        )
        if work.done:
            info = work.completion_info()
            record.members = tuple(info.member_ranks)
            record.signature = tuple(info.signature)
            record.time_us = info.time_us
            if call.kind in REDUCING_KINDS:
                reduced = sums.get(record.members)
                if reduced is None:
                    reduced = sums[record.members] = sum(
                        contributions[member] for member in record.members)
                record.reduced = reduced
            record.sequence = work.primitive_sequence()
        records.append(record)

    crashed = set(program.crashed_ranks())
    survivors = tuple(rank for rank in range(program.world_size)
                      if rank not in crashed)
    report = cluster.engine.deadlock_report
    if report is not None:
        outcome = "deadlock"
    elif all(record.done or record.aborted for record in records
             if record.rank not in crashed):
        # Aborted parts count as resolved: the wait returned and told the
        # application the collective cannot finish — that is liveness.
        outcome = "completed"
    else:
        outcome = "stuck"

    flight_dump = None
    if capture_obs:
        flight_dump = cluster.engine.obs.dump(
            "fuzz", context={"backend": backend_name, "outcome": outcome,
                             "seed": program.seed,
                             "world_size": program.world_size})

    result = ReplayResult(
        backend=backend_name,
        outcome=outcome,
        time_us=final_time_us,
        records=records,
        survivor_ranks=survivors,
        diagnostics=backend.diagnostics(),
        analysis=analyze_fault_deadlock(report, cluster),
        flight_dump=flight_dump,
    )
    cluster.close()
    return result


# -- invariant checks -------------------------------------------------------------


def _check_liveness(result, divergences):
    if not result.completed:
        # Name only the ranks that actually violate the invariant: crashed
        # ranks can never complete and abort-resolved parts already returned.
        survivors = set(result.survivor_ranks)
        stuck = sorted({record.rank for record in result.records
                        if record.rank in survivors
                        and not record.done and not record.aborted})
        divergences.append(Divergence(
            "liveness", result.backend,
            f"outcome={result.outcome}, incomplete ranks {stuck[:8]}",
        ))


def _check_sequence_parity(reference, other, divergences):
    ref_records = reference.by_rank_logical()
    other_records = other.by_rank_logical()
    if set(ref_records) != set(other_records):
        divergences.append(Divergence(
            "sequence-parity", other.backend,
            f"work sets differ from {reference.backend}: "
            f"{sorted(set(ref_records) ^ set(other_records))[:4]}",
        ))
        return
    for ident, ref_record in ref_records.items():
        ref_sequence = ref_record.sequence
        other_sequence = other_records[ident].sequence
        # Schedules compare in compiled form first; only a mismatch walks
        # their primitives, here to name the first that differs.
        if ref_sequence != other_sequence:
            rank, key, index = ident
            detail = "sequence missing"
            if ref_sequence and other_sequence:
                position = next(
                    (i for i, (ours, theirs)
                     in enumerate(zip(ref_sequence, other_sequence))
                     if ours != theirs),
                    min(len(ref_sequence), len(other_sequence)),
                )
                detail = (f"first differs at primitive {position} "
                          f"(lengths {len(ref_sequence)} vs "
                          f"{len(other_sequence)})")
            divergences.append(Divergence(
                "sequence-parity", other.backend,
                f"differs from {reference.backend}: {detail}",
                rank=rank, key=key, index=index,
            ))


def _check_fingerprints_within(result, divergences):
    grouped = {}
    for record in result.records:
        if record.done and record.reduced is not None:
            grouped.setdefault(record.logical(), {})[record.rank] = record
    for (key, index), by_rank in grouped.items():
        by_signature = {}
        for record in by_rank.values():
            by_signature.setdefault(record.signature, set()).add(
                (record.members, record.reduced))
        for signature, values in by_signature.items():
            if len(values) > 1:
                divergences.append(Divergence(
                    "fingerprint", result.backend,
                    f"ranks sharing signature {signature} disagree: {values}",
                    key=key, index=index,
                ))


def _check_members_across(reference, other, divergences):
    ref_records = reference.by_rank_logical()
    for ident, other_record in other.by_rank_logical().items():
        ref_record = ref_records.get(ident)
        if ref_record is None or not (ref_record.done and other_record.done):
            continue
        if set(ref_record.members or ()) != set(other_record.members or ()):
            rank, key, index = ident
            divergences.append(Divergence(
                "fingerprint", other.backend,
                f"member set {sorted(other_record.members)} differs from "
                f"{reference.backend}'s {sorted(ref_record.members)}",
                rank=rank, key=key, index=index,
            ))


def check_program(program, backends=DEFAULT_BACKENDS, seed=17,
                  check_determinism=True, **knobs):
    """Run the differential check for one program over ``backends``.

    Fault programs exercise the deadlock-freedom and fingerprint invariants
    on :data:`DEADLOCK_FREE_BACKEND` only — the baselines wedge on dead peers
    *by design* (that asymmetry is the paper's Table 1, not a bug to flag).
    """
    if program.has_faults:
        backends = tuple(backend for backend in backends
                         if backend == DEADLOCK_FREE_BACKEND) or (DEADLOCK_FREE_BACKEND,)
    else:
        backends = tuple(backends)

    check = CheckResult(program=program, backends=backends)
    for backend in backends:
        check.results[backend] = replay_program(program, backend, seed=seed,
                                                **knobs)

    for backend, result in check.results.items():
        if backend == DEADLOCK_FREE_BACKEND and result.deadlocked:
            check.divergences.append(Divergence(
                "deadlock-freedom", backend,
                f"engine deadlock at t={result.time_us:.1f}us",
            ))
            continue
        if not program.has_faults:
            _check_liveness(result, check.divergences)
        elif backend == DEADLOCK_FREE_BACKEND and not result.completed:
            # Under faults the survivors must still finish: a "stuck" run —
            # bounded busy-waiting converts would-be deadlocks into retry
            # loops the engine never reports — is a recovery hang, not a
            # pass.  Crashed ranks' own works are exempt (replay_program's
            # completion test already ignores them).
            _check_liveness(result, check.divergences)
        _check_fingerprints_within(result, check.divergences)

    if not program.has_faults:
        sequence_results = [result for result in check.results.values()
                            if result.sequences_available()]
        for other in sequence_results[1:]:
            _check_sequence_parity(sequence_results[0], other, check.divergences)
        all_results = list(check.results.values())
        for other in all_results[1:]:
            _check_members_across(all_results[0], other, check.divergences)

    if check_determinism and check.ok:
        backend = (DEADLOCK_FREE_BACKEND
                   if DEADLOCK_FREE_BACKEND in check.results else backends[0])
        replayed = replay_program(program, backend, seed=seed, **knobs)
        if replayed.comparable_state() != check.results[backend].comparable_state():
            check.divergences.append(Divergence(
                "determinism", backend,
                "two replays of the same seed differ",
            ))
    return check
