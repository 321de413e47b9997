"""The differential fuzz loop and program minimizer.

``python -m repro.testing.fuzz --seed 0 --programs 200`` generates programs
from consecutive child seeds, replays each through every backend and reports
divergences.  Exit code 0 means zero divergences.

On failure the offending :class:`~repro.testing.generator.ProgramSpec` is
printed as plain data together with a one-line repro command;
``--minimize`` additionally shrinks it — greedily dropping calls, halving
payload sizes and dropping fault events while the failure persists — so the
committed reproducer is the smallest program that still diverges.  With an
``artifact_dir`` (CLI ``--artifact-dir``), each failure also writes the
minimized program as JSON plus a flight-recorder dump of its replay
(``*.flight.json``) — step events, spans and the metrics snapshot of the
diverging run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

from repro.common.rng import DeterministicRNG
from repro.testing.differential import (
    DEADLOCK_FREE_BACKEND,
    DEFAULT_BACKENDS,
    check_program,
    replay_program,
)
from repro.testing.generator import generate_program


def draw_world_size(stream, max_ranks, min_ranks=2):
    """Mostly small worlds (fast), occasionally the largest allowed."""
    max_ranks = max(min_ranks, max_ranks)
    small_cap = min(8, max_ranks)
    if max_ranks > 8 and stream.bernoulli(0.1):
        return stream.choice([size for size in (16, 32, 64, 128, 256, 512)
                              if size <= max_ranks] or [max_ranks])
    return stream.randint(min_ranks, small_cap)


def program_at(seed, index, max_ranks=8, fault_fraction=0.15, max_calls=8):
    """The program the fuzz loop generates at ``index`` — a pure function.

    Child streams are label-derived, so the program at one index does not
    depend on earlier iterations; a printed repro command replays exactly
    this function with the original generation knobs (the stream draws
    depend on ``max_ranks``/``fault_fraction`` themselves, which is why the
    knobs — not the drawn world size — must be echoed).
    """
    stream = DeterministicRNG(seed).child("fuzz").child("p", index)
    world_size = draw_world_size(stream, max_ranks)
    with_faults = stream.bernoulli(fault_fraction)
    return generate_program(
        seed=stream.randint(0, 1 << 30),
        world_size=world_size,
        max_calls=max_calls,
        with_faults=with_faults,
    )


def write_failure_artifacts(failure, artifact_dir, seed, backends):
    """Write the failing program and its flight-recorder dump to disk.

    Returns the list of paths written.  The program written is the minimized
    one when minimization ran; the flight dump replays it on
    :data:`DEADLOCK_FREE_BACKEND` (or the first requested backend) with
    ``capture_obs=True``.
    """
    os.makedirs(artifact_dir, exist_ok=True)
    program = failure.get("minimized", failure["program"])
    stem = os.path.join(artifact_dir, f"fuzz-seed{seed}-p{failure['index']}")
    paths = []

    program_path = f"{stem}.program.json"
    with open(program_path, "w", encoding="utf-8") as handle:
        json.dump({"divergences": failure["divergences"],
                   "program": program.describe()},
                  handle, indent=2, default=str)
    paths.append(program_path)

    replay_backend = (DEADLOCK_FREE_BACKEND
                      if DEADLOCK_FREE_BACKEND in backends else backends[0])
    result = replay_program(program, replay_backend, capture_obs=True)
    flight_path = f"{stem}.flight.json"
    with open(flight_path, "w", encoding="utf-8") as handle:
        json.dump(result.flight_dump, handle, indent=2, default=str)
    paths.append(flight_path)
    return paths


def fuzz(seed=0, programs=200, max_ranks=8, backends=DEFAULT_BACKENDS,
         fault_fraction=0.15, max_calls=8, verbose=False, stop_on_failure=True,
         minimize=False, artifact_dir=None, log=print):
    """Run the fuzz loop; returns a summary dict (``failures`` empty on pass)."""
    started = time.perf_counter()
    kind_histogram = {}
    failures = []
    stats = {"programs": 0, "calls": 0, "faulty": 0, "max_world": 0}

    for index in range(programs):
        program = program_at(seed, index, max_ranks=max_ranks,
                             fault_fraction=fault_fraction, max_calls=max_calls)
        stats["programs"] += 1
        stats["calls"] += len(program.calls)
        stats["faulty"] += bool(program.has_faults)
        stats["max_world"] = max(stats["max_world"], program.world_size)
        for call in program.calls:
            kind_histogram[call.kind] = kind_histogram.get(call.kind, 0) + 1

        check = check_program(program, backends=backends)
        if verbose or not check.ok:
            log(f"[{index + 1}/{programs}] {check.summary()}")
        if check.ok:
            continue

        failure = {"index": index, "program": program,
                   "divergences": [str(d) for d in check.divergences]}
        if minimize:
            minimized = minimize_program(program, backends=backends)
            failure["minimized"] = minimized
            log("minimized reproducer:")
            log(json.dumps(minimized.describe(), indent=2, default=str))
        if artifact_dir is not None:
            failure["artifacts"] = write_failure_artifacts(
                failure, artifact_dir, seed, backends)
            for path in failure["artifacts"]:
                log(f"wrote {path}")
        failures.append(failure)
        if stop_on_failure:
            break

    elapsed = time.perf_counter() - started
    summary = {
        "seed": seed,
        "backends": list(backends),
        "elapsed_s": elapsed,
        "kinds": dict(sorted(kind_histogram.items())),
        "failures": failures,
        # The exact generation knobs: a repro command must replay these, not
        # the drawn per-program values (the stream consumed to draw a world
        # size depends on max_ranks itself).
        "knobs": {"max_ranks": max_ranks, "fault_fraction": fault_fraction,
                  "max_calls": max_calls},
        **stats,
    }
    log(f"fuzz: {stats['programs']} programs ({stats['calls']} calls, "
        f"{stats['faulty']} with faults, worlds up to {stats['max_world']} "
        f"ranks) over {list(backends)} in {elapsed:.1f}s -> "
        f"{len(failures)} divergent"
        + ("" if failures else " (zero cross-backend divergences)"))
    return summary


def _still_fails(program, backends):
    return not check_program(program, backends=backends,
                             check_determinism=False).ok


def minimize_program(program, backends=DEFAULT_BACKENDS, max_passes=6):
    """Greedy shrink of a failing program while it keeps failing.

    Passes, to fixpoint (bounded by ``max_passes``): drop one call at a time;
    halve call payload counts; drop fault events.  The result is the smallest
    program this procedure can reach, not a global minimum — in practice a
    one-or-two-call reproducer.
    """
    if not _still_fails(program, backends):
        return program

    current = program
    for _ in range(max_passes):
        changed = False

        # Drop calls one by one (later calls first: they depend on earlier
        # invocation indices, so dropping from the tail succeeds more often).
        for call in sorted(current.calls, key=lambda c: -c.call_id):
            if len(current.calls) == 1:
                break
            candidate = current.with_calls(
                [c for c in current.calls if c.call_id != call.call_id])
            if _still_fails(candidate, backends):
                current = candidate
                changed = True

        # Halve payloads.
        for call in current.calls:
            if call.count <= 1 or call.kind == "barrier":
                continue
            candidate = current.with_calls([
                replace(c, count=max(1, c.count // 2)) if c.call_id == call.call_id
                else c
                for c in current.calls
            ])
            if _still_fails(candidate, backends):
                current = candidate
                changed = True

        # Drop fault events.
        if current.fault_plan is not None:
            plan = current.fault_plan
            for event in list(plan.events):
                if len(plan.events) <= 1:
                    break
                shrunk_plan = type(plan)(name=plan.name, seed=plan.seed)
                for other in plan.events:
                    if other is not event:
                        shrunk_plan.add(other)
                candidate = replace(current, fault_plan=shrunk_plan)
                if _still_fails(candidate, backends):
                    current = candidate
                    plan = shrunk_plan
                    changed = True

        if not changed:
            break
    return current


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.fuzz",
        description="Differential conformance fuzzer over the repro.api backends.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="fuzz stream seed (default 0)")
    parser.add_argument("--programs", type=int, default=200,
                        help="number of programs to generate (default 200)")
    parser.add_argument("--ranks", type=int, default=8,
                        help="largest world size to draw (default 8; e.g. 512)")
    parser.add_argument("--backends", default=",".join(DEFAULT_BACKENDS),
                        help="comma-separated backend names "
                             f"(default {','.join(DEFAULT_BACKENDS)})")
    parser.add_argument("--fault-fraction", type=float, default=0.15,
                        help="fraction of programs carrying a fault plan "
                             "(checked dfccl-only; default 0.15)")
    parser.add_argument("--max-calls", type=int, default=8,
                        help="max collective calls per program (default 8)")
    parser.add_argument("--minimize", action="store_true",
                        help="shrink the first failing program before reporting")
    parser.add_argument("--artifact-dir", default=None,
                        help="directory for failure artifacts — the failing "
                             "program and its flight-recorder dump, written "
                             "only when a program diverges (default: no "
                             "artifacts)")
    parser.add_argument("--keep-going", action="store_true",
                        help="do not stop at the first divergent program")
    parser.add_argument("--verbose", action="store_true",
                        help="log every program, not only failures")
    parser.add_argument("--elastic", type=int, default=0, metavar="N",
                        help="additionally fuzz N elastic scheduler "
                             "scenarios (preempt/resume, migrate, grow, "
                             "rejoin; default 0)")
    args = parser.parse_args(argv)

    if args.elastic:
        from repro.testing.elastic import fuzz_elastic
        elastic_summary = fuzz_elastic(
            seed=args.seed, scenarios=args.elastic,
            stop_on_failure=not args.keep_going,
        )
        if elastic_summary["failures"]:
            for failure in elastic_summary["failures"]:
                print("failing scenario:")
                print(json.dumps(failure["scenario"], indent=2, default=str))
                print(f"problems: {failure['problems']}")
            return 1

    summary = fuzz(
        seed=args.seed,
        programs=args.programs,
        max_ranks=args.ranks,
        backends=tuple(name.strip() for name in args.backends.split(",") if name.strip()),
        fault_fraction=args.fault_fraction,
        max_calls=args.max_calls,
        verbose=args.verbose,
        stop_on_failure=not args.keep_going,
        minimize=args.minimize,
        artifact_dir=args.artifact_dir,
    )
    if summary["failures"]:
        knobs = summary["knobs"]
        for failure in summary["failures"]:
            program = failure.get("minimized", failure["program"])
            print("failing program:")
            print(json.dumps(program.describe(), indent=2, default=str))
            # Echo the original generation knobs verbatim: the fuzz stream's
            # draws depend on them, so a repro with the drawn world size (or
            # default fractions) would regenerate a different program.
            print(f"repro: python -m repro.testing.fuzz --seed {summary['seed']} "
                  f"--programs {failure['index'] + 1} "
                  f"--ranks {knobs['max_ranks']} "
                  f"--fault-fraction {knobs['fault_fraction']} "
                  f"--max-calls {knobs['max_calls']}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
