"""Differential conformance testing of the ``repro.api`` backends.

SYSFLOW-style validation for the execution platform: a seeded generator
(:mod:`repro.testing.generator`) draws random collective programs — mixed
collective kinds over random subgroups, sizes, keys, jobs, priorities and
optional fault plans — and a differential checker
(:mod:`repro.testing.differential`) replays each program through every
registered backend via the ``ProcessGroup`` / ``Work`` surface, asserting the
cross-backend invariants:

* every backend completes the program (liveness);
* sequence-compiling backends (DFCCL, NCCL) execute byte-identical per-rank
  primitive sequences;
* reduction fingerprints agree — within one backend across ranks sharing a
  completion signature, and across backends per invocation;
* DFCCL never deadlocks, including under injected faults;
* a fixed seed replays deterministically.

``python -m repro.testing.fuzz --seed 0 --programs 200`` runs the fuzz loop
from the command line; :func:`repro.testing.fuzz.minimize_program` shrinks a
failing program to a minimal reproducer.
"""

from repro.testing.generator import (
    CallSpec,
    GroupSpec,
    ProgramSpec,
    collective_program,
    generate_program,
    topology_for_world,
)
from repro.testing.differential import (
    CheckResult,
    Divergence,
    ReplayResult,
    check_program,
    install_program,
    replay_program,
)
__all__ = [
    "CallSpec",
    "CheckResult",
    "Divergence",
    "GroupSpec",
    "ProgramSpec",
    "ReplayResult",
    "check_program",
    "collective_program",
    "generate_program",
    "install_program",
    "replay_program",
    "topology_for_world",
]
