"""Simulation-based reproduction of DFCCL (deadlock-free collective
communication for GPUs).

Subpackages:

* :mod:`repro.api` — the unified application surface: backend registry
  (``make_backend``), torch.distributed-style ``ProcessGroup`` and ``Work``
  futures over every execution backend;
* :mod:`repro.gpusim` — discrete-event GPU cluster simulator;
* :mod:`repro.collectives` — primitive sequences (ring and tree algorithms),
  channels, cost model and the topology-aware algorithm selector;
* :mod:`repro.ncclsim` — the NCCL-style baseline backend;
* :mod:`repro.core` — the DFCCL daemon-kernel backend;
* :mod:`repro.deadlock` — deadlock scenario construction and analysis;
* :mod:`repro.workloads` — training workloads, parallelism plans and the
  CPU time of the orchestration baselines (``coordination_cost``);
* :mod:`repro.bench` — the experiments behind the paper's figures and tables.
"""

__version__ = "0.1.0"
