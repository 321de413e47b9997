"""The deadlock simulator of Sec. 2.4.

This is a faithful reimplementation of the simulator the paper uses to
quantify how disordered collective invocation and GPU synchronization turn
into deadlocks.  GPUs are organized into groups, each group has a list of
collectives to invoke, and collectives transition through the states
*invoked → executing → successful* under one of two deadlock decision models
(single-queue or synchronization).  After every event the simulator checks the
dependency graph for cycles; a cycle is a deadlock and ends the round.
"""

from repro.deadlock.dependency_graph import DependencyGraph
from repro.deadlock.fault_scenarios import (
    FaultDeadlockAnalysis,
    analyze_fault_deadlock,
)
from repro.deadlock.grouping import FreeGroupingPolicy, GpuGroup, ThreeDGroupingPolicy
from repro.deadlock.models import SingleQueueModel, SynchronizationModel
from repro.deadlock.simulator import DeadlockSimulator, RoundResult, estimate_deadlock_ratio
from repro.deadlock.configs import TABLE1_CONFIGS, Table1Config, table1_rows

__all__ = [
    "DeadlockSimulator",
    "DependencyGraph",
    "FaultDeadlockAnalysis",
    "FreeGroupingPolicy",
    "GpuGroup",
    "RoundResult",
    "SingleQueueModel",
    "SynchronizationModel",
    "TABLE1_CONFIGS",
    "Table1Config",
    "ThreeDGroupingPolicy",
    "analyze_fault_deadlock",
    "estimate_deadlock_ratio",
    "table1_rows",
]
