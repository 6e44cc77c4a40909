"""Distributed-memory machine simulator (substitute for the iPSC/860).

Layered as a small distributed runtime:

* :mod:`~repro.runtime.machine` -- processors, clocks, cost model;
* :mod:`~repro.runtime.scheduler` -- the deterministic discrete-event
  scheduler that drives every run;
* :mod:`~repro.runtime.transport` -- one message transport in four
  modes, direct / unreliable / reliable / onesided (sequence numbers,
  ack/retransmit, dedup, PGAS-style put/get windows with fences);
* :mod:`~repro.runtime.faults` -- deterministic fault injection
  (network faults and fail-stop processor crashes);
* :mod:`~repro.runtime.checkpoint` -- coordinated checkpoint/restart
  for crash tolerance;
* :mod:`~repro.runtime.diagnostics` -- progress monitoring, structured
  deadlock and crash reports;
* :mod:`~repro.runtime.collective` -- all-to-all data reorganization;
* :mod:`~repro.runtime.trace` / :mod:`~repro.runtime.analysis` --
  typed event tracing with comm-matrix, makespan-decomposition and
  critical-path analyses (Chrome ``trace_event`` export);
* :mod:`~repro.runtime.chaos` -- deterministic fault-space exploration
  with shrinking minimal reproducers;
* :mod:`~repro.runtime.validate` -- validation against sequential
  execution.
"""

from .analysis import (
    CommEdge,
    CommMatrix,
    CriticalPath,
    Decomposition,
    comm_matrix,
    critical_path,
    decompose,
    summarize,
)
from .checkpoint import CheckpointPolicy, CheckpointStore
from .collective import CollectiveStats, ReorganizeError, reorganize
from .diagnostics import (
    CrashError,
    CrashEvent,
    CrashReport,
    DeadlockError,
    DeadlockReport,
    ProgressMonitor,
)
from .faults import FaultPlan, ProcessorCrashed
from .machine import (
    CostModel,
    Machine,
    ProcStats,
    Processor,
    RunResult,
)
from .chaos import (
    ChaosFinding,
    ChaosReport,
    explore,
    load_reproducer,
    replay_reproducer,
)
from .scheduler import Scheduler
from .trace import TraceBuffer, TraceEvent, match_messages
from .transport import (
    CorruptionError,
    Envelope,
    LogOverflowError,
    LogRecord,
    MessageLog,
    OneSidedTransport,
    Transport,
    TransportError,
    payload_checksum,
)
from .validate import check_against_sequential, run_spmd

__all__ = [
    "ChaosFinding",
    "ChaosReport",
    "CheckpointPolicy",
    "CheckpointStore",
    "CollectiveStats",
    "CommEdge",
    "CommMatrix",
    "CorruptionError",
    "CostModel",
    "CriticalPath",
    "Decomposition",
    "CrashError",
    "CrashEvent",
    "CrashReport",
    "DeadlockError",
    "DeadlockReport",
    "Envelope",
    "FaultPlan",
    "LogOverflowError",
    "LogRecord",
    "Machine",
    "MessageLog",
    "OneSidedTransport",
    "ProcStats",
    "Processor",
    "ProcessorCrashed",
    "ProgressMonitor",
    "ReorganizeError",
    "RunResult",
    "Scheduler",
    "TraceBuffer",
    "TraceEvent",
    "Transport",
    "TransportError",
    "check_against_sequential",
    "comm_matrix",
    "critical_path",
    "decompose",
    "explore",
    "load_reproducer",
    "match_messages",
    "payload_checksum",
    "replay_reproducer",
    "reorganize",
    "run_spmd",
    "summarize",
]
