"""Execution backends for Fluid regions.

* :class:`SimExecutor` — deterministic discrete-event simulation in
  virtual time (all performance experiments);
* :class:`ThreadExecutor` — bodies on ``slots`` pooled threads drawn
  from one ready queue, waiting tasks as wait-set records; real
  preemption (semantic validation; GIL-bound, see DESIGN.md);
* :class:`ProcessExecutor` — task bodies on a pool of forked worker
  processes, true parallelism on real cores; guard decisions stay in
  the parent process;
* :func:`run_serial` — the precise original program, the baseline for
  every normalized number in the evaluation.

See the backend matrix in docs/runtime-semantics.md for capabilities
and when to use which; :func:`make_executor` builds one by name.
"""

from .context import RegionRun, RunContext
from .events import EventQueue
from .executor import BACKENDS, Executor, RunResult, make_executor, run_serial
from .process_backend import ProcessExecutor
from .simulator import Overheads, SimExecutor, SimResult
from .thread_backend import ThreadExecutor
from .thread_pool import SharedThreadPool
from .worker_pool import PersistentProcessPool, pool_blob

__all__ = [
    "BACKENDS", "EventQueue", "Executor", "PersistentProcessPool",
    "RegionRun", "RunContext",
    "RunResult", "SharedThreadPool", "make_executor", "pool_blob",
    "run_serial",
    "Overheads", "ProcessExecutor", "SimExecutor", "SimResult",
    "ThreadExecutor",
]
