"""repro.exec — the generic execution substrate.

Everything that used to be campaign-only resilience machinery, factored
into reusable pieces:

* :class:`Task` / :class:`TaskResult` — content-addressed units of work,
* :class:`RetryPolicy` / :class:`BreakerPolicy` — composable resilience
  policy objects,
* :class:`Executor` backends — ``inline`` (calling thread) and
  ``process`` (persistent worker subprocesses with timeouts, crash
  isolation, and sabotage drills),
* the task-kind registry mapping kind strings to runner functions on both
  sides of the process boundary.

The campaign runner is a thin client of this package.
"""

from repro.exec.executors import (
    EventFn,
    ExecReport,
    Executor,
    InlineExecutor,
    ProcessPoolExecutor,
    ResultFn,
    TaskAttemptError,
    default_worker_count,
    make_executor,
    validated_jobs,
)
from repro.exec.policy import BreakerPolicy, RetryPolicy
from repro.exec.registry import (
    register_task_kind,
    registered_kinds,
    resolve,
    resolve_span,
)
from repro.exec.protocol import (
    DETERMINISTIC_ERRORS,
    EXEC_SCHEMA,
    SABOTAGE_MODES,
    apply_sabotage,
)
from repro.exec.task import Task, TaskResult, canonical_json

__all__ = [
    "Task",
    "TaskResult",
    "canonical_json",
    "RetryPolicy",
    "BreakerPolicy",
    "Executor",
    "InlineExecutor",
    "ProcessPoolExecutor",
    "ExecReport",
    "TaskAttemptError",
    "EventFn",
    "ResultFn",
    "default_worker_count",
    "make_executor",
    "validated_jobs",
    "register_task_kind",
    "registered_kinds",
    "resolve",
    "resolve_span",
    "DETERMINISTIC_ERRORS",
    "EXEC_SCHEMA",
    "SABOTAGE_MODES",
    "apply_sabotage",
]
