"""Parallel campaign execution: engine, tasks, content-addressed cache.

``repro.exec`` is the layer between the CLI and the eval harness that
makes campaigns fast without making them different:

* :class:`~repro.exec.task.Task` / :func:`~repro.exec.task.execute_task` —
  picklable unit of work (dotted function path + kwargs) that captures its
  own telemetry and wall-clock cost;
* :class:`~repro.exec.engine.ExecutionEngine` — fans independent tasks
  across a ``ProcessPoolExecutor`` (``jobs=N``) and merges outcomes
  deterministically, so a parallel campaign report is byte-identical to
  the serial one;
* :class:`~repro.exec.cache.ResultCache` — content-addressed disk cache
  (task identity + repro version + source fingerprint), so unchanged
  scenarios are skipped entirely on re-runs.

See ``docs/PERFORMANCE.md`` for the design, the cache key scheme and the
benchmark numbers.
"""

from repro.exec.cache import (
    CACHE_FORMAT,
    ResultCache,
    source_fingerprint,
    task_cache_key,
)
from repro.exec.engine import EngineRunStats, ExecutionEngine, TaskStats
from repro.exec.task import Task, TaskError, TaskOutcome, execute_task

__all__ = [
    "CACHE_FORMAT",
    "EngineRunStats",
    "ExecutionEngine",
    "ResultCache",
    "Task",
    "TaskError",
    "TaskOutcome",
    "TaskStats",
    "execute_task",
    "source_fingerprint",
    "task_cache_key",
]
