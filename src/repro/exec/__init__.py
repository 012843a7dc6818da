"""The campaign's task runner — see :mod:`repro.exec.engine`."""

from repro.exec.engine import (
    EngineRunStats,
    ExecutionEngine,
    Task,
    TaskError,
    TaskOutcome,
    TaskStats,
)

__all__ = [
    "EngineRunStats",
    "ExecutionEngine",
    "Task",
    "TaskError",
    "TaskOutcome",
    "TaskStats",
]
