"""The campaign's task runner: sections in order, in this process.

A campaign is a list of :class:`Task` — a key, a callable, its keyword
arguments.  :meth:`ExecutionEngine.run` calls them one after another and
times each; what the run cost stays in :attr:`ExecutionEngine.last_run`
(the per-section table ``repro campaign`` prints and ``--timings``
embeds).  The simulators a task builds announce their registries to any
enclosing :func:`~repro.obs.metrics.collect_metrics` as they are created,
so telemetry needs nothing from the engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence


class TaskError(ValueError):
    """Raised on a malformed task list."""


@dataclass
class Task:
    """One unit of work: ``fn(**kwargs)`` under a key unique in its run."""

    key: str
    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class TaskOutcome:
    """What one task returned and the wall clock it took."""

    key: str
    payload: Any
    wall_seconds: float


@dataclass
class TaskStats:
    """One task's row in the engine's run report."""

    key: str
    wall_seconds: float


@dataclass
class EngineRunStats:
    """What one ``ExecutionEngine.run`` cost."""

    wall_seconds: float
    tasks: List[TaskStats]

    @property
    def compute_seconds(self) -> float:
        """Sum of per-task costs; the rest of ``wall_seconds`` is the engine's."""
        return sum(task.wall_seconds for task in self.tasks)


class ExecutionEngine:
    """Runs a task list serially, timing each task."""

    def __init__(self) -> None:
        self.last_run: Optional[EngineRunStats] = None

    def run(self, tasks: Sequence[Task]) -> List[TaskOutcome]:
        """Execute all tasks; outcomes return in task order.

        A task's exception propagates unchanged and no later task runs.
        """
        keys = [task.key for task in tasks]
        if len(set(keys)) != len(keys):
            raise TaskError(f"duplicate task keys in {keys!r}")
        started = time.perf_counter()
        outcomes: List[TaskOutcome] = []
        for task in tasks:
            task_started = time.perf_counter()
            payload = task.fn(**task.kwargs)
            outcomes.append(
                TaskOutcome(task.key, payload, time.perf_counter() - task_started)
            )
        self.last_run = EngineRunStats(
            wall_seconds=time.perf_counter() - started,
            tasks=[TaskStats(o.key, o.wall_seconds) for o in outcomes],
        )
        return outcomes
