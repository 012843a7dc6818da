"""Content-addressed disk cache for task outcomes.

A cache entry is keyed by the SHA-256 of the task's full identity:

* the task function's dotted path and keyword arguments (canonical JSON,
  tuples and lists unified),
* the repro package version (``repro.__version__``),
* a *source fingerprint* — a digest over the content of every ``*.py``
  file in the installed ``repro`` package,
* the cache format version.

The source fingerprint is the invalidation rule that matters in practice:
edit any line of the simulator, the kernels, or the eval harness and every
previously cached outcome misses, because a changed source tree may change
what the task would compute.  There is deliberately no mtime or TTL logic —
identical inputs hit, everything else misses, and stale entries are just
unreferenced files (``purge()`` removes them wholesale).

Outcomes are stored pickled (payloads are plain dataclasses and metrics
registries, both picklable) and written atomically, so a crashed or
concurrent run can never leave a truncated entry that later loads.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

from repro.exec.task import Task, TaskOutcome

#: bump when the on-disk entry layout changes
CACHE_FORMAT = 1


@functools.lru_cache(maxsize=1)
def source_fingerprint() -> str:
    """Digest of every ``*.py`` file of the repro package (path + content)."""
    import repro

    package_root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def task_cache_key(task: Task) -> str:
    """The content address of one task's outcome."""
    import repro

    identity = {
        "fn": task.fn,
        "kwargs": task.kwargs_dict(),
        "repro_version": repro.__version__,
        "source": source_fingerprint(),
        "format": CACHE_FORMAT,
    }
    canonical = json.dumps(identity, sort_keys=True, default=_canonical_default)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _canonical_default(value: Any) -> Any:
    if isinstance(value, (set, frozenset)):
        # Set iteration order follows string hash randomization — emitting
        # it unsorted would give the same task a different key in every
        # process.  Sort for a canonical form; mixed-type sets that don't
        # define a total order are rejected rather than keyed arbitrarily.
        try:
            return sorted(value)
        except TypeError as exc:
            raise TypeError(
                "set-valued task kwargs must be order-comparable to form a "
                f"deterministic cache key: cannot sort {value!r}"
            ) from exc
    if isinstance(value, tuple):
        return list(value)
    raise TypeError(f"task kwargs must be plain data, got {type(value).__name__}")


class ResultCache:
    """Pickled task outcomes under ``dir/<key[:2]>/<key>.pkl``."""

    def __init__(self, directory: str):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path_for(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.pkl"

    def load(self, task: Task) -> Optional[TaskOutcome]:
        """The cached outcome for this task, or None on a miss.

        A corrupt or unreadable entry counts as a miss (and is removed):
        the cache must never be able to fail a run that would succeed
        without it.
        """
        path = self._path_for(task_cache_key(task))
        if not path.exists():
            return None
        try:
            with open(path, "rb") as handle:
                outcome = pickle.load(handle)
        except Exception:
            try:
                path.unlink()
            except OSError:
                pass
            return None
        if not isinstance(outcome, TaskOutcome):
            return None
        outcome.key = task.key  # the caller's key names the outcome
        outcome.cached = True
        return outcome

    def store(self, task: Task, outcome: TaskOutcome) -> None:
        """Atomically persist one outcome."""
        path = self._path_for(task_cache_key(task))
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=".tmp-", suffix=".pkl"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(outcome, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def purge(self) -> int:
        """Delete every entry; returns the number of files removed."""
        removed = 0
        for path in self.directory.rglob("*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> Dict[str, Any]:
        """Count committed cache entries.

        In-flight ``.tmp-*`` files (mid-``store`` scratch that
        ``os.replace`` will rename or the writer will unlink) are not
        entries and are excluded.  A concurrent run may unlink or replace
        any file between the glob and the ``stat`` — vanished files are
        skipped, never raised.
        """
        entries = 0
        total_bytes = 0
        for path in self.directory.rglob("*.pkl"):
            if path.name.startswith(".tmp-"):
                continue
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue
            entries += 1
        return {
            "directory": str(self.directory),
            "entries": entries,
            "bytes": total_bytes,
        }
