"""Snapshot size optimizations (paper: "we reduce the snapshot code size
using various optimizations [10]").

Two passes matter for ML apps:

* **Model elision** — NN models never enter the heap serialization; apps
  hold them by reference (``model_refs``), and the actual model travels via
  pre-sending.  This is structural (see :mod:`repro.web.runtime`) and is
  what makes the with-pre-send snapshot ~0.1 MB instead of ~27-44 MB.
* **Live-state elimination** — when offloading a specific pending event,
  only the state that the remaining execution can reach needs to travel.
  We compute the set of handlers reachable from the pending event (through
  ``dispatch_event`` chains and direct calls) and the names those handlers
  mention (:func:`live_names`).  A global travels only if it is one of
  them (:func:`select_globals`), and a canvas bitmap only if its element
  id is (handlers read a canvas through ``ctx.document.get(id)``).  This
  is why the paper's partial-inference snapshot carries the *feature data
  and not the original input*: ``rear()`` references ``feature`` but
  neither the image global nor the ``"canvas"`` it was drawn on.
"""

from __future__ import annotations

import functools
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.web.events import Event
from repro.web.scripts import (
    _SCRIPT_MEMO_ENTRIES,
    referenced_names,
    split_functions,
)


def reachable_handlers(
    script_source: str,
    listeners: Iterable[Tuple[str, str, str]],
    pending_event: Optional[Event],
) -> Set[str]:
    """Handler names reachable once ``pending_event`` is (re-)dispatched.

    Reachability: the handlers listening for the pending event, plus —
    transitively — any function whose name a reachable function mentions,
    and the handlers of any event type a reachable function mentions (the
    static over-approximation of ``dispatch_event`` chains).
    """
    listener_list = list(listeners)
    if pending_event is None:
        return {handler for _, _, handler in listener_list}
    functions = split_functions(script_source)
    handlers_by_event: Dict[str, List[str]] = {}
    for _element_id, event_type, handler_name in listener_list:
        handlers_by_event.setdefault(event_type, []).append(handler_name)

    reached: Set[str] = set()
    # The initial frontier is exact: only handlers listening on the pending
    # event's (element, type).  Transitive steps over-approximate by event
    # type, since a mentioned type string could target any element.
    frontier = [
        handler
        for element_id, event_type, handler in listener_list
        if element_id == pending_event.target_id
        and event_type == pending_event.event_type
    ]
    while frontier:
        name = frontier.pop()
        if name in reached or name not in functions:
            continue
        reached.add(name)
        for mention in referenced_names(functions[name]):
            if mention in functions and mention not in reached:
                frontier.append(mention)
            for handler in handlers_by_event.get(mention, []):
                if handler not in reached:
                    frontier.append(handler)
    return reached


# Bounded like the script memos it reads: an app has a handful of
# offload points, so a campaign's keys stay far below the bound.
@functools.lru_cache(maxsize=_SCRIPT_MEMO_ENTRIES)
def _reachable_mentions(
    script_source: str,
    listeners: Tuple[Tuple[str, str, str], ...],
    event_type: str,
    target_id: str,
) -> FrozenSet[str]:
    """Every name a handler reachable from the event mentions.  Keyed by
    content: each capture of one app at one offload point re-presents the
    same script, listener table and event."""
    functions = split_functions(script_source)
    handlers = reachable_handlers(
        script_source, listeners, Event(event_type, target_id)
    )
    return frozenset(
        name for handler in handlers for name in referenced_names(functions[handler])
    )


def live_names(
    script_source: str,
    listeners: Iterable[Tuple[str, str, str]],
    pending_event: Optional[Event],
    live_only: bool,
) -> Optional[FrozenSet[str]]:
    """The names the remaining execution can mention, or ``None`` when
    everything travels (``live_only`` off, or no pending event).

    One result serves both rules of a capture: a global travels if its
    name is in it, a canvas bitmap if its element id is.
    """
    if not live_only or pending_event is None:
        return None
    return _reachable_mentions(
        script_source,
        tuple(listeners),
        pending_event.event_type,
        pending_event.target_id,
    )


def select_globals(
    script_source: str,
    global_names: Iterable[str],
    listeners: Iterable[Tuple[str, str, str]],
    pending_event: Optional[Event],
    live_only: bool,
) -> Set[str]:
    """The set of globals a snapshot should carry.

    ``live_only=False`` is the conservative mode: everything travels (the
    original snapshot semantics of [10], correct for arbitrary later
    execution).  ``live_only=True`` applies live-state elimination for the
    given pending event — the paper's behaviour for offloading snapshots.
    """
    names = set(global_names)
    live = live_names(script_source, listeners, pending_event, live_only)
    return names if live is None else names & live
