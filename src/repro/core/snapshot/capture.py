"""Snapshot capture: runtime state → :class:`Snapshot`.

Two capture modes mirror the paper's two migrations:

* :func:`capture_snapshot` — the client-side capture "just before the
  time-consuming event handler is executed": the full (live) app state plus
  the code to re-dispatch the intercepted event at the server.
* :func:`capture_delta` — the server-side capture after running the
  handler: "actually JavaScript code to update the client execution state"
  — only what changed relative to the restored baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.core.snapshot.codegen import (
    CodegenError,
    HeapCodegen,
    dom_node_key,
    serialize_dom,
    serialize_globals,
    ships_bitmap,
)
from repro.core.snapshot.optimize import live_names, select_globals
from repro.core.snapshot.restore import StateFingerprint, fingerprint_runtime
from repro.web.dom import TextNode
from repro.web.events import Event
from repro.web.runtime import WebRuntime


class SnapshotError(RuntimeError):
    """Raised when state cannot be captured into a snapshot."""


@dataclass(frozen=True)
class CaptureOptions:
    """Capture policy knobs.

    ``live_only`` applies live-state elimination for the pending event
    (the paper's offloading behaviour; turn off for conservative
    whole-state snapshots): a global travels only if a handler reachable
    from the event mentions its name, and a canvas bitmap only if one
    mentions the canvas's element id.  Without a pending event, or with
    ``live_only`` off, every global and every bitmap travels.
    ``include_canvas_pixels`` ships every bitmap whatever the liveness
    rule says.
    """

    live_only: bool = True
    include_canvas_pixels: bool = False


@dataclass
class Snapshot:
    """An executable snapshot: program (code only) + the tensor texts and
    attachments its lines name as ``TEXT[i]`` / ``ATTACH[i]`` + metadata."""

    app_name: str
    kind: str  # "full" | "delta"
    program: str
    attachments: Dict[int, np.ndarray] = field(default_factory=dict)
    texts: Tuple[str, ...] = ()
    pending_event: Optional[Tuple[str, str, Any]] = None
    model_refs: Dict[str, str] = field(default_factory=dict)
    attachment_bytes: int = 0
    #: free-form accounting used by the session layer (e.g. server costs)
    metadata: Dict[str, Any] = field(default_factory=dict)
    #: a delta's view of the state it was captured from, hashed while
    #: diffing; travels beside the snapshot (the RESULT's ``fingerprint``),
    #: never in its size
    fingerprint: Optional[StateFingerprint] = None

    @property
    def size_bytes(self) -> int:
        """On-the-wire size of the snapshot itself (models counted apart).

        The length of the paper's form of the program — each ``TEXT[i]``
        written out as the quoted literal it stands for (``repr`` of the
        text: the token alphabet needs no escaping) — plus the attachments
        at their encoded size.  Computed, never built.
        """
        program = self.program
        code_bytes = (
            len(program) if program.isascii() else len(program.encode("utf-8"))
        )
        inline_bytes = sum(
            len(text) + 2 - len(f"TEXT[{index}]")
            for index, text in enumerate(self.texts)
        )
        return code_bytes + inline_bytes + self.attachment_bytes

    @property
    def tensor_text_bytes(self) -> int:
        """Characters of tensor text the snapshot carries (quotes apart)."""
        return sum(map(len, self.texts))

    @property
    def feature_bytes(self) -> int:
        """Bytes attributable to tensor/image payloads ("feature data")."""
        return self.tensor_text_bytes + self.attachment_bytes

    @property
    def code_bytes(self) -> int:
        """The paper's "snapshot except feature data"."""
        return self.size_bytes - self.feature_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Snapshot({self.app_name!r}, {self.kind}, "
            f"{self.size_bytes / 1e6:.3f} MB, pending={self.pending_event})"
        )


def _event_tuple(event: Optional[Event]) -> Optional[Tuple[str, str, Any]]:
    if event is None:
        return None
    payload = event.payload
    if payload is not None and not isinstance(payload, (bool, int, float, str)):
        raise SnapshotError(
            f"pending event payload must be scalar, got {type(payload).__name__}"
        )
    return (event.event_type, event.target_id, payload)


def _drawn(
    runtime: WebRuntime,
    listeners: List[Tuple[str, str, str]],
    pending_event: Optional[Event],
    options: CaptureOptions,
) -> Optional[FrozenSet[str]]:
    """The live set a capture's bitmaps are judged by (``None``: all ship)."""
    if options.include_canvas_pixels:
        return None
    return live_names(
        runtime.script_source, listeners, pending_event, options.live_only
    )


def capture_snapshot(
    runtime: WebRuntime,
    pending_event: Optional[Event] = None,
    options: CaptureOptions = CaptureOptions(),
) -> Snapshot:
    """Capture the runtime's execution state as an executable snapshot."""
    lines: List[str] = [
        f"RT.set_app({runtime.app_name!r})",
        f"RT.set_script({runtime.script_source!r})",
        f"RT.set_model_refs({runtime.app_model_refs!r})",
    ]
    listeners = runtime.events.all_listeners()
    keep = select_globals(
        runtime.script_source,
        runtime.globals.keys(),
        listeners,
        pending_event,
        live_only=options.live_only,
    )
    codegen = HeapCodegen()
    try:
        global_root_lines, codegen = serialize_globals(
            runtime.globals, keep=keep, codegen=codegen
        )
        drawn = _drawn(runtime, listeners, pending_event, options)
        dom_lines = serialize_dom(runtime.document, codegen, drawn)
    except CodegenError as exc:
        raise SnapshotError(str(exc)) from exc
    # Heap-node definitions first: globals and DOM may share nodes.
    lines.extend(codegen.lines)
    lines.extend(global_root_lines)
    lines.extend(dom_lines)
    for element_id, event_type, handler in listeners:
        lines.append(f"RT.add_listener({element_id!r}, {event_type!r}, {handler!r})")
    event_tuple = _event_tuple(pending_event)
    if event_tuple is not None:
        lines.append(
            f"RT.set_pending({event_tuple[0]!r}, {event_tuple[1]!r}, "
            f"{event_tuple[2]!r})"
        )
    return Snapshot(
        app_name=runtime.app_name,
        kind="full",
        program="\n".join(lines) + "\n",
        attachments=codegen.attachments,
        texts=tuple(codegen.texts),
        pending_event=event_tuple,
        model_refs=dict(runtime.app_model_refs),
        attachment_bytes=codegen.attachment_bytes,
    )


def capture_delta(
    runtime: WebRuntime,
    baseline: StateFingerprint,
    pending_event: Optional[Event] = None,
    options: CaptureOptions = CaptureOptions(live_only=False),
) -> Snapshot:
    """Capture only state changed since ``baseline``.

    Used in both directions: the server's return snapshot ("code to update
    the client execution state") and — the paper's future work — follow-up
    offloads against the state the first offload left at the server.  With
    ``options.live_only`` and a pending event, changed-but-dead state is
    also elided.

    The returned snapshot's ``fingerprint`` is the runtime's state as
    hashed for the diff (its :func:`fingerprint_runtime`), so whoever keeps
    this state as a session baseline need not hash it again.
    """
    if baseline.app_name != runtime.app_name:
        raise SnapshotError(
            f"baseline is for app {baseline.app_name!r}, runtime runs "
            f"{runtime.app_name!r}"
        )
    try:
        state = fingerprint_runtime(runtime)
    except CodegenError as exc:
        raise SnapshotError(str(exc)) from exc
    lines: List[str] = [f"RT.expect_app({runtime.app_name!r})"]

    # -- globals ---------------------------------------------------------------
    changed = [
        name
        for name, hash_now in state.global_hash.items()
        if baseline.global_hash.get(name) != hash_now
    ]
    listeners = runtime.events.all_listeners()
    keep = select_globals(
        runtime.script_source,
        changed,
        listeners,
        pending_event,
        live_only=options.live_only,
    )
    drawn = _drawn(runtime, listeners, pending_event, options)
    removed = [name for name in baseline.global_hash if name not in runtime.globals]
    codegen = HeapCodegen()
    global_root_lines, codegen = serialize_globals(
        runtime.globals, keep=keep, codegen=codegen
    )

    # -- DOM ----------------------------------------------------------------------
    elements_by_key = {}
    for element in runtime.document.body.walk():
        if element is not runtime.document.body:
            elements_by_key[dom_node_key(element)] = element

    def texts_of(element) -> List[str]:
        return [c.text for c in element.children if isinstance(c, TextNode)]

    dom_lines: List[str] = []

    def draw_line(target_expr: str, element) -> None:
        if ships_bitmap(element, drawn):
            dom_lines.append(
                f"RT.draw({target_expr}, "
                f"{codegen.root_expression(element.image_data)})"
            )

    # Creations must run parents-first; walk order already guarantees it.
    counter = 0
    for key, element in elements_by_key.items():
        if key not in baseline.dom_entries:
            parent = element.parent
            parent_key = dom_node_key(parent) if parent is not None else "__body__"
            name = f"_d{counter}"
            counter += 1
            dom_lines.append(
                f"{name} = RT.create({element.tag!r}, {element.element_id!r}, "
                f"{element.attributes!r})"
            )
            dom_lines.append(f"RT.append(RT.node({parent_key!r}), {name})")
            for text in texts_of(element):
                dom_lines.append(f"RT.append_text({name}, {text!r})")
            draw_line(name, element)
        elif baseline.dom_entries[key] != state.dom_entries[key]:
            dom_lines.append(f"RT.set_texts({key!r}, {texts_of(element)!r})")
            dom_lines.append(f"RT.set_attrs({key!r}, {element.attributes!r})")
            draw_line(f"RT.node({key!r})", element)

    lines.extend(codegen.lines)
    lines.extend(global_root_lines)
    lines.extend(f"RT.del_global({name!r})" for name in sorted(removed))
    lines.extend(dom_lines)
    for key in baseline.dom_entries:
        if key not in state.dom_entries:
            lines.append(f"RT.remove_node({key!r})")

    # -- listeners -------------------------------------------------------------------
    now = state.listeners
    before = set(baseline.listeners)
    for element_id, event_type, handler in sorted(now - before):
        lines.append(f"RT.add_listener({element_id!r}, {event_type!r}, {handler!r})")
    for element_id, event_type, handler in sorted(before - now):
        lines.append(
            f"RT.remove_listener({element_id!r}, {event_type!r}, {handler!r})"
        )

    event_tuple = _event_tuple(pending_event)
    if event_tuple is not None:
        lines.append(
            f"RT.set_pending({event_tuple[0]!r}, {event_tuple[1]!r}, "
            f"{event_tuple[2]!r})"
        )
    return Snapshot(
        app_name=runtime.app_name,
        kind="delta",
        program="\n".join(lines) + "\n",
        attachments=codegen.attachments,
        texts=tuple(codegen.texts),
        pending_event=event_tuple,
        model_refs=dict(runtime.app_model_refs),
        attachment_bytes=codegen.attachment_bytes,
        fingerprint=state,
    )
