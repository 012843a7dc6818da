"""Snapshot restore: executing a snapshot program against a runtime.

"Execution of the snapshot will first restore exactly the same execution
state as when the client took a snapshot, and then continue the execution
for the ... event handler" (paper §III.A).  :func:`restore_snapshot` is
that execution: the program runs in a namespace whose only capability is
the :class:`RestoreAPI` bound to the target runtime, then the caller
decides what to do with the re-dispatched pending event (run it locally on
the server; or, on the client, apply the delta and continue).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import CodeType
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.snapshot.codegen import (
    canonical_dom_entries,
    canonical_value_code,
    digest,
    dom_node_key,
    parse_tensor_text,
)
from repro.web.dom import Element, TextNode
from repro.web.events import Event
from repro.web.runtime import WebRuntime
from repro.web.values import (
    UNDEFINED,
    ImageData,
    JSArray,
    JSClosure,
    JSObject,
    TypedArray,
)


class RestoreError(RuntimeError):
    """Raised when a snapshot program cannot be executed."""


@dataclass(frozen=True)
class StateFingerprint:
    """Hashed canonical view of a runtime's state, for delta capture.

    Per-entity digests (like an rsync signature): small enough to travel
    on the wire with every RESULT, which is what lets the *client* compute
    a delta against the state left behind on the server — the paper's
    future-work "reuse the data and code left at the server".  A global is
    known by the digest of its :func:`canonical_value_code` (tensors and
    images inside it by their bytes), a DOM node by the digest of its
    :func:`canonical_dom_entries` line.
    """

    app_name: str
    global_hash: Dict[str, str]
    dom_entries: Dict[str, str]
    listeners: Set[Tuple[str, str, str]]

    @property
    def size_bytes(self) -> int:
        """Wire size: one short digest per tracked entity."""
        entries = len(self.global_hash) + len(self.dom_entries) + len(self.listeners)
        return 64 + 48 * entries


@dataclass
class RestoreReport:
    """Outcome of a restore."""

    pending_event: Optional[Event]
    applied_lines: int = 0


def fingerprint_runtime(runtime: WebRuntime) -> StateFingerprint:
    """Take the hashed fingerprint used as a delta baseline."""
    return StateFingerprint(
        app_name=runtime.app_name,
        global_hash={
            name: digest(canonical_value_code(value))
            for name, value in runtime.globals.items()
        },
        dom_entries={
            key: digest(entry)
            for key, entry in canonical_dom_entries(runtime.document).items()
        },
        listeners=set(runtime.events.all_listeners()),
    )


class RestoreAPI:
    """The capability surface a snapshot program gets as ``RT``."""

    def __init__(self, runtime: WebRuntime):
        self.runtime = runtime
        self.pending: Optional[Event] = None
        self._node_index: Dict[str, Element] = {}

    # -- app identity -----------------------------------------------------------
    def set_app(self, app_name: str) -> None:
        self.runtime.app_name = app_name

    def expect_app(self, app_name: str) -> None:
        if self.runtime.app_name != app_name:
            raise RestoreError(
                f"delta snapshot for app {app_name!r} applied to runtime "
                f"running {self.runtime.app_name!r}"
            )

    def set_script(self, source: str) -> None:
        self.runtime.set_script(source)

    def set_model_refs(self, refs: Dict[str, str]) -> None:
        self.runtime.app_model_refs = dict(refs)

    # -- globals --------------------------------------------------------------------
    def del_global(self, name: str) -> None:
        self.runtime.globals.pop(name, None)

    # -- DOM ----------------------------------------------------------------------
    def body(self) -> Element:
        return self.runtime.document.body

    def create(self, tag: str, element_id: str, attributes: Dict[str, Any]) -> Element:
        return self.runtime.document.create_element(
            tag, element_id=element_id, **attributes
        )

    def append(self, parent: Element, child: Element) -> None:
        parent.append_child(child)

    def append_text(self, element: Element, text: str) -> None:
        element.append_text(text)

    def draw(self, element: Element, pixels: TypedArray) -> None:
        element.draw_image(pixels)

    def elem(self, element_id: str) -> Element:
        return self.runtime.document.get(element_id)

    def node(self, key: str) -> Element:
        """Resolve a DOM-diff key: an element id, path key, or __body__."""
        if key == "__body__":
            return self.runtime.document.body
        found = self.runtime.document.find(key)
        if found is not None:
            return found
        index = self._path_index()
        if key in index:
            return index[key]
        raise RestoreError(f"delta references unknown DOM node {key!r}")

    def _path_index(self) -> Dict[str, Element]:
        return {
            dom_node_key(element): element
            for element in self.runtime.document.body.walk()
            if element is not self.runtime.document.body
        }

    def set_texts(self, key: str, texts: List[str]) -> None:
        """Replace the text children of a node, keeping element children."""
        element = self.node(key)
        element.children = [
            child for child in element.children if not isinstance(child, TextNode)
        ]
        for text in texts:
            element.append_text(text)

    def set_attrs(self, key: str, attributes: Dict[str, Any]) -> None:
        self.node(key).attributes = dict(attributes)

    def remove_node(self, key: str) -> None:
        element = self.node(key)
        if element.parent is not None:
            element.parent.remove_child(element)

    # -- events --------------------------------------------------------------------
    def add_listener(self, element_id: str, event_type: str, handler: str) -> None:
        self.runtime.add_listener(element_id, event_type, handler)

    def remove_listener(self, element_id: str, event_type: str, handler: str) -> None:
        self.runtime.events.remove_listener(element_id, event_type, handler)

    def set_pending(self, event_type: str, target_id: str, payload: Any) -> None:
        self.pending = Event(event_type=event_type, target_id=target_id, payload=payload)


def _restore_namespace(
    api: RestoreAPI, texts: Tuple[str, ...], attachments: Dict[int, np.ndarray]
) -> dict:
    def make_typed_array(text: str, shape: tuple) -> TypedArray:
        return TypedArray(parse_tensor_text(text, shape))

    def make_ndarray(text: str, shape: tuple) -> np.ndarray:
        return parse_tensor_text(text, shape)

    def make_image(data: np.ndarray, shape: tuple, encoded_bytes: int) -> ImageData:
        pixels = np.array(data, dtype=np.float32, copy=True).reshape(shape)
        return ImageData(pixels, encoded_bytes=encoded_bytes)

    return {
        "__builtins__": {},
        "RT": api,
        "G": api.runtime.globals,
        "JSObject": JSObject,
        "JSArray": JSArray,
        "CL": JSClosure,
        "TA": make_typed_array,
        "NP": make_ndarray,
        "IMG": make_image,
        "TEXT": texts,
        "ATTACH": attachments,
        "UNDEFINED": UNDEFINED,
    }


#: A program is code only — tensor text and images ride beside it — so the
#: requests of one app present the same few program texts over and over.
#: Keyed by that text, the memo holds an immutable code object and no data;
#: the bound only keeps a long sweep from hoarding programs.  ``lru_cache``
#: never caches a raised exception: a program that does not compile fails
#: again on every restore.
@functools.lru_cache(maxsize=512)
def _program_code(program: str) -> CodeType:
    return compile(program, "<snapshot>", "exec")


def restore_snapshot(snapshot, runtime: WebRuntime) -> RestoreReport:
    """Run a snapshot program against a runtime.

    Full snapshots rebuild the app from nothing; delta snapshots update an
    already-running app.  Returns the pending event (to re-dispatch); a
    caller that will diff against the restored state takes its baseline
    with :func:`fingerprint_runtime`.

    Every restore executes the program in a namespace of its own and
    decodes every tensor text the snapshot carries; only the compiled code
    is shared between restores of the same program text.
    """
    api = RestoreAPI(runtime)
    namespace = _restore_namespace(api, snapshot.texts, snapshot.attachments)
    try:
        exec(_program_code(snapshot.program), namespace)
    except RestoreError:
        raise
    except Exception as exc:
        raise RestoreError(f"snapshot program failed: {exc}") from exc
    return RestoreReport(
        pending_event=api.pending,
        applied_lines=snapshot.program.count("\n"),
    )
