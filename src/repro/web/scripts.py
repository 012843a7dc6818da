"""App scripts: handler functions stored and shipped as source text.

A web app's code travels inside its snapshot ("the snapshot will contain
... the functions of the app"), so handlers are kept as *source*, compiled
into callables inside a restricted namespace on whatever runtime executes
them — client or edge server.  A handler is any top-level function taking
the single ``ctx`` argument (:class:`ScriptContext`), through which it
reaches the DOM, the global heap, the loaded models, and event dispatch —
mirroring the paper's Fig. 2 / Fig. 5 example code.
"""

from __future__ import annotations

import ast
import functools
from types import CodeType
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Tuple

import numpy as np

from repro.web.values import UNDEFINED, JSArray, JSClosure, JSObject, TypedArray

if TYPE_CHECKING:  # pragma: no cover
    from repro.web.runtime import WebRuntime


class ScriptError(RuntimeError):
    """Raised when app script source cannot be compiled or executed."""


#: builtins exposed to app scripts — enough for app logic, no I/O, no import
_SCRIPT_BUILTINS = {
    name: __builtins__[name] if isinstance(__builtins__, dict) else getattr(__builtins__, name)
    for name in (
        "abs", "all", "any", "bool", "dict", "enumerate", "float", "int",
        "len", "list", "max", "min", "range", "round", "sorted", "str",
        "sum", "tuple", "zip", "print", "isinstance", "ValueError",
        "RuntimeError", "KeyError",
    )
}


def _script_namespace() -> Dict[str, Any]:
    return {
        "__builtins__": dict(_SCRIPT_BUILTINS),
        "np": np,
        "JSObject": JSObject,
        "JSArray": JSArray,
        "TypedArray": TypedArray,
        "UNDEFINED": UNDEFINED,
    }


#: distinct sources kept per memo below.  An app ships one script and a
#: handful of handler segments, so a few hundred entries cover every app of
#: a campaign; the bound only keeps a long sweep from hoarding sources.
_SCRIPT_MEMO_ENTRIES = 512


def _parse(source: str) -> ast.Module:
    try:
        return ast.parse(source)
    except SyntaxError as exc:
        raise ScriptError(f"app script does not parse: {exc}") from exc


# The three memos below are keyed by source text: a snapshot carries the
# app's script, so every capture and restore of one app re-presents the
# same text.  ``lru_cache`` never caches a raised exception, so a source
# that fails to parse fails again on every call.

@functools.lru_cache(maxsize=_SCRIPT_MEMO_ENTRIES)
def _script_code(source: str) -> CodeType:
    return compile(source, "<app-script>", "exec")


@functools.lru_cache(maxsize=_SCRIPT_MEMO_ENTRIES)
def _function_segments(source: str) -> Tuple[Tuple[str, str], ...]:
    segments = []
    for node in _parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            segment = ast.get_source_segment(source, node)
            if segment is None:  # pragma: no cover - only for synthetic ASTs
                continue
            segments.append((node.name, segment))
    return tuple(segments)


@functools.lru_cache(maxsize=_SCRIPT_MEMO_ENTRIES)
def _sorted_names(function_source: str) -> Tuple[str, ...]:
    names = set()
    for node in ast.walk(_parse(function_source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # Handler names are passed as string literals to
            # add_listener/dispatch; treat them as references too.
            names.add(node.value)
    return tuple(sorted(names))


def compile_functions(source: str) -> Dict[str, Callable]:
    """Compile app script source into its top-level handler functions.

    Only the code object is shared between runtimes loading the same
    source; it runs in a fresh namespace each time, so no two runtimes
    share function objects or script-level names.
    """
    namespace = _script_namespace()
    try:
        exec(_script_code(source), namespace)
    except SyntaxError as exc:
        raise ScriptError(f"app script does not parse: {exc}") from exc
    return {
        name: value
        for name, value in namespace.items()
        if callable(value) and getattr(value, "__module__", None) is None
        and not name.startswith("_") and name not in ("JSObject", "JSArray", "TypedArray")
    }


def split_functions(source: str) -> Dict[str, str]:
    """Map each top-level function to its own source segment.

    Used by the snapshot size optimizations that drop functions unreachable
    from any registered event listener.
    """
    return dict(_function_segments(source))


def referenced_names(function_source: str) -> List[str]:
    """All identifiers a function's body mentions (callees, globals)."""
    return list(_sorted_names(function_source))


class Console:
    """Captured console.log output."""

    def __init__(self) -> None:
        self.lines: List[str] = []

    def log(self, *parts: Any) -> None:
        self.lines.append(" ".join(str(part) for part in parts))


class ScriptContext:
    """What a handler sees as ``ctx``: the app's window object, roughly."""

    def __init__(self, runtime: "WebRuntime"):
        self._runtime = runtime

    @property
    def globals(self) -> Dict[str, Any]:
        """The app's global variables (the JS heap roots)."""
        return self._runtime.globals

    @property
    def document(self):
        return self._runtime.document

    @property
    def models(self):
        """Loaded NN models, keyed by the app's local name for them."""
        return self._runtime.app_models

    @property
    def console(self) -> Console:
        return self._runtime.console

    @property
    def event(self):
        """The event currently being handled (or None)."""
        return self._runtime.current_event

    def dispatch_event(self, event_type: str, target_id: str, payload: Any = None) -> None:
        """dispatchEvent: runs synchronously, may be intercepted for offload."""
        self._runtime.dispatch(event_type, target_id, payload)

    def add_listener(self, element_id: str, event_type: str, handler_name: str) -> None:
        self._runtime.add_listener(element_id, event_type, handler_name)

    def make_closure(self, function_name: str, **env: Any) -> JSClosure:
        """Create a closure over a named script function (see [11])."""
        if function_name not in self._runtime.functions:
            raise ScriptError(
                f"cannot close over unknown function {function_name!r}"
            )
        return JSClosure(function_name, env)

    def call(self, closure: JSClosure, *args: Any) -> Any:
        """Invoke a closure: its function receives (ctx, env, *args)."""
        return self._runtime.call_closure(closure, *args)
