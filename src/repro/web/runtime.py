"""The web runtime: one browser page executing one app.

A :class:`WebRuntime` is the unit the offloading system snapshots: its
global heap, DOM, listener table, app script source, model references and
any pending event together *are* the app execution state.  Runtimes exist
on the client and on the edge server; restoring a snapshot into a fresh
server-side runtime and dispatching the pending event is exactly "running
the snapshot on its browser".

Models are deliberately held *by reference* (app-local name → model id →
installed model object).  Snapshots carry only the references; the actual
model must already be installed on the executing runtime — which is what
pre-sending arranges, and why offloading before the ACK must ship the model
alongside the snapshot.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.nn.model import Model
from repro.web.dom import Document, Element
from repro.web.events import Event, EventSystem
from repro.web.scripts import Console, ScriptContext, ScriptError, compile_functions


class MissingModelError(RuntimeError):
    """An app referenced a model that is not installed on this runtime."""

    def __init__(self, local_name: str, model_id: str):
        super().__init__(
            f"model {local_name!r} ({model_id}) is not installed on this runtime"
        )
        self.local_name = local_name
        self.model_id = model_id


class _ModelView:
    """Dict-like resolver from app-local model names to installed models."""

    def __init__(self, runtime: "WebRuntime"):
        self._runtime = runtime

    def __getitem__(self, local_name: str) -> Model:
        refs = self._runtime.app_model_refs
        if local_name not in refs:
            raise KeyError(f"app declares no model named {local_name!r}")
        model_id = refs[local_name]
        model = self._runtime.installed_models.get(model_id)
        if model is None:
            raise MissingModelError(local_name, model_id)
        return model

    def __contains__(self, local_name: str) -> bool:
        return local_name in self._runtime.app_model_refs


class WebRuntime:
    """A browser page: heap + DOM + events + compiled app script."""

    def __init__(self, name: str = "browser"):
        self.name = name
        self.document = Document()
        self.globals: Dict[str, Any] = {}
        self.console = Console()
        self.events = EventSystem()
        self.script_source: str = ""
        self.functions: Dict[str, Callable] = {}
        self.app_name: str = ""
        #: app-local model name -> model id (serialized into snapshots)
        self.app_model_refs: Dict[str, str] = {}
        #: model id -> installed Model (NOT serialized; shipped separately)
        self.installed_models: Dict[str, Model] = {}
        self.handler_log: List[str] = []
        #: the event currently being handled (transient, never snapshotted)
        self.current_event: Optional[Event] = None

    @property
    def app_models(self) -> _ModelView:
        """The app's models by local name.  Made per read: a view kept on
        the runtime would hold the runtime that holds it, a cycle."""
        return _ModelView(self)

    # -- model installation ----------------------------------------------------
    def install_model(self, model: Model) -> str:
        """Make a model available to apps on this runtime; returns its id."""
        model_id = model.model_id
        self.installed_models[model_id] = model
        return model_id

    # -- app loading --------------------------------------------------------------
    def load_app(self, app) -> None:
        """Load a :class:`~repro.web.app.WebApp`: DOM, script, models, onload."""
        self.app_name = app.name
        self.document = Document()
        self.globals = {}
        self.events = EventSystem()
        self.handler_log = []
        self._build_dom(app.body_spec, self.document.body)
        self.set_script(app.script)
        self.app_model_refs = {}
        for local_name, model in app.models.items():
            self.app_model_refs[local_name] = self.install_model(model)
        for element_id, event_type, handler_name in app.listeners:
            self.add_listener(element_id, event_type, handler_name)
        if app.onload:
            self.run_handler(app.onload)

    def _build_dom(self, specs: List[dict], parent: Element) -> None:
        for spec in specs:
            element = self.document.create_element(
                spec["tag"],
                element_id=spec.get("id", ""),
                **spec.get("attributes", {}),
            )
            parent.append_child(element)
            if "text" in spec:
                element.append_text(spec["text"])
            self._build_dom(spec.get("children", []), element)

    def set_script(self, source: str) -> None:
        """(Re)compile the app script source."""
        self.script_source = source
        self.functions = compile_functions(source) if source else {}

    # -- events -----------------------------------------------------------------
    def add_listener(self, element_id: str, event_type: str, handler_name: str) -> None:
        if handler_name not in self.functions:
            raise ScriptError(
                f"cannot listen with unknown handler {handler_name!r}"
            )
        self.events.add_listener(element_id, event_type, handler_name)

    def dispatch(self, event_type: str, target_id: str, payload: Any = None) -> None:
        """dispatchEvent: intercepted for offloading, or run synchronously."""
        event = Event(event_type=event_type, target_id=target_id, payload=payload)
        self.events.dispatch_log.append(event)
        if self.events.should_intercept(event):
            self.events.intercept(event)
            return
        self.run_event(event)

    def run_event(self, event: Event) -> None:
        """Run an event's handlers locally (no interception check)."""
        handler_names = self.events.handlers_for(event.target_id, event.event_type)
        for handler_name in handler_names:
            self.run_handler(handler_name, event)

    def call_closure(self, closure, *args: Any) -> Any:
        """Invoke a closure value: function_name(ctx, env, *args)."""
        function = self.functions.get(closure.function_name)
        if function is None:
            raise ScriptError(
                f"closure references unknown function {closure.function_name!r}"
            )
        self.handler_log.append(f"closure:{closure.function_name}")
        context = ScriptContext(self)
        return function(context, closure.env, *args)

    def run_handler(self, handler_name: str, event: Optional[Event] = None) -> Any:
        function = self.functions.get(handler_name)
        if function is None:
            raise ScriptError(f"no handler named {handler_name!r}")
        self.handler_log.append(handler_name)
        context = ScriptContext(self)
        previous = self.current_event
        self.current_event = event
        try:
            return function(context)
        finally:
            self.current_event = previous

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WebRuntime({self.name!r}, app={self.app_name!r}, "
            f"globals={len(self.globals)})"
        )
