"""Tests for events, scripts and the web runtime."""

import pytest

from repro.nn.zoo import smallnet, tinynet
from repro.sim import SeededRng
from repro.web import WebRuntime
from repro.web.app import WebApp, make_inference_app, make_partial_inference_app
from repro.web.events import Event, EventSystem
from repro.web.runtime import MissingModelError
from repro.web.scripts import (
    ScriptError,
    compile_functions,
    referenced_names,
    split_functions,
)
from repro.web.values import TypedArray


class TestEventSystem:
    def test_add_and_find_listeners(self):
        events = EventSystem()
        events.add_listener("btn", "click", "handler")
        assert events.handlers_for("btn", "click") == ["handler"]
        assert events.handlers_for("btn", "hover") == []

    def test_duplicate_listener_ignored(self):
        events = EventSystem()
        events.add_listener("btn", "click", "handler")
        events.add_listener("btn", "click", "handler")
        assert events.handlers_for("btn", "click") == ["handler"]

    def test_remove_listener(self):
        events = EventSystem()
        events.add_listener("btn", "click", "h")
        events.remove_listener("btn", "click", "h")
        assert events.handlers_for("btn", "click") == []

    def test_restore_listeners_roundtrip(self):
        events = EventSystem()
        events.add_listener("a", "click", "h1")
        events.add_listener("b", "custom", "h2")
        table = events.all_listeners()
        fresh = EventSystem()
        fresh.restore_listeners(table)
        assert fresh.all_listeners() == table

    def test_interception_by_type_and_target(self):
        events = EventSystem()
        events.set_interceptor(lambda event: None)
        events.mark_offload_event("click", "infer")
        assert events.should_intercept(Event("click", "infer"))
        assert not events.should_intercept(Event("click", "load"))

    def test_interception_any_target(self):
        events = EventSystem()
        events.set_interceptor(lambda event: None)
        events.mark_offload_event("front_complete")
        assert events.should_intercept(Event("front_complete", "whatever"))

    def test_no_interceptor_means_no_interception(self):
        events = EventSystem()
        events.mark_offload_event("click")
        assert not events.should_intercept(Event("click", "x"))

    def test_unmark(self):
        events = EventSystem()
        events.set_interceptor(lambda event: None)
        events.mark_offload_event("click", "b")
        events.unmark_offload_event("click", "b")
        assert not events.should_intercept(Event("click", "b"))


class TestScripts:
    def test_compile_functions_finds_handlers(self):
        fns = compile_functions("def a(ctx):\n    return 1\n\ndef b(ctx):\n    return 2\n")
        assert set(fns) >= {"a", "b"}
        assert fns["a"](None) == 1

    def test_syntax_error_raises(self):
        with pytest.raises(ScriptError):
            compile_functions("def broken(:\n")

    def test_no_dangerous_builtins(self):
        fns = compile_functions(
            "def evil(ctx):\n    return open('/etc/passwd')\n"
        )
        with pytest.raises(Exception):
            fns["evil"](None)

    def test_no_import(self):
        fns = compile_functions("def evil(ctx):\n    import os\n    return os\n")
        with pytest.raises(Exception):
            fns["evil"](None)

    def test_split_functions(self):
        source = "def a(ctx):\n    return 1\n\ndef b(ctx):\n    return 2\n"
        segments = split_functions(source)
        assert set(segments) == {"a", "b"}
        assert "return 1" in segments["a"]
        assert "return 2" not in segments["a"]

    def test_referenced_names_includes_string_literals(self):
        names = referenced_names(
            'def f(ctx):\n    ctx.dispatch_event("front_complete", "btn")\n'
        )
        assert "front_complete" in names
        assert "ctx" in names

    def test_every_entry_point_raises_script_error_on_bad_source(self):
        for function in (compile_functions, split_functions, referenced_names):
            with pytest.raises(ScriptError):
                function("def broken(:\n")

    def test_failing_source_is_never_remembered_as_a_success(self):
        good = "def memo_probe(ctx):\n    return memo_probe\n"
        bad = good + "def broken(:\n"
        for function in (compile_functions, split_functions, referenced_names):
            # fail, succeed, fail, succeed: neither outcome masks the other
            for _ in range(2):
                with pytest.raises(ScriptError):
                    function(bad)
                assert "memo_probe" in function(good)

    def test_returned_containers_are_fresh(self):
        source = "def a(ctx):\n    return b\n"
        segments = split_functions(source)
        segments["a"] = "poisoned"
        segments["extra"] = "poisoned"
        assert split_functions(source) == {"a": "def a(ctx):\n    return b"}
        names = referenced_names(source)
        names.append("poisoned")
        names.remove("b")
        assert referenced_names(source) == ["b"]
        functions = compile_functions(source)
        functions.clear()
        assert set(compile_functions(source)) == {"a"}

    def test_runtimes_loading_one_source_share_nothing_mutable(self):
        source = (
            "calls = 0\n"
            "def bump(ctx):\n"
            "    global calls\n"
            "    calls += 1\n"
            "    return calls\n"
        )
        first, second = WebRuntime(), WebRuntime()
        first.set_script(source)
        second.set_script(source)
        assert first.functions["bump"] is not second.functions["bump"]
        assert (
            first.functions["bump"].__globals__
            is not second.functions["bump"].__globals__
        )
        assert first.functions["bump"](None) == 1
        assert first.functions["bump"](None) == 2
        assert second.functions["bump"](None) == 1
        assert compile_functions(source)["bump"].__globals__["calls"] == 0


class TestWebRuntime:
    def test_load_app_builds_dom_and_listeners(self):
        runtime = WebRuntime()
        runtime.load_app(make_inference_app(tinynet()))
        assert runtime.document.get("infer_btn").tag == "button"
        assert runtime.events.handlers_for("infer_btn", "click") == ["on_inference"]

    def test_listener_with_unknown_handler_rejected(self):
        runtime = WebRuntime()
        runtime.load_app(make_inference_app(tinynet()))
        with pytest.raises(ScriptError):
            runtime.add_listener("infer_btn", "click", "ghost_handler")

    def test_dispatch_runs_handlers(self):
        model = tinynet()
        runtime = WebRuntime()
        runtime.load_app(make_inference_app(model))
        runtime.globals["pending_pixels"] = TypedArray(
            SeededRng(1, "x").uniform_array((1, 8, 8), 0, 255)
        )
        runtime.dispatch("click", "load_btn")
        runtime.dispatch("click", "infer_btn")
        assert "label" in runtime.document.get("result").text_content
        assert runtime.handler_log == ["load_image", "on_inference"]

    def test_missing_model_raises(self):
        model = tinynet()
        runtime = WebRuntime()
        runtime.load_app(make_inference_app(model))
        # Simulate a runtime that has the refs but not the model (a fresh
        # edge server before pre-sending completes).
        runtime.installed_models.clear()
        runtime.globals["pending_pixels"] = TypedArray(
            SeededRng(1, "x").uniform_array((1, 8, 8), 0, 255)
        )
        runtime.dispatch("click", "load_btn")
        with pytest.raises(MissingModelError):
            runtime.dispatch("click", "infer_btn")

    def test_undeclared_model_name_is_key_error(self):
        runtime = WebRuntime()
        runtime.load_app(make_inference_app(tinynet()))
        context_models = runtime.app_models
        with pytest.raises(KeyError):
            context_models["nonexistent"]

    def test_onload_handler_runs(self):
        app = WebApp(
            name="onload-app",
            body_spec=[{"tag": "div", "id": "result"}],
            script="def main(ctx):\n    ctx.globals['ready'] = True\n",
            onload="main",
        )
        runtime = WebRuntime()
        runtime.load_app(app)
        assert runtime.globals["ready"] is True

    def test_unknown_handler_raises(self):
        runtime = WebRuntime()
        runtime.load_app(make_inference_app(tinynet()))
        with pytest.raises(ScriptError):
            runtime.run_handler("ghost")

    def test_current_event_transient(self):
        app = WebApp(
            name="event-app",
            body_spec=[{"tag": "button", "id": "b"}, {"tag": "div", "id": "result"}],
            script=(
                "def h(ctx):\n"
                "    ctx.globals['seen'] = ctx.event.event_type\n"
            ),
            listeners=[("b", "click", "h")],
        )
        runtime = WebRuntime()
        runtime.load_app(app)
        runtime.dispatch("click", "b")
        assert runtime.globals["seen"] == "click"
        assert runtime.current_event is None

    def test_partial_app_event_chain(self):
        model = smallnet()
        point = model.network.point_by_label("1st_pool")
        front, rear = model.split(point.index)
        app = make_partial_inference_app(front, rear)
        assert app.presend_models() == [rear]
        runtime = WebRuntime()
        runtime.load_app(app)
        runtime.globals["pending_pixels"] = TypedArray(
            SeededRng(2, "x").uniform_array((3, 32, 32), 0, 255)
        )
        runtime.dispatch("click", "load_btn")
        runtime.dispatch("click", "infer_btn")
        # front dispatched front_complete which ran rear synchronously
        assert runtime.handler_log == ["load_image", "front", "rear"]
        assert "label" in runtime.document.get("result").text_content

    def test_nested_dom_spec(self):
        app = WebApp(
            name="nested",
            body_spec=[
                {
                    "tag": "div",
                    "id": "outer",
                    "children": [{"tag": "span", "id": "inner", "text": "hi"}],
                },
                {"tag": "div", "id": "result"},
            ],
            script="",
        )
        runtime = WebRuntime()
        runtime.load_app(app)
        assert runtime.document.get("inner").text_content == "hi"
        assert runtime.document.get("inner").parent.element_id == "outer"
