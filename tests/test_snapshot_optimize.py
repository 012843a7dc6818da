"""Tests for snapshot size optimizations (liveness analysis)."""

from repro.core.snapshot.optimize import reachable_handlers, select_globals
from repro.web.events import Event

SCRIPT = '''
def load_image(ctx):
    ctx.globals["image"] = ctx.globals["pending_pixels"]

def front(ctx):
    feature = ctx.models["front"].inference(ctx.globals["image"].data)
    ctx.globals["feature"] = feature
    ctx.dispatch_event("front_complete", "btn")

def rear(ctx):
    probs = ctx.models["rear"].inference(ctx.globals["feature"].data)
    ctx.globals["result"] = probs

def helper(ctx):
    return ctx.globals["config"]

def uses_helper(ctx):
    return helper(ctx)
'''

LISTENERS = [
    ("load_btn", "click", "load_image"),
    ("btn", "click", "front"),
    ("btn", "front_complete", "rear"),
    ("other_btn", "click", "uses_helper"),
]


class TestReachableHandlers:
    def test_pending_event_selects_exact_listener(self):
        reached = reachable_handlers(
            SCRIPT, LISTENERS, Event("front_complete", "btn")
        )
        assert "rear" in reached
        assert "load_image" not in reached
        assert "front" not in reached

    def test_click_on_btn_reaches_front_and_transitively_rear(self):
        reached = reachable_handlers(SCRIPT, LISTENERS, Event("click", "btn"))
        # front mentions "front_complete", whose handler is rear.
        assert reached >= {"front", "rear"}
        assert "load_image" not in reached

    def test_direct_function_calls_followed(self):
        reached = reachable_handlers(SCRIPT, LISTENERS, Event("click", "other_btn"))
        assert reached >= {"uses_helper", "helper"}

    def test_no_pending_event_keeps_all_handlers(self):
        reached = reachable_handlers(SCRIPT, LISTENERS, None)
        assert reached == {"load_image", "front", "rear", "uses_helper"}

    def test_event_with_no_listeners_reaches_nothing(self):
        reached = reachable_handlers(SCRIPT, LISTENERS, Event("hover", "btn"))
        assert reached == set()


class TestLiveGlobals:
    def test_only_mentioned_globals_kept(self):
        # front_complete reaches rear() alone
        live = select_globals(
            SCRIPT, ["feature", "image", "config", "unrelated"], LISTENERS,
            Event("front_complete", "btn"), True,
        )
        assert live == {"feature"}

    def test_multiple_handlers_union(self):
        # a click reaches front() and, through its dispatch, rear()
        live = select_globals(
            SCRIPT, ["feature", "image", "config"], LISTENERS,
            Event("click", "btn"), True,
        )
        assert live == {"feature", "image"}


class TestSelectGlobals:
    def test_conservative_mode_keeps_everything(self):
        names = {"a", "b", "c"}
        kept = select_globals(SCRIPT, names, LISTENERS, Event("click", "btn"), False)
        assert kept == names

    def test_live_mode_filters(self):
        names = {"feature", "image", "unrelated"}
        kept = select_globals(
            SCRIPT, names, LISTENERS, Event("front_complete", "btn"), True
        )
        assert kept == {"feature"}

    def test_live_mode_without_event_keeps_everything(self):
        names = {"feature", "unrelated"}
        kept = select_globals(SCRIPT, names, LISTENERS, None, True)
        assert kept == names
