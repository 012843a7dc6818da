"""Live-state elimination is sound for every shipped app.

For each app builder in :mod:`repro.web.app` (and the two-model app of
``tests/test_multi_model_app.py``) and the event it offloads:

* restoring the default (live-only) capture and running the event gives
  the same globals and DOM text as the whole-state (``live_only=False``)
  capture, for a full snapshot and for a session-cache delta after a new
  image;
* a canvas bitmap is in the snapshot exactly when a handler reachable from
  the event mentions the canvas's element id.

Out of scope: a session whose *later* event reads a bitmap (or a global)
that an earlier capture elided, against a session-cache baseline — that
needs a stateful sequence of events, not one offload.
"""

import numpy as np
import pytest

from repro.core.privacy import snapshot_exposes_input
from repro.core.snapshot import (
    CaptureOptions,
    capture_delta,
    capture_snapshot,
    fingerprint_runtime,
    restore_snapshot,
)
from repro.core.snapshot.optimize import reachable_handlers
from repro.nn.zoo import smallnet
from repro.sim import SeededRng
from repro.web import WebRuntime
from repro.web.app import (
    make_demographics_app,
    make_inference_app,
    make_partial_inference_app,
    make_video_app,
)
from repro.web.events import Event
from repro.web.scripts import referenced_names, split_functions
from repro.web.values import ImageData, TypedArray, deep_equal

WHOLE_STATE = CaptureOptions(live_only=False)


def _partial_app():
    front, rear = smallnet(seed=4).split(3)
    return make_partial_inference_app(front, rear)


def _demographics_app():
    # the app of tests/test_multi_model_app.py
    age = smallnet(seed=1, num_classes=8)
    age.name = "agenet-mini"
    gender = smallnet(seed=2, num_classes=2)
    gender.name = "gendernet-mini"
    return make_demographics_app(age, gender)


#: name -> (app builder, offloaded event, whether the event reads the canvas)
APPS = {
    "inference": (
        lambda: make_inference_app(smallnet(seed=3)),
        Event("click", "infer_btn"),
        True,
    ),
    "partial": (_partial_app, Event("front_complete", "infer_btn"), False),
    "demographics": (_demographics_app, Event("click", "infer_btn"), True),
    "video": (
        lambda: make_video_app(smallnet(seed=5)),
        Event("frame", "camera"),
        False,
    ),
}


def show_image(runtime, seed):
    """Give the app a new input the way its UI does (a partial-inference
    app also runs front(), whose front_complete the client intercepts)."""
    pixels = SeededRng(seed, "liveness").uniform_array((3, 32, 32), 0, 255)
    if runtime.document.find("camera") is not None:
        runtime.globals["frame"] = ImageData(pixels, encoded_bytes=1500)
        return
    runtime.globals["pending_pixels"] = TypedArray(pixels)
    runtime.dispatch("click", "load_btn")
    if "front" in runtime.functions:
        runtime.dispatch("click", "infer_btn")  # front(); front_complete waits


def client_for(app):
    runtime = WebRuntime("client")
    runtime.load_app(app)
    runtime.events.set_interceptor(lambda event: None)
    runtime.events.mark_offload_event("front_complete", "infer_btn")
    return runtime


def run_at_edge(app, snapshot, browser=None):
    """Restore ``snapshot`` on an edge browser and run its pending event."""
    if browser is None:
        browser = WebRuntime("edge")
        for model in app.models.values():
            browser.install_model(model)
    report = restore_snapshot(snapshot, browser)
    browser.run_event(report.pending_event)
    return browser


def dom_texts(browser):
    return {
        element.element_id: element.text_content
        for element in browser.document.body.walk()
        if element.element_id
    }


def assert_same_outcome(live_browser, whole_browser):
    """Same DOM text, and every global the live run holds — the results
    among them — equal to the whole-state run's."""
    assert dom_texts(live_browser) == dom_texts(whole_browser)
    assert "result_label" in live_browser.globals
    for name, value in live_browser.globals.items():
        assert deep_equal(value, whole_browser.globals[name]), name


def mentions_canvas(runtime, event):
    functions = split_functions(runtime.script_source)
    handlers = reachable_handlers(
        runtime.script_source, runtime.events.all_listeners(), event
    )
    return any("canvas" in referenced_names(functions[h]) for h in handlers)


def drawn_bitmaps(snapshot):
    return snapshot.program.count("RT.draw(")


@pytest.mark.parametrize("name", sorted(APPS))
class TestLivenessIsSound:
    def test_full_snapshot_runs_as_the_whole_state_does(self, name):
        build, event, reads_canvas = APPS[name]
        app = build()
        client = client_for(app)
        show_image(client, seed=1)

        live = capture_snapshot(client, event)
        whole = capture_snapshot(client, event, WHOLE_STATE)
        assert_same_outcome(run_at_edge(app, live), run_at_edge(app, whole))

        assert mentions_canvas(client, event) is reads_canvas
        assert drawn_bitmaps(live) == (1 if reads_canvas else 0)
        has_canvas = client.document.find("canvas") is not None
        assert drawn_bitmaps(whole) == (1 if has_canvas else 0)
        if reads_canvas:
            # the liveness rule ships exactly what "ship every bitmap" does
            forced = capture_snapshot(
                client, event, CaptureOptions(include_canvas_pixels=True)
            )
            assert live.program == forced.program
            assert live.texts == forced.texts
            assert live.size_bytes == forced.size_bytes

    def test_delta_after_a_new_image_runs_as_the_whole_state_does(self, name):
        build, event, reads_canvas = APPS[name]
        app = build()
        client = client_for(app)
        show_image(client, seed=1)
        live_edge = run_at_edge(app, capture_snapshot(client, event))
        whole_edge = run_at_edge(app, capture_snapshot(client, event, WHOLE_STATE))

        show_image(client, seed=2)
        live = capture_delta(
            client,
            fingerprint_runtime(live_edge),
            pending_event=event,
            options=CaptureOptions(live_only=True),
        )
        whole = capture_delta(
            client, fingerprint_runtime(whole_edge), pending_event=event
        )
        assert_same_outcome(
            run_at_edge(app, live, live_edge), run_at_edge(app, whole, whole_edge)
        )
        has_canvas = client.document.find("canvas") is not None
        assert drawn_bitmaps(live) == (1 if reads_canvas else 0)
        assert drawn_bitmaps(whole) == (1 if has_canvas else 0)


def test_partial_snapshot_carries_the_feature_and_not_the_image():
    build, event, _ = APPS["partial"]
    app = build()
    client = client_for(app)
    show_image(client, seed=1)
    snapshot = capture_snapshot(client, event)
    feature = client.globals["feature"].data
    image = client.document.get("canvas").image_data.data
    assert len(snapshot.texts) == 1
    parsed = np.fromstring(snapshot.texts[0], dtype=np.float32, sep=" ")
    assert np.array_equal(parsed, feature.ravel())
    assert not snapshot_exposes_input(snapshot, image)
    assert snapshot_exposes_input(capture_snapshot(client, event, WHOLE_STATE), image)
