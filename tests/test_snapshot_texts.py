"""A snapshot is its code plus a table of tensor texts.

The program a capture builds is code only: a tensor's decimal text rides
beside it and the line says ``TEXT[i]``, as an image's line says
``ATTACH[i]``.  What the link is charged for is still the paper's form —
the program with every text written into it as a quoted literal — and that
form is *accounted*, never built.

:class:`InlineCodegen` keeps the parent commit's renderer of that form
(73f0dd7, ``HeapCodegen._array_literal``) as the oracle: a capture through
it *is* the inline program, so its byte length, its line count and the
state it restores are what the table form must reproduce.
"""

from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.snapshot import (
    CaptureOptions,
    Snapshot,
    capture_delta,
    capture_snapshot,
    fingerprint_runtime,
    restore_snapshot,
)
from repro.core.snapshot import capture as capture_module
from repro.core.snapshot import restore as restore_module
from repro.core.snapshot.codegen import HeapCodegen, render_tensor_text
from repro.core.snapshot.restore import RestoreError
from repro.nn.zoo import smallnet
from repro.sim import SeededRng
from repro.web import WebRuntime
from repro.web.app import make_inference_app
from repro.web.events import Event
from repro.web.values import ImageData, JSArray, JSObject, TypedArray
from tests.test_properties import js_values
from tests.test_snapshot_codegen import SPECIALS


class InlineCodegen(HeapCodegen):
    """The parent's heap codegen: a tensor's text quoted in the line."""

    def _array_literal(
        self, data: np.ndarray, encoded_bytes: Optional[int] = None
    ) -> str:
        if encoded_bytes is not None:
            index = len(self.attachments)
            self.attachments[index] = data
            self.attachment_bytes += encoded_bytes
            return f"ATTACH[{index}]"
        text = render_tensor_text(data)
        return f"'{text}'"  # repr(text): the token alphabet needs no escaping


def inline(capture, *args, **kwargs) -> Snapshot:
    """``capture(...)`` as the parent commit would have written it."""
    with mock.patch.object(capture_module, "HeapCodegen", InlineCodegen):
        snapshot = capture(*args, **kwargs)
    assert snapshot.texts == () and "TEXT[" not in snapshot.program
    return snapshot


def app_runtime(**heap) -> WebRuntime:
    runtime = WebRuntime("client")
    runtime.load_app(make_inference_app(smallnet()))
    runtime.globals.update(heap)
    return runtime


def restored(snapshot: Snapshot) -> WebRuntime:
    server = WebRuntime("server")
    report = restore_snapshot(snapshot, server)
    assert report.applied_lines == snapshot.program.count("\n")
    return server


def assert_same_as_inline(runtime: WebRuntime, options: CaptureOptions) -> WebRuntime:
    """Capture both ways; sizes, line counts and restored states must agree."""
    event = Event("click", "infer_btn")
    table = capture_snapshot(runtime, event, options)
    oracle = inline(capture_snapshot, runtime, event, options)
    assert table.size_bytes == (
        len(oracle.program.encode("utf-8")) + oracle.attachment_bytes
    )
    assert table.attachment_bytes == oracle.attachment_bytes
    assert table.program.count("\n") == oracle.program.count("\n")
    # the inline program is the table program with each name written out
    spelled = table.program
    for index in reversed(range(len(table.texts))):
        assert spelled.count(f"(TEXT[{index}], ") == 1
        spelled = spelled.replace(f"(TEXT[{index}], ", f"({table.texts[index]!r}, ")
    assert spelled == oracle.program
    assert table.code_bytes == oracle.size_bytes - table.feature_bytes
    from_table, from_inline = restored(table), restored(oracle)
    assert fingerprint_runtime(from_table) == fingerprint_runtime(from_inline)
    return from_table


EVERYTHING = CaptureOptions(live_only=False, include_canvas_pixels=True)


class TestInlineFormIsTheOracle:
    @given(js_values(), js_values(depth=2))
    @settings(max_examples=60, deadline=None)
    def test_generated_heaps(self, value, shared):
        runtime = app_runtime(value=value, left=shared, right=JSObject(again=shared))
        server = assert_same_as_inline(runtime, EVERYTHING)
        if isinstance(shared, (JSObject, JSArray, TypedArray)):
            assert server.globals["left"] is server.globals["right"]["again"]

    def test_special_values_aliases_and_twins(self):
        one = TypedArray(SPECIALS.copy())
        runtime = app_runtime(
            specials=TypedArray(SPECIALS.reshape(2, 7).copy()),
            raw=SPECIALS.copy(),
            empty=TypedArray(np.zeros((0,), dtype=np.float32)),
            empty_raw=np.zeros((3, 0), dtype=np.float32),
            first_name=one,
            second_name=one,
            twin_a=TypedArray(np.arange(5, dtype=np.float32)),
            twin_b=TypedArray(np.arange(5, dtype=np.float32)),
            photo=ImageData(np.ones((3, 2, 2), dtype=np.float32), encoded_bytes=321),
            greeting="héllo — 猫",
        )
        runtime.document.get("result").set_text("étiquette — 猫")
        snapshot = capture_snapshot(runtime, None, EVERYTHING)
        assert not snapshot.program.isascii()
        # one array under two names is one entry; arrays of equal content
        # are an entry each, holding the same str
        assert snapshot.program.count("TA(TEXT[") == 5
        assert snapshot.program.count("NP(TEXT[") == 2
        assert len(snapshot.texts) == 7
        assert len({id(text) for text in snapshot.texts}) == 3  # specials, "", twins
        server = assert_same_as_inline(runtime, EVERYTHING)
        g = server.globals
        assert g["first_name"] is g["second_name"]
        assert g["twin_a"] is not g["twin_b"] and g["twin_a"].equals(g["twin_b"])
        assert g["empty"].data.shape == (0,) and g["empty_raw"].shape == (3, 0)
        back = g["specials"].data.ravel()
        assert np.array_equal(back, SPECIALS, equal_nan=True)
        assert np.array_equal(np.signbit(back), np.signbit(SPECIALS))

    def test_delta_accounts_as_its_inline_form(self):
        pixels = TypedArray(SeededRng(3, "px").uniform_array((3, 8, 8), 0, 255))
        runtime = app_runtime(canvas_copy=pixels)
        baseline = fingerprint_runtime(app_runtime())
        table = capture_delta(runtime, baseline)
        oracle = inline(capture_delta, runtime, baseline)
        assert table.texts == (render_tensor_text(pixels.data),)
        assert table.size_bytes == len(oracle.program.encode("utf-8"))
        for snapshot in (table, oracle):
            target = app_runtime()
            restore_snapshot(snapshot, target)
            assert fingerprint_runtime(target) == fingerprint_runtime(runtime)


class TestTheMemoCarriesNoData:
    def _pair(self):
        def snapshot(seed):
            pixels = SeededRng(seed, "px").uniform_array((3, 32, 32), 0, 255)
            runtime = app_runtime(pending_pixels=TypedArray(pixels))
            runtime.dispatch("click", "load_btn")
            event = Event("click", "infer_btn")
            return runtime, capture_snapshot(runtime, event, EVERYTHING)

        (first_runtime, first), (second_runtime, second) = snapshot(1), snapshot(2)
        assert first.program == second.program
        assert first.texts != second.texts
        return (first_runtime, first), (second_runtime, second)

    @pytest.mark.parametrize("order", [(0, 1, 0), (1, 0, 1)])
    def test_same_program_different_texts(self, order):
        pair = self._pair()
        restore_module._program_code.cache_clear()
        for which in order:
            runtime, snapshot = pair[which]
            assert fingerprint_runtime(restored(snapshot)) == fingerprint_runtime(runtime)
        info = restore_module._program_code.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_texts_are_the_memos_own_strings(self):
        (runtime, snapshot), _other = self._pair()
        assert isinstance(snapshot.texts, tuple) and snapshot.texts
        arrays = [
            value.data for value in runtime.globals.values()
            if isinstance(value, TypedArray)
        ] + [runtime.document.get("canvas").image_data.data]
        rendered = [render_tensor_text(array) for array in arrays]
        for text in snapshot.texts:
            assert any(text is candidate for candidate in rendered)

    def test_a_failed_compile_is_not_remembered(self):
        broken = Snapshot(app_name="x", kind="full", program="RT.bogus(")
        for _ in range(2):
            with pytest.raises(RestoreError):
                restore_snapshot(broken, WebRuntime("server"))


class TestTheProgramsNamespace:
    def _restore(self, program, texts=()):
        snapshot = Snapshot(app_name="x", kind="full", program=program, texts=texts)
        server = WebRuntime("server")
        restore_snapshot(snapshot, server)
        return server

    def test_an_index_past_the_table_is_a_restore_error(self):
        texts = ("1.0", "2.0", "3.0")
        assert self._restore("G['t'] = NP(TEXT[2], (1,))\n", texts).globals["t"] == 3.0
        with pytest.raises(RestoreError, match="index out of range"):
            self._restore("G['t'] = NP(TEXT[9], (1,))\n", texts)
        with pytest.raises(RestoreError):
            self._restore("G['t'] = IMG(ATTACH[0], (1,), 4)\n")

    def test_the_table_is_a_tuple_and_builtins_stay_empty(self):
        with pytest.raises(RestoreError, match="does not support item assignment"):
            self._restore("TEXT[0] = '9.0'\n", ("1.0",))
        for program in (
            "G['t'] = len(TEXT)\n",
            "G['t'] = __import__('os')\n",
            "G['t'] = compile('1', 'x', 'eval')\n",
        ):
            with pytest.raises(RestoreError, match="is not defined"):
                self._restore(program, ("1.0",))
        # rebinding a name is local to one restore's namespace: the next
        # restore of any program sees the real decoder again
        self._restore("TA = None\nTEXT = ()\nlen = None\n", ("1.0",))
        assert self._restore("G['t'] = TA(TEXT[0], (1,))\n", ("4.0",)).globals[
            "t"
        ].data.tolist() == [4.0]
