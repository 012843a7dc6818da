"""Tests for snapshot code generation: identity, cycles, tensors, DOM."""

import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.snapshot import codegen
from repro.core.snapshot.codegen import (
    CodegenError,
    HeapCodegen,
    canonical_dom_entries,
    canonical_value_code,
    dom_node_key,
    parse_tensor_text,
    render_tensor_text,
    serialize_dom,
    serialize_globals,
)
from repro.web.dom import Document
from repro.web.values import UNDEFINED, ImageData, JSArray, JSObject, TypedArray


def exec_heap(lines, root_exprs, attachments=None, texts=()):
    """Execute generated heap code and return the named roots."""
    from repro.web.values import ImageData as IMG_cls

    namespace = {
        "__builtins__": {},
        "JSObject": JSObject,
        "JSArray": JSArray,
        "TA": lambda text, shape: TypedArray(parse_tensor_text(text, shape)),
        "NP": lambda text, shape: parse_tensor_text(text, shape),
        "IMG": lambda data, shape, enc: IMG_cls(
            np.array(data, copy=True).reshape(shape), encoded_bytes=enc
        ),
        "TEXT": tuple(texts),
        "ATTACH": attachments or {},
        "UNDEFINED": UNDEFINED,
        "G": {},
    }
    exec("\n".join(lines + [f"G['{n}'] = {e}" for n, e in root_exprs.items()]), namespace)
    return namespace["G"]


class TestTensorText:
    def test_roundtrip_exact_float32(self):
        values = np.array([1.5, -2.25, 3.3333333, 1e-20, 7e8], dtype=np.float32)
        text = render_tensor_text(values)
        back = parse_tensor_text(text, (5,))
        assert np.array_equal(values, back)

    def test_empty(self):
        assert parse_tensor_text("", (0,)).size == 0

    def test_text_size_near_analytic_model(self):
        from repro.nn.tensor import TEXT_BYTES_PER_VALUE

        values = np.random.default_rng(0).normal(0, 1, 1000).astype(np.float32)
        text = render_tensor_text(values)
        per_value = len(text) / 1000
        assert per_value == pytest.approx(TEXT_BYTES_PER_VALUE, rel=0.15)


CHUNK = codegen._TENSOR_CHUNK

SPECIALS = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, -1e-45, 1.1754942e-38,
     1.17549435e-38, 3.4028235e38, -3.4028235e38, 1.0, -1.0, 0.1],
    dtype=np.float32,
)


def _oracle(values):
    """The per-value definition of the tensor text."""
    return " ".join("%.10e" % v for v in np.asarray(values, dtype=np.float32).ravel())


def _rendered_as_oracle(values):
    """``render_tensor_text(values)``, checked to be ``_oracle(values)`` —
    failing with the first wrong token, not with pytest's diff of two
    multi-megabyte strings."""
    text, expected = render_tensor_text(values), _oracle(values)
    if text != expected:
        got, want = text.split(" "), expected.split(" ")
        assert len(got) == len(want), f"{len(got)} tokens for {len(want)} values"
        at = next(i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1])
        pytest.fail(f"value {at} rendered {got[at]!r}, '%.10e' gives {want[at]!r}")
    return text


def _in_window(rng, size):
    """Signed magnitudes spread over the decades the vector pass renders."""
    magnitudes = 10 ** rng.uniform(-2, 11, size)
    return (magnitudes * rng.choice([-1.0, 1.0], size)).astype(np.float32)


@st.composite
def float32_arrays(draw):
    """Four kinds of tensor at sizes on both sides of the render chunk:
    arbitrary bit patterns (normals, subnormals, inf, nan — mostly outside
    the exactness window), in-window magnitudes with random signs,
    ReLU-sparse features, and one outside value in an in-window tensor;
    the first three with specials planted, the chunk seam included."""
    size = draw(st.sampled_from(
        [0, 1, 2, 17, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 5]
    ))
    kind = draw(st.sampled_from(["bits", "window", "relu", "one-outside"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "bits":
        bits = rng.integers(0, 2**32, size=size, dtype=np.uint64)
        values = bits.astype(np.uint32).view(np.float32).copy()
    else:
        values = _in_window(rng, size)
    if kind == "relu":
        values = np.where(rng.random(size) < 0.6, 0, np.abs(values))
    if size and kind == "one-outside":
        # SPECIALS[2:11]: inf, -inf, nan, subnormals, FLT_MIN's neighbours, ±FLT_MAX
        values[draw(st.integers(0, size - 1))] = SPECIALS[draw(st.integers(2, 10))]
    elif size:
        spots = draw(st.lists(
            st.tuples(st.integers(0, size - 1), st.integers(0, len(SPECIALS) - 1)),
            max_size=12,
        ))
        for position, special in spots:
            values[position] = SPECIALS[special]
        if draw(st.booleans()):  # the chunk seam itself
            values[min(size, CHUNK) - 1] = SPECIALS[draw(st.integers(0, 5))]
    return values


def _exact_ties():
    """Values whose twelfth significant digit is a 5 with nothing after it.

    ``i + odd * 2**-(12 - g)`` for an integer part ``i`` of ``g`` digits has
    exactly ``12 - g`` decimal places, the last a 5 — as has ``odd * 2**-12``
    in [0.1, 1) — so ``"%.10e"`` must round each half-to-even; all fit a
    float32 (at most 17 + 7 bits).
    """
    ties = []
    for g, stride in ((1, 1), (2, 1), (3, 7), (4, 43), (5, 223)):
        integers = np.arange(10 ** (g - 1), 10 ** g, stride, dtype=np.float64)
        odds = np.arange(1, 2 ** (12 - g), 2) * 2.0 ** -(12 - g)
        ties.append((integers[:, None] + odds).ravel())
    below_one = np.arange(1, 2 ** 12, 2) * 2.0 ** -12
    ties.append(below_one[below_one >= 0.1])
    ties = np.concatenate(ties)
    return np.concatenate([ties, -ties])


def _edge_values():
    """Both float32 neighbourhoods of every power of ten 1e-3 … 1e12 (the
    window's edges are the neighbours of 1e-2 and 1e11), what would carry
    into the next decade, and the ends of the float32 range."""
    edges = []
    for j in range(-3, 13):
        power = np.float32(float(f"1e{j}"))
        below = np.nextafter(power, np.float32(0))
        above = np.nextafter(power, np.float32(np.inf))
        edges += [
            np.nextafter(below, np.float32(0)), below, power, above,
            np.nextafter(above, np.float32(np.inf)),
        ]
    edges += [9.99999999996, 99.999996, 9.9999998e10, 0.0, 1e-45, 3.4028235e38]
    edges = np.array(edges + [np.inf, np.nan], dtype=np.float32)
    return np.concatenate([edges, -edges])


def _nan_aside(values):
    return np.isnan(values).tobytes() + np.where(np.isnan(values), 0, values).tobytes()


class TestTensorTextProperties:
    @settings(max_examples=60, deadline=None)
    @given(float32_arrays())
    def test_render_is_the_per_value_format_and_parse_inverts_it(self, values):
        text = _rendered_as_oracle(values)
        back = parse_tensor_text(text, values.shape)
        assert back.dtype == np.float32 and back.flags.writeable
        assert _nan_aside(back) == _nan_aside(values)
        per_token = np.asarray(text.split(), dtype=np.float32)
        assert back.tobytes() == per_token.tobytes()

    def test_every_special_value_alone_and_at_each_seam(self):
        for size in (1, CHUNK - 1, CHUNK, CHUNK + 1):
            for special in SPECIALS:
                values = np.full(size, special, dtype=np.float32)
                text = render_tensor_text(values)
                assert text == " ".join(["%.10e" % special] * size)
                assert _nan_aside(parse_tensor_text(text, (size,))) == _nan_aside(values)

    def test_exact_ties_round_half_even(self):
        ties = _exact_ties()
        assert ties.size >= 100_000
        assert np.array_equal(ties.astype(np.float32).astype(np.float64), ties)
        for tie in ties[::997]:  # the enumeration yields what it says
            digits = Decimal(float(tie)).as_tuple().digits
            assert len(digits) == 12 and digits[-1] == 5
        _rendered_as_oracle(ties)

    def test_edge_values_alone_and_planted_at_each_seam(self):
        image = np.random.default_rng(5).uniform(0, 255, 2 * CHUNK + 5)
        image = image.astype(np.float32)
        tokens = _oracle(image).split(" ")
        for edge in _edge_values():
            token = "%.10e" % edge
            assert render_tensor_text(np.array([edge])) == token
            for position in (0, CHUNK - 1, CHUNK, image.size - 1):
                image[position] = edge
                tokens[position] = token
            assert render_tensor_text(image).split(" ") == tokens

    @pytest.mark.parametrize("fill", [
        [9.7e-6, -1.3e-5, 2.5e20, -3e38, 1e-45],  # finite, none in the window
        [np.inf, -np.inf, np.nan],
    ])
    def test_chunk_with_nothing_in_the_window(self, fill):
        outside = np.resize(np.array(fill, dtype=np.float32), CHUNK)
        image = np.random.default_rng(6).uniform(0, 255, CHUNK).astype(np.float32)
        for values in (outside, np.concatenate([image, outside, image[:7]])):
            _rendered_as_oracle(values)

    def test_no_numpy_warning_for_any_special(self):
        signalling_nan = np.array([0x7F800001, 0xFF800001], np.uint32).view(np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for special in np.concatenate([SPECIALS, signalling_nan]):
                assert render_tensor_text(np.array([special])) == "%.10e" % special
            mixed = np.concatenate([SPECIALS, signalling_nan, np.ones(CHUNK, np.float32)])
            _rendered_as_oracle(mixed)

    def test_any_array_like_renders_as_its_float32_ravel(self):
        grid = np.random.default_rng(7).normal(0, 50, (6, 8)).astype(np.float32)
        for values in (
            grid[::2, 1::3],            # non-contiguous view
            grid.T,                     # Fortran order: ravel is C order
            np.float32(-2.5),           # 0-d
            np.empty((0, 3), np.float32),
            grid.astype(np.float64) / 3,  # float64: rounded to float32 first
            grid.astype(">f4"),
            [0.1, -7.0, 1e-30],
        ):
            _rendered_as_oracle(values)
        assert render_tensor_text(np.empty(0, np.float32)) == ""

    def test_multidimensional_shape_and_whitespace_runs(self):
        values = np.arange(6, dtype=np.float32).reshape(2, 3)
        text = render_tensor_text(values)
        assert np.array_equal(parse_tensor_text(text, (2, 3)), values)
        spaced = "  " + text.replace(" ", "\n \t") + " \n"
        assert np.array_equal(parse_tensor_text(spaced, (2, 3)), values)

    @pytest.mark.parametrize(
        "text", ["1.0 abc 2.0", "1.0,2.0", "1.0 2.0x", "1.0 2.0 0x10", "one"]
    )
    def test_malformed_text_is_a_value_error(self, text):
        with pytest.raises(ValueError):
            parse_tensor_text(text, (-1,))

    def test_wrong_value_count_is_a_value_error(self):
        with pytest.raises(ValueError):
            parse_tensor_text("1.0 2.0 3.0", (2,))


class TestHeapCodegen:
    def _roundtrip(self, value):
        codegen = HeapCodegen()
        expr = codegen.root_expression(value)
        return exec_heap(
            codegen.lines, {"root": expr}, codegen.attachments, codegen.texts
        )["root"]

    def test_scalars(self):
        codegen = HeapCodegen()
        assert codegen.root_expression(None) == "None"
        assert codegen.root_expression(True) == "True"
        assert codegen.root_expression(3) == "3"
        assert codegen.root_expression("s") == "'s'"
        assert codegen.root_expression(UNDEFINED) == "UNDEFINED"

    def test_object_roundtrip(self):
        obj = JSObject(x=1, y="two", z=None)
        restored = self._roundtrip(obj)
        assert restored["x"] == 1
        assert restored["y"] == "two"
        assert restored["z"] is None

    def test_aliasing_preserved(self):
        shared = JSArray([1, 2])
        root = JSObject(a=shared, b=shared)
        restored = self._roundtrip(root)
        assert restored["a"] is restored["b"]

    def test_cycle_preserved(self):
        obj = JSObject()
        obj["self"] = obj
        restored = self._roundtrip(obj)
        assert restored["self"] is restored

    def test_mutual_cycle(self):
        a = JSObject()
        b = JSObject()
        a["peer"] = b
        b["peer"] = a
        restored = self._roundtrip(a)
        assert restored["peer"]["peer"] is restored

    def test_typed_array_values_exact(self):
        ta = TypedArray(np.array([[1.5, -2.5], [0.1, 1e7]], dtype=np.float32))
        restored = self._roundtrip(ta)
        assert restored.equals(ta)

    def test_image_data_becomes_attachment(self):
        img = ImageData(np.ones((3, 2, 2), dtype=np.float32), encoded_bytes=999)
        codegen = HeapCodegen()
        expr = codegen.root_expression(img)
        assert len(codegen.attachments) == 1
        assert codegen.attachment_bytes == 999
        restored = exec_heap(codegen.lines, {"r": expr}, codegen.attachments)["r"]
        assert restored.equals(img)
        assert restored.encoded_bytes == 999
        # restored pixels are a copy, not an alias of the attachment
        assert restored.data is not img.data

    def test_plain_dict_and_list(self):
        value = {"k": [1, 2, {"nested": True}]}
        restored = self._roundtrip(value)
        assert restored == value

    def test_raw_ndarray(self):
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        restored = self._roundtrip(arr)
        assert isinstance(restored, np.ndarray)
        assert np.array_equal(restored, arr)

    def test_unserializable_rejected(self):
        with pytest.raises(CodegenError):
            HeapCodegen().root_expression(object())

    def test_non_scalar_dict_key_rejected(self):
        with pytest.raises(CodegenError):
            HeapCodegen().root_expression({(1, 2): "tuple key"})

    def test_tensor_literal_is_the_repr_of_its_text(self):
        mixed = np.random.default_rng(8).normal(0, 30, 2 * CHUNK + 3).astype(np.float32)
        for values in [mixed, SPECIALS] + [SPECIALS[i:i + 1] for i in range(len(SPECIALS))]:
            codegen = HeapCodegen()
            codegen.root_expression(TypedArray(values))
            text = render_tensor_text(values)
            # the line names the table entry; the entry is the memo's own
            # str, and its repr is the literal the accounted form writes
            assert codegen.create_lines == [f"_h0 = TA(TEXT[0], {values.shape!r})"]
            assert len(codegen.texts) == 1 and codegen.texts[0] is text
            assert repr(text) == f"'{text}'"
            assert codegen.tensor_text_bytes == len(text)

    def test_tensor_text_bytes_counted(self):
        ta = TypedArray(np.ones(100, dtype=np.float32))
        codegen = HeapCodegen()
        codegen.root_expression(ta)
        assert codegen.tensor_text_bytes > 100 * 10


class TestSerializeGlobals:
    def test_keep_filter(self):
        lines, codegen = serialize_globals(
            {"a": 1, "b": 2}, keep={"a"}
        )
        joined = "\n".join(lines)
        assert "G['a'] = 1" in joined
        assert "'b'" not in joined

    def test_deterministic_order(self):
        lines1, _ = serialize_globals({"b": 2, "a": 1})
        lines2, _ = serialize_globals({"a": 1, "b": 2})
        assert lines1 == lines2


class TestCanonicalValueCode:
    def test_same_structure_same_code(self):
        a = JSObject(x=JSArray([1, 2]))
        b = JSObject(x=JSArray([1, 2]))
        assert canonical_value_code(a) == canonical_value_code(b)

    def test_different_values_differ(self):
        assert canonical_value_code(JSObject(x=1)) != canonical_value_code(
            JSObject(x=2)
        )


class TestDomCodegen:
    def _doc(self):
        doc = Document()
        div = doc.create_element("div", element_id="box", **{"class": "big"})
        doc.body.append_child(div)
        div.append_text("hello")
        span = doc.create_element("span")
        div.append_child(span)
        return doc

    def test_dom_node_key_uses_ids(self):
        doc = self._doc()
        assert dom_node_key(doc.get("box")) == "box"

    def test_dom_node_key_path_fallback(self):
        doc = self._doc()
        span = doc.get("box").children[1]
        assert "span[0]" in dom_node_key(span)

    def test_serialize_dom_lines(self):
        doc = self._doc()
        codegen = HeapCodegen()
        lines = serialize_dom(doc, codegen)
        joined = "\n".join(lines)
        assert "RT.create('div', 'box'" in joined
        assert "RT.append_text" in joined

    def test_canvas_pixels_skipped_by_default(self):
        doc = Document()
        canvas = doc.create_element("canvas", element_id="cv")
        doc.body.append_child(canvas)
        canvas.draw_image(np.ones((1, 2, 2), dtype=np.float32))
        codegen = HeapCodegen()
        lines = serialize_dom(doc, codegen)
        assert not any("RT.draw" in line for line in lines)
        assert codegen.texts == []
        # A live set that does not name the canvas skips it too ...
        dead = serialize_dom(doc, HeapCodegen(), frozenset({"canvas", "feature"}))
        assert not any("RT.draw" in line for line in dead)
        # ... one that names it ships it, and so does "everything is live".
        for live in (frozenset({"cv"}), None):
            lines_with = serialize_dom(doc, HeapCodegen(), live)
            assert sum("RT.draw" in line for line in lines_with) == 1

    def test_canonical_dom_entries_change_detection(self):
        doc = self._doc()
        before = canonical_dom_entries(doc)
        # Mutate the text node in place so the tree structure is unchanged.
        doc.get("box").children[0].text = "changed"
        after = canonical_dom_entries(doc)
        assert before["box"] != after["box"]
        assert set(before) == set(after)
