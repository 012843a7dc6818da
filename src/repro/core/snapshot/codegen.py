"""Code generation: heap / DOM state → executable snapshot program text.

The generated program looks like::

    RT.set_app('googlenet-app')
    RT.set_script('''...app source...''')
    RT.set_model_refs({'classifier': 'googlenet:abc123'})
    _h0 = JSObject()
    _h1 = TA(TEXT[0], (64, 56, 56))
    _h0.properties['feature'] = _h1
    G['state'] = _h0
    _e0 = RT.create('button', 'infer_btn', {})
    RT.append('__body__', _e0)
    RT.append_text(_e0, 'Inference')
    RT.add_listener('infer_btn', 'click', 'on_inference')
    RT.set_pending('front_complete', 'infer_btn', None)

Identity is preserved by hoisting every heap node into a ``_hN`` variable
before filling contents, which makes shared references and cycles restore
exactly.  Float32 tensors serialize as full-precision decimal text (what a
JS snapshot does to a ``Float32Array``); decoded images serialize as binary
attachments (the data-URL analog).  Both ride *beside* the program, in a
table the line names an entry of — ``TEXT[i]``, ``ATTACH[i]`` — so the
program is code only, and many snapshots share one program text.  What the
link is charged for is the paper's form, the program with every ``TEXT[i]``
written out as the quoted literal it stands for (``Snapshot.size_bytes``):
that form is accounted, never built.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import weakref
from typing import AbstractSet, Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.web.dom import Document, Element, TextNode
from repro.web.values import (
    UNDEFINED,
    ImageData,
    JSArray,
    JSClosure,
    JSObject,
    TypedArray,
)


class CodegenError(ValueError):
    """Raised when a value cannot be serialized into a snapshot."""


def digest(text: str) -> str:
    """Short stable digest used by state fingerprints."""
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:16]


def array_digest(array: np.ndarray) -> str:
    """Digest of an array's float32 bytes (C order; the shape is not in it).

    What a fingerprint knows a tensor, an image or a canvas bitmap by.
    float32 is what both the text and the attachment encoding carry, so
    the same state hashes alike on the side that built it and on the side
    that restored it.
    """
    return hashlib.sha1(
        np.ascontiguousarray(array, dtype=np.float32)
    ).hexdigest()[:16]


# -- tensor text ---------------------------------------------------------------
# A value is written as ``"%.10e"`` writes it, without a ``snprintf`` per
# value.  A finite float32 is m·2^q with m < 2^24, and 5^k < 2^28 for
# k <= 12, so |a|·10^k = (m·5^k)·2^(q+k) has a significand below 2^52: the
# float64 product ``a * 10.0**k`` is the true value, and ``np.rint`` of it
# the true round-half-even integer.  For |a| in [1e-2, 1e11) the scale
# k = 10 - floor(log10 |a|) is in [0, 12] and that integer, in [1e10, 1e11),
# spells the eleven digits a correctly rounded ``"%.10e"`` prints (rounding
# cannot carry it to 1e11: no float32 lies within a relative 5e-12 below a
# power of ten — the closest, 99999997952, is 2e-8 below).  A finite float32
# prints a two-digit exponent, so every token in that window is 16
# characters and a ``-`` if the sign bit is set; zero is the same token with
# all digits 0.  Any other value goes through ``%`` itself, in bulk.

#: values rendered per vector pass: a pass's temporaries stay cache-sized
#: whatever the tensor's size, and under glibc's 128 KB mmap threshold
_TENSOR_CHUNK = 4096

#: 1e-2 … 1e11.  The first thirteen are the window's decades; the last is
#: what a value in the top decade is compared with.  Comparing a float32
#: with the double nearest 10^j decides as 10^j would: no float32 lies
#: between the two.
_POW10 = np.array([float(f"1e{j}") for j in range(-2, 12)])
#: the window as bit patterns: positive floats order as their bits do, so
#: membership is an integer comparison and no NaN, infinity or subnormal
#: ever reaches a floating-point operation.  The float32 after the one
#: nearest a bound is at or above the bound, whichever way that one rounded.
_WINDOW_LOW, _WINDOW_HIGH = (
    int(np.nextafter(np.float32(bound), np.float32(np.inf)).view(np.uint32))
    for bound in (1e-2, 1e11)
)

#: per binade (a float32's biased exponent field b), how many of the
#: window's decades are <= 2^(b-127).  A binade holds at most one power of
#: ten, so one more comparison, against that one, counts the decades <= |a|
#: exactly: 0 for zero, floor(log10 |a|) + 3 inside the window.
_DECADES_BELOW = np.searchsorted(
    _POW10[:13], np.ldexp(1.0, np.arange(-127, 129)), side="right"
)
#: by that count: the 10^k that leaves eleven digits before the point (any
#: scale leaves zero's row 0), and the exponent's four characters
_SCALE = np.array([float(10 ** (13 - count)) for count in range(14)])
_EXPONENT_TEXT = np.frombuffer(
    b"e+00" + b"".join(b"e%+03d" % (count - 3) for count in range(1, 14)),
    dtype=np.uint32,
)


def _ascii_digits(width: int) -> np.ndarray:
    """``10**width`` rows of ``width`` ASCII digits: row n is n, zero-padded."""
    n = np.arange(10 ** width)
    digits = [n // 10 ** place % 10 for place in reversed(range(width))]
    return (np.stack(digits, axis=1) + ord("0")).astype(np.uint8)


#: digit groups as machine words: one gather writes four (two) characters
_DIGITS4 = _ascii_digits(4).view(np.uint32).ravel()
_DIGITS2 = _ascii_digits(2).view(np.uint16).ravel()

#: one rendered value, ``[-]d.ddddddddddde±dd`` and the separator.  The sign
#: column holds ``-`` or :data:`_PAD`; pads are deleted from the finished text.
_TOKEN_ROW = np.dtype({
    "names": [
        "sign", "lead", "point", "high4", "low4", "last2", "exponent", "separator",
    ],
    "formats": ["u1", "u1", "u1", "u4", "u4", "u2", "u4", "u1"],
    "offsets": [0, 1, 2, 3, 7, 11, 13, 17],
    "itemsize": 18,
})
_PAD = b"\0"
#: a value outside the window: right-aligned over the 17 columns before the
#: separator, because ``inf`` / ``-inf`` / ``nan`` are shorter than the rest
_OUTSIDE_FORMAT = "%17.10e"

class _TensorText(str):
    """Rendered tensor text.  A ``str`` the memo can refer to weakly (a
    plain ``str`` takes no weak reference); it reads, compares and hashes
    as the plain ``str`` of its characters."""


#: digest of an array's float32 bytes -> the text rendered from them, for
#: as long as anything else holds that text.  The holders are the arrays it
#: was rendered from (:data:`_owned`) and the programs that carry it
#: (``Snapshot.texts``), so a text lives as long as its tensor does — the
#: re-capture after a restore, a delta that carries a feature back, the
#: next figure drawn from one campaign model — and goes with the last of
#: them, whatever else a run renders meanwhile.
_texts: "weakref.WeakValueDictionary[bytes, _TensorText]" = (
    weakref.WeakValueDictionary()
)
#: ``id(array)`` -> (weak reference to the array, the text last rendered
#: from it): how an array holds its text without an attribute to hold it in
_owned: Dict[int, Tuple["weakref.ref[np.ndarray]", _TensorText]] = {}
_text_cache_hits = 0
_text_cache_misses = 0


def render_tensor_text(array: np.ndarray) -> str:
    """Serialize a tensor's values as space-separated decimal literals.

    Memoized by content digest: simulators write the same feature tensor
    into several programs per session (the capture, the re-capture after a
    restore, a delta that carries it back), and formatting millions of
    floats dominates those paths.  Fingerprinting does not come through
    here — it names a tensor by :func:`array_digest`.  The text returned is
    the memo's own ``str``, held by ``array`` until the array goes or is
    rendered again, so re-rendering an array nobody wrote to returns that
    very ``str``; an array written in place digests differently and is
    rendered afresh.
    """
    global _text_cache_hits, _text_cache_misses
    flat = np.asarray(array, dtype=np.float32).ravel()
    key = hashlib.sha1(flat).digest()
    text = _texts.get(key)
    if text is None:
        _text_cache_misses += 1
        text = _TensorText(_format_values(flat))
        _texts[key] = text
    else:
        _text_cache_hits += 1
    if isinstance(array, np.ndarray):
        _own(array, text)
    return text


def _own(array: np.ndarray, text: _TensorText) -> None:
    """Make ``array`` hold ``text`` (in place of any text it held)."""
    key = id(array)
    entry = _owned.get(key)
    if entry is not None and entry[0]() is array:
        _owned[key] = (entry[0], text)
    else:
        _owned[key] = (weakref.ref(array, functools.partial(_disown, key)), text)


def _disown(key: int, ref: "weakref.ref[np.ndarray]") -> None:
    """The array behind ``ref`` is gone: so is its hold on its text."""
    entry = _owned.get(key)
    if entry is not None and entry[0] is ref:
        del _owned[key]


def _format_values(flat: np.ndarray) -> str:
    """``" ".join("%.10e" % v for v in flat)`` of a contiguous float32 vector."""
    parts: List[str] = []
    for start in range(0, flat.size, _TENSOR_CHUNK):
        chunk = flat[start:start + _TENSOR_CHUNK]
        bits = chunk.view(np.uint32)
        magnitude = bits & 0x7FFFFFFF
        exact = (
            (magnitude >= _WINDOW_LOW) & (magnitude < _WINDOW_HIGH)
        ) | (magnitude == 0)
        # a value outside the window is rendered as a zero, then written over
        magnitude = np.where(exact, magnitude, 0)
        value = magnitude.view(np.float32).astype(np.float64)
        decades = _DECADES_BELOW[(magnitude >> 23).astype(np.intp)]
        decades += value >= _POW10[decades]
        digits = np.rint(value * _SCALE[decades]).astype(np.int64)
        digits, last2 = np.divmod(digits, 100)
        digits, low4 = np.divmod(digits, 10_000)
        lead, high4 = np.divmod(digits, 10_000)
        rows = np.empty(chunk.size, dtype=_TOKEN_ROW)
        rows["sign"] = (bits >> 31) * ord("-")
        rows["lead"] = lead + ord("0")
        rows["point"] = ord(".")
        rows["high4"] = _DIGITS4[high4]
        rows["low4"] = _DIGITS4[low4]
        rows["last2"] = _DIGITS2[last2]
        rows["exponent"] = _EXPONENT_TEXT[decades]
        rows["separator"] = ord(" ")
        if not exact.all():
            outside = np.flatnonzero(~exact)
            tokens = (_OUTSIDE_FORMAT * outside.size) % tuple(chunk[outside].tolist())
            rows.view(np.uint8).reshape(-1, 18)[outside, :17] = np.frombuffer(
                tokens.encode("ascii").replace(b" ", _PAD), dtype=np.uint8
            ).reshape(-1, 17)
        parts.append(rows.tobytes().replace(_PAD, b"").decode("ascii"))
    if parts:
        parts[-1] = parts[-1][:-1]  # no separator after the last value
    return "".join(parts)


def text_cache_info() -> Dict[str, int]:
    """Introspection for tests and benchmarks: the texts alive now, and
    the memo's hits and misses since the process started."""
    live = list(_texts.values())
    return {
        "entries": len(live),
        "bytes": sum(map(len, live)),
        "hits": _text_cache_hits,
        "misses": _text_cache_misses,
    }


def parse_tensor_text(text: str, shape: Tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`render_tensor_text`.

    Parsed straight off the text (no per-token ``str`` list); anything
    that is not whitespace-separated float literals raises ``ValueError``,
    as does a value count that does not fill ``shape``.
    """
    return np.fromstring(text, dtype=np.float32, sep=" ").reshape(shape)


class HeapCodegen:
    """Serializes a set of root values, preserving sharing and cycles."""

    def __init__(self, attachments: Optional[Dict[int, np.ndarray]] = None):
        self._ids: Dict[int, str] = {}  # id(node) -> variable name
        self.create_lines: List[str] = []
        self.fill_lines: List[str] = []
        self.attachments: Dict[int, np.ndarray] = (
            attachments if attachments is not None else {}
        )
        #: tensor texts, in the order the program names them as ``TEXT[i]``
        self.texts: List[str] = []
        self.attachment_bytes = 0

    # -- public -----------------------------------------------------------------
    def root_expression(self, value: Any) -> str:
        """Serialize one root; returns the expression that references it."""
        return self._render(value)

    @property
    def lines(self) -> List[str]:
        return self.create_lines + self.fill_lines

    @property
    def tensor_text_bytes(self) -> int:
        """Characters of tensor text rendered so far."""
        return sum(map(len, self.texts))

    # -- rendering ---------------------------------------------------------------
    def _render(self, value: Any) -> str:
        if value is UNDEFINED:
            return "UNDEFINED"
        if value is None or isinstance(value, (bool, int, float, str)):
            return repr(value)
        if isinstance(value, Element):
            if not value.element_id:
                raise CodegenError(
                    "heap references to DOM elements need an element id"
                )
            return f"RT.elem({value.element_id!r})"
        if isinstance(
            value, (JSObject, JSArray, TypedArray, JSClosure, dict, list, np.ndarray)
        ):
            return self._heap_node(value)
        raise CodegenError(
            f"cannot serialize value of type {type(value).__name__} into a snapshot"
        )

    def _array_literal(
        self, data: np.ndarray, encoded_bytes: Optional[int] = None
    ) -> str:
        """How a program line names an array's content: a tensor's decimal
        text as ``TEXT[i]``, an image (``encoded_bytes`` given) as
        ``ATTACH[i]``.  The text is the memo's own ``str``, not a copy."""
        if encoded_bytes is not None:
            index = len(self.attachments)
            self.attachments[index] = data
            self.attachment_bytes += encoded_bytes
            return f"ATTACH[{index}]"
        self.texts.append(render_tensor_text(data))
        return f"TEXT[{len(self.texts) - 1}]"

    def _heap_node(self, node: Any) -> str:
        existing = self._ids.get(id(node))
        if existing is not None:
            return existing
        name = f"_h{len(self._ids)}"
        self._ids[id(node)] = name
        if isinstance(node, ImageData):
            literal = self._array_literal(node.data, node.encoded_bytes)
            self.create_lines.append(
                f"{name} = IMG({literal}, {node.shape!r}, {node.encoded_bytes})"
            )
        elif isinstance(node, TypedArray):
            self.create_lines.append(
                f"{name} = TA({self._array_literal(node.data)}, {node.shape!r})"
            )
        elif isinstance(node, np.ndarray):
            self.create_lines.append(
                f"{name} = NP({self._array_literal(node)}, {tuple(node.shape)!r})"
            )
        elif isinstance(node, JSClosure):
            # Closure reconstruction [11]: the function rebinds by name to
            # the shipped script; the captured environment is rebuilt like
            # any heap structure (cycles through env included).
            self.create_lines.append(f"{name} = CL({node.function_name!r})")
            for key, value in node.env.items():
                self.fill_lines.append(
                    f"{name}.env[{key!r}] = {self._render(value)}"
                )
        elif isinstance(node, JSObject):
            self.create_lines.append(f"{name} = JSObject()")
            for key, value in node.items():
                self.fill_lines.append(
                    f"{name}.properties[{key!r}] = {self._render(value)}"
                )
        elif isinstance(node, JSArray):
            self.create_lines.append(f"{name} = JSArray()")
            for value in node:
                self.fill_lines.append(f"{name}.items.append({self._render(value)})")
        elif isinstance(node, dict):
            self.create_lines.append(f"{name} = {{}}")
            for key, value in node.items():
                if not isinstance(key, (str, int, float, bool)):
                    raise CodegenError(
                        f"dict keys must be scalars, got {type(key).__name__}"
                    )
                self.fill_lines.append(f"{name}[{key!r}] = {self._render(value)}")
        elif isinstance(node, list):
            self.create_lines.append(f"{name} = []")
            for value in node:
                self.fill_lines.append(f"{name}.append({self._render(value)})")
        else:  # pragma: no cover - guarded by _render
            raise CodegenError(f"unexpected heap node {type(node).__name__}")
        return name


def serialize_globals(
    globals_dict: Dict[str, Any],
    keep: Optional[set] = None,
    codegen: Optional[HeapCodegen] = None,
) -> Tuple[List[str], HeapCodegen]:
    """Serialize (a subset of) the global heap.

    Returns ``(root_lines, codegen)``: the ``G[...] = ...`` assignments and
    the codegen holding the heap-node definition lines.  The caller emits
    ``codegen.lines`` *before* the root lines — and may run further passes
    (e.g. DOM serialization) on the same codegen first, so shared heap
    nodes referenced from both places are defined exactly once.
    """
    codegen = codegen or HeapCodegen()
    root_lines = []
    for name in sorted(globals_dict):
        if keep is not None and name not in keep:
            continue
        expression = codegen.root_expression(globals_dict[name])
        root_lines.append(f"G[{name!r}] = {expression}")
    return root_lines, codegen


class _FingerprintCodegen(HeapCodegen):
    """The heap walk of a capture, with every array named by its digest."""

    def _array_literal(
        self, data: np.ndarray, encoded_bytes: Optional[int] = None
    ) -> str:
        return repr(array_digest(data))


def canonical_value_code(value: Any) -> str:
    """Deterministic standalone serialization of one value.

    Used for fingerprinting (change detection between the restored baseline
    and the post-execution state), never shipped.  Identity is
    canonicalized per-value, so the same structure always yields the same
    code.  Tensors and images appear as the digest of their float32 bytes
    next to their shape (as canvas pixels do in
    :func:`canonical_dom_entries`) — the bytes are a finer key than the
    ``"%.10e"`` text a capture writes, so a change in what would be shipped
    is never missed.
    """
    codegen = _FingerprintCodegen()
    expression = codegen.root_expression(value)
    return "\n".join(codegen.lines + [f"__root__ = {expression}"])


# -- DOM ----------------------------------------------------------------------

def dom_node_key(element: Element) -> str:
    """Stable identity for DOM diffing: the id, or a path-based key."""
    if element.element_id:
        return element.element_id
    parts: List[str] = []
    node: Optional[Element] = element
    while node is not None and node.parent is not None:
        siblings = [c for c in node.parent.children if isinstance(c, Element)]
        parts.append(f"{node.tag}[{siblings.index(node)}]")
        node = node.parent
    return "/".join(reversed(parts)) or "__body__"


def serialize_dom(
    document: Document,
    codegen: HeapCodegen,
    live: Optional[AbstractSet[str]] = frozenset(),
) -> List[str]:
    """Generate program lines that rebuild the DOM tree.

    A canvas's bitmap travels only if its element id is in ``live``, the
    names the remaining execution mentions (handlers read a canvas through
    ``ctx.document.get(id)``); ``live=None`` ships every bitmap.  The
    default, nothing live, ships none — serializing a DOM does not capture
    canvas content in real browsers either.
    """
    lines: List[str] = []
    names = itertools.count()
    for child in document.body.children:
        if isinstance(child, TextNode):
            lines.append(f"RT.append_text(RT.body(), {child.text!r})")
        else:
            _emit_element(child, "RT.body()", codegen, live, lines, names)
    return lines


def ships_bitmap(element: Element, live: Optional[AbstractSet[str]]) -> bool:
    """Whether a capture with live set ``live`` carries ``element``'s
    bitmap (see :func:`serialize_dom`)."""
    return element.image_data is not None and (
        live is None or element.element_id in live
    )


def _emit_element(
    element: Element,
    parent_ref: str,
    codegen: HeapCodegen,
    live: Optional[AbstractSet[str]],
    lines: List[str],
    names: Iterator[int],
) -> None:
    """:func:`serialize_dom`'s lines for one element and its subtree.

    A module function, not a closure in :func:`serialize_dom`: a recursive
    closure refers to itself through its own cell, and that cycle would
    keep the codegen and every text it rendered until the cyclic collector
    runs."""
    name = f"_e{next(names)}"
    lines.append(
        f"{name} = RT.create({element.tag!r}, {element.element_id!r}, "
        f"{element.attributes!r})"
    )
    lines.append(f"RT.append({parent_ref}, {name})")
    if ships_bitmap(element, live):
        # Serialized as-is: a plain TypedArray becomes decimal text (how
        # JS apps of the CaffeJS era shipped pixel arrays), an ImageData
        # becomes a compressed attachment (the data-URL optimization).
        lines.append(
            f"RT.draw({name}, {codegen.root_expression(element.image_data)})"
        )
    for child in element.children:
        if isinstance(child, TextNode):
            lines.append(f"RT.append_text({name}, {child.text!r})")
        else:
            _emit_element(child, name, codegen, live, lines, names)


def canonical_dom_entries(document: Document) -> Dict[str, str]:
    """Canonical per-element strings for DOM diffing.

    Canvas/image content is represented by a digest of the pixel bytes, so
    drawing a *different* image on the same canvas registers as a change.
    """
    entries: Dict[str, str] = {}
    for element in document.body.walk():
        if element is document.body:
            continue
        key = dom_node_key(element)
        parent_key = (
            dom_node_key(element.parent) if element.parent is not None else ""
        )
        texts = [
            child.text for child in element.children if isinstance(child, TextNode)
        ]
        attrs = sorted(element.attributes.items())
        if element.image_data is not None:
            image = array_digest(element.image_data.data)
        else:
            image = "none"
        entries[key] = (
            f"{element.tag}|parent={parent_key}|attrs={attrs!r}|"
            f"texts={texts!r}|image={image}"
        )
    return entries
