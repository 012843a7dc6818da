"""Caffe prototxt support: parse and emit deploy network definitions.

CaffeJS "loads a pre-trained NN model (trained by ... Caffe) onto the web
app" — concretely, a ``deploy.prototxt`` architecture file plus a binary
parameter blob.  This module implements the architecture half for real:

* :func:`parse_text` — a generic protobuf *text format* reader (nested
  messages, repeated fields, strings/numbers/booleans/enums, comments);
* :func:`network_from_prototxt` — interprets a deploy definition (input
  declaration, layer stack with ``bottom``/``top`` blob wiring, including
  Caffe's in-place idiom and GoogLeNet-style fork/Concat branches) into a
  built :class:`~repro.nn.network.Network`;
* :func:`network_to_prototxt` — emits a deploy definition from one of our
  networks, using the same conventions (in-place ReLU/Dropout, explicit
  Concat joins), so definitions round-trip.

Supported layer types: Input, Convolution (with ``group``), Pooling
(MAX/AVE), InnerProduct, ReLU, LRN, Dropout, Softmax, Concat and Eltwise.  An early exit is written the way Caffe's own GoogLeNet
writes its auxiliary classifiers ``loss1`` / ``loss2``: a side chain off the
trunk blob that joins nothing, whose first layer carries an ``exit_param``
(the exit's name and modeled accuracy); a multi-exit network's own accuracy
is the top-level ``final_accuracy`` field.  Anything the text cannot mean —
untyped values, dangling wiring, impossible shapes — is a
:class:`PrototxtError`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.nn.layers import (
    ConvLayer,
    DropoutLayer,
    ExitHead,
    FCLayer,
    InceptionModule,
    InputLayer,
    LRNLayer,
    PoolLayer,
    ReLULayer,
    ResidualBlock,
    SoftmaxLayer,
)
from repro.nn.layers.base import Layer, LayerShapeError
from repro.nn.network import Network
from repro.sim import SeededRng


class PrototxtError(ValueError):
    """Raised on malformed prototxt or unsupported constructs."""


# ---------------------------------------------------------------------------
# Generic protobuf text format
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    \s*(?:
        (?P<comment>\#[^\n]*) |
        (?P<string>"(?:[^"\\]|\\.)*") |
        (?P<punct>[{}:]) |
        (?P<atom>[^\s{}:"\#]+)
    )
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> List[str]:
    tokens = []
    position = 0
    while position < len(text):
        if text[position].isspace():
            position += 1
            continue
        match = _TOKEN_RE.match(text, position)
        if match is None or match.end() == position:
            remainder = text[position : position + 20]
            raise PrototxtError(f"cannot tokenize near {remainder!r}")
        position = match.end()
        if match.group("comment") is not None:
            continue
        for group in ("string", "punct", "atom"):
            value = match.group(group)
            if value is not None:
                tokens.append(value)
                break
    return tokens


def _atom_value(token: str) -> Any:
    if token.startswith('"'):
        return token[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    if token == "true":
        return True
    if token == "false":
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token  # an enum like MAX / AVE


class _Parser:
    def __init__(self, tokens: List[str]):
        self.tokens = tokens
        self.position = 0

    def _peek(self) -> Optional[str]:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def _next(self) -> str:
        token = self._peek()
        if token is None:
            raise PrototxtError("unexpected end of input")
        self.position += 1
        return token

    def parse_message(self, top_level: bool = False) -> Dict[str, List[Any]]:
        """Parse fields until '}' (or end of input at top level)."""
        fields: Dict[str, List[Any]] = {}
        while True:
            token = self._peek()
            if token is None:
                if top_level:
                    return fields
                raise PrototxtError("missing closing '}'")
            if token == "}":
                if top_level:
                    raise PrototxtError("unmatched '}'")
                self._next()
                return fields
            key = self._next()
            if key in ("{", ":"):
                raise PrototxtError(f"expected a field name, got {key!r}")
            separator = self._peek()
            if separator == ":":
                self._next()
                after = self._peek()
                if after == "{":
                    self._next()
                    value: Any = self.parse_message()
                else:
                    value = _atom_value(self._next())
            elif separator == "{":
                self._next()
                value = self.parse_message()
            else:
                raise PrototxtError(f"field {key!r} has no value")
            fields.setdefault(key, []).append(value)


def parse_text(text: str) -> Dict[str, List[Any]]:
    """Parse protobuf text format into {field: [values...]}."""
    return _Parser(_tokenize(text)).parse_message(top_level=True)


def _one(message: Dict[str, List[Any]], key: str, default: Any = None) -> Any:
    values = message.get(key)
    if not values:
        return default
    return values[0]


def _message(message: Dict[str, List[Any]], key: str) -> Dict[str, List[Any]]:
    """A sub-message field (empty when absent)."""
    value = _one(message, key, {})
    if not isinstance(value, dict):
        raise PrototxtError(f"{key} must be a message, got {value!r}")
    return value


def _int(message: Dict[str, List[Any]], key: str, default: Any) -> int:
    """An integer field: like protobuf, only an integer literal will do."""
    value = _one(message, key, default)
    if type(value) is not int:
        raise PrototxtError(f"{key} must be an integer, got {value!r}")
    return value


def _float(message: Dict[str, List[Any]], key: str, default: Any = None) -> float:
    value = _one(message, key, default)
    if type(value) not in (int, float):
        raise PrototxtError(f"{key} must be a number, got {value!r}")
    return float(value)


# ---------------------------------------------------------------------------
# prototxt -> Network
# ---------------------------------------------------------------------------

@dataclass
class _LayerDef:
    name: str
    type: str
    bottoms: List[str]
    tops: List[str]
    message: Dict[str, List[Any]]
    index: int
    consumed: bool = False

    @property
    def in_place(self) -> bool:
        return bool(self.bottoms) and self.bottoms == self.tops


def _layer_defs(root: Dict[str, List[Any]]) -> List[_LayerDef]:
    defs = []
    for index, message in enumerate(root.get("layer", [])):
        if not isinstance(message, dict):
            raise PrototxtError(f"layer {index} is not a message: {message!r}")
        definition = _LayerDef(
            name=_one(message, "name", f"layer{index}"),
            type=_one(message, "type", ""),
            bottoms=list(message.get("bottom", [])),
            tops=list(message.get("top", [])),
            message=message,
            index=index,
        )
        if not definition.tops:
            raise PrototxtError(f"layer {definition.name!r} has no top")
        defs.append(definition)
    return defs


def _input_declaration(root: Dict[str, List[Any]], defs: List[_LayerDef]):
    """Returns (input blob name, (C, H, W))."""
    # Style 1: top-level input / input_dim (classic deploy files).
    if "input" in root:
        dims = root.get("input_dim") or _message(root, "input_shape").get("dim", [])
        return root["input"][0], _input_dims(dims)
    # Style 2: an explicit Input layer.
    for definition in defs:
        if definition.type == "Input":
            definition.consumed = True
            shape = _message(_message(definition.message, "input_param"), "shape")
            return definition.tops[0], _input_dims(shape.get("dim", []))
    raise PrototxtError("no input declaration found")


def _input_dims(dims: List[Any]) -> Tuple[int, ...]:
    """(C, H, W) of a declared ``N x C x H x W`` input."""
    if len(dims) != 4 or any(type(dim) is not int for dim in dims):
        raise PrototxtError(f"input needs 4 integer dims, got {dims!r}")
    return tuple(dims[1:])


def _convert_simple(definition: _LayerDef) -> Layer:
    message = definition.message
    kind = definition.type
    if kind == "Convolution":
        param = _message(message, "convolution_param")
        return ConvLayer(
            definition.name,
            num_filters=_int(param, "num_output", 0),
            kernel=_int(param, "kernel_size", 1),
            stride=_int(param, "stride", 1),
            pad=_int(param, "pad", 0),
            groups=_int(param, "group", 1),
        )
    if kind == "Pooling":
        param = _message(message, "pooling_param")
        mode = "avg" if _one(param, "pool", "MAX") == "AVE" else "max"
        if _one(param, "global_pooling", False):
            # Resolved at build time by kernel = input spatial size; Caffe
            # does the same.  Represent as a sentinel handled in _GlobalPool.
            return _GlobalPoolPlaceholder(definition.name, mode)
        return PoolLayer(
            definition.name,
            kernel=_int(param, "kernel_size", 1),
            stride=_int(param, "stride", 1),
            pad=_int(param, "pad", 0),
            mode=mode,
        )
    if kind == "InnerProduct":
        param = _message(message, "inner_product_param")
        return FCLayer(definition.name, out_features=_int(param, "num_output", 0))
    if kind == "ReLU":
        return ReLULayer(definition.name)
    if kind == "Dropout":
        param = _message(message, "dropout_param")
        return DropoutLayer(definition.name, rate=_float(param, "dropout_ratio", 0.5))
    if kind == "LRN":
        param = _message(message, "lrn_param")
        return LRNLayer(
            definition.name,
            local_size=_int(param, "local_size", 5),
            alpha=_float(param, "alpha", 1e-4),
            beta=_float(param, "beta", 0.75),
            k=_float(param, "k", 1.0),
        )
    if kind == "Softmax":
        return SoftmaxLayer(definition.name)
    raise PrototxtError(f"unsupported layer type {kind!r} ({definition.name!r})")


class _GlobalPoolPlaceholder(PoolLayer):
    """Global pooling: kernel bound to the input's spatial size at build."""

    def __init__(self, name: str, mode: str):
        super().__init__(name, kernel=1, stride=1, mode=mode)
        self._global = True

    def build(self, input_shape, rng):
        self.kernel = int(input_shape[1])
        self.stride = 1
        return super().build(input_shape, rng)


#: layer types that join forked branches
_JOIN_TYPES = ("Concat", "Eltwise")


class _GraphConverter:
    """Blob-graph walker: Caffe layer list -> our spine representation."""

    def __init__(self, defs: List[_LayerDef]):
        self.defs = defs

    def _consumers(self, blob: str) -> List[_LayerDef]:
        return [
            definition
            for definition in self.defs
            if not definition.consumed and blob in definition.bottoms
        ]

    def spine_from(self, blob: str) -> List[Layer]:
        spine: List[Layer] = []
        while True:
            consumers = self._consumers(blob)
            if not consumers:
                return spine
            first = consumers[0]
            if first.in_place and "exit_param" not in first.message:
                # Caffe in-place idiom: execute in file order on the blob.
                first.consumed = True
                spine.append(_convert_simple(first))
                continue
            exits = [d for d in consumers if "exit_param" in d.message]
            if exits:
                # An exit's side chain leaves the trunk blob as it was.
                spine.append(self._exit(exits[0]))
                continue
            if len(consumers) == 1:
                definition = consumers[0]
                definition.consumed = True
                if definition.type in _JOIN_TYPES:
                    raise PrototxtError(
                        f"{definition.type} {definition.name!r} with a "
                        "single live input"
                    )
                spine.append(_convert_simple(definition))
                blob = definition.tops[0]
                continue
            # Fork: build each branch until the shared join layer.
            module, blob = self._fork(blob, consumers)
            spine.append(module)

    def _exit(self, first: _LayerDef) -> ExitHead:
        """The exit head whose side chain starts at ``first`` (the layer
        carrying the ``exit_param``) and runs until a blob nothing reads."""
        param = _message(first.message, "exit_param")
        name = _one(param, "name")
        if not isinstance(name, str):
            raise PrototxtError(f"exit_param of {first.name!r} names no exit")
        if first.in_place:
            raise PrototxtError(f"exit {name!r} would rewrite the trunk blob")
        head: List[Layer] = []
        definition: Optional[_LayerDef] = first
        while definition is not None:
            definition.consumed = True
            head.append(_convert_simple(definition))
            # In file order, so an in-place layer runs before its blob's
            # next reader; a second reader would be left unreachable.
            consumers = self._consumers(definition.tops[0])
            definition = consumers[0] if consumers else None
        return ExitHead(name, head, accuracy=_float(param, "accuracy"))

    def _fork(self, blob: str, heads: List[_LayerDef]) -> Tuple[Layer, str]:
        """Walk a fork's branches to their join (Concat or Eltwise)."""
        branches: List[List[Layer]] = []
        branch_tops: List[str] = []
        join: Optional[_LayerDef] = None

        def note_join(definition: _LayerDef) -> None:
            nonlocal join
            if join is None:
                join = definition
            elif join is not definition:
                raise PrototxtError(
                    f"branches join different layers: {join.name!r} vs "
                    f"{definition.name!r}"
                )

        for head in heads:
            if head.type in _JOIN_TYPES:
                # The join consumes the fork blob directly: an identity
                # branch (a ResNet shortcut).
                note_join(head)
                branches.append([])
                branch_tops.append(blob)
                continue
            branch: List[Layer] = []
            current = blob
            definition: Optional[_LayerDef] = head
            while definition is not None and definition.type not in _JOIN_TYPES:
                definition.consumed = True
                branch.append(_convert_simple(definition))
                if not definition.in_place:
                    current = definition.tops[0]
                next_consumers = [
                    d for d in self._consumers(current) if d is not definition
                ]
                if not next_consumers:
                    raise PrototxtError(
                        f"branch from {head.name!r} dead-ends at blob {current!r}"
                    )
                definition = next_consumers[0]
            assert definition is not None
            note_join(definition)
            branches.append(branch)
            branch_tops.append(current)
        assert join is not None
        # Order branches by the join's bottom order, not discovery order.
        order = {top: position for position, top in enumerate(join.bottoms)}
        paired = sorted(
            zip(branch_tops, branches), key=lambda pair: order.get(pair[0], 99)
        )
        branches = [branch for _, branch in paired]
        join.consumed = True
        module_name = (
            join.name.replace("/output", "").replace("/concat", "").replace("/sum", "")
        )
        if join.type == "Concat":
            return InceptionModule(module_name, branches), join.tops[0]
        # Eltwise: the longer branch is the body, the other the shortcut
        # (identity shortcuts are empty).
        if len(branches) != 2:
            raise PrototxtError(
                f"Eltwise {join.name!r} must join exactly 2 branches, "
                f"got {len(branches)}"
            )
        body, shortcut = branches
        if len(shortcut) > len(body):
            body, shortcut = shortcut, body
        if not body:
            raise PrototxtError(f"Eltwise {join.name!r} joins two identity branches")
        return ResidualBlock(module_name, body=body, shortcut=shortcut), join.tops[0]


def network_from_prototxt(text: str, seed: int = 0) -> Network:
    """Parse a deploy prototxt and build the network (random parameters)."""
    root = parse_text(text)
    defs = _layer_defs(root)
    input_blob, input_shape = _input_declaration(root, defs)
    name = _one(root, "name", "prototxt-net")
    try:
        layers: List[Layer] = [InputLayer(input_shape, name=input_blob)]
        layers.extend(_GraphConverter(defs).spine_from(input_blob))
        unused = [d.name for d in defs if not d.consumed]
        if unused:
            raise PrototxtError(f"unreachable layers in prototxt: {unused}")
        network = Network(str(name), layers)
        if "final_accuracy" in root:
            network.final_accuracy = _float(root, "final_accuracy")
        network.build(SeededRng(seed, f"prototxt/{name}"))
    except LayerShapeError as exc:
        raise PrototxtError(f"impossible network: {exc}") from exc
    return network


# ---------------------------------------------------------------------------
# Network -> prototxt
# ---------------------------------------------------------------------------

def _param_block(name: str, fields: List[tuple]) -> str:
    """A ``name { key: value ... }`` block; a field given a third element
    (its default) is written only when off it, the way Caffe files are."""
    lines = [
        f"    {key}: {value}" for key, value, *default in fields if [value] != default
    ]
    return "\n".join([f"  {name} {{", *lines, "  }"])


def _emit_param_block(layer: Layer) -> str:
    if isinstance(layer, ConvLayer):
        return _param_block("convolution_param", [
            ("num_output", layer.num_filters),
            ("kernel_size", layer.kernel),
            ("stride", layer.stride, 1),
            ("pad", layer.pad, 0),
            ("group", layer.groups, 1),
        ])
    if isinstance(layer, PoolLayer):
        return _param_block("pooling_param", [
            ("pool", "AVE" if layer.mode == "avg" else "MAX"),
            ("kernel_size", layer.kernel),
            ("stride", layer.stride, 1),
            ("pad", layer.pad, 0),
        ])
    if isinstance(layer, FCLayer):
        return _param_block("inner_product_param", [("num_output", layer.out_features)])
    if isinstance(layer, DropoutLayer):
        return _param_block("dropout_param", [("dropout_ratio", layer.rate)])
    if isinstance(layer, LRNLayer):
        return _param_block("lrn_param", [
            ("local_size", layer.local_size),
            ("alpha", layer.alpha),
            ("beta", layer.beta),
            ("k", layer.k, 1.0),
        ])
    return ""


_TYPE_NAMES = {
    "conv": "Convolution",
    "pool": "Pooling",
    "fc": "InnerProduct",
    "relu": "ReLU",
    "dropout": "Dropout",
    "lrn": "LRN",
    "softmax": "Softmax",
}

#: layer kinds emitted with Caffe's in-place idiom (top == bottom)
_IN_PLACE_KINDS = {"relu", "dropout"}


def _layer_block(
    name: str, type_name: str, bottoms: List[str], top: str, *params: str
) -> str:
    lines = ["layer {", f'  name: "{name}"', f'  type: "{type_name}"']
    lines.extend(f'  bottom: "{bottom}"' for bottom in bottoms)
    lines.append(f'  top: "{top}"')
    lines.extend(block for block in params if block)
    lines.append("}")
    return "\n".join(lines)


def network_to_prototxt(network: Network) -> str:
    """Emit a deploy prototxt for a built network."""
    if not network.built:
        raise PrototxtError("network must be built before emission")
    first = network.layers[0]
    if not isinstance(first, InputLayer):
        raise PrototxtError("network must start with an InputLayer")
    channels, height, width = first.declared_shape
    blocks = [f'name: "{network.name}"']
    if network.final_accuracy is not None:
        blocks.append(f"final_accuracy: {network.final_accuracy}")
    blocks += [
        f'input: "{first.name}"',
        f"input_dim: 1\ninput_dim: {channels}\ninput_dim: {height}\n"
        f"input_dim: {width}",
    ]
    blob = first.name

    def emit_chain(layers: List[Layer], blob: str, exit_param: str = "") -> str:
        # An exit chain's first layer never runs in place: the trunk blob
        # it reads must reach the next trunk layer unchanged.
        for layer in layers:
            type_name = _TYPE_NAMES.get(layer.kind)
            if type_name is None:
                raise PrototxtError(f"cannot emit layer kind {layer.kind!r}")
            in_place = layer.kind in _IN_PLACE_KINDS and not exit_param
            top = blob if in_place else layer.name
            blocks.append(_layer_block(
                layer.name, type_name, [blob], top, _emit_param_block(layer), exit_param
            ))
            blob, exit_param = top, ""
        return blob

    for layer in network.layers[1:]:
        if isinstance(layer, InceptionModule):
            branch_tops = [emit_chain(branch, blob) for branch in layer.branches]
            top = f"{layer.name}/output"
            blocks.append(_layer_block(layer.name, "Concat", branch_tops, top))
            blob = top
        elif isinstance(layer, ResidualBlock):
            body_top = emit_chain(layer.body, blob)
            shortcut_top = emit_chain(layer.shortcut, blob) if layer.shortcut else blob
            top = f"{layer.name}/sum"
            blocks.append(_layer_block(
                layer.name, "Eltwise", [body_top, shortcut_top], top,
                _param_block("eltwise_param", [("operation", "SUM")]),
            ))
            blob = top
        elif isinstance(layer, ExitHead):
            emit_chain(layer.head, blob, _param_block("exit_param", [
                ("name", f'"{layer.name}"'), ("accuracy", layer.accuracy),
            ]))
        else:
            blob = emit_chain([layer], blob)
    return "\n".join(blocks) + "\n"
