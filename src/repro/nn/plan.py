"""Graph-level inference optimizer: compiled DAG execution plans.

``compile_plan`` lowers a built :class:`~repro.nn.network.Network` into
an :class:`ExecutionPlan` — a DAG of steps run in lowering order plus
an interval-colored arena — via four rewrite families:

* **Identity elision** — inference-time ``Dropout`` and exit heads are
  elided outright: on the trunk an exit head is the identity, and a taken
  exit is a network of its own (``Network.at_exit``).
* **Operator fusion** — Conv+bias+ReLU and Dense+ReLU become single steps
  that apply the activation in place on the matmul output.  Fusion and
  elision apply *inside* composite branches too: a branch is lowered with
  the same sequence rewriter as the spine.
* **DAG lowering** — any composite layer exposing ``dag_branches()``
  (:class:`~repro.nn.layers.composite.InceptionModule`,
  :class:`~repro.nn.layers.composite.ResidualBlock`, and future
  composites) is inlined into explicit branch steps plus a join step
  (``concat`` for channel concatenation, ``eltwise`` for the residual
  add).  No opaque sub-plan nodes remain; every step is a first-class
  node of one flat graph.  The schedule is the lowering order: a step is
  emitted only after every step it reads, in the reference walk's order,
  so it is topological and deterministic by construction.
* **Arena buffer reuse** — a liveness analysis over the scheduled DAG
  computes each value's live interval; arena slots are assigned by greedy
  interval coloring (linear scan), so a slot is reused the moment its
  previous value dies and the slot count adapts to the graph's width
  (2 for a pure spine, more across live branches).  A step never writes a
  slot holding any live value — in particular never its own input —
  which :meth:`ExecutionPlan.forward_traced` verifies at runtime.
  Liveness and coloring are per sample: slots lie end to end (each
  starts at the prefix sum of the capacities before it) and a batch of N
  scales every start and size by N, so the same assignment is alias-free
  at every N.  A plan owns no buffer: each run borrows the process-wide
  ``arena`` scratch (:func:`repro.nn.tensor.scratch`, grown only), so
  every plan a process holds — the front and rear halves at each offload
  point — shares the working memory of one forward.

Equivalence contract: a plan's arithmetic is *bitwise identical* to the
reference layer walk (matmul, in-place bias add and in-place ``maximum``
produce the same bits as their out-of-place forms, max pooling is an exact
reduction, and the schedule replays the reference data order branch by
branch); ``tests/test_nn_plan.py`` asserts it across the zoo at every
offload point, ``tests/test_plan_batch.py`` on every row of batches of 1,
2, 3 and 8, and ``tests/test_plan_fuzz.py`` fuzzes randomly generated
branch-and-join graphs against the reference walk.  Plans respect
offload points: a plan compiles one whole network, and a
``SplitNetwork``'s front and rear are two networks, so their plans are
independent and fusion never crosses the split — even when the split
falls between branch-and-join stages.

There is one way to run a step: on an ``(N, ...)`` tensor, into an arena
view.  ``plan.forward(x)`` is a batch of one; ``plan.forward_batch(xs)``
runs N inputs through the same stacked im2col/broadcast-matmul per step —
the edge server uses it to batch concurrent partial-inference sessions.
Every step computes each row at the shapes a batch of one uses (the conv
matmul broadcasts one ``(F, K) @ (K, P)`` product per row, the FC step
one ``(1, D) @ (D, O)``), so a batch is N forwards bit for bit.

An inference is computed once, however it is split.  Every plan carries
a *chain*: one content fingerprint per spine layer it covers (the layer's
``describe()`` and the sha1 of its parameters; ``InputLayer`` contributes
nothing), so a network's chain is its front half's chain followed by its
rear half's.  ``forward`` looks its result up in one process-wide LRU
keyed by ``(chain, sha1 of the input's float32 bits)`` — at most
:data:`_MEMO_ENTRIES` results of at most :data:`_MEMO_MAX_VALUES` values,
class vectors — so separately built models with the same parameters
share entries and the memo pins no network.  Two split rules extend it:

* *A front half is answered by the forward that ran through its split
  point.*  Compiling a plan registers its chain (at most
  :data:`_CHAIN_ENTRIES`), and an executed forward keeps, under
  ``(front chain, input bits)``, a copy of every top-level spine
  boundary whose front chain is registered and has not yet looked that
  input up (one of the last :data:`_MEMO_ENTRIES` keys asked for; a
  front that asked was answered or ran itself) — in an LRU of its own of at
  most :data:`_BOUNDARY_BYTES`, so that a few feature maps never flush
  hundreds of class vectors.  A front half's forward then finds its
  result under its own key.  A conv's or fc's output before its fused
  ReLU and an elided layer's repeat are no step's output, so such a front
  executes.
* *A rear half is answered by the whole network's result.*  A forward
  that executes, or is answered by a captured boundary, links the sha1 of
  its output to its own key (at most :data:`_LINK_ENTRIES` links), and a
  lookup that misses follows the link of its input, answering a rear
  half from the key the front and rear chains make together — the whole
  network's result, when the image was classified before.

``forward_batch`` is N forwards here too: it makes the same lookup for
each row, executes only the rows that miss, as one smaller batch, and
captures, remembers and links them as ``forward`` would; only
``forward_traced`` always executes, and it stores nothing.  It is sound
because a plan's output is a pure function of its input bits and its
frozen parameters and split halves compose bitwise
(``tests/test_nn_plan.py``, ``tests/test_plan_fuzz.py``): compilation
freezes every parameter array a plan captures, the digests a chain reads
freeze what they hash, and a write needs
``Layer.invalidate_param_cache``, which installs copies, so the next
chain hashes the written bits.

Steps and layers call one kernel set directly: numpy's ``matmul`` /
``maximum`` / ``concatenate`` and the im2col, pooling, LRN and eltwise
kernels of :mod:`repro.nn.tensor`.

Plans are the only runtime execution path: every ``Network.forward*``
call runs one, obtained from :func:`compile_plan` (memoized per network by
``Network.plan_for``).  The layer-by-layer walk is
``Network.forward_reference`` — the oracle the equivalence tests and the
plan-vs-walk bench claims compare against, with no runtime caller.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import tensor
from repro.nn.layers.activation import DropoutLayer, ReLULayer
from repro.nn.layers.base import Layer
from repro.nn.layers.conv import ConvLayer
from repro.nn.layers.dense import FCLayer
from repro.nn.layers.exits import ExitHead
from repro.nn.layers.io import InputLayer
from repro.nn.layers.normalization import LRNLayer
from repro.nn.layers.pool import PoolLayer
from repro.nn.model import Model


#: largest result (in float32 values) an executed ``forward`` memoizes:
#: GoogLeNet's 1000-class vector is the largest classifier output in the zoo
_MEMO_MAX_VALUES = 1024
#: memoized results held by the process, least recently used evicted
#: first: at most 2 MiB of results.  The fleet's oracle-then-edge reuse
#: needs up to 436 (docs/PERFORMANCE.md, "One memo for the process")
_MEMO_ENTRIES = 512
#: bytes of captured boundaries held by the process, least recently used
#: evicted first: the smallest power of two at which ``paper-googlenet``
#: answers all three Fig. 8 fronts (docs/PERFORMANCE.md, "A front half is
#: answered by the forward that ran through it")
_BOUNDARY_BYTES = 2 << 20
#: compiled chains whose boundaries executed forwards capture, least
#: recently compiled forgotten first
_CHAIN_ENTRIES = 64
#: output-to-key links held by the process, oldest evicted first: every
#: rear half the ledger runs follows the link its front made last
_LINK_ENTRIES = 1

#: ``(chain, sha1 of the input bits)`` -> result (frozen, handed out as
#: copies)
_RESULTS: "collections.OrderedDict[Tuple[tuple, bytes], np.ndarray]" = (
    collections.OrderedDict()
)
#: ``(front chain, sha1 of the input bits)`` -> the spine boundary an
#: executed forward of a longer network computed there (frozen)
_BOUNDARIES: "collections.OrderedDict[Tuple[tuple, bytes], np.ndarray]" = (
    collections.OrderedDict()
)
#: bytes of the arrays ``_BOUNDARIES`` holds
_boundary_bytes = 0
#: chains of the compiled plans, by content (values unused)
_CHAINS: "collections.OrderedDict[tuple, None]" = collections.OrderedDict()
#: the ``(chain, input bits)`` keys forwards looked up, most recent last
#: (values unused): a front that asked for an input was answered or ran
#: itself, so a boundary captured for it afterwards would be kept for
#: nobody
_ASKED: "collections.OrderedDict[Tuple[tuple, bytes], None]" = (
    collections.OrderedDict()
)
#: sha1 of a forward's output -> that forward's result key
_LINKS: "collections.OrderedDict[bytes, Tuple[tuple, bytes]]" = (
    collections.OrderedDict()
)


def _remember(table: collections.OrderedDict, key, value, entries: int) -> None:
    """Store ``key`` as the most recent entry, evicting the least recent
    one past ``entries``."""
    table[key] = value
    table.move_to_end(key)
    if len(table) > entries:
        table.popitem(last=False)


def _capture(key: Tuple[tuple, bytes], value: np.ndarray) -> None:
    """Store a frozen copy of a boundary ``value`` as the most recent one.
    The least recent are evicted first, until the copy fits in
    :data:`_BOUNDARY_BYTES`; a value larger than the budget is not
    stored."""
    global _boundary_bytes
    if value.nbytes > _BOUNDARY_BYTES:
        return
    replaced = _BOUNDARIES.pop(key, None)
    if replaced is not None:
        _boundary_bytes -= replaced.nbytes
    while _boundary_bytes + value.nbytes > _BOUNDARY_BYTES:
        _boundary_bytes -= _BOUNDARIES.popitem(last=False)[1].nbytes
    _BOUNDARIES[key] = _frozen(value)
    _boundary_bytes += value.nbytes


def _recall(key: Tuple[tuple, bytes]) -> Optional[np.ndarray]:
    """The result or boundary stored under ``key``, now the most recent,
    or None."""
    for table in (_RESULTS, _BOUNDARIES):
        stored = table.get(key)
        if stored is not None:
            table.move_to_end(key)
            return stored
    return None


def _frozen(value: np.ndarray) -> np.ndarray:
    """A read-only copy of ``value``, owned by the memo."""
    copy = value.copy()
    copy.flags.writeable = False
    return copy


def _bits(value: np.ndarray) -> bytes:
    """SHA-1 of a float32 array's bits in C order."""
    return hashlib.sha1(np.ascontiguousarray(value)).digest()


def _layer_print(layer: Layer) -> bytes:
    """Content fingerprint of one spine layer: its description and the
    sha1 of its parameters.  Remembered on the layer while its parameter
    file (memoised by array identity) and its input shape stand."""
    parameter_file = Model._parameter_file(layer)
    memo = getattr(layer, "_print_memo", None)
    if (
        memo is None
        or memo[0] is not parameter_file
        or memo[1] != layer.input_shape
    ):
        digest = hashlib.sha1(
            json.dumps(layer.describe(), sort_keys=True).encode("utf-8")
        )
        if parameter_file is not None:
            digest.update(parameter_file[2].encode("ascii"))
        memo = layer._print_memo = (
            parameter_file, layer.input_shape, digest.digest()
        )
    return memo[2]


@dataclass
class PlanStats:
    """Compile-time accounting for one plan."""

    steps: int = 0
    elided: int = 0  # inference-time Dropout layers removed
    fused: int = 0  # ReLU activations fused into conv/fc steps
    fallbacks: int = 0  # steps that call the reference layer forward
    branches: int = 0  # composite branch sequences inlined into the DAG
    joins: int = 0  # concat/eltwise join steps
    arena_slots: int = 0  # interval-colored arena slots
    arena_bytes: int = 0  # arena bytes one sample needs (all slots)
    reuse_bytes_per_forward: int = 0  # arena bytes written per forward


class PlanStep:
    """One compiled DAG node: reads its input values, produces one value.

    ``inputs`` lists the value ids this step reads (value 0 is the plan's
    input; step ``i`` in schedule order defines value ``i + 1``).  Every
    value is an ``(N,) + shape`` batch — a single image is N = 1.
    ``arena`` steps write into the preallocated ``(N,) + out_shape`` view
    they are handed (never aliasing any live value); non-arena steps are
    handed ``None`` and allocate like the reference path.
    ``layers`` lists the ``(spine_index, layer)`` pairs of the source
    layers the step covers.  ``front`` is the chain of the front half that
    ends with this step's output, for a top-level spine boundary short of
    the plan's result (None for every other step).
    """

    kind = "step"
    arena = False

    def __init__(
        self,
        name: str,
        layers: Sequence[Tuple[int, Layer]],
        out_shape: Tuple[int, ...],
    ):
        self.name = name
        self.layers = list(layers)
        self.out_shape = tuple(out_shape)
        self.out_elements = 1
        for dim in self.out_shape:
            self.out_elements *= dim
        #: value ids read by this step; assigned during lowering
        self.inputs: List[int] = []
        #: value id defined by this step; assigned during scheduling
        self.output = -1
        #: arena slot index (interval coloring), None for non-arena steps
        self.slot: Optional[int] = None
        #: chain of the front half this spine boundary ends, else None
        self.front: Optional[tuple] = None

    def run(
        self, inputs: Sequence[np.ndarray], out: Optional[np.ndarray]
    ) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, out={self.out_shape})"


class ConvStep(PlanStep):
    """im2col + matmul with captured operands and optional fused ReLU."""

    kind = "conv"
    arena = True

    def __init__(
        self,
        name: str,
        layers: Sequence[Tuple[int, Layer]],
        layer: ConvLayer,
        operands: Sequence[Tuple[np.ndarray, np.ndarray]],
        relu: bool,
    ):
        super().__init__(name, layers, layer.out_shape)
        self.layer = layer
        self.operands = list(operands)
        self.relu = relu

    def run(
        self, inputs: Sequence[np.ndarray], out: Optional[np.ndarray]
    ) -> np.ndarray:
        (xs,) = inputs
        layer = self.layer
        count = xs.shape[0]
        filters = self.out_shape[0]
        out3d = out.reshape(count, filters, -1)
        per_in = xs.shape[1] // layer.groups
        per_out = filters // layer.groups
        buffer = layer.cols_scratch(count, per_in)
        for group, (matrix, bias) in enumerate(self.operands):
            cols = tensor.im2col(
                xs[:, group * per_in : (group + 1) * per_in],
                layer.kernel, layer.stride, layer.pad, out=buffer,
            )
            target = out3d[:, group * per_out : (group + 1) * per_out]
            np.matmul(matrix, cols, out=target)  # (N, F/g, P) via broadcast
            target += bias
        if self.relu:
            np.maximum(out3d, 0.0, out=out3d)
        return out


class FCStep(PlanStep):
    """Dense matmul with optional fused ReLU."""

    kind = "fc"
    arena = True

    def __init__(
        self,
        name: str,
        layers: Sequence[Tuple[int, Layer]],
        layer: FCLayer,
        relu: bool,
    ):
        super().__init__(name, layers, layer.out_shape)
        self.layer = layer
        self.weight = layer.params["weight"]
        self.bias = layer.params["bias"]
        self.relu = relu

    def run(
        self, inputs: Sequence[np.ndarray], out: Optional[np.ndarray]
    ) -> np.ndarray:
        xs = inputs[0]
        count = xs.shape[0]
        # One (1, D) product per row, the shape a single forward multiplies
        # at: one (N, D) GEMM would reassociate the rows' sums.
        np.matmul(
            xs.reshape(count, 1, -1), self.weight.T,
            out=out.reshape(count, 1, -1),
        )
        out += self.bias
        if self.relu:
            np.maximum(out, 0.0, out=out)
        return out


class PoolStep(PlanStep):
    """Pooling into an arena buffer (strided in-place maxima for max)."""

    kind = "pool"
    arena = True

    def __init__(
        self,
        name: str,
        layers: Sequence[Tuple[int, Layer]],
        layer: PoolLayer,
    ):
        super().__init__(name, layers, layer.out_shape)
        self.layer = layer

    def run(
        self, inputs: Sequence[np.ndarray], out: Optional[np.ndarray]
    ) -> np.ndarray:
        (xs,) = inputs
        # Channels pool independently: fold the batch into them.
        tensor.pool(self.layer, xs.reshape((-1,) + xs.shape[2:]), out)
        return out


class ReLUStep(PlanStep):
    """Standalone ReLU (not adjacent to a fusable conv/fc) into the arena."""

    kind = "relu"
    arena = True

    def __init__(
        self,
        name: str,
        layers: Sequence[Tuple[int, Layer]],
        layer: ReLULayer,
    ):
        super().__init__(name, layers, layer.out_shape)
        self.layer = layer

    def run(
        self, inputs: Sequence[np.ndarray], out: Optional[np.ndarray]
    ) -> np.ndarray:
        return np.maximum(inputs[0], 0.0, out=out)


class FallbackStep(PlanStep):
    """Reference execution for kinds without a rewritten kernel (softmax,
    …) — calls the layer's own ``forward`` once per sample, so the step is
    bitwise-trivially equivalent."""

    def __init__(self, name: str, layers: Sequence[Tuple[int, Layer]],
                 layer: Layer):
        super().__init__(name, layers, layer.out_shape)
        self.layer = layer
        self.kind = layer.kind

    def run(
        self, inputs: Sequence[np.ndarray], out: Optional[np.ndarray]
    ) -> np.ndarray:
        return np.stack([self.layer.forward(x) for x in inputs[0]])


class LRNStep(FallbackStep):
    """LRN through its batched kernel.

    The batched math is the per-sample prefix-sum formulation applied
    along axis 1, so every sample sees the identical accumulation order —
    bitwise equal to N reference forwards.
    """

    def run(
        self, inputs: Sequence[np.ndarray], out: Optional[np.ndarray]
    ) -> np.ndarray:
        return tensor.lrn_batch(self.layer, inputs[0])


class ConcatStep(PlanStep):
    """Join node: branch outputs concatenated channel-wise into the arena.

    Reads one value per branch (in branch order — the same order the
    reference composite concatenates in, so the copy is bitwise equal).
    """

    kind = "concat"
    arena = True

    def run(
        self, inputs: Sequence[np.ndarray], out: Optional[np.ndarray]
    ) -> np.ndarray:
        return np.concatenate(inputs, axis=1, out=out)


class EltwiseAddStep(PlanStep):
    """Join node: elementwise sum of branch outputs (the residual add).

    Accumulates left to right, matching ``body + shortcut`` on the
    reference path bit for bit.
    """

    kind = "eltwise"
    arena = True

    def run(
        self, inputs: Sequence[np.ndarray], out: Optional[np.ndarray]
    ) -> np.ndarray:
        return tensor.eltwise_sum(inputs, out)


class ExecutionPlan:
    """A compiled network: a scheduled step DAG + interval-colored arena.

    Arena discipline: liveness analysis assigns each arena step a slot no
    *live* value occupies — in particular a step never writes the slot any
    of its inputs live in (asserted by the aliasing test via
    :meth:`forward_traced`).  The plan keeps only per-sample slot offsets;
    the arena is the process-wide ``arena`` scratch buffer, held for one
    :meth:`_execute` (no step runs a plan, so runs never nest).  The final
    value is copied out of the arena before being returned, so callers own
    their result like on the reference path.

    ``chain`` is the plan's content fingerprint (one print per covered
    spine layer), the first half of its result keys; compiling registers
    it, so an executed forward of a longer network captures the value this
    plan computes; ``forwards`` counts
    :meth:`forward` calls and ``memo_hits`` the answered ones;
    ``batch_forwards`` counts :meth:`forward_batch` calls, ``batch_sizes``
    their rows and ``batch_memo_hits`` the answered rows;
    ``arena_bytes_reused`` counts the executed samples of both.
    """

    def __init__(
        self,
        name: str,
        steps: Sequence[PlanStep],
        input_shape: Tuple[int, ...],
        output_shape: Tuple[int, ...],
        stats: PlanStats,
        witnesses: Sequence[Tuple[Layer, str, np.ndarray]],
        chain: Tuple[bytes, ...],
    ):
        self.name = name
        self.steps = list(steps)
        self.input_shape = tuple(input_shape)
        self.output_shape = tuple(output_shape)
        self.stats = stats
        self._witnesses = list(witnesses)
        self.chain = tuple(chain)
        if self.chain:
            _remember(_CHAINS, self.chain, None, _CHAIN_ENTRIES)
        #: whether executed results are memoized (small outputs only)
        self._admits = np.prod(self.output_shape) <= _MEMO_MAX_VALUES
        #: whether forwards look the memo up and link their output (an
        #: identity plan, with no chain, computes nothing worth linking)
        self._links = bool(self.chain)
        self.memo_hits = 0
        self.forwards = 0
        self.batch_forwards = 0
        #: ``forward_batch`` rows answered from the memo
        self.batch_memo_hits = 0
        #: batch size -> ``forward_batch`` calls of that size
        self.batch_sizes = collections.Counter()
        self.arena_bytes_reused = 0
        self._analyze_liveness()
        capacities = self._color_arena()
        #: per-sample start of each slot in the arena (elements); the last
        #: entry is the per-sample arena size
        self._offsets = list(itertools.accumulate(capacities, initial=0))
        stats.arena_slots = len(capacities)
        stats.arena_bytes = 4 * self._offsets[-1]
        stats.reuse_bytes_per_forward = sum(
            step.out_elements * 4 for step in self.steps if step.arena
        )

    # -- liveness ---------------------------------------------------------------
    def _analyze_liveness(self) -> None:
        """Live interval of every value: defined at ``output - 1``, dead
        after its last reading step (the plan result stays live to the
        end)."""
        last_use = [0] * (len(self.steps) + 1)
        for position, step in enumerate(self.steps):
            for value_id in step.inputs:
                last_use[value_id] = position
        if self.steps:
            last_use[self.steps[-1].output] = len(self.steps)
        self._last_use = last_use

    # -- arena ----------------------------------------------------------------
    def _color_arena(self) -> List[int]:
        """Greedy interval coloring (linear scan) over the schedule.

        A slot freed by a dead value is reused for the best-fitting later
        value (smallest sufficient capacity, else grow the largest free
        slot); values live at the same step never share a slot, so no
        output can clobber a value still needed — including the step's own
        inputs, which are live while it writes.  Returns the slot
        capacities (in elements); the assignment itself lands on
        ``step.slot``.
        """
        capacities: List[int] = []
        free: List[int] = []
        active: Dict[int, int] = {}  # value id -> slot
        for position, step in enumerate(self.steps):
            for value_id, slot in list(active.items()):
                if self._last_use[value_id] < position:
                    free.append(slot)
                    del active[value_id]
            if not step.arena:
                continue
            need = step.out_elements
            if free:
                fitting = [s for s in free if capacities[s] >= need]
                if fitting:
                    slot = min(fitting, key=lambda s: (capacities[s], s))
                else:
                    slot = max(free, key=lambda s: (capacities[s], s))
                    capacities[slot] = need
                free.remove(slot)
            else:
                slot = len(capacities)
                capacities.append(need)
            step.slot = slot
            active[step.output] = slot
        return capacities

    # -- validity --------------------------------------------------------------
    def is_valid(self) -> bool:
        """True while every captured parameter array is still installed
        and frozen.

        Loaders replace ``layer.params[...]`` wholesale and
        ``Layer.invalidate_param_cache`` installs copies; an identity
        mismatch means the captured operands and the chain are stale and
        the plan must be recompiled (mirrors the conv operand cache's
        rule).  An unfrozen array may change in place, unseen by both.
        """
        return all(
            layer.params.get(key) is array and not array.flags.writeable
            for layer, key, array in self._witnesses
        )

    # -- execution -------------------------------------------------------------
    def _batch_of(self, xs) -> np.ndarray:
        """``xs`` as an ``(N,) + input_shape`` array; one sample is N = 1."""
        value = np.asarray(xs, dtype=np.float32)
        if value.ndim == len(self.input_shape):
            value = value[None]
        if tuple(value.shape[1:]) != self.input_shape:
            raise ValueError(
                f"plan {self.name!r} expects batch shape (N,) + "
                f"{self.input_shape}, got {tuple(value.shape)}"
            )
        return value

    def _execute(
        self,
        value: np.ndarray,
        trace: Optional[List[Dict[str, object]]] = None,
        row_bits: Optional[Sequence[bytes]] = None,
    ) -> np.ndarray:
        """Run the schedule on an ``(N, ...)`` batch — the one loop behind
        every entry point.  Callers own the result like on the reference
        path: a final value that lives in the arena is copied out.  Given the
        sha1 of each row's bits, ``row_bits``, every spine boundary whose
        front chain is registered is captured as it is computed, row by
        row, under ``(front chain, row input bits)``."""
        count = value.shape[0]
        arena = tensor.scratch("arena", (count * self._offsets[-1],))
        values: List[Optional[np.ndarray]] = [value] + [None] * len(self.steps)
        for position, step in enumerate(self.steps):
            inputs = [values[value_id] for value_id in step.inputs]
            out = None
            if step.arena:
                start = count * self._offsets[step.slot]
                out = arena[start : start + count * step.out_elements].reshape(
                    (count,) + step.out_shape
                )
            if trace is not None:
                trace.append(self._trace_entry(position, inputs, out, values))
            values[step.output] = step.run(inputs, out)
            if row_bits is not None and step.front in _CHAINS:
                for bits, row in zip(row_bits, values[step.output]):
                    if (step.front, bits) not in _ASKED:
                        _capture((step.front, bits), row)
        result = values[-1]  # step ``i`` defines value ``i + 1``
        if np.shares_memory(result, arena):
            result = result.copy()
        return result

    def _trace_entry(
        self,
        position: int,
        inputs: Sequence[np.ndarray],
        out: Optional[np.ndarray],
        values: Sequence[Optional[np.ndarray]],
    ) -> Dict[str, object]:
        """Whether ``out``, about to be written by the step at ``position``,
        overlaps one of its inputs or any other value still live."""
        step = self.steps[position]
        aliases = out is not None and any(
            np.shares_memory(argument, out) for argument in inputs
        )
        clobbers = out is not None and any(
            np.shares_memory(other, out)
            for value_id, other in enumerate(values)
            if other is not None
            and self._last_use[value_id] >= position
            and value_id not in step.inputs
        )
        return {
            "step": step.name,
            "kind": step.kind,
            "arena": step.arena,
            "slot": step.slot,
            "output_aliases_input": aliases,
            "output_clobbers_live": clobbers,
        }

    def _recall_row(self, key: Tuple[tuple, bytes]) -> Optional[np.ndarray]:
        """The memoized result of one input, keyed ``(chain, input bits)``:
        stored under ``key`` — by this plan's own execution or captured at
        a spine boundary of a longer network — or under the key the input's
        link and this chain make together (then stored under ``key`` as
        well, when the plan's results are admitted).  None on a miss."""
        _remember(_ASKED, key, None, _MEMO_ENTRIES)
        stored = _recall(key)
        if stored is None and key[1] in _LINKS:
            front_chain, front_input = _LINKS[key[1]]
            stored = _recall((front_chain + self.chain, front_input))
            if stored is not None and self._admits:
                _remember(_RESULTS, key, stored, _MEMO_ENTRIES)
        return stored

    def _keep(self, key: Tuple[tuple, bytes], result: np.ndarray) -> None:
        """Remember an executed input's result under ``key`` (admitted
        plans)."""
        if self._admits:
            _remember(_RESULTS, key, _frozen(result), _MEMO_ENTRIES)

    def _link(
        self, key: Tuple[tuple, bytes], result: np.ndarray, executed: bool
    ) -> None:
        """Link the bits of a result executed, or answered by a captured
        boundary, to ``key``: a rear half fed that result looks its answer
        up there.  Any other answer leaves the link as it was."""
        if self._links and (executed or key in _BOUNDARIES):
            _remember(_LINKS, _bits(result), key, _LINK_ENTRIES)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """One sample through the compiled steps — a batch of one; caller
        owns the result, from the process-wide memo when these input bits
        met this chain before — directly, at a longer network's spine
        boundary or through a front half's link."""
        value = np.asarray(x, dtype=np.float32)
        if tuple(value.shape) != self.input_shape:
            raise ValueError(
                f"plan {self.name!r} expects input shape {self.input_shape}, "
                f"got {tuple(value.shape)}"
            )
        self.forwards += 1
        if not (self._admits or self._links):
            self.arena_bytes_reused += self.stats.reuse_bytes_per_forward
            return self._execute(value[None])[0]
        key = (self.chain, _bits(value))
        stored = self._recall_row(key)
        if stored is not None:
            self.memo_hits += 1
            result = stored.copy()
        else:
            result = self._execute(value[None], row_bits=[key[1]])[0]
            self._keep(key, result)
            self.arena_bytes_reused += self.stats.reuse_bytes_per_forward
        self._link(key, result, executed=stored is None)
        return result

    def forward_traced(
        self, x: np.ndarray
    ) -> Tuple[np.ndarray, List[Dict[str, object]]]:
        """Like :meth:`forward` (or, given an ``(N, ...)`` batch,
        :meth:`forward_batch`) but records, per step, whether the step's
        output buffer aliases any of its inputs (``output_aliases_input``)
        or any *other* value still live (``output_clobbers_live``) — the
        arena-safety invariants the tests assert (both must always be
        False, at every batch size)."""
        trace: List[Dict[str, object]] = []
        result = self._execute(self._batch_of(x), trace)
        if np.ndim(x) == len(self.input_shape):
            result = result[0]
        return result, trace

    def forward_batch(self, xs) -> np.ndarray:
        """N forwards, run as one batch: one stacked kernel per step.

        ``xs`` is a sequence of per-sample arrays (or an ``(N, ...)``
        array); returns the stacked ``(N, ...)`` outputs, which the caller
        owns.  Row ``i`` is the bits ``forward(xs[i])`` returns — every
        step computes each row at the shapes a batch of one uses — so a
        row is answered from the memo exactly when that forward would be:
        the rows are looked up in order, a row repeating an earlier missed
        row of the batch is a hit on it (when the plan's results are
        memoized), and the rows that miss execute together as one smaller
        batch, capturing their boundaries as they are computed; then the
        executed rows' results are remembered, and every row linked, in
        row order.  A batch looks
        up all its rows before it stores any, so it differs from N forwards
        only if the memo evicts inside it.  ``batch_memo_hits`` counts the
        answered rows.
        """
        value = self._batch_of(xs)
        count = value.shape[0]
        self.batch_forwards += 1
        self.batch_sizes[count] += 1
        if not (self._admits or self._links):
            self.arena_bytes_reused += count * self.stats.reuse_bytes_per_forward
            return self._execute(value)
        keys = [(self.chain, _bits(row)) for row in value]
        stored = [self._recall_row(key) for key in keys]
        runs: List[int] = []  # the rows that execute, in order
        place: Dict[Tuple[tuple, bytes], int] = {}  # key -> its run
        for row, key in enumerate(keys):
            if stored[row] is None and not (self._admits and key in place):
                place[key] = len(runs)
                runs.append(row)
        self.batch_memo_hits += count - len(runs)
        self.arena_bytes_reused += len(runs) * self.stats.reuse_bytes_per_forward
        row_bits = [keys[row][1] for row in runs]
        if len(runs) == count:
            result = self._execute(value, row_bits=row_bits)
        else:
            executed = (
                self._execute(value[runs], row_bits=row_bits) if runs else None
            )
            result = np.stack([
                executed[place[key]] if answer is None else answer
                for key, answer in zip(keys, stored)
            ])
        for row in runs:
            self._keep(keys[row], result[row])
        ran = set(runs)
        for row, key in enumerate(keys):
            self._link(key, result[row], executed=row in ran)
        return result

    # -- reporting -------------------------------------------------------------
    def describe_text(self) -> str:
        """Human-readable one-plan summary (the CLI's ``repro metrics``)."""
        stats = self.stats
        return (
            f"plan {self.name}: {stats.steps} steps "
            f"({stats.fused} fused, {stats.elided} elided, {stats.fallbacks} fallback, "
            f"{stats.branches} branches, {stats.joins} joins), "
            f"arena {stats.arena_bytes / 1024:.0f} KiB in "
            f"{stats.arena_slots} slots "
            f"(reuses {stats.reuse_bytes_per_forward / 1024:.0f} KiB/forward)"
        )

    def record_metrics(self, registry) -> None:
        """Export compile/runtime counters into a metrics registry.

        Called explicitly (``repro metrics``) rather than auto-announced:
        plans compile lazily once per process, so announcing at compile
        time would make merged telemetry depend on worker topology.
        """
        labels = {"plan": self.name}
        stats = self.stats
        registry.counter(
            "plan_layers_elided_total",
            help="inference-time identity layers removed from the plan",
            **labels,
        ).inc(stats.elided)
        registry.counter(
            "plan_steps_fused_total",
            help="activations fused into the preceding conv/fc step",
            **labels,
        ).inc(stats.fused)
        registry.counter(
            "plan_branches_total",
            help="composite branch sequences inlined into the step DAG",
            **labels,
        ).inc(stats.branches)
        registry.counter(
            "plan_joins_total",
            help="concat/eltwise join steps in the compiled DAG",
            **labels,
        ).inc(stats.joins)
        registry.gauge(
            "plan_arena_slots",
            help="interval-colored arena buffers", **labels,
        ).set(stats.arena_slots)
        registry.gauge(
            "plan_arena_bytes",
            help="bytes of preallocated arena buffers", **labels,
        ).set(stats.arena_bytes)
        registry.counter(
            "plan_forwards_total",
            help="single-sample forward calls, memo hits included", **labels,
        ).inc(self.forwards)
        registry.counter(
            "plan_memo_hits_total",
            help="single-sample forward calls answered from the result memo",
            **labels,
        ).inc(self.memo_hits)
        registry.counter(
            "plan_arena_bytes_reused_total",
            help="bytes written into reused arena buffers instead of fresh "
            "allocations",
            **labels,
        ).inc(self.arena_bytes_reused)
        batch_histogram = registry.histogram(
            "plan_batch_size",
            help="batch sizes seen by forward_batch", **labels,
        )
        for size in self.batch_sizes.elements():
            batch_histogram.observe(size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExecutionPlan({self.name!r}, {len(self.steps)} steps)"


# -- compilation ----------------------------------------------------------------

class _GraphBuilder:
    """Accumulates lowered steps and hands out value ids.

    Ids follow definition order (step ``i`` defines value ``i + 1``, value
    0 is the plan input), and a step is added only after every step it
    reads, so the lowering order is itself a topological schedule: the
    order of the reference walk, independent branch steps included.
    """

    def __init__(self) -> None:
        self.steps: List[PlanStep] = []

    def add(self, step: PlanStep, inputs: Sequence[int]) -> int:
        step.inputs = list(inputs)
        self.steps.append(step)
        step.output = len(self.steps)
        return step.output


def _lower_sequence(
    graph: _GraphBuilder,
    indexed: Sequence[Tuple[int, Layer]],
    input_id: int,
    *,
    stats: PlanStats,
    witnesses: List[Tuple[Layer, str, np.ndarray]],
    prefix: str = "",
    fronts: Optional[Sequence[Optional[tuple]]] = None,
) -> int:
    """Lower an ordered layer sequence into graph nodes; returns the value
    id of the sequence's output (``input_id`` itself if every layer was
    elided).  Shared by the spine and composite branches — rewrites
    only ever look ahead *within* the given sequence, which is how fusion
    can never cross a split boundary, and composites recurse so nested
    branch-and-join graphs flatten into the same DAG.

    On the spine, ``fronts[i]`` is the chain of the front half a split
    after spine layer ``i`` makes (None for no boundary); the step ending
    each group is marked with the one its last layer gives.  A fused
    conv's or fc's own output and an elided layer's repeat of the previous
    value are no step's output, so they mark nothing.
    """
    current = input_id
    position = 0
    while position < len(indexed):
        index, layer = indexed[position]
        covered: List[Tuple[int, Layer]] = [(index, layer)]
        if isinstance(layer, (InputLayer, DropoutLayer, ExitHead)):
            # Identity at inference time: elided outright (the plan's input
            # shape check replaces InputLayer's validation).  An ExitHead is
            # identity on the trunk; a taken exit is ``Network.at_exit``.
            if not isinstance(layer, InputLayer):
                stats.elided += 1
            position += 1
            continue
        if isinstance(layer, ConvLayer):
            relu = False
            cursor = position + 1
            if cursor < len(indexed) and isinstance(
                indexed[cursor][1], ReLULayer
            ):
                relu = True
                covered.append(indexed[cursor])
                cursor += 1
            operands = layer._group_operands()
            witnesses.append((layer, "weight", layer.params["weight"]))
            witnesses.append((layer, "bias", layer.params["bias"]))
            name = prefix + layer.name
            current = graph.add(
                ConvStep(name, covered, layer, operands, relu), [current]
            )
            stats.fused += 1 if relu else 0
            position = cursor
        elif isinstance(layer, FCLayer):
            relu = False
            cursor = position + 1
            if cursor < len(indexed) and isinstance(
                indexed[cursor][1], ReLULayer
            ):
                relu = True
                covered.append(indexed[cursor])
                cursor += 1
            witnesses.append((layer, "weight", layer.params["weight"]))
            witnesses.append((layer, "bias", layer.params["bias"]))
            current = graph.add(
                FCStep(prefix + layer.name, covered, layer, relu), [current]
            )
            stats.fused += 1 if relu else 0
            position = cursor
        elif isinstance(layer, PoolLayer):
            current = graph.add(
                PoolStep(prefix + layer.name, covered, layer), [current]
            )
            position += 1
        elif isinstance(layer, ReLULayer):
            current = graph.add(
                ReLUStep(prefix + layer.name, covered, layer), [current]
            )
            position += 1
        elif hasattr(layer, "dag_branches"):
            current = _lower_composite(
                graph, index, layer, current,
                stats=stats, witnesses=witnesses, prefix=prefix,
            )
            position += 1
        else:
            step_type = (
                LRNStep if isinstance(layer, LRNLayer) else FallbackStep
            )
            current = graph.add(
                step_type(prefix + layer.name, covered, layer), [current]
            )
            stats.fallbacks += 1
            position += 1
        if fronts is not None:
            graph.steps[-1].front = fronts[covered[-1][0]]
    return current


def _lower_composite(
    graph: _GraphBuilder,
    index: int,
    layer: Layer,
    input_id: int,
    *,
    stats: PlanStats,
    witnesses: List[Tuple[Layer, str, np.ndarray]],
    prefix: str,
) -> int:
    """Inline a composite's branches as first-class DAG nodes plus a join.

    Every branch reads the composite's input value (a shared fan-out
    edge); an empty branch *is* that value (the identity shortcut).  The
    join step reads the branch outputs in declaration order, matching the
    reference forward's concat/add order bit for bit.
    """
    composite = layer.dag_branches()
    branch_outputs: List[int] = []
    for tag, branch in composite.branches:
        if branch:
            branch_outputs.append(
                _lower_sequence(
                    graph,
                    [(index, inner) for inner in branch],
                    input_id,
                    stats=stats,
                    witnesses=witnesses,
                    prefix=f"{prefix}{layer.name}/{tag}/",
                )
            )
            stats.branches += 1
        else:
            branch_outputs.append(input_id)
    join_type = ConcatStep if composite.join == "concat" else EltwiseAddStep
    stats.joins += 1
    return graph.add(
        join_type(
            f"{prefix}{layer.name}/{composite.join}",
            [(index, layer)],
            layer.out_shape,
        ),
        branch_outputs,
    )


def compile_plan(network) -> ExecutionPlan:
    """Compile the whole spine of a built network.

    A split half (``Network.split``) and a taken exit (``Network.at_exit``)
    are networks of their own, so each compiles here independently and
    fusion never crosses the offload point.
    """
    if not network.built:
        raise RuntimeError(
            f"network {network.name!r} must be built before compiling a plan"
        )
    stats = PlanStats()
    witnesses: List[Tuple[Layer, str, np.ndarray]] = []
    chain = tuple(
        _layer_print(layer)
        for layer in network.layers
        if not isinstance(layer, InputLayer)
    )
    # prints through each spine layer; the result (the whole chain) is no
    # boundary, and the input layer is elided, so it marks no step
    ends = itertools.accumulate(
        not isinstance(layer, InputLayer) for layer in network.layers
    )
    fronts = [chain[:end] if end < len(chain) else None for end in ends]
    graph = _GraphBuilder()
    _lower_sequence(
        graph, list(enumerate(network.layers)), 0,
        stats=stats, witnesses=witnesses, fronts=fronts,
    )
    stats.steps = len(graph.steps)
    last = len(network.layers) - 1
    for _, _, array in witnesses:  # an in-place write now fails loudly
        array.flags.writeable = False
    return ExecutionPlan(
        f"{network.name}[0:{last}]", graph.steps, network.input_shape,
        network.output_shape, stats, witnesses, chain,
    )
