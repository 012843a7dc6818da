"""Graph-level inference optimizer: compiled DAG execution plans.

``compile_plan`` lowers a built :class:`~repro.nn.network.Network` (or any
spine range of one) into an :class:`ExecutionPlan` — a topologically
scheduled DAG of steps plus an interval-colored arena — via four rewrite
families:

* **Identity elision** — inference-time ``Dropout`` and trunk-path exit
  heads (identities here) are elided outright.
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
  node of one flat graph.  Steps are scheduled by a stable topological
  sort (Kahn's algorithm over value dependencies, ties broken by
  lowering order — which reproduces the reference execution order, so
  the schedule is deterministic).
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
offload point, and ``tests/test_plan_fuzz.py`` fuzzes randomly generated
branch-and-join graphs against the reference walk.  Plans respect
offload points: compilation takes a ``(start, end)`` spine range and no
rewrite ever looks past ``end``, so a ``SplitNetwork``'s front and rear
plans are independent and fusion never crosses the split — even when the
range boundary falls between branch-and-join stages.

There is one way to run a step: on an ``(N, ...)`` tensor, into an arena
view.  ``plan.forward(x)`` is a batch of one; ``plan.forward_batch(xs)``
runs N inputs through the same stacked im2col/broadcast-matmul per step —
the edge server uses it to batch concurrent partial-inference sessions.
A batch of one is therefore the same bits as ``forward``; N > 1 matches N
forwards within float32 GEMM reassociation (≈ 1e-5 across the zoo).

An inference is computed once: ``forward`` answers an input whose float32
bits the plan has already run from a per-plan LRU memo (SHA-1 key, at most
:data:`_MEMO_ENTRIES` results of at most :data:`_MEMO_MAX_VALUES` values —
class vectors and exit outputs; a plan with a larger output never hashes).
``forward_batch`` and ``forward_traced`` always execute.  It is sound
because compilation freezes every parameter array a plan captures and
:meth:`ExecutionPlan.is_valid` fails once one is replaced or unfrozen, so
``Network.plan_for`` recompiles, with an empty memo, before a changed
parameter is read.

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
import heapq
import itertools
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


#: largest result (in float32 values) ``forward`` memoizes: GoogLeNet's
#: 1000-class vector is the largest classifier output in the zoo
_MEMO_MAX_VALUES = 1024
#: memoized results per plan, least recently used evicted first; with
#: ``_MEMO_MAX_VALUES`` this bounds a plan's memo at 1 MiB of results
_MEMO_ENTRIES = 256


class PlanGraphError(RuntimeError):
    """The lowered step graph is not a schedulable DAG."""


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
    layers the step covers.
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
        np.matmul(xs.reshape(xs.shape[0], -1), self.weight.T, out=out)
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
    """A compiled spine range: a scheduled step DAG + interval-colored arena.

    Arena discipline: liveness analysis assigns each arena step a slot no
    *live* value occupies — in particular a step never writes the slot any
    of its inputs live in (asserted by the aliasing test via
    :meth:`forward_traced`).  The plan keeps only per-sample slot offsets;
    the arena is the process-wide ``arena`` scratch buffer, held for one
    :meth:`_execute` (no step runs a plan, so runs never nest).  The final
    value is copied out of the arena before being returned, so callers own
    their result like on the reference path.

    ``memo`` (``None`` for outputs over :data:`_MEMO_MAX_VALUES` values)
    maps an input's SHA-1 to its result; ``forwards`` counts :meth:`forward`
    calls, ``memo_hits`` the answered ones, ``arena_bytes_reused`` the rest.
    """

    def __init__(
        self,
        name: str,
        steps: Sequence[PlanStep],
        input_shape: Tuple[int, ...],
        output_shape: Tuple[int, ...],
        stats: PlanStats,
        witnesses: Sequence[Tuple[Layer, str, np.ndarray]],
    ):
        self.name = name
        self.steps = _topological_schedule(steps)
        self.input_shape = tuple(input_shape)
        self.output_shape = tuple(output_shape)
        self.stats = stats
        self._witnesses = list(witnesses)
        self.memo: Optional[collections.OrderedDict] = (
            collections.OrderedDict()
            if np.prod(self.output_shape) <= _MEMO_MAX_VALUES
            else None
        )
        self.memo_hits = 0
        self.forwards = 0
        self.batch_forwards = 0
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

        Loaders replace ``layer.params[...]`` wholesale; an identity
        mismatch means the captured operands are stale and the plan must be
        recompiled (mirrors the conv operand cache's rule).  An unfrozen
        array may change in place, unseen by captured copies and memo.
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
    ) -> np.ndarray:
        """Run the schedule on an ``(N, ...)`` batch — the one loop behind
        every entry point.  Callers own the result like on the reference
        path: a final value that lives in the arena is copied out."""
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

    def forward(self, x: np.ndarray) -> np.ndarray:
        """One sample through the compiled steps — a batch of one; caller
        owns the result, from :attr:`memo` when the input was run before."""
        value = np.asarray(x, dtype=np.float32)
        if tuple(value.shape) != self.input_shape:
            raise ValueError(
                f"plan {self.name!r} expects input shape {self.input_shape}, "
                f"got {tuple(value.shape)}"
            )
        key = None
        if self.memo is not None:
            key = hashlib.sha1(np.ascontiguousarray(value)).digest()
            stored = self.memo.get(key)
            if stored is not None:
                self.memo.move_to_end(key)
                self.memo_hits += 1
                self.forwards += 1
                return stored.copy()
        result = self._execute(value[None])[0]
        if key is not None:
            self.memo[key] = result.copy()
            if len(self.memo) > _MEMO_ENTRIES:
                self.memo.popitem(last=False)
        self.forwards += 1
        self.arena_bytes_reused += self.stats.reuse_bytes_per_forward
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
        """Run N inputs through one stacked kernel per step.

        ``xs`` is a sequence of per-sample arrays (or an ``(N, ...)``
        array); returns the stacked ``(N, ...)`` outputs, which the caller
        owns.  A batch of one is the same bits as :meth:`forward` — the
        same kernels on the same shapes.  N > 1 equals N forwards within
        float32 GEMM reassociation: BLAS blocks by operand shape, so rows
        may differ in the last bits (bit-equal on ``resnet-mini``, up to
        ≈ 2e-6 absolute on ``gendernet`` at N = 8).
        """
        value = self._batch_of(xs)
        result = self._execute(value)
        self.batch_forwards += 1
        self.batch_sizes[int(value.shape[0])] += 1
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
            help="single-sample forward calls answered from the plan's memo",
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


# -- scheduling ------------------------------------------------------------------

def _topological_schedule(steps: Sequence[PlanStep]) -> List[PlanStep]:
    """Kahn's algorithm over value dependencies, stable by lowering order.

    Lowering emits steps in the reference execution order (each value is
    defined before any reader), so the stable sort reproduces that order
    exactly — the schedule is an explicit verification, and a cycle or a
    read of an undefined value is a loud :class:`PlanGraphError` instead
    of silent corruption.  Value ids are reassigned to schedule positions
    (step ``i`` defines value ``i + 1``).
    """
    produced = {0: 0}  # value id -> producing step position + 1
    for position, step in enumerate(steps):
        produced[position + 1] = position + 1
    readers: Dict[int, List[int]] = {}
    pending: List[int] = []
    for position, step in enumerate(steps):
        missing = 0
        for value_id in step.inputs:
            if value_id not in produced:
                raise PlanGraphError(
                    f"step {step.name!r} reads undefined value {value_id}"
                )
            if value_id > 0:
                missing += 1
                readers.setdefault(value_id, []).append(position)
        pending.append(missing)
    scheduled: List[PlanStep] = []
    order: List[int] = [-1] * len(steps)  # old position -> new position
    ready = [
        position for position, missing in enumerate(pending) if missing == 0
    ]
    heapq.heapify(ready)
    while ready:
        # Smallest lowering position first: the lexicographically minimal
        # topological order, which for an already-topological input is the
        # input order itself — independent branch steps interleave exactly
        # as the reference walk does.
        position = heapq.heappop(ready)
        order[position] = len(scheduled)
        scheduled.append(steps[position])
        for reader in readers.get(position + 1, ()):
            pending[reader] -= 1
            if pending[reader] == 0:
                heapq.heappush(ready, reader)
    if len(scheduled) != len(steps):
        stuck = [
            steps[position].name
            for position, missing in enumerate(pending)
            if missing > 0
        ]
        raise PlanGraphError(f"step graph has a cycle through {stuck}")
    remap = {0: 0}
    for old_position, new_position in enumerate(order):
        remap[old_position + 1] = new_position + 1
    for new_position, step in enumerate(scheduled):
        step.output = new_position + 1
        step.inputs = [remap[value_id] for value_id in step.inputs]
    return scheduled


# -- compilation ----------------------------------------------------------------

class _GraphBuilder:
    """Accumulates lowered steps and hands out value ids."""

    def __init__(self) -> None:
        self.steps: List[PlanStep] = []

    def add(self, step: PlanStep, inputs: Sequence[int]) -> int:
        step.inputs = list(inputs)
        self.steps.append(step)
        return len(self.steps)  # value id of this step's output


def _lower_sequence(
    graph: _GraphBuilder,
    indexed: Sequence[Tuple[int, Layer]],
    input_id: int,
    *,
    stats: PlanStats,
    witnesses: List[Tuple[Layer, str, np.ndarray]],
    prefix: str = "",
) -> int:
    """Lower an ordered layer sequence into graph nodes; returns the value
    id of the sequence's output (``input_id`` itself if every layer was
    elided).  Shared by spine ranges and composite branches — rewrites
    only ever look ahead *within* the given sequence, which is how fusion
    can never cross a split boundary, and composites recurse so nested
    branch-and-join graphs flatten into the same DAG.
    """
    current = input_id
    position = 0
    while position < len(indexed):
        index, layer = indexed[position]
        covered: List[Tuple[int, Layer]] = [(index, layer)]
        if isinstance(layer, (InputLayer, DropoutLayer, ExitHead)):
            # Identity at inference time: elided outright (the plan's input
            # shape check replaces InputLayer's validation).  An ExitHead is
            # identity on the *trunk* path; its classifier branch lowers
            # only when ``compile_plan(exit_point=...)`` takes the exit.
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


def compile_plan(
    network,
    start: int = 0,
    end: Optional[int] = None,
    *,
    exit_point: Optional[int] = None,
) -> ExecutionPlan:
    """Compile spine layers ``start..end`` (inclusive) of a built network.

    The range defaults to the whole spine.  No rewrite considers layers
    outside the range, so front/rear plans of a split are compiled
    independently and fusion never crosses the offload point.

    ``exit_point`` takes an early exit: the spine index of an
    :class:`~repro.nn.layers.exits.ExitHead` within the range.  The trunk
    lowers up to (excluding) the exit, the head lowers as a branch
    subgraph hanging off the trunk's last value — the same recursive
    lowering composite branches use — and everything past the attach point
    is pruned: ``end`` collapses to ``exit_point`` and the plan's output
    is the head classifier's.  Without ``exit_point``, exit heads in range
    are identity (elided), so full-network plans are untouched by exits.
    """
    if not network.built:
        raise RuntimeError(
            f"network {network.name!r} must be built before compiling a plan"
        )
    last = len(network.layers) - 1
    if end is None:
        end = last
    if not (0 <= start <= end <= last):
        raise IndexError(
            f"invalid plan range [{start}, {end}] for network "
            f"{network.name!r} with {len(network.layers)} layers"
        )
    exit_layer: Optional[ExitHead] = None
    if exit_point is not None:
        if not start <= exit_point <= end:
            raise IndexError(
                f"exit_point {exit_point} outside plan range "
                f"[{start}, {end}] of network {network.name!r}"
            )
        candidate = network.layers[exit_point]
        if not isinstance(candidate, ExitHead):
            raise ValueError(
                f"layer {exit_point} of {network.name!r} is "
                f"{candidate.kind!r}, not an exit head"
            )
        exit_layer = candidate
        end = exit_point  # the trunk past the exit is pruned
    stats = PlanStats()
    witnesses: List[Tuple[Layer, str, np.ndarray]] = []
    graph = _GraphBuilder()
    if exit_layer is not None:
        trunk = [
            (index, network.layers[index]) for index in range(start, exit_point)
        ]
        current = _lower_sequence(
            graph, trunk, 0, stats=stats, witnesses=witnesses
        )
        _lower_sequence(
            graph,
            [(exit_point, inner) for inner in exit_layer.head],
            current,
            stats=stats,
            witnesses=witnesses,
            prefix=f"{exit_layer.name}/exit/",
        )
        stats.branches += 1
    else:
        indexed = [
            (index, network.layers[index]) for index in range(start, end + 1)
        ]
        _lower_sequence(graph, indexed, 0, stats=stats, witnesses=witnesses)
    stats.steps = len(graph.steps)
    input_shape = (
        network.input_shape if start == 0
        else network.layers[start - 1].out_shape
    )
    if exit_layer is not None:
        output_shape = exit_layer.exit_shape
        name = f"{network.name}[{start}:{end}@{exit_layer.name}]"
    else:
        output_shape = network.layers[end].out_shape
        name = f"{network.name}[{start}:{end}]"
    for _, _, array in witnesses:  # an in-place write now fails loudly
        array.flags.writeable = False
    return ExecutionPlan(
        name, graph.steps, input_shape, output_shape, stats, witnesses
    )
