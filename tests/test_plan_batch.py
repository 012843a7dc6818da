"""A forward is a batch of one: the single step path against its ancestors.

Plan steps used to carry two execution methods — ``run`` (one image, into
the arena) and ``run_batch`` (N images, every output freshly allocated) —
and the plan three copies of the schedule loop.  Only the batched
arithmetic survives, writing through ``out=`` into arena views sized by N.
What must hold:

* ``forward_batch`` returns, at every N, the bits the deleted
  ``run_batch`` methods returned — those are kept here verbatim as the
  oracle (the zoo-wide ``forward == forward_reference`` locks in
  ``test_nn_plan.py`` / ``test_backend.py`` carry N = 1 against the walk);
* a batch of one is the same bits as ``forward``;
* the arena — one process-wide scratch buffer, not a plan's — grows to
  the largest batch seen and is then reused by every smaller batch, by
  ``forward`` and by every other plan, and the no-alias / no-clobber
  invariant holds at N > 1;
* a plan holds no buffer: the front and rear halves of three splits, all
  alive, cost their results and one arena, not six;
* any sequence of calls — plan, entry point, batch size — returns the
  bits the same call returns first in a fresh process, and never
  disturbs a result returned earlier;
* callers own what they are returned: nothing shares memory with the
  arena or with the kernel scratch;
* ``forward`` answers an input it has run before from its memo with the
  bits an execution computes, keyed by the input's float32 bits, and a
  test that means to exercise the kernels clears ``plan.memo`` first.
"""

import collections
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.nn import plan as plan_module
from repro.nn import tensor
from repro.nn.plan import (
    ConcatStep,
    ConvStep,
    EltwiseAddStep,
    FCStep,
    FallbackStep,
    LRNStep,
    PoolStep,
    ReLUStep,
)
from repro.nn.zoo import BUILDERS, build_model
from repro.sim import SeededRng
from tests.test_backend import same_bits

BATCH_SIZES = (1, 2, 3, 8)


# -- the eight ``run_batch`` bodies as they were, kept verbatim as the oracle ---


def parent_max_pool_batch(layer, xs):
    """Max-pool an ``(N, C, H, W)`` batch: the batch folds into the channels."""
    count = xs.shape[0]
    folded = xs.reshape((-1,) + xs.shape[2:])
    pooled = tensor.max_pool_strided(folded, layer.kernel, layer.stride, layer.pad)
    return pooled.reshape((count,) + layer.out_shape)


def parent_eltwise_sum(inputs):
    """Elementwise sum of ``inputs``, accumulated left to right (the
    kernel's ``out is None`` arm, which only ``run_batch`` took)."""
    out = inputs[0] + inputs[1]
    for extra in inputs[2:]:
        out += extra
    return out


def conv_run_batch(self, inputs):
    (xs,) = inputs
    layer = self.layer
    count = xs.shape[0]
    filters, out_h, out_w = self.out_shape
    positions = out_h * out_w
    if layer.groups == 1:
        matrix, bias = self.operands[0]
        cols = tensor.im2col(
            xs, layer.kernel, layer.stride, layer.pad,
            out=layer.cols_scratch(count, xs.shape[1]),
        )
        out = np.matmul(matrix, cols)  # (N, F, P) via broadcast
        out += bias
    else:
        per_in = xs.shape[1] // layer.groups
        per_out = filters // layer.groups
        out = np.empty((count, filters, positions), dtype=np.float32)
        buffer = layer.cols_scratch(count, per_in)
        for group, (matrix, bias) in enumerate(self.operands):
            cols = tensor.im2col(
                xs[:, group * per_in : (group + 1) * per_in],
                layer.kernel, layer.stride, layer.pad, out=buffer,
            )
            target = out[:, group * per_out : (group + 1) * per_out]
            np.matmul(matrix, cols, out=target)
            target += bias
    if self.relu:
        np.maximum(out, 0.0, out=out)
    return out.reshape((count,) + self.out_shape)


def fc_run_batch(self, inputs):
    xs = inputs[0]
    flat = xs.reshape(xs.shape[0], -1)
    out = np.matmul(flat, self.weight.T)
    out += self.layer.params["bias"]
    if self.relu:
        np.maximum(out, 0.0, out=out)
    return out


def pool_run_batch(self, inputs):
    (xs,) = inputs
    layer = self.layer
    if layer.mode == "max":
        return parent_max_pool_batch(layer, xs)
    # Channels average independently: fold the batch into them.
    pooled = tensor.pool(layer, xs.reshape((-1,) + xs.shape[2:]))
    return pooled.reshape((xs.shape[0],) + self.out_shape)


def relu_run_batch(self, inputs):
    return np.maximum(inputs[0], 0.0).astype(np.float32, copy=False)


def fallback_run_batch(self, inputs):
    (xs,) = inputs
    return np.stack([self.layer.forward(xs[index])
                     for index in range(xs.shape[0])])


def lrn_run_batch(self, inputs):
    return tensor.lrn_batch(self.layer, inputs[0])


def concat_run_batch(self, inputs):
    return np.concatenate(inputs, axis=1)


def eltwise_run_batch(self, inputs):
    return parent_eltwise_sum(inputs)


PARENT_RUN_BATCH = {
    ConvStep: conv_run_batch,
    FCStep: fc_run_batch,
    PoolStep: pool_run_batch,
    ReLUStep: relu_run_batch,
    FallbackStep: fallback_run_batch,
    LRNStep: lrn_run_batch,
    ConcatStep: concat_run_batch,
    EltwiseAddStep: eltwise_run_batch,
}


def parent_forward_batch(plan, xs):
    """``ExecutionPlan._execute_batch`` as it was: every step output a
    fresh allocation, no arena."""
    value = np.asarray(xs, dtype=np.float32)
    values = [None] * (len(plan.steps) + 1)
    values[0] = value
    for step in plan.steps:
        values[step.output] = PARENT_RUN_BATCH[type(step)](
            step, [values[value_id] for value_id in step.inputs]
        )
    return values[plan.steps[-1].output] if plan.steps else value


# -- fixtures -------------------------------------------------------------------


def batch_for(plan, count, seed=5):
    return SeededRng(seed, f"batch/{plan.name}").uniform_array(
        (count,) + plan.input_shape, 0, 255
    )


def plans_of(network):
    """The whole-network plan, a front / rear pair around a middle split,
    and every early-exit plan."""
    last = len(network.layers) - 1
    points = network.offload_points()
    split = points[len(points) // 2].index
    plans = [network.plan_for(), network.plan_for(0, split)]
    if split < last:
        plans.append(network.plan_for(split + 1, last))
    for exit in network.exit_points():
        if not exit.is_final:
            plans.append(network.plan_for(0, exit.index, exit_point=exit.index))
    return plans


@pytest.fixture(scope="module", params=sorted(BUILDERS))
def network(request):
    return build_model(request.param).network


def aliases_plan_memory(array):
    """Whether ``array`` shares bytes with the arena or any kernel scratch —
    the only memory a plan run writes besides what it returns."""
    return any(
        np.shares_memory(array, buffer) for buffer in tensor._SCRATCH.values()
    )


# -- the bits -------------------------------------------------------------------


class TestBatchBits:
    def test_forward_batch_equals_parent_run_batch(self, network):
        for plan in plans_of(network):
            xs = batch_for(plan, max(BATCH_SIZES))
            for count in BATCH_SIZES:
                assert same_bits(
                    plan.forward_batch(xs[:count]),
                    parent_forward_batch(plan, xs[:count]),
                ), (plan.name, count)

    def test_batch_of_one_is_forward(self, network):
        for plan in plans_of(network):
            (x,) = batch_for(plan, 1)
            assert same_bits(plan.forward_batch([x])[0], plan.forward(x)), plan.name


# -- the arena at N > 1 ---------------------------------------------------------


class TestArenaAcrossBatchSizes:
    @pytest.fixture(scope="class")
    def plan(self):
        # branches, joins, LRN (a non-arena step) and both pooling modes
        return build_model("googlenet").network.plan_for()

    def test_arena_grows_once_then_serves_every_smaller_batch(self, plan):
        xs = batch_for(plan, 8)
        tensor._SCRATCH.pop("arena", None)  # as in a fresh process
        plan.memo.clear()  # each forward below executes
        single = plan.forward(xs[0])
        assert tensor._SCRATCH["arena"].nbytes == plan.stats.arena_bytes
        first = plan.forward_batch(xs)
        grown = tensor._SCRATCH["arena"]
        assert grown.nbytes == 8 * plan.stats.arena_bytes
        assert same_bits(plan.forward_batch(xs), first)
        assert same_bits(plan.forward_batch(xs[:3]), parent_forward_batch(plan, xs[:3]))
        plan.memo.clear()
        assert same_bits(plan.forward(xs[0]), single)
        # every smaller plan — the halves of a split, another model — runs
        # in the same buffer
        network = build_model("googlenet").network
        split = network.point_by_label("3rd_pool").index
        for other in (network.plan_for(0, split), network.plan_for(split + 1),
                      build_model("smallnet").network.plan_for()):
            other.forward_batch(batch_for(other, 3))
        assert tensor._SCRATCH["arena"] is grown
        # per-sample accounting does not move with the batch
        assert plan.stats.arena_bytes == 6_723_584

    def test_traced_invariant_holds_at_batch_eight(self, plan):
        xs = batch_for(plan, 8)
        result, trace = plan.forward_traced(xs)
        assert same_bits(result, plan.forward_batch(xs))
        assert len(trace) == len(plan.steps)
        assert any(entry["arena"] for entry in trace)
        for entry in trace:
            assert not entry["output_aliases_input"], entry
            assert not entry["output_clobbers_live"], entry

    def test_traced_sample_is_forward(self, plan):
        (x,) = batch_for(plan, 1)
        result, _ = plan.forward_traced(x)
        plan.memo.clear()
        assert same_bits(result, plan.forward(x))


# -- ownership ------------------------------------------------------------------


class TestCallerOwnsResult:
    @pytest.mark.parametrize("name", ["smallnet", "resnet-mini", "tinynet"])
    def test_results_survive_mutation_and_alias_nothing(self, name):
        network = build_model(name).network
        last = len(network.layers) - 1
        # a whole network ends in softmax (a fresh array); a front half ends
        # in an arena step, whose value must be copied out
        split = network.offload_points()[1].index
        for plan in (network.plan_for(), network.plan_for(0, split),
                     network.plan_for(split + 1, last)):
            xs = batch_for(plan, 3)
            for run, argument in ((plan.forward, xs[0]), (plan.forward_batch, xs)):
                first = run(argument)
                kept = first.copy()
                assert not aliases_plan_memory(first)
                first.fill(np.float32(-7.0))
                hits = plan.memo_hits
                again = run(argument)
                # a repeated forward is a memo hit (when the plan keeps
                # one): the copy it returns is owned all the same
                answered = run == plan.forward and plan.memo is not None
                assert plan.memo_hits == hits + answered
                assert again is not first
                assert same_bits(again, kept)
                assert not aliases_plan_memory(again)


# -- plans own no memory ----------------------------------------------------------


def held_arrays(plan):
    """The ndarrays a plan holds, directly or as list items (witnesses are
    ``(layer, key, array)`` tuples naming parameters the layers own)."""
    held = []
    for value in vars(plan).values():
        items = value if isinstance(value, list) else [value]
        held += [item for item in items if isinstance(item, np.ndarray)]
    return held


class TestPlansOwnNoMemory:
    def test_split_halves_hold_no_arena(self):
        model = build_model("googlenet")
        network = model.network
        (x,) = batch_for(network.plan_for(), 1)
        network.forward(x)  # warm the kernel scratch and the conv operands
        halves, results = [], []
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for label in ("1st_pool", "3rd_pool", "5th_pool"):
                front, rear = model.split(network.point_by_label(label).index)
                feature = front.inference(x)
                results += [feature, rear.inference(feature)]
                halves += [front, rear]  # kept alive, as a live app keeps them
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        plans = [half.network.plan_for() for half in halves]
        largest = max(plan.stats.arena_bytes for plan in plans)
        assert grown < largest + sum(result.nbytes for result in results)
        for plan in plans:
            assert held_arrays(plan) == [], plan.name

    def test_batch_tally_is_bounded_and_exports_the_same_histogram(self):
        from repro.obs import MetricsRegistry, to_prometheus_text

        network = build_model("tinynet").network
        plan = network.plan_for(2, 2)  # the lone ReLU: the cheapest plan
        sizes = [1 + call % 3 for call in range(10_000)]
        inputs = {count: batch_for(plan, count) for count in (1, 2, 3)}
        for count in (1, 2, 3):  # warm the arena, then start the tally afresh
            plan.forward_batch(inputs[count])
        plan.batch_sizes.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for count in sizes:
                plan.forward_batch(inputs[count])
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 1024

        def histogram_lines(registry):
            return [
                line for line in to_prometheus_text(registry).splitlines()
                if line.startswith("plan_batch_size")
            ]

        exported = MetricsRegistry()
        plan.record_metrics(exported)
        observed = MetricsRegistry()  # what one observation per call exports
        histogram = observed.histogram("plan_batch_size", plan=plan.name)
        for count in sizes:
            histogram.observe(count)
        assert histogram_lines(exported) == histogram_lines(observed)
        assert exported.get("plan_batch_size", plan=plan.name).count == 10_000


# -- the shared arena under adversarial call sequences ----------------------------


#: (model, plan kind) — the whole network, a front / rear pair around a
#: middle split, and googlenet_exits' first early exit
PROPERTY_PLANS = tuple(
    (name, kind)
    for name in ("smallnet", "resnet-mini", "googlenet_exits")
    for kind in ("whole", "front", "rear")
) + (("googlenet_exits", "exit"),)


@functools.lru_cache(maxsize=None)
def property_network(name):
    return build_model(name).network


@functools.lru_cache(maxsize=None)
def property_plan(spec):
    """``(plan, reference)``: ``reference(x)`` walks the plan's layers one
    by one."""
    name, kind = spec
    network = property_network(name)
    points = network.offload_points()
    split = points[len(points) // 2].index
    if kind == "whole":
        return network.plan_for(), network.forward_reference
    if kind == "front":
        return network.plan_for(0, split), functools.partial(
            network.forward_reference, end=split
        )
    if kind == "rear":
        return network.plan_for(split + 1), functools.partial(
            network.forward_reference, start=split + 1
        )
    exit = network.exit_points()[0].index
    return (network.plan_for(0, exit, exit_point=exit),
            network.at_exit(exit).forward_reference)


@functools.lru_cache(maxsize=None)
def property_input(spec, count):
    return batch_for(property_plan(spec)[0], count, seed=17)


@functools.lru_cache(maxsize=None)
def reference_output(spec):
    return property_plan(spec)[1](property_input(spec, 1)[0])


def make_call(spec, entry, count):
    """Run one call; returns ``(result, trace or None)``."""
    plan = property_plan(spec)[0]
    xs = property_input(spec, count)
    if entry == "forward":
        if plan.memo is not None:
            plan.memo.clear()  # the property is about the arena: execute
        return plan.forward(xs[0]), None
    if entry == "forward_batch":
        return plan.forward_batch(xs), None
    return plan.forward_traced(xs)


#: call -> its result when made first in a fresh process (no scratch buffer)
FIRST_CALLS = {}


def first_call(call):
    if call not in FIRST_CALLS:
        saved = dict(tensor._SCRATCH)
        tensor._SCRATCH.clear()
        try:
            FIRST_CALLS[call] = make_call(*call)[0].copy()
        finally:
            tensor._SCRATCH.clear()
            tensor._SCRATCH.update(saved)
    return FIRST_CALLS[call]


def calls_on(spec):
    # googlenet_exits stops at N = 3 (a 20 MB arena, still the largest by
    # far): at N = 8 its plans cost 0.4-0.55 s a call
    sizes = BATCH_SIZES[:3] if spec[0] == "googlenet_exits" else BATCH_SIZES
    return st.one_of(
        st.tuples(st.just(spec), st.just("forward"), st.just(1)),
        st.tuples(
            st.just(spec),
            st.sampled_from(["forward_batch", "forward_traced"]),
            st.sampled_from(sizes),
        ),
    )


CALLS = st.lists(
    st.sampled_from(PROPERTY_PLANS).flatmap(calls_on), min_size=1, max_size=8
)


class TestSharedArenaProperty:
    @settings(max_examples=30, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(calls=CALLS)
    def test_any_call_sequence_returns_first_call_bits(self, calls):
        expected = [first_call(call) for call in calls]
        kept = []
        for call, oracle in zip(calls, expected):
            spec, entry, count = call
            result, trace = make_call(*call)
            assert same_bits(result, oracle), call
            if count == 1:
                sample = result if entry == "forward" else result[0]
                assert same_bits(sample, reference_output(spec)), call
            for entry_record in trace or ():
                assert not entry_record["output_aliases_input"], entry_record
                assert not entry_record["output_clobbers_live"], entry_record
            kept.append((result, oracle))
            for earlier, earlier_oracle in kept:
                assert same_bits(earlier, earlier_oracle), call


# -- the forward memo -------------------------------------------------------------


def misses(plan):
    """``forward`` calls the plan executed rather than answered from memo."""
    return plan.forwards - plan.memo_hits


def bit_variants(x):
    """Inputs one bit pattern away from ``x`` and from each other: a flipped
    mantissa bit, +0.0 / -0.0 and two NaN payloads in the first value."""
    variants = []
    for pattern in (None, 0x00000000, 0x80000000, 0x7FC00000, 0x7FC00001):
        variant = x.copy()
        bits = variant.reshape(-1).view(np.uint32)
        if pattern is None:
            bits[0] ^= 1
        else:
            bits[0] = pattern
        variants.append(variant)
    return variants


class TestForwardMemo:
    def test_a_hit_is_the_bits_an_execution_computes(self, network):
        for plan in plans_of(network):
            memoized = int(np.prod(plan.output_shape)) <= plan_module._MEMO_MAX_VALUES
            assert (plan.memo is not None) == memoized, plan.name
            if not memoized:
                continue
            (x,) = batch_for(plan, 1, seed=23)
            plan.memo.clear()
            executed = misses(plan)
            first = plan.forward(x)
            hits = plan.memo_hits
            hit = plan.forward(x)
            assert plan.memo_hits == hits + 1 and misses(plan) == executed + 1
            plan.memo.clear()
            fresh = plan.forward(x)
            assert misses(plan) == executed + 2
            assert same_bits(hit, fresh) and same_bits(hit, first), plan.name

    def test_mutating_a_result_never_poisons_a_hit(self):
        plan = build_model("tinynet").network.plan_for()
        (x,) = batch_for(plan, 1)
        first = plan.forward(x)
        kept = first.copy()
        for _ in range(3):
            first.fill(np.float32(-7.0))
            first = plan.forward(x)
            assert same_bits(first, kept)
        assert plan.memo_hits == 3

    def test_key_is_the_float32_bits_whatever_the_layout(self):
        plan = build_model("smallnet").network.plan_for()
        (x,) = batch_for(plan, 1)
        plan.forward(x)
        with np.errstate(invalid="ignore", over="ignore"):
            for variant in bit_variants(x):
                plan.forward(variant)
        assert plan.memo_hits == 0 and len(plan.memo) == 6
        strided = np.zeros(x.shape[:-1] + (2 * x.shape[-1],), dtype=np.float32)
        strided[..., ::2] = x
        for same in (np.asfortranarray(x), strided[..., ::2],
                     x.astype(np.float64)):
            assert same_bits(plan.forward(same), plan.forward(x))
        assert plan.memo_hits == 6 and len(plan.memo) == 6

    def test_plans_never_share_entries(self):
        network = build_model("smallnet").network
        fc = next(index for index, layer in enumerate(network.layers)
                  if layer.kind == "fc")
        whole, front = network.plan_for(), network.plan_for(0, fc)
        (x,) = batch_for(whole, 1)
        for plan in (whole, front, whole, front):
            plan.forward(x)
        assert (whole.memo_hits, front.memo_hits) == (1, 1)
        assert misses(whole) == misses(front) == 1
        # unfreeze-then-write recompiles: the new plan starts with an empty
        # memo and computes with the new bias
        head = network.layers[fc]
        head.invalidate_param_cache()
        head.params["bias"][0] += np.float32(1.0)
        fresh = network.plan_for()
        assert fresh is not whole and len(fresh.memo) == 0
        assert same_bits(network.forward(x), network.forward_reference(x))
        assert fresh.memo_hits == 0

    def test_a_write_to_a_captured_array_fails_loudly(self):
        network = build_model("smallnet").network
        (x,) = batch_for(network.plan_for(), 1)
        network.forward(x)
        head = next(layer for layer in network.layers if layer.kind == "fc")
        with pytest.raises(ValueError):
            head.params["bias"][0] += np.float32(1.0)
        assert same_bits(network.forward(x), network.forward_reference(x))

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(sequence=st.lists(st.integers(0, 5), min_size=1, max_size=30))
    def test_memo_is_a_bounded_lru(self, sequence):
        plan = build_model("tinynet").network.plan_for()
        inputs = batch_for(plan, 6)
        entries = 3
        model = collections.OrderedDict()  # the LRU the memo must be
        hits = 0
        original = plan_module._MEMO_ENTRIES
        plan_module._MEMO_ENTRIES = entries
        try:
            for index in sequence:
                result = plan.forward(inputs[index])
                if index in model:
                    model.move_to_end(index)
                    hits += 1
                else:
                    model[index] = result.copy()
                    if len(model) > entries:
                        model.popitem(last=False)
                assert same_bits(result, model[index])
                assert len(plan.memo) == len(model) <= entries
                assert plan.memo_hits == hits
        finally:
            plan_module._MEMO_ENTRIES = original

    def test_a_large_result_is_never_memoized(self):
        network = build_model("smallnet").network
        front = network.plan_for(0, network.offload_points()[1].index)
        assert np.prod(front.output_shape) > plan_module._MEMO_MAX_VALUES
        (x,) = batch_for(front, 1)
        assert same_bits(front.forward(x), front.forward(x))
        assert front.memo is None and front.memo_hits == 0

    @pytest.mark.parametrize("count", [1, 3])
    def test_batched_and_traced_forwards_bypass_the_memo(self, count):
        plan = build_model("smallnet").network.plan_for()
        xs = batch_for(plan, count)
        plan.forward(xs[0])
        before = (list(plan.memo), plan.memo_hits, plan.forwards)
        plan.forward_batch(xs)
        plan.forward_traced(xs)
        plan.forward_traced(xs[0])
        assert (list(plan.memo), plan.memo_hits, plan.forwards) == before
