"""A batch is N forwards, bit for bit: the single step path and its memo.

Plan steps used to carry two execution methods — ``run`` (one image, into
the arena) and ``run_batch`` (N images, every output freshly allocated) —
and the plan three copies of the schedule loop.  Only the batched
arithmetic survives, writing through ``out=`` into arena views sized by N,
and every step computes each row at the shapes a batch of one uses.
What must hold:

* ``forward_batch(xs)[i]`` is, at every N, the bits of the reference layer
  walk on ``xs[i]`` — on every zoo model's whole network, the halves of a
  middle split and every early exit;
* a batch of one is the same bits as ``forward``;
* whatever went through ``forward`` before, ``forward_batch`` returns
  those bits and leaves the memo holding what N forwards would leave it
  holding — results, captured boundaries and the link — with as many
  hits (a Hypothesis property);
* the arena — one process-wide scratch buffer, not a plan's — grows to
  the largest batch executed and is then reused by every smaller batch, by
  ``forward`` and by every other plan, and the no-alias / no-clobber
  invariant holds at N > 1;
* a plan holds no buffer: the front and rear halves of three splits, all
  alive, cost their results and one arena, not six;
* any sequence of calls — plan, entry point, batch size — returns the
  bits the same call returns first in a fresh process, and never
  disturbs a result returned earlier;
* callers own what they are returned: nothing shares memory with the
  arena or with the kernel scratch;
* ``forward`` and ``forward_batch`` answer an input whose bits met the
  plan's content before from the process-wide memo, with the bits an
  execution computes; ``forward_traced`` always executes, and a test that
  means to exercise the kernels calls ``tests.memos.clear_memos`` first
  (``test_nn_memo.py`` holds the split rule and the content contract).
"""

import collections
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.nn import plan as plan_module
from repro.nn import tensor
from repro.nn.zoo import BUILDERS, build_model
from repro.sim import SeededRng
from tests.memos import clear_memos, entries
from tests.test_backend import same_bits

BATCH_SIZES = (1, 2, 3, 8)


def reference_batch(network, xs):
    """N reference layer walks, stacked: the oracle every batch row meets."""
    return np.stack([network.forward_reference(x) for x in xs])


# -- fixtures -------------------------------------------------------------------


def batch_for(plan, count, seed=5):
    return SeededRng(seed, f"batch/{plan.name}").uniform_array(
        (count,) + plan.input_shape, 0, 255
    )


def parts_of(network):
    """The whole network, the front / rear halves of a middle split, and
    every early exit's pruned network."""
    points = network.offload_points()
    halves = network.split(points[len(points) // 2].index)
    return [network, halves.front, halves.rear] + [
        network.at_exit(exit.index) for exit in network.exit_points()[:-1]
    ]


def plans_of(network):
    return [part.plan_for() for part in parts_of(network)]


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
        """Every row is the reference walk's bits.  The id dates from when
        the deleted ``run_batch`` step methods were the oracle; their FC
        step ran one (N, D) GEMM, whose rows were not ``forward``'s bits."""
        for part in parts_of(network):
            plan = part.plan_for()
            xs = batch_for(plan, max(BATCH_SIZES))
            expected = reference_batch(part, xs)
            for count in BATCH_SIZES:
                clear_memos()  # every row executes
                assert same_bits(
                    plan.forward_batch(xs[:count]), expected[:count]
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
        # each forward and batch below executes: a remembered row would
        # shrink the batch that runs
        clear_memos()
        single = plan.forward(xs[0])
        assert tensor._SCRATCH["arena"].nbytes == plan.stats.arena_bytes
        clear_memos()
        first = plan.forward_batch(xs)
        grown = tensor._SCRATCH["arena"]
        assert grown.nbytes == 8 * plan.stats.arena_bytes
        clear_memos()
        assert same_bits(plan.forward_batch(xs), first)
        clear_memos()
        assert same_bits(plan.forward_batch(xs[:3]), first[:3])
        clear_memos()
        assert same_bits(plan.forward(xs[0]), single)
        assert same_bits(first[0], single)
        # every smaller plan — the halves of a split, another model — runs
        # in the same buffer
        network = build_model("googlenet").network
        halves = network.split(network.point_by_label("3rd_pool").index)
        for other in (halves.front.plan_for(), halves.rear.plan_for(),
                      build_model("smallnet").network.plan_for()):
            clear_memos()
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
        clear_memos()
        assert same_bits(result, plan.forward(x))


# -- ownership ------------------------------------------------------------------


class TestCallerOwnsResult:
    @pytest.mark.parametrize("name", ["smallnet", "resnet-mini", "tinynet"])
    def test_results_survive_mutation_and_alias_nothing(self, name):
        network = build_model(name).network
        # a whole network ends in softmax (a fresh array); a front half ends
        # in an arena step, whose value must be copied out
        halves = network.split(network.offload_points()[1].index)
        for plan in (network.plan_for(), halves.front.plan_for(),
                     halves.rear.plan_for()):
            xs = batch_for(plan, 3)
            for run, argument, rows in ((plan.forward, xs[0], 1),
                                        (plan.forward_batch, xs, 3)):
                first = run(argument)
                kept = first.copy()
                assert not aliases_plan_memory(first)
                first.fill(np.float32(-7.0))
                hits = plan.memo_hits + plan.batch_memo_hits
                again = run(argument)
                # a repeated forward is a memo hit per row (when the plan's
                # results are memoized): the copy it returns is owned all
                # the same
                answered = rows * memoized(plan)
                assert plan.memo_hits + plan.batch_memo_hits == hits + answered
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
        # the lone ReLU (spine layer 2): the cheapest plan
        plan = network.split(1).rear.split(0).front.plan_for()
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
        return network.split(split).front.plan_for(), functools.partial(
            network.forward_reference, end=split
        )
    if kind == "rear":
        return network.split(split).rear.plan_for(), functools.partial(
            network.forward_reference, start=split + 1
        )
    exit = network.at_exit(network.exit_points()[0].index)
    return exit.plan_for(), exit.forward_reference


@functools.lru_cache(maxsize=None)
def property_input(spec, count):
    return batch_for(property_plan(spec)[0], count, seed=17)


@functools.lru_cache(maxsize=None)
def reference_output(spec, count):
    """The reference walk of every row of ``property_input(spec, count)``."""
    return np.stack([property_plan(spec)[1](x)
                     for x in property_input(spec, count)])


def make_call(spec, entry, count):
    """Run one call; returns ``(result, trace or None)``."""
    plan = property_plan(spec)[0]
    xs = property_input(spec, count)
    if entry == "forward":
        clear_memos()  # the property is about the arena: execute
        return plan.forward(xs[0]), None
    if entry == "forward_batch":
        clear_memos()
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
            rows = result[None] if entry == "forward" else result
            assert same_bits(rows, reference_output(spec, count)), call
            for entry_record in trace or ():
                assert not entry_record["output_aliases_input"], entry_record
                assert not entry_record["output_clobbers_live"], entry_record
            kept.append((result, oracle))
            for earlier, earlier_oracle in kept:
                assert same_bits(earlier, earlier_oracle), call


# -- a batch is N forwards, whatever came before -----------------------------------


#: plans whose batch rows were not ``forward``'s bits while the FC step ran
#: one (N, D) GEMM (agenet's rear half: its FC layers without the convs)
REASSOCIATING_PLANS = (("smallnet", "whole"), ("smallnet_exits", "whole"),
                       ("agenet", "rear"))


def register_fronts(spec):
    """Compile a front half at every offload point of the spec's network,
    so that its forwards capture every boundary a split can ask for (the
    registry is keyed by content, so a fresh split of an equal network
    registers the same chains)."""
    name, kind = spec
    network = property_network(name)
    if kind == "rear":
        points = network.offload_points()
        network = network.split(points[len(points) // 2].index).rear
    for point in network.offload_points():
        network.split(point.index).front.plan_for()


def memo_state():
    """What a sequence of calls leaves in the memo: result and boundary
    keys, the boundaries' byte count and the link."""
    return (set(plan_module._RESULTS), set(plan_module._BOUNDARIES),
            plan_module._boundary_bytes, list(plan_module._LINKS))


class TestBatchIsNForwards:
    @settings(max_examples=20, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spec=st.sampled_from(REASSOCIATING_PLANS), data=st.data())
    def test_forward_batch_is_history_independent(self, spec, data):
        """Draw N rows (repeats allowed) and the rows ``forward`` saw
        first: the batch is the reference walk row by row, counts the hits
        N forwards would count, and leaves the results, captured
        boundaries and link they would leave."""
        plan = property_plan(spec)[0]
        pool = property_input(spec, 8)
        picks = data.draw(st.lists(st.integers(0, 7), min_size=1, max_size=8),
                          label="rows")
        seen = data.draw(st.sets(st.sampled_from(picks)), label="seen first")
        xs = pool[picks]
        clear_memos()
        register_fronts(spec)
        for pick in sorted(seen):
            plan.forward(pool[pick])
        hits = plan.batch_memo_hits
        batched = plan.forward_batch(xs)
        assert same_bits(batched, reference_output(spec, 8)[picks]), picks
        kept = memo_state()
        assert kept[1], spec  # boundaries were captured
        answered = plan.batch_memo_hits - hits
        clear_memos()
        register_fronts(spec)
        for pick in sorted(seen):
            plan.forward(pool[pick])
        hits = plan.memo_hits
        for x in xs:
            plan.forward(x)
        assert answered == plan.memo_hits - hits
        assert kept == memo_state()


# -- the forward memo -------------------------------------------------------------


def misses(plan):
    """``forward`` calls the plan executed rather than answered from memo."""
    return plan.forwards - plan.memo_hits


def memoized(plan):
    """Whether the memo admits the plan's results (small outputs only)."""
    return int(np.prod(plan.output_shape)) <= plan_module._MEMO_MAX_VALUES


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
            (x,) = batch_for(plan, 1, seed=23)
            clear_memos()
            executed = misses(plan)
            first = plan.forward(x)
            hits = plan.memo_hits
            hit = plan.forward(x)
            if not memoized(plan):  # a large output is never answered
                assert plan.memo_hits == hits and misses(plan) == executed + 2
                assert entries(plan) == 0, plan.name
                continue
            assert plan.memo_hits == hits + 1 and misses(plan) == executed + 1
            clear_memos()
            fresh = plan.forward(x)
            assert misses(plan) == executed + 2
            assert same_bits(hit, fresh) and same_bits(hit, first), plan.name

    def test_mutating_a_result_never_poisons_a_hit(self):
        plan = build_model("tinynet").network.plan_for()
        (x,) = batch_for(plan, 1)
        clear_memos()
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
        clear_memos()
        plan.forward(x)
        with np.errstate(invalid="ignore", over="ignore"):
            for variant in bit_variants(x):
                plan.forward(variant)
        assert plan.memo_hits == 0 and entries(plan) == 6
        strided = np.zeros(x.shape[:-1] + (2 * x.shape[-1],), dtype=np.float32)
        strided[..., ::2] = x
        for same in (np.asfortranarray(x), strided[..., ::2],
                     x.astype(np.float64)):
            assert same_bits(plan.forward(same), plan.forward(x))
        assert plan.memo_hits == 6 and entries(plan) == 6

    def test_plans_never_share_entries(self):
        """Plans of different content never share an entry: a front half
        that stops at the logits is not the whole network, and a written
        bias is new content."""
        network = build_model("smallnet").network
        fc = next(index for index, layer in enumerate(network.layers)
                  if layer.kind == "fc")
        whole, front = network.plan_for(), network.split(fc).front.plan_for()
        (x,) = batch_for(whole, 1)
        clear_memos()
        for plan in (whole, front, whole, front):
            plan.forward(x)
        assert (whole.memo_hits, front.memo_hits) == (1, 1)
        assert misses(whole) == misses(front) == 1
        assert entries(whole) == entries(front) == 1
        # unfreeze-then-write recompiles: the new plan's chain is new, so
        # it finds no entry and computes with the new bias
        head = network.layers[fc]
        head.invalidate_param_cache()
        head.params["bias"][0] += np.float32(1.0)
        fresh = network.plan_for()
        assert fresh is not whole and fresh.chain != whole.chain
        assert entries(fresh) == 0
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
        bound = 3
        model = collections.OrderedDict()  # the LRU the memo must be
        hits = 0
        original = plan_module._MEMO_ENTRIES
        plan_module._MEMO_ENTRIES = bound
        clear_memos()
        try:
            for index in sequence:
                result = plan.forward(inputs[index])
                if index in model:
                    model.move_to_end(index)
                    hits += 1
                else:
                    model[index] = result.copy()
                    if len(model) > bound:
                        model.popitem(last=False)
                assert same_bits(result, model[index])
                assert len(plan_module._RESULTS) == len(model) <= bound
                assert plan.memo_hits == hits
        finally:
            plan_module._MEMO_ENTRIES = original

    def test_a_large_result_is_never_memoized(self):
        network = build_model("smallnet").network
        front = network.split(network.offload_points()[1].index).front.plan_for()
        assert np.prod(front.output_shape) > plan_module._MEMO_MAX_VALUES
        (x,) = batch_for(front, 1)
        clear_memos()
        assert same_bits(front.forward(x), front.forward(x))
        assert entries(front) == 0 and front.memo_hits == 0

    @pytest.mark.parametrize("count", [1, 3])
    def test_batched_and_traced_forwards_bypass_the_memo(self, count):
        """``forward_batch`` answers a planted entry the way ``forward``
        does; ``forward_traced`` alone executes and leaves the memo and
        the counters untouched.  The id is kept from when both bypassed
        the memo."""
        plan = build_model("smallnet").network.plan_for()
        xs = batch_for(plan, count)
        clear_memos()
        executed = plan.forward_batch(xs)
        keys = [(plan.chain, plan_module._bits(x)) for x in xs]
        assert list(plan_module._RESULTS) == keys
        planted = np.full_like(executed[0], -1.0)
        plan_module._RESULTS[keys[0]] = planted

        def state():
            return (list(plan_module._RESULTS), list(plan_module._LINKS),
                    plan.memo_hits, plan.forwards, plan.batch_memo_hits)

        before = state()
        assert same_bits(plan.forward_traced(xs)[0], executed)
        assert same_bits(plan.forward_traced(xs[0])[0], executed[0])
        assert state() == before
        hits = plan.batch_memo_hits
        answered = plan.forward_batch(xs)
        assert plan.batch_memo_hits == hits + count
        assert same_bits(answered[0], planted)
        assert same_bits(answered[1:], executed[1:])
        assert same_bits(plan.forward(xs[0]), planted)
