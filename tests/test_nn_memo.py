"""An inference is computed once, however it is split.

The compiled plans share one process-wide result memo keyed by content:
``(chain, sha1 of the input bits)``, where a plan's chain is one print per
spine layer it covers.  Every executed single-sample forward links the
sha1 of its output to its own key, and a lookup that misses follows the
link of its input.  What must hold:

* after ``model.inference(x)`` and ``front.inference(x)``, the rear
  half's forward on that feature is answered from the memo — on every zoo
  model, at the first, a middle and the last offload point — with the
  bits an executed rear computes;
* a feature one ulp away executes;
* an early exit's pruned network (``Network.at_exit``) composes with its
  front the same way — on both exit models, at the first and the last
  split before each exit;
* two separately built models with the same parameters share entries;
* after the supported in-place write (``invalidate_param_cache``, then
  write) nothing stale is answered;
* ``forward_batch`` reads the memo row by row, as ``forward`` does;
  ``forward_traced`` never reads it, so it is the executed oracle here;
* a front half compiled before a forward of its whole network on the same
  input is answered with the boundary that forward ran through, unless
  no step produced that value (a conv or fc before its fused ReLU, an
  elided layer, the input) or it is larger than the boundary budget; an
  answered front links its output, so the rear is answered too, and
  nothing is stale after a write (a Hypothesis property over the zoo);
* the captured boundaries are a byte-bounded LRU whose byte count is
  exact and never over its budget, and the registry of compiled chains
  is bounded too;
* a piece between two split points is answered through its front's link
  from a captured boundary, and an identity plan leaves the link alone.
"""

import collections
import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.nn import plan as plan_module
from repro.nn.layers.activation import DropoutLayer, ReLULayer
from repro.nn.layers.exits import ExitHead
from repro.nn.layers.io import InputLayer
from repro.nn.zoo import BUILDERS, EXIT_MODELS, build_model
from repro.sim import SeededRng
from tests.memos import clear_memos, entries
from tests.test_backend import same_bits


def image_for(network, seed=31):
    return SeededRng(seed, f"memo/{network.name}").uniform_array(
        network.input_shape, 0, 255
    )


def representative_points(network):
    """The first, a middle and the last offload point."""
    points = network.offload_points()
    return [points[0], points[len(points) // 2], points[-1]]


@functools.lru_cache(maxsize=None)
def zoo_model(name):
    """One build per zoo model for the tests that only run it."""
    return build_model(name)


@pytest.fixture(scope="module", params=sorted(BUILDERS))
def model(request):
    return zoo_model(request.param)


class TestSplitRule:
    def test_rear_is_answered_by_the_whole_networks_result(self, model):
        network = model.network
        x = image_for(network)
        clear_memos()
        whole = model.inference(x)
        for point in representative_points(network):
            front, rear = model.split(point.index)
            feature = front.inference(x)
            plan = rear.network.plan_for()
            hits = plan.memo_hits
            answered = rear.inference(feature)
            assert plan.memo_hits == hits + 1, point.label
            executed = plan.forward_traced(feature)[0]
            assert same_bits(answered, executed), point.label
            assert same_bits(answered, whole), point.label

    def test_a_feature_one_ulp_away_executes(self):
        model = build_model("smallnet")
        network = model.network
        x = image_for(network)
        clear_memos()
        model.inference(x)
        front, rear = model.split(network.point_by_label("2nd_pool").index)
        feature = front.inference(x)
        nudged = feature.copy()
        flat = nudged.reshape(-1)
        flat[0] = np.nextafter(flat[0], np.float32(np.inf))
        plan = rear.network.plan_for()
        answered = rear.inference(nudged)
        assert plan.memo_hits == 0 and plan.forwards == 1
        assert same_bits(answered, rear.network.forward_reference(nudged))

    def test_an_exit_plan_composes_with_its_front(self):
        network = build_model("smallnet_exits").network
        x = image_for(network)
        pruned = network.at_exit(network.exit_by_name("exit2").index)
        halves = pruned.split(network.point_by_label("1st_pool").index)
        clear_memos()
        early = pruned.forward(x)
        feature = halves.front.forward(x)
        rear = halves.rear.plan_for()
        answered = rear.forward(feature)
        assert rear.memo_hits == 1
        assert same_bits(answered, rear.forward_traced(feature)[0])
        assert same_bits(answered, early)

    @pytest.mark.parametrize("name", EXIT_MODELS)
    def test_an_exits_rear_half_is_answered_through_the_link(self, name):
        network = build_model(name).network
        x = image_for(network)
        for exit in network.exit_points()[:-1]:
            pruned = network.at_exit(exit.index)
            splits = [point.index for point in network.offload_points()
                      if 0 < point.index < exit.index]
            for split in (splits[0], splits[-1]):
                halves = pruned.split(split)
                clear_memos()
                pruned.forward(x)
                feature = halves.front.forward(x)
                rear = halves.rear.plan_for()
                own = (rear.chain, plan_module._bits(feature))
                assert own not in plan_module._RESULTS  # only the link answers
                answered = rear.forward(feature)
                assert rear.memo_hits == 1, (exit.name, split)
                executed = rear.forward_traced(feature)[0]
                assert same_bits(answered, executed), (exit.name, split)


class TestContentKeys:
    def test_separately_built_models_share_entries(self):
        first, second = build_model("resnet-mini"), build_model("resnet-mini")
        x = image_for(first.network)
        clear_memos()
        result = first.inference(x)
        plan = second.network.plan_for()
        assert plan is not first.network.plan_for()
        assert plan.chain == first.network.plan_for().chain
        assert same_bits(second.inference(x), result)
        assert plan.memo_hits == 1 and entries(plan) == 1

    def test_no_stale_hit_after_an_unfreeze_and_write(self):
        model = build_model("smallnet")
        network = model.network
        x = image_for(network)
        before = model.inference(x)
        conv = network.layers[1]
        conv.invalidate_param_cache()
        conv.params["weight"][...] += np.float32(1.0)
        after = model.inference(x)
        assert network.plan_for().memo_hits == 0
        assert not same_bits(after, before)
        assert same_bits(after, network.forward_reference(x))

    def test_batched_and_traced_forwards_never_read_the_memo(self):
        """``forward_batch`` answers a planted entry the way ``forward``
        does; ``forward_traced`` executes and leaves the memo and the
        counters as they were (the id is kept from when both bypassed
        it)."""
        plan = build_model("smallnet").network.plan_for()
        x = image_for(build_model("smallnet").network)
        clear_memos()
        executed = plan.forward(x)
        ((key, stored),) = plan_module._RESULTS.items()
        planted = np.full_like(stored, -1.0)
        plan_module._RESULTS[key] = planted
        assert same_bits(plan.forward(x), planted)  # the memo answers forward
        assert same_bits(plan.forward_batch(x[None])[0], planted)
        counters = (plan.forwards, plan.memo_hits, plan.batch_memo_hits)
        assert same_bits(plan.forward_traced(x)[0], executed)
        assert list(plan_module._RESULTS) == [key]
        assert plan_module._RESULTS[key] is planted
        assert (plan.forwards, plan.memo_hits, plan.batch_memo_hits) == counters


# -- a front half is answered by the forward that ran through its split point ----


def answerable(network, index):
    """Whether the whole network's plan materialises the value after spine
    layer ``index`` as a step output of its own, small enough to keep: not
    the input, not an elided layer's repeat, not a conv or fc whose ReLU
    the plan fuses into it."""
    layer, following = network.layers[index], network.layers[index + 1]
    if isinstance(layer, (InputLayer, DropoutLayer, ExitHead)):
        return False
    if layer.kind in ("conv", "fc") and isinstance(following, ReLULayer):
        return False
    nbytes = 4 * int(np.prod(layer.out_shape))
    return nbytes <= plan_module._BOUNDARY_BYTES


def boundary_bytes_agree():
    """The kept byte count is the boundaries' own, within the budget."""
    held = sum(value.nbytes for value in plan_module._BOUNDARIES.values())
    return plan_module._boundary_bytes == held <= plan_module._BOUNDARY_BYTES


class TestFrontAnsweredByTheWholeForward:
    @settings(max_examples=40, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(name=st.sampled_from(sorted(BUILDERS)), data=st.data())
    def test_front_and_rear_are_answered_with_the_executed_bits(self, name, data):
        model = zoo_model(name)
        network = model.network
        points = network.offload_points()
        point = data.draw(st.sampled_from(points), label="point")
        seed = data.draw(st.integers(0, 3), label="seed")
        x = image_for(network, seed)
        clear_memos()
        front, rear = model.split(point.index)
        front_plan = front.network.plan_for()  # registers the front's chain
        rear_plan = rear.network.plan_for()
        whole = model.inference(x)
        hits = front_plan.memo_hits
        feature = front.inference(x)
        answered = front_plan.memo_hits - hits
        assert answered == answerable(network, point.index), point.label
        assert same_bits(feature, front_plan.forward_traced(x)[0]), point.label
        assert same_bits(feature, network.forward_reference(x, end=point.index))
        hits = rear_plan.memo_hits
        assert same_bits(rear.inference(feature), whole), point.label
        assert rear_plan.memo_hits == hits + 1, point.label  # through the link
        assert boundary_bytes_agree()

    def test_a_fused_conv_boundary_executes(self):
        model = zoo_model("smallnet")
        network = model.network
        conv = next(
            index for index, layer in enumerate(network.layers[:-1])
            if layer.kind == "conv"
            and isinstance(network.layers[index + 1], ReLULayer)
        )
        x = image_for(network)
        clear_memos()
        front = network.split(conv).front
        plan = front.plan_for()
        model.inference(x)
        assert same_bits(front.forward(x), network.forward_reference(x, end=conv))
        assert plan.memo_hits == 0 and plan.forwards == 1
        assert not any(
            chain == plan.chain for chain, _ in plan_module._BOUNDARIES
        )

    def test_a_front_compiled_after_the_forward_executes(self):
        """Only registered chains are captured: the whole forward cannot
        know a front that does not exist yet."""
        model = zoo_model("smallnet")
        network = model.network
        pool = network.point_by_label("1st_pool").index
        x = image_for(network)
        clear_memos()
        model.inference(x)
        front = network.split(pool).front
        front.forward(x)
        assert front.plan_for().memo_hits == 0
        assert not plan_module._BOUNDARIES

    def test_a_front_that_asked_gets_no_boundary(self):
        """A front that looked an input up was answered or ran itself, so a
        whole forward of that input afterwards keeps no boundary for it;
        an input it has not asked for is captured as before."""
        model = zoo_model("smallnet")
        network = model.network
        pool = network.point_by_label("1st_pool").index
        asked, fresh = image_for(network, 0), image_for(network, 1)
        clear_memos()
        network.split(pool).front.forward(asked)
        model.inference(asked)
        assert not plan_module._BOUNDARIES
        model.inference(fresh)
        assert [bits for _, bits in plan_module._BOUNDARIES] == [
            plan_module._bits(fresh)
        ]
        assert boundary_bytes_agree()

    def test_no_stale_boundary_after_an_unfreeze_and_write(self):
        model = build_model("smallnet")
        network = model.network
        pool = network.point_by_label("2nd_pool").index
        x = image_for(network)
        clear_memos()
        network.split(pool).front.plan_for()
        model.inference(x)
        before = network.split(pool).front.forward(x)
        assert plan_module._BOUNDARIES  # the first front was answered
        conv = network.layers[1]
        conv.invalidate_param_cache()
        conv.params["weight"][...] += np.float32(1.0)
        front = network.split(pool).front
        plan = front.plan_for()
        after = front.forward(x)
        assert plan.memo_hits == 0
        assert not same_bits(after, before)
        assert same_bits(after, network.forward_reference(x, end=pool))
        model.inference(x)  # the recompiled whole network captures anew
        assert same_bits(network.split(pool).front.forward(x), after)

    def test_a_rear_networks_first_layer_is_a_boundary(self):
        """The value after a network's first printed layer is a boundary
        too: here a rear half that starts with a pool."""
        network = zoo_model("smallnet").network
        relu = network.point_by_label("relu1").index
        x = image_for(network)
        feature = network.forward_reference(x, end=relu)
        rear = network.split(relu).rear
        clear_memos()
        head = rear.split(0).front  # the pool alone
        plan = head.plan_for()
        rear.forward(feature)
        assert same_bits(head.forward(feature),
                         rear.forward_reference(feature, end=0))
        assert plan.memo_hits == 1

    def test_a_middle_piece_is_answered_through_the_link(self):
        """A piece between two split points follows the link of the front
        that fed it to the boundary the whole forward captured; its
        feature-sized answer is not kept among the results."""
        model = zoo_model("smallnet")
        network = model.network
        first = network.point_by_label("1st_pool").index
        second = network.point_by_label("relu2").index
        x = image_for(network)
        clear_memos()
        outer = network.split(second).front
        outer.plan_for()
        model.inference(x)
        feature = network.split(first).front.forward(x)  # executes, links
        middle = outer.split(first).rear
        plan = middle.plan_for()
        assert np.prod(plan.output_shape) > plan_module._MEMO_MAX_VALUES
        answered = middle.forward(feature)
        assert plan.memo_hits == 1 and entries(plan) == 0
        assert same_bits(answered, network.forward_reference(x, end=second))

    def test_an_identity_forward_leaves_the_link(self):
        """A plan with no chain (a front half that stops at the input)
        computes nothing worth linking: between a front and its rear it
        leaves the front's link, and the rear is answered through it and
        then kept under its own key."""
        model = zoo_model("tinynet")
        network = model.network
        x = image_for(network)
        clear_memos()
        whole = model.inference(x)
        front, rear = model.split(network.point_by_label("1st_pool").index)
        feature = front.inference(x)  # compiled after the whole forward
        identity = network.split(0).front.plan_for()
        assert not identity.chain
        assert np.prod(identity.output_shape) <= plan_module._MEMO_MAX_VALUES
        identity.forward(image_for(network, seed=7))
        plan = rear.network.plan_for()
        assert same_bits(rear.inference(feature), whole)
        assert plan.memo_hits == 1
        assert (plan.chain, plan_module._bits(feature)) in plan_module._RESULTS

    def test_the_registry_forgets_the_least_recently_compiled_chain(self):
        model = zoo_model("smallnet")
        network = model.network
        x = image_for(network)
        original = plan_module._CHAIN_ENTRIES
        plan_module._CHAIN_ENTRIES = 2
        clear_memos()
        try:
            fronts = [
                network.split(network.point_by_label(label).index).front
                for label in ("1st_pool", "norm1", "2nd_pool")
            ]
            plans = [front.plan_for() for front in fronts]
            assert list(plan_module._CHAINS) == [plans[1].chain, plans[2].chain]
            model.inference(x)
            for front in fronts:
                front.forward(x)
            assert [plan.memo_hits for plan in plans] == [0, 1, 1]
        finally:
            plan_module._CHAIN_ENTRIES = original

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        calls=st.lists(
            st.tuples(st.sampled_from(["whole", "front"]), st.integers(0, 5)),
            min_size=1, max_size=24,
        ),
        budget=st.integers(1, 4),
    )
    def test_boundaries_are_a_byte_bounded_lru(self, calls, budget):
        """With the budget set to a whole number of boundaries, the kept
        boundaries are those of the most recently used inputs: a whole
        forward that executes captures one unless the front already looked
        that input up (it was answered or ran itself), a front answered by
        one refreshes it; the byte count is exact.  The front's output is too
        large for its own results to be memoized, and the whole network's
        result is, so a repeated whole forward is answered and captures
        nothing."""
        model = zoo_model("smallnet")
        network = model.network
        split = network.point_by_label("1st_pool").index
        inputs = [image_for(network, seed) for seed in range(6)]
        nbytes = 4 * int(np.prod(network.layers[split].out_shape))
        original = plan_module._BOUNDARY_BYTES
        plan_module._BOUNDARY_BYTES = budget * nbytes
        kept = collections.OrderedDict()  # the inputs the budget keeps
        classified = set()
        asked = set()  # the inputs the front looked up
        clear_memos()
        try:
            front = network.split(split).front.plan_for()
            assert answerable(network, split)
            assert np.prod(front.output_shape) > plan_module._MEMO_MAX_VALUES
            for entry, index in calls:
                x = inputs[index]
                if entry == "whole":
                    network.forward(x)
                    if index not in classified:
                        classified.add(index)
                        if index not in asked:
                            kept[index] = None
                        if len(kept) > budget:
                            kept.popitem(last=False)
                else:
                    asked.add(index)
                    hits = front.memo_hits
                    assert same_bits(
                        front.forward(x),
                        network.forward_reference(x, end=split),
                    )
                    assert front.memo_hits == hits + (index in kept)
                    if index in kept:
                        kept.move_to_end(index)
                assert [bits for _, bits in plan_module._BOUNDARIES] == [
                    plan_module._bits(inputs[seed]) for seed in kept
                ]
                assert boundary_bytes_agree()
        finally:
            plan_module._BOUNDARY_BYTES = original

    def test_a_boundary_over_the_budget_is_not_kept(self):
        model = zoo_model("smallnet")
        network = model.network
        split = network.point_by_label("1st_pool").index
        nbytes = 4 * int(np.prod(network.layers[split].out_shape))
        x = image_for(network)
        original = plan_module._BOUNDARY_BYTES
        plan_module._BOUNDARY_BYTES = nbytes - 1
        clear_memos()
        try:
            front = network.split(split).front.plan_for()
            model.inference(x)
            assert not plan_module._BOUNDARIES and boundary_bytes_agree()
            front.forward(x)
            assert front.memo_hits == 0
        finally:
            plan_module._BOUNDARY_BYTES = original
