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
  ``forward_traced`` never reads it, so it is the executed oracle here.
"""

import numpy as np
import pytest

from repro.nn import plan as plan_module
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


@pytest.fixture(scope="module", params=sorted(BUILDERS))
def model(request):
    return build_model(request.param)


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
