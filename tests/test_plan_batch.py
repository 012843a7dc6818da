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
* the arena grows to the largest batch seen and is then reused by every
  smaller batch and by ``forward``, and the no-alias / no-clobber
  invariant holds at N > 1;
* callers own what they are returned: nothing shares memory with a slot
  or with the kernel scratch.
"""

import numpy as np
import pytest

from repro.nn import tensor
from repro.nn.plan import (
    AffineStep,
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


# -- the nine ``run_batch`` bodies as they were, kept verbatim as the oracle ----


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


def affine_run_batch(self, inputs):
    out = inputs[0] * self.scale[None]
    if self.shift is not None:
        out += self.shift[None]
    return out


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
    AffineStep: affine_run_batch,
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


def slot_ids(plan):
    return [id(slot) for slot in plan._slots]


def aliases_plan_memory(plan, array):
    return any(np.shares_memory(array, slot) for slot in plan._slots) or any(
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
        single = plan.forward(xs[0])
        compiled = slot_ids(plan)
        first = plan.forward_batch(xs)
        grown = slot_ids(plan)
        assert grown != compiled
        assert [slot.size for slot in plan._slots] == [
            8 * capacity for capacity in plan._capacities
        ]
        assert same_bits(plan.forward_batch(xs), first)
        assert same_bits(plan.forward_batch(xs[:3]), parent_forward_batch(plan, xs[:3]))
        assert same_bits(plan.forward(xs[0]), single)
        assert slot_ids(plan) == grown
        # per-sample accounting does not move with the batch
        assert plan.stats.arena_bytes == 4 * sum(plan._capacities)

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
                assert not aliases_plan_memory(plan, first)
                first.fill(np.float32(-7.0))
                again = run(argument)
                assert again is not first
                assert same_bits(again, kept)
                assert not aliases_plan_memory(plan, again)
