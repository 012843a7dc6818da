"""Unit and property tests for the serving loop's batching rule.

A dispatcher cuts a batch once its queue holds ``max_batch`` items or the
oldest item has waited ``batch_timeout_s``; the solo queue cuts with
``(1, 0.0)``.  Every test drives a bare :class:`~repro.serve.ServingLoop`
(``compute=None`` — virtual time only).  The Hypothesis suite generates
arrival schedules and checks the forming invariants the design guarantees:

* **timeout bound** — no item sits in the forming queue longer than the
  batch timeout (the dispatcher never blocks on execution, so the bound
  is exact, not amortized);
* **size cap** — no batch ever exceeds ``max_batch``;
* **FIFO per queue** — batches are FIFO prefixes, so items sharing a batch
  key are formed in arrival order (which preserves per-client order);
* **deadline accounting** — a miss is counted once per item: at dequeue if
  the deadline passed in the queue (dead on arrival), else at completion.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.device import Device
from repro.devices.profiles import edge_server_x86
from repro.serve import (
    FormerError,
    ServingConfig,
    ServingDropped,
    ServingLoop,
)
from repro.sim import Simulator

_EPS = 1e-6


class TestFormerRegistry:
    def test_invalid_knobs_raise(self):
        with pytest.raises(FormerError):
            ServingConfig(max_batch=0)
        with pytest.raises(FormerError):
            ServingConfig(batch_timeout_s=-1)


class TestSizeTimeoutFormer:
    def test_full_batch_dispatches_now(self):
        completed = _drive(
            [(0.0, "m"), (0.0, "m")], max_batch=2, timeout_s=10.0
        )
        assert [item.formed_at for item in completed] == [0.0, 0.0]
        assert [item.batch_size for item in completed] == [2, 2]

    def test_partial_batch_waits_out_the_timeout(self):
        # A lone item at t=1.0 is cut when its 0.5 s wait runs out; a
        # batch-mate arriving meanwhile re-evaluates but does not reset
        # the oldest item's clock.
        completed = _drive(
            [(1.0, "m"), (0.4, "m")], max_batch=4, timeout_s=0.5
        )
        assert [item.formed_at for item in completed] == [
            pytest.approx(1.5), pytest.approx(1.5)
        ]
        assert [item.batch_size for item in completed] == [2, 2]

    def test_take_pops_fifo_prefix(self):
        completed = _drive(
            [(0.0, "m")] * 3, max_batch=2, timeout_s=0.5
        )
        by_id = {item.request_id: item for item in completed}
        assert [by_id[i].batch_size for i in range(3)] == [2, 2, 1]
        assert by_id[0].formed_at == by_id[1].formed_at == 0.0
        assert by_id[2].formed_at == pytest.approx(0.5)

    def test_immediate_former_never_waits(self):
        # A solo item (no batch hint) is cut at its enqueue instant, however
        # long the batch queues' timeout.
        completed = _drive([(99.0, None)], max_batch=8, timeout_s=10.0)
        (item,) = completed
        assert item.batch_size == 1
        assert item.formed_at == item.enqueued_at == 99.0


def _drive(arrivals, *, max_batch, timeout_s, exec_seconds=0.01,
           deadlines=None, stats=None, finished_at=None):
    """Run a bare loop over a generated arrival schedule.

    ``arrivals`` is a list of (delay_seconds, model_key) tuples; items are
    submitted sequentially with the given inter-arrival gaps, item ``i``
    with the per-request deadline ``deadlines[i]`` (None: no deadlines).
    Returns the completed items in completion order; ``stats``, if given,
    is updated with the loop's stats, and ``finished_at``, if given, maps
    each request id to the virtual instant its item completed.
    """
    sim = Simulator()
    device = Device(sim, edge_server_x86())
    loop = ServingLoop(
        sim,
        device,
        "edge-test",
        ServingConfig(max_batch=max_batch, batch_timeout_s=timeout_s),
    )
    completed = []

    def submitter():
        for index, (delay, key) in enumerate(arrivals):
            if delay > 0:
                yield sim.timeout(delay)
            item = loop.submit(
                sender=f"user-{index % 3}",
                request_id=index,
                browser=None,
                event=None,
                exec_seconds=exec_seconds,
                model_id=key,
                feature=object() if key else None,
                deadline_s=deadlines[index] if deadlines else None,
            )
            item.done.add_callback(on_done)

    def on_done(event):
        completed.append(event.value)
        if finished_at is not None:
            finished_at[event.value.request_id] = sim.now

    sim.spawn(submitter())
    sim.run(until=3600.0)
    if stats is not None:
        stats.update(loop.stats)
    return completed


arrival_schedules = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.05, allow_nan=False),
        st.sampled_from(["m1", "m2", None]),
    ),
    min_size=1,
    max_size=40,
)


class TestServingLoopProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        arrivals=arrival_schedules,
        max_batch=st.integers(min_value=1, max_value=6),
        timeout_s=st.floats(min_value=0.0, max_value=0.05, allow_nan=False),
    )
    def test_forming_invariants(self, arrivals, max_batch, timeout_s):
        completed = _drive(
            arrivals, max_batch=max_batch, timeout_s=timeout_s
        )
        assert len(completed) == len(arrivals)
        for item in completed:
            # Size cap: no batch ever exceeds max_batch (solo queue is 1).
            cap = max_batch if item.batchable else 1
            assert 1 <= item.batch_size <= cap
            # Timeout bound: forming wait never exceeds the batch
            # timeout (solo items never wait at all).
            forming_wait = item.formed_at - item.enqueued_at
            bound = timeout_s if item.batchable else 0.0
            assert forming_wait <= bound + _EPS
            # Accounting sanity.
            assert item.queue_seconds >= -_EPS
            assert item.exec_share_seconds >= 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        arrivals=arrival_schedules,
        max_batch=st.integers(min_value=1, max_value=6),
        timeout_s=st.floats(min_value=0.0, max_value=0.05, allow_nan=False),
    )
    def test_fifo_preserved_per_queue(self, arrivals, max_batch, timeout_s):
        completed = _drive(
            arrivals, max_batch=max_batch, timeout_s=timeout_s
        )
        # Items sharing a batch key are formed in arrival order: batches
        # are FIFO prefixes, so request ids (the submission order) must be
        # monotonically increasing along each key's formed_at order.
        by_key = {}
        for item in completed:
            by_key.setdefault(item.batch_key, []).append(item)
        for items in by_key.values():
            formed_order = sorted(
                items, key=lambda i: (i.formed_at, i.request_id)
            )
            ids = [i.request_id for i in formed_order]
            assert ids == sorted(ids)

    @settings(max_examples=40, deadline=None)
    @given(arrivals=arrival_schedules)
    def test_deadline_former_meets_generous_deadlines(self, arrivals):
        stats = {}
        completed = _drive(
            arrivals,
            max_batch=4,
            timeout_s=0.02,
            deadlines=[120.0] * len(arrivals),
            stats=stats,
        )
        assert len(completed) == len(arrivals)
        for item in completed:
            assert item.deadline_at is not None
        assert stats["deadline_misses"] == 0

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        arrivals=arrival_schedules,
        max_batch=st.integers(min_value=1, max_value=6),
        timeout_s=st.floats(min_value=0.0, max_value=0.05, allow_nan=False),
    )
    def test_deadline_misses_counted_once(
        self, data, arrivals, max_batch, timeout_s
    ):
        # Deadlines racing batches: SLOs from well inside the forming
        # timeout to well past the execution time, so items die in the
        # queue, die while executing, or make it.
        deadlines = data.draw(
            st.lists(
                st.floats(min_value=1e-4, max_value=0.2, allow_nan=False),
                min_size=len(arrivals),
                max_size=len(arrivals),
            )
        )
        stats, finished_at = {}, {}
        completed = _drive(
            arrivals,
            max_batch=max_batch,
            timeout_s=timeout_s,
            deadlines=deadlines,
            stats=stats,
            finished_at=finished_at,
        )
        assert len(completed) == len(arrivals)
        dead = [item for item in completed if item.formed_at > item.deadline_at]
        assert [item.dead_on_arrival for item in completed] == [
            item in dead for item in completed
        ]
        assert stats["dead_on_arrival"] == len(dead)
        late = [
            item
            for item in completed
            if not item.dead_on_arrival
            and finished_at[item.request_id] > item.deadline_at
        ]
        assert stats["deadline_misses"] == len(dead) + len(late)


class TestServingLoopMechanics:
    def test_conservation_and_stats(self):
        completed = _drive(
            [(0.0, "m")] * 7, max_batch=4, timeout_s=0.01
        )
        assert sorted(i.request_id for i in completed) == list(range(7))

    def test_batch_cost_is_amortized(self):
        sim = Simulator()
        device = Device(sim, edge_server_x86())
        solo = device.batch_forward_seconds([0.01])
        assert solo == pytest.approx(0.01)
        four = device.batch_forward_seconds([0.01] * 4)
        assert four < 4 * 0.01
        marginal = device.profile.batch_marginal_fraction
        assert four == pytest.approx(0.01 + marginal * 0.03)
        assert device.batch_forward_seconds([]) == 0.0

    def test_drain_fails_queued_items(self):
        sim = Simulator()
        device = Device(sim, edge_server_x86())
        loop = ServingLoop(
            sim, device, "edge-test",
            ServingConfig(max_batch=8, batch_timeout_s=10.0),
        )
        failures = []

        def proc():
            item = loop.submit(
                sender="u", request_id=1, browser=None, event=None,
                exec_seconds=0.01, model_id="m", feature=object(),
            )
            try:
                yield item.done
            except ServingDropped as exc:
                failures.append(exc)

        sim.spawn(proc())
        sim.run(until=0.5)  # long before the 10s forming timeout
        assert loop.depth() == 1
        dropped = loop.drain(ServingDropped("restart"))
        sim.run(until=1.0)
        assert dropped == 1
        assert len(failures) == 1
        assert loop.depth() == 0

    def test_depth_gauge_tracks_queue(self):
        sim = Simulator()
        device = Device(sim, edge_server_x86())
        loop = ServingLoop(
            sim, device, "edge-test",
            ServingConfig(max_batch=8, batch_timeout_s=10.0),
        )

        def proc():
            for i in range(3):
                loop.submit(
                    sender="u", request_id=i, browser=None, event=None,
                    exec_seconds=0.01, model_id="m", feature=object(),
                )
            if False:
                yield

        sim.spawn(proc())
        sim.run(until=0.001)
        assert sim.metrics.value("server_queue_depth", server="edge-test") == 3
        sim.run(until=60.0)
        assert sim.metrics.value("server_queue_depth", server="edge-test") == 0
        assert loop.stats["items"] == 3
