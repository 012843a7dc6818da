"""Property-based invariants of the fleet scheduler and scenarios.

Three families, per the fleet design contract:

* **determinism** — a scheduler fed the same seed and the same observation
  sequence picks the same edges; a whole scenario replays bit-for-bit.
* **conservation** — every admitted request is served exactly once, under
  any policy and any survivable kill schedule.
* **liveness hygiene** — no policy ever picks a dead (detached) or
  excluded edge, whatever state the windows and queues are in.
* **one way in** — a session handshakes with exactly the edges it sends
  requests to, its first request included.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import FleetScenario, FleetScheduler, make_policy
from repro.fleet.policies import POLICY_NAMES
from repro.sim import SeededRng, Simulator

policies = st.sampled_from(POLICY_NAMES)

#: an observation script: (op, edge index, response seconds)
ops = st.lists(
    st.tuples(
        st.sampled_from(["begin", "complete", "fail", "revive", "pick"]),
        st.integers(min_value=0, max_value=3),
        st.floats(min_value=0.001, max_value=2.0, allow_nan=False),
    ),
    max_size=60,
)


def drive(policy_name, seed, script, names=("e0", "e1", "e2", "e3")):
    """Apply an observation script; return every pick the policy made."""
    sim = Simulator()
    scheduler = FleetScheduler(
        sim,
        names,
        make_policy(policy_name, SeededRng(seed, "prop")),
        max_outstanding_per_edge=4,
    )
    picks = []
    for op, index, seconds in script:
        name = names[index % len(names)]
        state = scheduler.edge(name)
        if op == "begin" and state.alive and state.outstanding < 4:
            scheduler.begin(name)
        elif op == "complete" and state.outstanding > 0:
            scheduler.complete(name, seconds)
        elif op == "fail" and state.outstanding > 0:
            scheduler.fail(name)
        elif op == "revive":
            scheduler.mark_alive(name)
        elif op == "pick":
            picks.append(scheduler.try_pick())
    return picks, scheduler


class TestSchedulerDeterminism:
    @settings(max_examples=60, deadline=None)
    @given(policy=policies, seed=st.integers(0, 2**32 - 1), script=ops)
    def test_same_seed_same_script_same_picks(self, policy, seed, script):
        first, _ = drive(policy, seed, script)
        second, _ = drive(policy, seed, script)
        assert first == second

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000), policy=policies)
    def test_scenario_replays_bit_for_bit(self, seed, policy):
        import json

        def run():
            report = FleetScenario(
                sessions=2, requests_per_session=1, seed=seed, policy=policy
            ).run()
            return json.dumps(report.as_dict(), sort_keys=True)

        assert run() == run()


class TestNeverPicksDetachedEdge:
    @settings(max_examples=80, deadline=None)
    @given(policy=policies, seed=st.integers(0, 2**32 - 1), script=ops)
    def test_picks_are_always_alive_and_under_cap(self, policy, seed, script):
        sim = Simulator()
        names = ("e0", "e1", "e2", "e3")
        sched = FleetScheduler(
            sim,
            names,
            make_policy(policy, SeededRng(seed, "prop")),
            max_outstanding_per_edge=4,
        )
        for op, index, seconds in script:
            name = names[index % len(names)]
            state = sched.edge(name)
            if op == "begin" and state.alive and state.outstanding < 4:
                sched.begin(name)
            elif op == "complete" and state.outstanding > 0:
                sched.complete(name, seconds)
            elif op == "fail" and state.outstanding > 0:
                sched.fail(name)
            elif op == "revive":
                sched.mark_alive(name)
            elif op == "pick":
                picked = sched.try_pick()
                if picked is not None:
                    chosen = sched.edge(picked)
                    assert chosen.alive, f"{policy} picked dead edge {picked}"
                    assert chosen.outstanding < 4

    @settings(max_examples=40, deadline=None)
    @given(policy=policies, seed=st.integers(0, 2**32 - 1), script=ops,
           dead=st.sets(st.integers(0, 3), max_size=3))
    def test_exclusion_is_respected(self, policy, seed, script, dead):
        names = ("e0", "e1", "e2", "e3")
        excluded = frozenset(names[i] for i in dead)
        _, scheduler = drive(policy, seed, script)
        for _ in range(5):
            picked = scheduler.try_pick(excluded)
            if picked is None:
                break
            assert picked not in excluded
            scheduler.begin(picked)


class TestConservation:
    @settings(max_examples=12, deadline=None)
    @given(
        policy=policies,
        seed=st.integers(0, 10_000),
        sessions=st.integers(1, 4),
        requests=st.integers(1, 2),
        kill_at=st.one_of(st.none(), st.floats(0.05, 2.0, allow_nan=False)),
    )
    def test_every_admitted_request_served_exactly_once(
        self, policy, seed, sessions, requests, kill_at
    ):
        scenario = FleetScenario(
            sessions=sessions,
            requests_per_session=requests,
            seed=seed,
            policy=policy,
            reply_timeout=1.0,
        )
        if kill_at is not None:
            # never kill the whole fleet: edge-0 only, the rest survive
            scenario.inject_kill("edge-0", kill_at)
        report = scenario.run()
        expected = sessions * requests
        keys = [(r.session, r.request_index) for r in report.records]
        assert len(keys) == expected
        assert len(set(keys)) == expected
        assert sum(row.served for row in report.edges) == expected
        assert report.all_correct


class TestHandshakeFollowsTheRequest:
    @settings(max_examples=20, deadline=None)
    @given(policy=policies, seed=st.integers(0, 10_000))
    def test_every_handshake_is_with_an_edge_that_serves_the_session(
        self, policy, seed
    ):
        # No kill and no budget: every channel lives for the whole run and
        # no request is refused, so each (session, edge) pair handshakes
        # exactly once — and only a pair some request went through.
        report = FleetScenario(
            sessions=4, requests_per_session=2, seed=seed, policy=policy
        ).run()
        pairs = {(r.session, r.edge) for r in report.records}
        assert report.handshake_hits + report.handshake_misses == len(pairs)
