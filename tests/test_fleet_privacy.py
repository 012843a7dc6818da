"""The paper's privacy contract as a fleet invariant.

Partial inference ships "only denatured feature data": in
``offload-partial`` mode no snapshot a client sends to an edge — full,
delta, a delta after a new image, a failover re-send — may contain an
image the run drew (:func:`repro.core.privacy.snapshot_exposes_input`).

Split 0 is excluded throughout: its front half is the input layer alone,
so its feature *is* the input, and shipping it is the full offload the
split asks for.
"""

import contextlib
import io
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.privacy import snapshot_exposes_input
from repro.core.server import EdgeServer
from repro.core.snapshot import capture
from repro.fleet import FleetScenario, default_fleet
from repro.nn.zoo import build_model
from repro.serve import ServingConfig
from repro.web.dom import Element

#: small partial-mode models and their spine lengths
SPINES = {name: len(build_model(name).network.layers) for name in ("tinynet", "smallnet")}


@contextlib.contextmanager
def recording():
    """Record every snapshot that reaches an edge, and every image any
    canvas is drawn with, while the block runs."""
    sent, drawn = [], []
    on_snapshot = EdgeServer._on_snapshot
    draw_image = Element.draw_image

    def record_snapshot(server, endpoint, message):
        sent.append(message.payload.snapshot)
        return on_snapshot(server, endpoint, message)

    def record_image(element, pixels):
        draw_image(element, pixels)
        drawn.append(np.array(element.image_data.data, copy=True))

    with mock.patch.object(EdgeServer, "_on_snapshot", record_snapshot), \
            mock.patch.object(Element, "draw_image", record_image):
        yield sent, drawn


def exposing(sent, drawn):
    return [
        snapshot for snapshot in sent
        if any(snapshot_exposes_input(snapshot, image) for image in drawn)
    ]


@st.composite
def tenant_mixes(draw):
    """One to three ``model:split`` tenants, every split past the input."""
    specs = []
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(sorted(SPINES)))
        split = draw(st.integers(1, SPINES[name] - 2))
        specs.append(f"{name}:{split}")
    return specs


class TestNoSnapshotExposesTheInput:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        tenants=tenant_mixes(),
        serving=st.booleans(),
        kill=st.booleans(),
    )
    def test_partial_mode_ships_features_only(self, seed, tenants, serving, kill):
        scenario = FleetScenario(
            edges=default_fleet(2),
            sessions=4,
            requests_per_session=3,
            mode="offload-partial",
            tenants=tenants,
            seed=seed,
            serving=ServingConfig() if serving else None,
        )
        if kill:  # failover re-sends, and deltas against a lost session
            scenario.inject_kill("edge-0", 0.3, revive_at_seconds=1.0, cold=True)
        with recording() as (sent, drawn):
            scenario.run()
        assert sent and drawn
        assert exposing(sent, drawn) == []

    def test_serve_split_2_sends_twelve_snapshots_none_with_the_input(self):
        argv = ["serve", "--sessions", "6", "--requests", "2", "--seed", "1",
                "--split-index", "2"]
        with recording() as (sent, drawn), \
                contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert [s.kind for s in sent] == ["full"] * 6 + ["delta"] * 6
        assert exposing(sent, drawn) == []

        # The probe sees a leak: shipping every canvas bitmap, as every
        # fleet session once did, exposes all six full snapshots and the
        # one delta sent after a new image.
        with recording() as (sent, drawn), \
                contextlib.redirect_stdout(io.StringIO()), \
                mock.patch.object(capture, "_drawn", lambda *args: None):
            assert main(argv) == 0
        leaks = exposing(sent, drawn)
        assert [s.kind for s in leaks] == ["full"] * 6 + ["delta"]
