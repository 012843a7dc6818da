"""Size accounting of protocol payloads and small helpers."""

import pytest

from repro.core import protocol
from repro.netsim.message import payload_size
from repro.netsim.topology import Host
from repro.nn.zoo import smallnet
from repro.web import WebRuntime
from repro.web.app import make_inference_app


class TestPayloadSizing:
    def test_capability_and_ack_are_tiny(self):
        assert protocol.CapabilityPayload(True, "edge").size_bytes <= 128
        assert payload_size(protocol.ack_payload("m:1")) < 64

    def test_error_payload_scales_with_reason(self):
        short = protocol.ErrorPayload("no")
        long = protocol.ErrorPayload("x" * 500)
        assert long.size_bytes - short.size_bytes == 498

    def test_result_payload_includes_fingerprint(self):
        from repro.core.snapshot import fingerprint_runtime

        model = smallnet()
        runtime = WebRuntime()
        runtime.load_app(make_inference_app(model))
        fingerprint = fingerprint_runtime(runtime)

        class StubDelta:
            size_bytes = 100

        with_fp = protocol.ResultPayload(StubDelta(), fingerprint=fingerprint)
        without_fp = protocol.ResultPayload(StubDelta())
        assert with_fp.size_bytes - without_fp.size_bytes == fingerprint.size_bytes
        assert fingerprint.size_bytes > 100


class TestProfilesAndHosts:
    def test_host_role_validated(self):
        Host("ok", role="edge")
        with pytest.raises(ValueError):
            Host("bad", role="mainframe")

    def test_host_tags(self):
        host = Host("edge-1", role="edge", tags={"zone": "a"})
        assert host.tags["zone"] == "a"
