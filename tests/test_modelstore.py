"""Multi-tenant model store: segment dedup, LRU eviction, manifest safety.

The battery behind PR 9's artifact store:

* ``begin_upload`` is idempotent only for *identical* manifests — a
  re-registration with a different file list raises instead of silently
  serving stale files (the S1 regression);
* content-addressed segments are shared across models (two rear halves of
  one network pay their common parameter blobs once) and
  ``missing_from_manifest`` answers the segment-level handshake;
* LRU eviction under ``memory_budget_bytes`` demotes entries to
  "files known, model cold", frees only unshared segments, never touches
  an in-flight upload, and admits a single oversized model;
* a model is served exactly when its upload is complete, and each call
  reports whether it completed the upload (the edge's one ACK).
"""

import pytest

from repro.nn.model import ModelFile
from repro.nn.modelstore import ModelStore, ModelStoreError
from repro.nn.zoo import smallnet, tinynet
from repro.obs.metrics import MetricsRegistry


def upload(store, model):
    """Drive a full upload for one model, message by message."""
    store.begin_upload(model.model_id, model.files(), model)
    for file in model.files():
        store.receive_file(model.model_id, file)


@pytest.fixture
def model():
    return smallnet()


@pytest.fixture
def rears(model):
    """Two rear halves of the same net: near-total segment overlap."""
    _, rear2 = model.split(2)
    _, rear3 = model.split(3)
    return rear2, rear3


class TestManifestSafety:
    def test_identical_reregistration_is_idempotent(self, model):
        store = ModelStore()
        store.begin_upload(model.model_id, model.files(), model)
        first = store.entry(model.model_id)
        store.begin_upload(model.model_id, model.files(), model)
        assert store.entry(model.model_id) is first

    def test_reordered_manifest_raises(self, model):
        store = ModelStore()
        store.begin_upload(model.model_id, model.files(), model)
        with pytest.raises(ModelStoreError, match="manifest mismatch"):
            store.begin_upload(model.model_id, list(reversed(model.files())), model)

    def test_truncated_manifest_raises(self, model):
        store = ModelStore()
        store.begin_upload(model.model_id, model.files(), model)
        with pytest.raises(ModelStoreError, match="manifest mismatch"):
            store.begin_upload(model.model_id, model.files()[:-1], model)

    def test_changed_checksum_raises(self, model):
        store = ModelStore()
        files = model.files()
        store.begin_upload(model.model_id, files, model)
        stale = [
            ModelFile(f.name, f.kind, f.size_bytes, checksum="f" * 16)
            if f.kind == "parameters" else f
            for f in files
        ]
        with pytest.raises(ModelStoreError, match="manifest mismatch"):
            store.begin_upload(model.model_id, stale, model)

    def test_mismatch_leaves_existing_entry_untouched(self, model):
        store = ModelStore()
        upload(store, model)
        with pytest.raises(ModelStoreError):
            store.begin_upload(model.model_id, model.files()[:1], model)
        assert store.has_complete(model.model_id)
        assert store.get_model(model.model_id) is model


class TestSegmentDedup:
    def test_shared_blobs_are_resident_once(self, rears):
        rear2, rear3 = rears
        store = ModelStore()
        upload(store, rear2)
        upload(store, rear3)
        union = {f.checksum: f.size_bytes for f in rear2.files()}
        union.update({f.checksum: f.size_bytes for f in rear3.files()})
        assert store.resident_bytes == sum(union.values())
        assert store.resident_bytes < rear2.total_bytes + rear3.total_bytes

    def test_begin_upload_claims_resident_segments(self, rears):
        rear2, rear3 = rears
        store = ModelStore()
        upload(store, rear2)
        store.begin_upload(rear3.model_id, rear3.files(), rear3)
        entry = store.entry(rear3.model_id)
        # the three parameter blobs are shared; only the description is new
        assert entry.missing == [f"{rear3.name}.json"]

    def test_missing_from_manifest_is_exactly_the_gap(self, rears):
        rear2, rear3 = rears
        store = ModelStore()
        assert store.missing_from_manifest(rear3.files()) == [
            f.name for f in rear3.files()
        ]
        upload(store, rear2)
        assert store.missing_from_manifest(rear3.files()) == [
            f"{rear3.name}.json"
        ]

    def test_dedup_completed_upload_attaches(self, rears):
        rear2, rear3 = rears
        store = ModelStore()
        upload(store, rear2)
        assert not store.begin_upload(rear3.model_id, rear3.files(), rear3)
        json_file = next(f for f in rear3.files() if f.kind == "description")
        assert store.receive_file(rear3.model_id, json_file)
        assert store.get_model(rear3.model_id) is rear3

    def test_manifest_of_resident_segments_completes_at_once(self, model):
        store = ModelStore()
        upload(store, model)
        # a second upload of a stored model is complete at its manifest,
        # and none of its files completes it again
        assert store.begin_upload(model.model_id, model.files(), model)
        assert not any(
            store.receive_file(model.model_id, file) for file in model.files()
        )


class TestFingerprintAtAttach:
    def test_store_attach_primes_fingerprint(self, model):
        store = ModelStore()
        store.begin_upload(model.model_id, model.files(), model)
        assert not store.matches_fingerprint(model.model_id, model.fingerprint())
        upload(store, model)
        assert store.matches_fingerprint(model.model_id, model.fingerprint())
        assert not store.matches_fingerprint(model.model_id, "bogus")

    def test_param_rebinding_still_invalidates_fingerprint(self, model):
        before = model.fingerprint()
        layer = next(l for l in model.network.layers if l.params)
        key = next(iter(layer.params))
        layer.params[key] = layer.params[key] * 2.0
        assert model.fingerprint() != before


class TestInstall:
    def test_partial_install_stays_registered_until_completed(self, model):
        store = ModelStore()
        files = model.files()
        assert not store.install(model, files[:1])
        entry = store.entry(model.model_id)
        assert entry.missing == sorted(f.name for f in files[1:])
        with pytest.raises(ModelStoreError, match="not available"):
            store.get_model(model.model_id)
        assert not store.matches_fingerprint(model.model_id, model.fingerprint())
        assert store.install(model, files[1:])
        assert store.entry(model.model_id) is entry
        assert store.get_model(model.model_id) is model
        assert store.matches_fingerprint(model.model_id, model.fingerprint())
        # complete before the call: the upload was ACKed when it completed
        assert not store.install(model, [])

    def test_install_keeps_the_attached_handle(self, model):
        store = ModelStore()
        assert store.install(model, model.files())
        twin = smallnet()
        assert not store.install(twin, twin.files())
        assert store.get_model(model.model_id) is model
        assert store.matches_fingerprint(twin.model_id, twin.fingerprint())

    def test_install_claims_resident_segments(self, rears):
        rear2, rear3 = rears
        store = ModelStore()
        store.install(rear2, rear2.files())
        json_file = next(f for f in rear3.files() if f.kind == "description")
        store.install(rear3, [json_file])
        assert store.get_model(rear3.model_id) is rear3


class TestLruEviction:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            ModelStore(0)
        with pytest.raises(ValueError):
            ModelStore(-1)

    def test_smallest_positive_budget_is_accepted(self):
        assert ModelStore(1).memory_budget_bytes == 1

    def test_resident_bytes_at_the_budget_evict_nothing(self, model):
        tiny = tinynet()
        probe = ModelStore()
        upload(probe, tiny)
        upload(probe, model)
        store = ModelStore(probe.resident_bytes)
        upload(store, tiny)
        upload(store, model)
        assert store.resident_bytes == store.memory_budget_bytes
        assert store.evictions == 0
        assert store.get_model(tiny.model_id) is tiny

    def test_eviction_stops_exactly_at_the_budget(self, model):
        victim, kept = tinynet(seed=1), tinynet(seed=2)
        probe = ModelStore()
        for each in (kept, model):
            upload(probe, each)
        # the budget is what stays resident once the victim alone is gone
        store = ModelStore(probe.resident_bytes)
        upload(store, victim)
        upload(store, kept)
        # largest file last: the budget first overflows on the final file,
        # and evicting the victim lands exactly on it
        store.begin_upload(model.model_id, model.files(), model)
        for file in sorted(model.files(), key=lambda f: f.size_bytes):
            store.receive_file(model.model_id, file)
        assert store.evictions == 1
        assert store.resident_bytes == store.memory_budget_bytes
        assert not store.has_complete(victim.model_id)
        assert store.get_model(kept.model_id) is kept

    def test_eviction_demotes_to_files_known_model_cold(self, model):
        tiny = tinynet()
        store = ModelStore(model.total_bytes + 100)
        upload(store, tiny)
        upload(store, model)  # overflows: tinynet is the LRU victim
        assert store.evictions == 1
        assert store.resident_bytes <= model.total_bytes + 100
        entry = store.entry(tiny.model_id)
        assert entry is not None  # manifest survives
        assert not entry.received
        with pytest.raises(ModelStoreError, match="not available"):
            store.get_model(tiny.model_id)
        assert [f.name for f in entry.manifest] == [
            f.name for f in tiny.files()
        ]
        assert not store.has_complete(tiny.model_id)
        assert not store.matches_fingerprint(
            tiny.model_id, tiny.fingerprint()
        )

    def test_demoted_model_reuploads_only_freed_segments(self, rears):
        rear2, rear3 = rears
        budget = max(rear2.total_bytes, rear3.total_bytes) + 700
        store = ModelStore(budget)
        upload(store, rear2)
        upload(store, rear3)  # union exceeds the budget: rear2 demoted
        assert store.evictions == 1
        assert store.resident_bytes <= budget
        # the shared parameter blobs survived via rear3's refs; only
        # rear2's description was actually freed
        assert store.missing_from_manifest(rear2.files()) == [
            f"{rear2.name}.json"
        ]

    def test_lru_order_respects_recent_touches(self):
        models = [tinynet(seed=k) for k in (1, 2, 3)]
        budget = sum(m.total_bytes for m in models[:2]) + 100
        store = ModelStore(budget)
        upload(store, models[0])
        upload(store, models[1])
        store.get_model(models[0].model_id)  # models[1] is now LRU
        upload(store, models[2])
        assert not store.has_complete(models[1].model_id)
        assert store.get_model(models[0].model_id) is models[0]

    def test_incomplete_upload_is_never_a_victim(self, model):
        tiny = tinynet()
        store = ModelStore(1000)
        store.begin_upload(model.model_id, model.files(), model)
        store.receive_file(model.model_id, model.files()[0])
        upload(store, tiny)  # pressure, but model's upload is in flight
        entry = store.entry(model.model_id)
        assert entry.received  # the partial upload kept its bytes
        for file in model.files()[1:]:
            store.receive_file(model.model_id, file)
        assert store.get_model(model.model_id) is model

    def test_oversized_single_model_is_admitted(self, model):
        store = ModelStore(1000)
        upload(store, model)
        assert store.get_model(model.model_id) is model
        assert store.resident_bytes > 1000  # documented overrun

    def test_known_model_without_a_handle_is_not_available(self, model):
        store = ModelStore()
        store.begin_upload(model.model_id, model.files(), model)
        with pytest.raises(ModelStoreError, match="not available"):
            store.get_model(model.model_id)

    def test_unbudgeted_store_never_evicts(self, model):
        tiny = tinynet()
        store = ModelStore()
        upload(store, model)
        upload(store, tiny)
        assert store.evictions == 0
        assert store.has_complete(model.model_id)
        assert store.has_complete(tiny.model_id)


class TestStoreMetrics:
    def test_gauge_and_counter_track_the_store(self, model):
        tiny = tinynet()
        registry = MetricsRegistry(clock=lambda: 0.0)
        store = ModelStore(
            model.total_bytes + 100, metrics=registry, server="edge-0"
        )
        upload(store, tiny)
        assert registry.value(
            "store_bytes_resident", server="edge-0"
        ) == float(tiny.total_bytes)
        upload(store, model)
        assert registry.value("store_evictions_total", server="edge-0") == 1.0
        assert registry.value(
            "store_bytes_resident", server="edge-0"
        ) == float(store.resident_bytes)
