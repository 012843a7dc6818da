"""Property-based invariants of the multi-tenant model store.

Random interleavings of begin/receive/corrupt/serve over a pool of
synthetic models whose manifests share content-addressed blobs, checked
against a shadow refcount model after every operation:

* **budget** — whenever resident bytes exceed the budget, every entry the
  LRU sweep was allowed to demote (complete, not the protected uploader)
  is already cold: eviction never under-delivers;
* **dedup** — ``missing_from_manifest`` is exactly the manifest files
  whose checksum has no resident segment — it never skips a file the
  server lacks and never requests one it holds;
* **integrity** — a corrupted file (wrong checksum) always rejects and
  leaves the store state untouched;
* **closure** — uploading exactly the reply's missing set completes the
  model (segment-status replies are sufficient as well as necessary);
* **completion** — a model is served exactly while its upload is
  complete, and ``begin_upload`` / ``receive_file`` report completing it
  exactly when they do (a manifest: complete once registered; a file:
  the one that turned the entry complete).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.nn.model import ModelFile
from repro.nn.modelstore import ModelStore, ModelStoreError

#: the content-addressed blob universe: checksum -> size (fixed, so equal
#: checksums always mean equal bytes, as sha1 addressing guarantees)
BLOBS = {f"blob{i:02d}": (i + 1) * 37 for i in range(8)}
MODEL_IDS = ["m0", "m1", "m2", "m3"]


class FakeModel:
    """Just enough model to store: a stable fingerprint."""

    def __init__(self, model_id):
        self.model_id = model_id

    def fingerprint(self):
        return f"fp:{self.model_id}"


def manifest_for(model_id, blob_indices):
    return [
        ModelFile(
            name=f"{model_id}.f{i}",
            kind="parameters",
            size_bytes=BLOBS[f"blob{i:02d}"],
            checksum=f"blob{i:02d}",
        )
        for i in sorted(blob_indices)
    ]


manifests = st.fixed_dictionaries(
    {
        mid: st.sets(
            st.integers(min_value=0, max_value=len(BLOBS) - 1),
            min_size=1,
            max_size=len(BLOBS),
        )
        for mid in MODEL_IDS
    }
)

operations = st.lists(
    st.tuples(
        st.sampled_from(["begin", "recv", "corrupt", "serve"]),
        st.sampled_from(MODEL_IDS),
        st.integers(min_value=0, max_value=len(BLOBS) - 1),
    ),
    max_size=80,
)

budgets = st.one_of(st.none(), st.integers(min_value=40, max_value=1500))


def shadow_segments(store, catalog):
    """Ground-truth segments from the entries' received sets."""
    held = {}
    for mid, files in catalog.items():
        entry = store.entry(mid)
        if entry is None:
            continue
        by_name = {f.name: f for f in files}
        for name in entry.received:
            held[by_name[name].checksum] = by_name[name].size_bytes
    return held


def check_invariants(store, catalog, budget, protect):
    held = shadow_segments(store, catalog)
    # resident bytes are exactly the unique received segment bytes
    assert store.resident_bytes == sum(held.values())
    for checksum in BLOBS:
        assert store.has_segment(checksum) == (checksum in held)
    # dedup answers: exactly the files whose checksum is not resident
    for mid, files in catalog.items():
        missing = store.missing_from_manifest(files)
        assert missing == [f.name for f in files if f.checksum not in held]
    # budget: an overrun is only ever carried by entries the sweep must
    # not touch — the protected uploader and in-flight (incomplete)
    # uploads; every other entry with bytes must already be demoted,
    # unless it alone exceeds the budget (documented oversize admission)
    if budget is not None and store.resident_bytes > budget:
        for mid in store.stored_ids():
            entry = store.entry(mid)
            if mid == protect or entry is None:
                continue
            if entry.received and entry.complete:
                assert entry.total_bytes > budget or mid == protect


@settings(max_examples=120, deadline=None, derandomize=True)
@given(shapes=manifests, script=operations, budget=budgets)
def test_random_interleavings_hold_invariants(shapes, script, budget):
    catalog = {
        mid: manifest_for(mid, indices) for mid, indices in shapes.items()
    }
    store = ModelStore(budget)
    last_uploader = None
    for op, mid, blob_index in script:
        files = catalog[mid]
        entry = store.entry(mid)
        if op == "begin":
            completed = store.begin_upload(mid, files, FakeModel(mid))
            assert completed == store.entry(mid).complete
        elif op == "recv" and entry is not None:
            file = files[blob_index % len(files)]
            was_complete = entry.complete
            completed = store.receive_file(mid, file)
            assert completed == (not was_complete and entry.complete)
            last_uploader = mid
        elif op == "corrupt" and entry is not None:
            file = files[blob_index % len(files)]
            bad = ModelFile(
                name=file.name,
                kind=file.kind,
                size_bytes=file.size_bytes,
                checksum="0" * 16,
            )
            before = set(store.entry(mid).received)
            with pytest.raises(ModelStoreError):
                store.receive_file(mid, bad)
            assert set(store.entry(mid).received) == before
        elif op == "serve" and entry is not None:
            if entry.complete:
                assert store.get_model(mid).model_id == mid
                assert store.matches_fingerprint(mid, f"fp:{mid}")
            else:
                with pytest.raises(ModelStoreError):
                    store.get_model(mid)
                assert not store.matches_fingerprint(mid, f"fp:{mid}")
        check_invariants(store, catalog, budget, last_uploader)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(shapes=manifests, budget=budgets)
def test_missing_reply_is_sufficient_to_complete(shapes, budget):
    """Uploading exactly the reported missing set completes the model."""
    catalog = {
        mid: manifest_for(mid, indices) for mid, indices in shapes.items()
    }
    store = ModelStore(budget)
    for mid, files in catalog.items():
        missing = set(store.missing_from_manifest(files))
        store.begin_upload(mid, files, FakeModel(mid))
        entry = store.entry(mid)
        # begin_upload claimed everything already resident; what is left
        # to send is a subset of the reply
        assert set(entry.missing) <= missing
        for file in files:
            if file.name in entry.missing:
                store.receive_file(mid, file)
        assert store.entry(mid).complete
        assert store.matches_fingerprint(mid, f"fp:{mid}")


@settings(max_examples=80, deadline=None, derandomize=True)
@given(shapes=manifests)
def test_demotion_roundtrip_restores_the_model(shapes):
    """Evict-demote-reupload cycles always converge back to complete."""
    catalog = {
        mid: manifest_for(mid, indices) for mid, indices in shapes.items()
    }
    # budget that fits any single model but not necessarily the union
    largest = max(
        sum(f.size_bytes for f in files) for files in catalog.values()
    )
    store = ModelStore(largest)
    for mid, files in catalog.items():
        store.begin_upload(mid, files, FakeModel(mid))
        for file in files:
            if file.name in store.entry(mid).missing:
                store.receive_file(mid, file)
    # whatever got demoted along the way can be brought back with only
    # its missing segments
    for mid, files in catalog.items():
        if store.has_complete(mid):
            continue
        store.begin_upload(mid, files, FakeModel(mid))
        for file in files:
            if file.name in store.entry(mid).missing:
                store.receive_file(mid, file)
        assert store.get_model(mid).model_id == mid
