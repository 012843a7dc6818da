"""Server-side model artifact storage.

The edge server "saves the files and sends an acknowledgement (ACK)"
(paper §III.B.1).  :class:`ModelStore` is that storage, grown into a
multi-tenant artifact store:

* **Per-model uploads** — a manifest registers the expected file list and
  the model it names; received files are verified against it (membership
  + checksum), and the model is served — and the upload ACKed — exactly
  when every listed file has arrived.  :meth:`ModelStore.begin_upload`,
  :meth:`~ModelStore.receive_file` and :meth:`~ModelStore.install` each
  report whether the call completed the upload.
* **Content-addressed segments** — file bytes are held once per checksum,
  shared across models.  Two models that ship the same parameter blob
  (e.g. two rear halves of one network split at different layers) occupy
  the bytes once, and :meth:`missing_from_manifest` answers a segment-level
  handshake: exactly the files whose bytes this store does not hold, so a
  client can upload only those.
* **LRU eviction under a memory budget** — with ``memory_budget_bytes``
  set, the least-recently-used model entries are evicted when resident
  segment bytes exceed the budget.  Eviction *demotes* an entry: its
  segments are released (freed only when no other resident model shares
  them), so the model is no longer served, but the manifest — the file
  names and checksums — stays known.  A later request for the model pays
  a *partial* re-upload of whichever segments were actually freed,
  instead of a full pre-send.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.nn.model import Model, ModelFile


class ModelStoreError(RuntimeError):
    """Raised on checksum mismatches or incomplete-model access."""


@dataclass
class StoredModel:
    """Receiving-side state for one model upload."""

    model_id: str
    manifest: List[ModelFile]
    #: the model the manifest names; served only while ``complete``
    model: Model
    received: Set[str] = field(default_factory=set)

    @property
    def complete(self) -> bool:
        return self.received == {file.name for file in self.manifest}

    @property
    def missing(self) -> List[str]:
        return sorted({file.name for file in self.manifest} - self.received)

    @property
    def received_bytes(self) -> int:
        by_name = {file.name: file for file in self.manifest}
        return sum(by_name[name].size_bytes for name in self.received)

    @property
    def total_bytes(self) -> int:
        return sum(file.size_bytes for file in self.manifest)


@dataclass
class _Segment:
    """One content-addressed blob: held once, referenced by many models."""

    size_bytes: int
    refs: Set[str] = field(default_factory=set)


class ModelStore:
    """File storage for uploaded models on an edge server.

    ``memory_budget_bytes`` bounds the resident segment bytes; ``None``
    (the default) disables eviction.  A single model larger than the
    budget is still admitted — everything else is evicted around it and
    the gauge shows the overrun — because refusing it would deadlock the
    upload protocol.

    ``metrics``/``server`` wire the store into an observability registry
    (``store_bytes_resident`` gauge, ``store_evictions_total`` counter);
    both are optional so unit tests can build bare stores.
    """

    def __init__(
        self,
        memory_budget_bytes: Optional[int] = None,
        *,
        metrics=None,
        server: str = "",
    ) -> None:
        if memory_budget_bytes is not None and memory_budget_bytes <= 0:
            raise ValueError("memory_budget_bytes must be positive")
        self.memory_budget_bytes = memory_budget_bytes
        self._models: Dict[str, StoredModel] = {}
        self._segments: Dict[str, _Segment] = {}
        #: model ids, least-recently-used first
        self._lru: "OrderedDict[str, None]" = OrderedDict()
        self.evictions = 0
        self._resident_gauge = None
        self._evict_counter = None
        if metrics is not None:
            self._resident_gauge = metrics.gauge(
                "store_bytes_resident",
                help="model segment bytes resident in the store",
                server=server,
            )
            self._evict_counter = metrics.counter(
                "store_evictions_total",
                help="model entries demoted by LRU eviction under the "
                "memory budget",
                server=server,
            )

    # -- capacity ----------------------------------------------------------------
    @property
    def resident_bytes(self) -> int:
        """Bytes of unique segments currently held (dedup counts once)."""
        return sum(segment.size_bytes for segment in self._segments.values())

    def has_segment(self, checksum: str) -> bool:
        return checksum in self._segments

    def missing_from_manifest(self, files: List[ModelFile]) -> List[str]:
        """Names of manifest files whose bytes this store does not hold.

        The segment-level handshake answer: content-addressed, so a file is
        "present" whenever *any* stored model already supplied bytes with
        the same checksum, whatever that model named them.
        """
        return [file.name for file in files if file.checksum not in self._segments]

    def _touch(self, model_id: str) -> None:
        self._lru[model_id] = None
        self._lru.move_to_end(model_id)

    def _record_resident(self) -> None:
        if self._resident_gauge is not None:
            self._resident_gauge.set(float(self.resident_bytes))

    def _enforce_budget(self, protect: str) -> None:
        budget = self.memory_budget_bytes
        if budget is None:
            return
        # Candidates least-recently-used first; the entry currently being
        # uploaded is protected, else the budget loop would eat its own tail.
        # Within budget, the first check below ends the loop at once.
        for victim in [mid for mid in self._lru if mid != protect]:
            if self.resident_bytes <= budget:
                break
            entry = self._models[victim]
            if not entry.received:
                continue  # already cold; nothing to free
            if not entry.complete:
                continue  # mid-upload: the in-flight transfer pins its bytes
            self._demote(victim)
            self.evictions += 1
            if self._evict_counter is not None:
                self._evict_counter.inc()

    def _demote(self, model_id: str) -> None:
        """Evict one entry: release its segment refs.

        Segments still referenced by another resident model survive (the
        bytes are shared); the rest are freed.  The entry itself stays —
        files known, model cold — so a later re-upload is answered at
        segment granularity and only pays for what was actually freed.
        """
        entry = self._models[model_id]
        by_name = {file.name: file for file in entry.manifest}
        for name in sorted(entry.received):
            segment = self._segments.get(by_name[name].checksum)
            if segment is None:
                continue
            segment.refs.discard(model_id)
            if not segment.refs:
                del self._segments[by_name[name].checksum]
        entry.received.clear()
        self._record_resident()

    def _claim_known_segments(self, entry: StoredModel) -> None:
        """Cross-model dedup: mark manifest files whose bytes are resident."""
        for file in entry.manifest:
            if file.name in entry.received:
                continue
            segment = self._segments.get(file.checksum)
            if segment is not None:
                segment.refs.add(entry.model_id)
                entry.received.add(file.name)

    # -- uploads -----------------------------------------------------------------
    def begin_upload(
        self, model_id: str, manifest: List[ModelFile], model: Model
    ) -> bool:
        """Register an upload of ``model``; True when it is already complete.

        Idempotent only for *identical* manifests: re-registering a model
        id with a different file list is a stale manifest (a model update
        reusing an old id) and raises rather than silently serving the old
        files; an identical one keeps the model registered first.  Files
        whose bytes are already resident under another model are claimed
        immediately — the cross-model dedup that makes shared parameter
        blobs free — so a manifest whose every segment is resident
        completes its upload at once.
        """
        existing = self._models.get(model_id)
        if existing is not None:
            if list(manifest) != existing.manifest:
                raise ModelStoreError(
                    f"manifest mismatch for re-registered model {model_id!r}: "
                    f"{len(manifest)} files offered, "
                    f"{len(existing.manifest)} on record"
                )
            entry = existing
        else:
            entry = StoredModel(model_id, list(manifest), model)
            self._models[model_id] = entry
        self._touch(model_id)
        self._claim_known_segments(entry)
        return entry.complete

    def receive_file(self, model_id: str, file: ModelFile) -> bool:
        """Store one received file, verifying it against the manifest.

        Returns True when this file completed the upload.
        """
        entry = self._models.get(model_id)
        if entry is None:
            raise ModelStoreError(f"no upload registered for model {model_id!r}")
        expected = {f.name: f for f in entry.manifest}.get(file.name)
        if expected is None:
            raise ModelStoreError(
                f"file {file.name!r} is not in the manifest of {model_id!r}"
            )
        if expected.checksum != file.checksum:
            raise ModelStoreError(
                f"checksum mismatch for {file.name!r}: "
                f"expected {expected.checksum}, got {file.checksum}"
            )
        segment = self._segments.get(file.checksum)
        if segment is None:
            segment = _Segment(size_bytes=expected.size_bytes)
            self._segments[file.checksum] = segment
        completes = file.name not in entry.received
        segment.refs.add(model_id)
        entry.received.add(file.name)
        self._touch(model_id)
        self._enforce_budget(protect=model_id)
        self._record_resident()
        return completes and entry.complete

    def install(self, model: Model, files: List[ModelFile]) -> bool:
        """Put ``model`` in the store with ``files`` of its manifest.

        Registers the upload (claiming every resident segment) and
        receives ``files``; an incomplete upload stays registered for a
        later delivery to finish.  Returns True when this call completed
        the upload — False when it was complete before (its ACK, if any,
        went out then) or still is not.
        """
        model_id = model.model_id
        was_complete = self.has_complete(model_id)
        self.begin_upload(model_id, model.files(), model)
        for file in files:
            self.receive_file(model_id, file)
        return not was_complete and self.has_complete(model_id)

    # -- queries -----------------------------------------------------------------
    def has_complete(self, model_id: str) -> bool:
        entry = self._models.get(model_id)
        return entry is not None and entry.complete

    def matches_fingerprint(self, model_id: str, fingerprint: str) -> bool:
        """Digest handshake: is a complete model with this digest stored?"""
        entry = self._models.get(model_id)
        hit = (
            entry is not None
            and entry.complete
            and entry.model.fingerprint() == fingerprint
        )
        if hit:
            self._touch(model_id)
        return hit

    def get_model(self, model_id: str) -> Model:
        """The model of a complete upload; raises until every file is in."""
        entry = self._models.get(model_id)
        if entry is None or not entry.complete:
            raise ModelStoreError(f"model {model_id!r} is not available")
        self._touch(model_id)
        return entry.model

    def entry(self, model_id: str) -> Optional[StoredModel]:
        """The raw entry for inspection (tests, reports); None if unknown."""
        return self._models.get(model_id)

    def stored_ids(self) -> List[str]:
        return sorted(self._models)
