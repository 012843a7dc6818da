"""Snapshots: saving a web app's execution state as another web app.

"We can save the execution state of the web app in the form of another web
app called the snapshot" (paper abstract).  Here a snapshot is literally an
executable *program* (source text) that, run against a fresh runtime's
restore API, rebuilds the heap (with aliasing and cycles), the DOM, the
listener table and the app script, then re-dispatches the pending event —
plus, beside the program, the tables its lines index: tensor texts
(``TEXT[i]``) and binary attachments for image data (``ATTACH[i]``, a
browser's data-URL equivalent).

* :mod:`repro.core.snapshot.codegen` — state graph → program text.
* :mod:`repro.core.snapshot.capture` — runtime → :class:`Snapshot`;
  also delta capture against a baseline fingerprint (the small
  "code to update the client execution state" sent back by the server).
* :mod:`repro.core.snapshot.restore` — program execution, fingerprinting.
* :mod:`repro.core.snapshot.optimize` — the size optimizations of [10]:
  live-state elimination and model elision.
"""

from repro.core.snapshot.capture import (
    CaptureOptions,
    Snapshot,
    SnapshotError,
    capture_delta,
    capture_snapshot,
)
from repro.core.snapshot.restore import (
    RestoreReport,
    StateFingerprint,
    fingerprint_runtime,
    restore_snapshot,
)

__all__ = [
    "CaptureOptions",
    "RestoreReport",
    "Snapshot",
    "SnapshotError",
    "StateFingerprint",
    "capture_delta",
    "capture_snapshot",
    "fingerprint_runtime",
    "restore_snapshot",
]
