"""Continuous batching for the edge server (the RRTO-style serving core).

Under heavy traffic many clients offload the *same* rear-half model at
once; serving them one blocking request at a time walks N identical layer
stacks N times while the batched kernels sit idle.  This package is the
transparent layer between the protocol loops and the model that fixes
that: restored requests become :class:`~repro.serve.queue.WorkItem`\\ s in
per-model :class:`~repro.serve.queue.BatchQueue`\\ s, and the
:class:`~repro.serve.loop.ServingLoop` cuts each queue into batches — on a
full batch or once the oldest item has waited out the timeout — and
dispatches each batch through one amortized device execution plus one
batched forward.

See ``docs/SERVING.md`` for the design and the determinism contract.
"""

from repro.serve.loop import (
    FormerError,
    ServingConfig,
    ServingDropped,
    ServingLoop,
)
from repro.serve.queue import SOLO_KEY, BatchQueue, WorkItem

__all__ = [
    "BatchQueue",
    "FormerError",
    "SOLO_KEY",
    "ServingConfig",
    "ServingDropped",
    "ServingLoop",
    "WorkItem",
]
