"""Chrome-trace export of session timelines.

Turns a :class:`~repro.core.session.SessionResult` into Chrome Trace Event
format (the JSON consumed by ``chrome://tracing`` / Perfetto), with one
track per location — client CPU, network, server CPU — so the paper's
Fig. 7 breakdown can be inspected interactively.

Spans are reconstructed from the phase breakdown in execution order
(capture → uplink → restore → exec → capture → downlink → restore), which
matches the actual timeline because the protocol is strictly sequential
within one session.

Sessions also record the same timeline live into their simulator's
:class:`~repro.obs.spans.SpanRecorder` (``sim.spans``); use
:func:`recorder_to_trace` / :func:`write_span_trace` to export everything a
simulation traced — including spans other subsystems emitted — rather than
reconstructing from one result.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.core.client import PHASE_TRACKS
from repro.core.session import SessionResult
from repro.obs.spans import SpanRecorder, spans_to_trace

#: (phase key, display name, track) — canonical order lives in core.client
_PHASE_TRACKS = PHASE_TRACKS

_TRACK_IDS = {"client": 1, "network": 2, "server": 3}


def session_to_events(result: SessionResult, pid: int = 1) -> List[Dict]:
    """Trace events for one session (complete 'X' events, µs units)."""
    events: List[Dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {"name": f"{result.model_name} [{result.mode}]"},
        }
    ]
    for track, tid in _TRACK_IDS.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": track},
            }
        )
    cursor = result.started_at
    phases = result.phases.as_dict()
    for key, label, track in _PHASE_TRACKS:
        duration = phases.get(key, 0.0)
        if duration <= 0:
            continue
        events.append(
            {
                "name": label,
                "cat": key,
                "ph": "X",
                "pid": pid,
                "tid": _TRACK_IDS[track],
                "ts": round(cursor * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "args": {"seconds": duration},
            }
        )
        cursor += duration
    return events


def sessions_to_trace(results: Sequence[SessionResult]) -> Dict:
    """A full Chrome trace document for several sessions (one pid each)."""
    events: List[Dict] = []
    for index, result in enumerate(results, start=1):
        events.extend(session_to_events(result, pid=index))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, results: Sequence[SessionResult]) -> str:
    """Write a trace JSON file; returns the path."""
    document = sessions_to_trace(results)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    return path


def recorder_to_trace(
    recorder: SpanRecorder, pid: int = 1, process_name: str = "simulation"
) -> Dict:
    """A Chrome trace document of everything a simulator's recorder holds."""
    return spans_to_trace(recorder.spans, pid=pid, process_name=process_name)


def write_span_trace(path: str, recorder: SpanRecorder) -> str:
    """Write a simulator's recorded spans as a trace JSON file."""
    document = recorder_to_trace(recorder)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    return path
