"""The test oracle for the Prometheus text export.

``parse_prometheus_text`` reads what ``repro.obs.to_prometheus_text``
writes back into plain data, so tests can assert the export round-trips
and ``scripts/smoke.sh`` can validate a scrape file without a real
Prometheus server.
"""

import math
import re
from typing import Dict, Tuple

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)\s*$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus_text(text: str) -> Dict:
    """Parse a Prometheus exposition into ``{"types": ..., "samples": ...}``.

    ``types`` maps family name -> declared kind; ``samples`` maps
    ``(sample_name, (sorted label pairs))`` -> float value.  Malformed
    sample lines raise ``ValueError`` — this parser is the smoke test for
    the exporter, so silent tolerance would defeat its purpose.
    """
    types: Dict[str, str] = {}
    samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"malformed exposition line: {line!r}")
        labels = tuple(
            sorted(
                (key, value.replace(r"\"", '"').replace(r"\\", "\\"))
                for key, value in _LABEL_RE.findall(match.group("labels") or "")
            )
        )
        raw = match.group("value")
        value = math.inf if raw == "+Inf" else float(raw)
        samples[(match.group("name"), labels)] = value
    return {"types": types, "samples": samples}
