"""Compare two ledger result files metric by metric.

    python benchmarks/ledger/compare.py A.json B.json

A is the base (the parent commit, or the first of two sets of runs of one
commit), B the candidate.  Each end-to-end metric is judged with the
direction and bound ``BENCHMARK.json`` gives it; the virtual-clock
headline metrics (``virt_*``) repeat exactly for one seed, so they are
held to ``VIRTUAL_BOUND``, which only absorbs float reassociation.  One
row per (workload, metric): both medians with their quartiles, the change
as a share of A's median, and a verdict —

* ``same``        B's median is within the bound of A's
* ``worse``       B's median is worse than A's by more than the bound
* ``better``      ... better by more than the bound, or every run of B
                  beats every run of A
* ``unresolved``  the run-to-run spread (q3 - q1 over the median, of
                  either side) exceeds the bound, so the files cannot say

Exit status 1 on any ``worse`` row or a higher ``failed_share``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: how far a virtual-clock metric may move before it is a behaviour change
VIRTUAL_BOUND = 0.005


def single(value: float) -> Dict[str, Any]:
    """A metric measured once (virtual clock): no spread."""
    return {"median": value, "q1": value, "q3": value, "values": [value]}


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    if spread > bound:
        if all(sign * y < sign * x for x in a["values"] for y in b["values"]):
            return "better"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def compare(a_doc: Dict[str, Any], b_doc: Dict[str, Any],
            spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (workload, metric) the two documents share."""
    rows: List[Dict[str, Any]] = []
    virtual = [m for m in spec["per_layer"] if m["name"].startswith("virt_")]
    for workload in (w["name"] for w in spec["workloads"]):
        a = a_doc["workloads"].get(workload)
        b = b_doc["workloads"].get(workload)
        if a is None or b is None:
            continue
        pairs = [
            (m, a["end_to_end"][m["name"]], b["end_to_end"][m["name"]], m["bound"])
            for m in spec["end_to_end"]
        ] + [
            (m, single(a["exact"][m["name"]]), single(b["exact"][m["name"]]),
             VIRTUAL_BOUND)
            for m in virtual
            if m["name"] in a["exact"] and m["name"] in b["exact"]
        ]
        for metric, a_stats, b_stats, bound in pairs:
            rows.append({
                "workload": workload, "metric": metric["name"], "unit": metric["unit"],
                "a": a_stats, "b": b_stats, "bound": bound,
                "change": (b_stats["median"] - a_stats["median"]) / a_stats["median"],
                "verdict": verdict(a_stats, b_stats, metric["better"], bound),
            })
        a_share = a["failed"] / a["attempted"]
        b_share = b["failed"] / b["attempted"]
        rows.append({
            "workload": workload, "metric": "failed_share", "unit": "ratio",
            "a": single(a_share), "b": single(b_share), "bound": 0.0,
            "change": b_share - a_share,
            "base": f"{a['failed']}/{a['attempted']} -> {b['failed']}/{b['attempted']} ops",
            "verdict": "worse" if b_share > a_share else
                       "better" if b_share < a_share else "same",
        })
    return rows


def render(row: Dict[str, Any]) -> str:
    def stats(s: Dict[str, Any]) -> str:
        text = f"{s['median']:.6g}"
        if len(s["values"]) > 1:
            text += f" [{s['q1']:.6g}, {s['q3']:.6g}] n={len(s['values'])}"
        return text

    base = row.get("base") or (
        f"{row['change']:+.2%} of A's {row['a']['median']:.6g} {row['unit']}"
    )
    return (
        f"{row['workload']:16s} {row['metric']:26s} A {stats(row['a']):42s} "
        f"B {stats(row['b']):42s} {base:38s} bound {row['bound']:.1%}  "
        f"{row['verdict']}"
    )


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    a_doc, b_doc = documents
    for side, document in zip("AB", documents):
        env = document["environment"]
        print(f"{side}: {env['git_sha']} seed {env['seed']} "
              f"({', '.join(sorted(document['workloads']))})")
    if a_doc["environment"]["seed"] != b_doc["environment"]["seed"]:
        print("note: different seeds, so the virtual-clock rows compare "
              "different inputs")
    rows = compare(a_doc, b_doc, spec)
    for row in rows:
        print(render(row))
    verdicts = [row["verdict"] for row in rows]
    print("verdicts: " + " ".join(
        f"{v}={verdicts.count(v)}" for v in ("same", "better", "unresolved", "worse")
    ))
    return 1 if "worse" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
