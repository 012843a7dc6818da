#!/usr/bin/env bash
# End-to-end smoke check: unit tests (and each micro-benchmark body once,
# untimed), a quick campaign with telemetry
# export, a parse check on the exported metrics, the fleet scheduler's
# contract (a small multi-edge scenario with a mid-run kill, run twice
# with the same seed, must produce byte-identical reports and exported
# metrics, byte-match the committed references in tests/fixtures/, and
# serve every request), and the serving loop's contract (a
# same-seed continuous-batching scenario
# with a mid-run kill, run twice, must emit byte-identical reports and
# metrics, and its report must byte-match the committed references in
# tests/fixtures/ with and without a per-request SLO — batching changes
# timing, never results), and the committed fig7 baseline (a googlenet
# fig7 must byte-match tests/fixtures/fig7_googlenet_reference.txt), and
# the model store's contract (same-seed cold-fleet and pre-warmed-fleet
# scenarios, run twice each, must emit byte-identical reports, and the
# warm fleet must pay zero upload bytes), and the multi-exit sweep's
# contract (same-seed fig-accuracy runs must be byte-identical to each
# other and to the committed smallnet_exits baseline in tests/fixtures/,
# with every accuracy-scaling claim checked by the CLI's exit status).
#
#   scripts/smoke.sh [output-dir]
#
# Exits non-zero if any stage fails.  Total runtime is a couple of
# minutes; the campaign runs in --quick mode (one model, short sweeps).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out_dir="${1:-$repo_root/smoke-out}"
mkdir -p "$out_dir"
cd "$repo_root"
export PYTHONPATH="$repo_root/src${PYTHONPATH:+:$PYTHONPATH}"

echo "== 1/8 unit + property tests, micro-benchmark bodies once"
python -m pytest -x -q
# benchmarks/ is outside pytest's testpaths, so a micro-benchmark that
# stopped measuring what it names (or stopped running) goes unnoticed:
# run every body once with its asserts, untimed (the tensor-text bodies
# compare up to 0.8 M rendered values with the per-value "%.10e", byte
# for byte).
python -m pytest benchmarks/test_micro.py --benchmark-disable -q

echo "== 2/8 quick campaign with telemetry export"
python -m repro campaign --quick \
    --out "$out_dir/report.md" \
    --metrics-out "$out_dir/metrics.prom"

echo "== 3/8 exported metrics parse + sanity"
# The Prometheus parser is a test oracle: it lives in tests/prometheus.py
# and is imported from the repo root.  One offload exported in both formats
# must tell the same story.
python -m repro metrics > "$out_dir/one.prom" 2> /dev/null
python -m repro metrics --format json > "$out_dir/one.json" 2> /dev/null
python - "$out_dir/metrics.prom" "$out_dir/one.prom" "$out_dir/one.json" <<'PY'
import json
import sys

from tests.prometheus import parse_prometheus_text

with open(sys.argv[1], "r", encoding="utf-8") as handle:
    parsed = parse_prometheus_text(handle.read())
samples = parsed["samples"]
sessions = sum(v for (name, _), v in samples.items() if name == "sessions_total")
executions = sum(
    v for (name, _), v in samples.items() if name == "server_executions_total"
)
assert sessions > 0, "campaign exported no sessions"
assert executions > 0, "campaign exported no server executions"
print(f"ok: {len(samples)} samples, {sessions:.0f} sessions, "
      f"{executions:.0f} server executions")

with open(sys.argv[2], "r", encoding="utf-8") as handle:
    text = parse_prometheus_text(handle.read())["samples"]
with open(sys.argv[3], "r", encoding="utf-8") as handle:
    document = json.load(handle)["metrics"]
from_json = {
    (name, tuple(sorted(series["labels"].items()))): series["value"]
    for name, family in document.items()
    if family["kind"] != "histogram"
    for series in family["series"]
}
assert from_json, "JSON export holds no counter or gauge"
assert all(text[key] == value for key, value in from_json.items()), \
    "Prometheus text and JSON exports disagree"
print(f"ok: {len(from_json)} counter/gauge series agree across both formats")
PY

echo "== 4/8 fleet: seeded determinism + failover conservation"
# A small multi-edge scenario with an edge killed (and revived) mid-run,
# executed twice with the same seed, must emit byte-identical reports —
# the scheduler, failover, and report rendering are all virtual-time
# deterministic.  The CLI exits non-zero if any request is dropped or
# returns a wrong result, so conservation is checked for free.
# The exported Prometheus text of the two runs must match as well, which
# puts the exporter and every per-request memo under the same gate.
python -m repro fleet --sessions 10 --requests 2 --seed 5 \
    --kill edge-0@0.7:2.0 --out "$out_dir/fleet-a.md" \
    --metrics-out "$out_dir/fleet-a.prom" > /dev/null
python -m repro fleet --sessions 10 --requests 2 --seed 5 \
    --kill edge-0@0.7:2.0 --out "$out_dir/fleet-b.md" \
    --metrics-out "$out_dir/fleet-b.prom" > /dev/null
cmp "$out_dir/fleet-a.md" "$out_dir/fleet-b.md" || {
    echo "FAIL: fleet reports diverge across same-seed reruns" >&2; exit 1; }
cmp "$out_dir/fleet-a.prom" "$out_dir/fleet-b.prom" || {
    echo "FAIL: fleet metrics diverge across same-seed reruns" >&2; exit 1; }
cmp "tests/fixtures/fleet_seed5_kill_reference.md" "$out_dir/fleet-a.md" || {
    echo "FAIL: fleet report differs from the committed reference" >&2
    exit 1; }
cmp "tests/fixtures/fleet_seed5_kill_reference.prom" \
    "$out_dir/fleet-a.prom" || {
    echo "FAIL: fleet metrics differ from the committed reference" >&2
    exit 1; }
echo "ok: fleet report and metrics byte-identical across same-seed reruns and to the committed references"

echo "== 5/8 serving: continuous-batching determinism under a kill"
# The batching serving loop must be invisible in the results: a same-seed
# serving scenario — two edges, an edge killed and revived mid-run — run
# twice must emit byte-identical reports (dispatcher wake-ups, batch
# cuts, drains, and failovers all replay on the virtual clock).  The CLI
# exits non-zero on any wrong result, so correctness is checked for free.
# As in stage 4 the exported Prometheus text must match too: the serving
# path's state fingerprints and the exporter sit under the same byte gate.
python -m repro serve --edges 2 --sessions 10 --requests 2 --rate 48 \
    --seed 5 --kill edge-0@0.35:1.2 --out "$out_dir/serve-a.md" \
    --metrics-out "$out_dir/serve-a.prom" > /dev/null
python -m repro serve --edges 2 --sessions 10 --requests 2 --rate 48 \
    --seed 5 --kill edge-0@0.35:1.2 --out "$out_dir/serve-b.md" \
    --metrics-out "$out_dir/serve-b.prom" > /dev/null
cmp "$out_dir/serve-a.md" "$out_dir/serve-b.md" || {
    echo "FAIL: serving reports diverge across same-seed reruns" >&2; exit 1; }
cmp "$out_dir/serve-a.prom" "$out_dir/serve-b.prom" || {
    echo "FAIL: serving metrics diverge across same-seed reruns" >&2; exit 1; }
grep -q "serving:" "$out_dir/serve-a.md" || {
    echo "FAIL: serving report carries no batching stats" >&2; exit 1; }
# The report's bytes are locked too, with and without a per-request SLO:
# the batching rule, the deadline accounting and the failover path must
# reproduce the committed baselines.  A partial-mode report moves whenever
# what a partial snapshot carries moves (its bytes set the uplink time and
# when the pre-send is overtaken); the baselines are then regenerated with
# these command lines, and every other artefact stays `cmp`-identical.
python -m repro serve --edges 2 --sessions 10 --requests 2 --rate 48 \
    --seed 5 --kill edge-0@0.35:1.2 --deadline 0.2 \
    --out "$out_dir/serve-deadline.md" > /dev/null
cmp "tests/fixtures/serve_seed5_kill_reference.md" \
    "$out_dir/serve-a.md" || {
    echo "FAIL: serving report differs from the committed baseline" >&2
    exit 1; }
cmp "tests/fixtures/serve_seed5_kill_deadline_reference.md" \
    "$out_dir/serve-deadline.md" || {
    echo "FAIL: serving report with --deadline differs from the committed" \
        "baseline" >&2
    exit 1; }
echo "ok: serving report and metrics byte-identical across same-seed reruns and to the committed baselines"

echo "== 6/8 committed fig7 baseline"
# A googlenet fig7 must reproduce the committed report byte for byte: the
# kernels, the plan compiler and the virtual clock all sit under it.
python -m repro fig7 --models googlenet > "$out_dir/fig7-googlenet.txt"
cmp "tests/fixtures/fig7_googlenet_reference.txt" \
    "$out_dir/fig7-googlenet.txt" || {
    echo "FAIL: fig7 differs from the committed baseline" >&2
    exit 1; }
echo "ok: fig7 byte-identical to the committed baseline"

echo "== 7/8 model store: cold vs warm fleet determinism"
# Same-seed cold-fleet and warm-fleet (pre-warmed store) scenarios, each
# run twice, must emit byte-identical reports — the segment-level
# handshake, LRU bookkeeping, and presend accounting all replay on the
# virtual clock.  The warm report must show zero upload bytes where the
# cold one pays for every edge.
python -m repro fleet --sessions 10 --requests 2 --seed 5 \
    --out "$out_dir/fleet-cold-a.md" > /dev/null
python -m repro fleet --sessions 10 --requests 2 --seed 5 \
    --out "$out_dir/fleet-cold-b.md" > /dev/null
cmp "$out_dir/fleet-cold-a.md" "$out_dir/fleet-cold-b.md" || {
    echo "FAIL: cold-fleet reports diverge across same-seed reruns" >&2
    exit 1; }
python -m repro fleet --sessions 10 --requests 2 --seed 5 --prewarm \
    --out "$out_dir/fleet-warm-a.md" > /dev/null
python -m repro fleet --sessions 10 --requests 2 --seed 5 --prewarm \
    --out "$out_dir/fleet-warm-b.md" > /dev/null
cmp "$out_dir/fleet-warm-a.md" "$out_dir/fleet-warm-b.md" || {
    echo "FAIL: warm-fleet reports diverge across same-seed reruns" >&2
    exit 1; }
grep -q "model upload: 0 B on the wire" "$out_dir/fleet-warm-a.md" || {
    echo "FAIL: pre-warmed fleet still paid upload bytes" >&2; exit 1; }
grep -q "model upload: 0 B on the wire" "$out_dir/fleet-cold-a.md" && {
    echo "FAIL: cold fleet reports zero upload bytes" >&2; exit 1; }
echo "ok: cold and warm fleet reports byte-identical; warm uploads nothing"

echo "== 8/8 multi-exit: accuracy-vs-deadline sweep determinism"
# The joint (split, exit) sweep is analytic over deterministically
# seeded predictor fits: the same seed must render the same bytes, and
# the CLI exits non-zero if any accuracy-scaling claim is violated
# (exit moving later as the deadline tightens, a generous deadline not
# picking the full network, a "feasible" choice missing its deadline).
python -m repro fig-accuracy --models smallnet_exits \
    > "$out_dir/fig-accuracy-a.txt"
python -m repro fig-accuracy --models smallnet_exits \
    > "$out_dir/fig-accuracy-b.txt"
cmp "$out_dir/fig-accuracy-a.txt" "$out_dir/fig-accuracy-b.txt" || {
    echo "FAIL: fig-accuracy diverges across same-seed reruns" >&2; exit 1; }
# The sweep's bytes are locked too: the (split, exit) pricing and the
# deadline marks derived from it must reproduce the committed baseline.
cmp "tests/fixtures/fig_accuracy_smallnet_exits_reference.txt" \
    "$out_dir/fig-accuracy-a.txt" || {
    echo "FAIL: fig-accuracy differs from the committed baseline" >&2
    exit 1; }
echo "ok: accuracy-vs-deadline sweep byte-identical across reruns and to the committed baseline"

echo "smoke ok — artifacts in $out_dir"
