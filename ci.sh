#!/usr/bin/env bash
# CI gate: build, tests, lints, and the static partition-plan analyzer.
# Everything here runs offline; no network access is required.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --workspace --release

echo "== tests =="
cargo test -q --workspace

echo "== kernel conformance: SIMD and worker-pool paths bit-identical to the scalar oracles =="
# Runs the GEMM conformance suite twice: once with the AVX2 SIMD tier
# active (the default) and once with ESTI_DISABLE_SIMD forcing the scalar
# blocked fallback, so both dispatch tiers are proven against the naive
# oracle on every CI run.
cargo test -q --release -p esti-tensor --test kernels
ESTI_DISABLE_SIMD=1 cargo test -q --release -p esti-tensor --test kernels

echo "== thread conformance: intra-chip worker count invisible in logits and tokens =="
cargo test -q --release -p esti-runtime --test threads

echo "== overlap conformance: chunked executor bit-identical to monolithic =="
cargo test -q --release -p esti-runtime --test overlap

echo "== planner conformance: planned execution bit-identical, ledger well-formed =="
# The execution planner may pick any candidate mode per (layout, phase,
# dtype); whatever it picks must be bit-identical to monolithic and every
# planner-emittable schedule must pass the static analyzer.
cargo test -q --release -p esti-runtime --test planner
cargo test -q --release -p esti-verify --test planner_schedules

echo "== serving conformance: scheduler token streams identical to isolated generate =="
# Covers every built-in decode layout plus the ragged-workload proptest.
cargo test -q --release -p esti-runtime --test serving

echo "== int8 conformance: quantized wire volume and chunk-count bit-identity =="
# The int8 data path: chunked quantized all-gathers reassemble exactly,
# the ledger charges quantized (not dense f32) bytes, and int8 overlapped
# execution is bit-identical to monolithic for arbitrary chunk counts.
cargo test -q --release -p esti-collectives --test chunked
cargo test -q --release -p esti-runtime --test int8

echo "== paged-KV conformance: served streams equal isolated generate, capacity gated =="
# The runtime's one KV store, the paged cache: served token streams equal
# isolated generate on every decode layout (multiquery and multihead),
# under randomized ragged shared-prefix copy-on-write workloads, through
# a mid-decode crash + replay with paged state, and under a per-chip page
# budget on a batch-sharded layout; plus the >= 2x shared-prefix capacity
# claim against worst-case reservation at an equal KV position budget.
cargo test -q --release -p esti-runtime --test paged

echo "== overload conformance: preemption stream-transparent, shedding typed =="
# PR 10's SLO scheduler: any forced preemption schedule must leave token
# streams bit-identical to isolated generate, priority classes must admit
# highest-first, and queue/deadline shedding must surface as typed
# per-request ServeError::Overloaded — never a run failure.
cargo test -q --release -p esti-runtime --test overload

echo "== router conformance: replica crash loses nothing, streams identical =="
# An injected chip crash with an exhausted recovery budget drains the
# replica; its whole share must re-route and replay to bit-identical
# streams with the failover accounted in RecoveryStats.
cargo test -q --release -p esti-runtime --test router

echo "== fault conformance: crash any rank, recovered streams bit-identical =="
# PR 5's chaos suite: for every decode layout, crash or stall any rank at
# any step and require (a) a structured error within the deadline — never
# a hang — and (b) post-recovery token streams bit-identical to a
# fault-free run, with the replay cost matching esti-netsim's model.
cargo test -q --release -p esti-runtime --test faults

echo "== benches compile =="
cargo bench --no-run -q

echo "== clippy (workspace lints, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== esti-lint: static partition-plan, SPMD, liveness & quant-dataflow analysis =="
# check_combo runs every schedule twice — monolithic and with the
# runtime's overlap chunking — and run_scenario upgrades any skip on a
# planner-chosen layout to a failure, so a planner-chosen chunked
# schedule that fails to verify (or is skipped) fails this gate.
# --strict also fails the run on warnings (weight-gathered working-set
# margins), and --json writes the full row-by-row report as a CI
# artifact for dashboards (results/esti_lint.json).
mkdir -p results
lint_out=$(cargo run --release -p esti-verify --bin esti-lint -- --strict --json results/esti_lint.json)
echo "$lint_out"
if echo "$lint_out" | grep -q "skip planner"; then
  echo "FAIL: esti-lint skipped a planner-chosen schedule" >&2
  exit 1
fi
echo "esti-lint JSON report: results/esti_lint.json ($(wc -c < results/esti_lint.json) bytes)"

echo "== bench report: no untracked regressions =="
# Every flagged row — a decode row whose planner pick lost to monolithic
# or to the pre-PR baseline ("regression": true, which also covers
# speedup < 1.0), and the int8 wire row if its step time regressed — must
# carry a "tracking" reference (issue link or note); silent regressions
# fail CI. A row that flags regression without computing it from its own
# ratios would also be caught here: the flag is cross-checked against the
# published numbers.
python3 - <<'EOF'
import json, sys
report = json.load(open("BENCH_runtime.json"))
rows = report.get("decode", [])
bad = [r["layout"] for r in rows if r.get("regression") and not r.get("tracking")]
for r in rows:
    slow = r.get("planned_vs_mono", 1.0) < 1.0 or r.get("speedup", 1.0) < 1.0
    if slow and not r.get("regression"):
        bad.append(f"{r['layout']} (unflagged slowdown)")
wire = report.get("int8_wire", {})
if wire.get("regression") and not wire.get("tracking"):
    bad.append("int8_wire")
if wire.get("step_ratio", 0.0) > 1.0 and not wire.get("regression"):
    bad.append("int8_wire (unflagged step-time slowdown)")
paged = report.get("paged_kv", {})
if paged.get("regression") and not paged.get("tracking"):
    bad.append("paged_kv")
if paged.get("step_ratio", 0.0) > 1.05 and not paged.get("regression"):
    bad.append("paged_kv (unflagged step-overhead slowdown)")
over = report.get("overload", {})
if over.get("goodput_ratio", 1.0) < 0.7:
    bad.append("overload (goodput below 0.7x capacity ceiling)")
if over.get("high_p99_ttft_s", 0.0) > 1.0:
    bad.append("overload (high-class p99 TTFT above SLO)")
if over.get("shed", 1) == 0:
    bad.append("overload (bursty 2x trace shed nothing)")
router = report.get("router_failover", {})
if router.get("lost", 0) != 0:
    bad.append("router_failover (lost requests)")
if not router.get("streams_identical", True):
    bad.append("router_failover (streams diverged)")
if bad:
    sys.exit(f"FAIL: untracked regression(s) in BENCH_runtime.json: {bad}")
print(f"decode rows: {len(rows)}, untracked regressions: 0")
EOF

echo "== model-checked collectives (bounded-DFS interleavings) =="
RUSTFLAGS="--cfg loom" cargo test -q -p esti-collectives --test loom --release

echo "CI OK"
