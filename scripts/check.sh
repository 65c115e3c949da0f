#!/usr/bin/env bash
# Local verification gauntlet:
#   1. tier-1 verify (ROADMAP.md): configure + build + full test suite,
#      with -Wall -Wextra -Werror enforced (XBGAS_WERROR defaults ON)
#   2. fast pre-commit path: the unit label alone (ctest -L unit) — what
#      you run on every edit; stages 3+ are the full gauntlet
#   3. the observability suite alone (ctest -R trace)
#   4. the disabled-path overhead microbenchmark guard
#   5. an end-to-end trace/counters smoke on bench_pt2pt
#   6. a fault-injection smoke: deterministic placement + retry absorption
#   7. a collective-policy smoke: --coll-algo dispatch counters line up
#   8. hierarchy + tuner gauntlet (docs/COLLECTIVES.md): the k-nomial /
#      hierarchy / tuner test wall, a fresh OSU sweep with its gates
#      (tuned <= model, hier beats flat at large messages), a tune-table
#      round-trip through --coll-tune-table, and the committed
#      BENCH_osu.json re-gated including the 256-PE acceptance bar
#   9. XbrSan smoke (docs/SANITIZER.md): positive — a full benchmark run
#      under --xbrsan full reports zero violations; negative — the
#      deliberately-buggy examples/san_violation is caught and says so
#   10. survivor-recovery chaos smoke (docs/RESILIENCE.md): bench_chaos under
#      a scripted two-kill plan and a seeded-random soak — every run must
#      shrink, restore, and verify its collectives after the deaths
#  11. serving chaos smoke (docs/SERVING.md): bench_serving seeded soak —
#      every seeded run must fail over and keep serving with balanced
#      request books (requests == served + failed on every survivor),
#      identical accounting on a same-seed replay, and post-failover
#      throughput >= 50% of pre-failover
#  12. partition-tolerance smoke (docs/RESILIENCE.md): the both-sides quorum
#      proof (64-PE scripted split: majority shrinks + verifies a golden
#      allreduce, minority unwinds with PartitionedError), the unreachable-
#      escalation and fail-fast suites, a scripted + seeded bench_partition
#      soak with bit-identical replays, and the committed
#      BENCH_partition.json re-gated
#  13. nbi + write-combining smoke (docs/COLLECTIVES.md): the explicit-
#      handle test wall (request RMA, write combiner, the new sanitizer
#      epochs, nbi conformance — every conformance case runs under
#      --xbrsan full internally) plus bench_gups, which exits nonzero
#      unless coalescing wins >= 2x bitwise-identically and the chunked-nbi
#      ring allreduce beats the blocking ring at 64 PEs
#  14. scaling smoke (docs/SCALING.md): the 256-PE integration suite, the
#      1024-PE slow smoke, and a bench_scaling run checking the modeled
#      barrier latency actually grows log-depth, not linearly
#  15. ASan+UBSan pass (-DXBGAS_SANITIZE=address) over the full test suite
#  16. ThreadSanitizer pass (-DXBGAS_SANITIZE=thread) over the concurrency-
#      heavy suites: machine (incl. the fiber scheduler), trace, fault, san,
#      nbi/write-combining, recovery, serving, scaling, partition/
#      unreachable, and the collectives conformance sweep (blocking and
#      nbi axes)
#  17. paper-results gate (EXPERIMENTS.md): scripts/bench_paper.sh
#      regenerates Fig. 3's edges, Tables 1-2, Fig. 4, Fig. 5 class W and the
#      A1/A4/A6/A7 cycle counts; every value is modeled, so the result must
#      match the committed BENCH_paper.json byte for byte
#  18. contended rendezvous: the team, shrink, hierarchy, barrier,
#      scheduler and partition suites repeated 5x, first pinned to one CPU,
#      then beside one CPU-burning loop per core
#
# Usage: scripts/check.sh [build-dir]   (default: build; the ASan and TSan
# stages use <build-dir>-asan and <build-dir>-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"

echo "== [1/18] tier-1 verify (configure + build + full ctest, -Werror on) =="
cmake -B "$BUILD" -S . -DXBGAS_WERROR=ON
cmake --build "$BUILD" -j
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"

echo "== [2/18] fast path: unit label only (ctest -L unit) =="
ctest --test-dir "$BUILD" -L unit --output-on-failure -j "$(nproc)"

echo "== [3/18] observability suite (ctest -R trace) =="
ctest --test-dir "$BUILD" -R trace --output-on-failure

echo "== [4/18] disabled-path overhead guard =="
"$BUILD"/tests/trace/trace_overhead_test

echo "== [5/18] trace + counters smoke (bench_pt2pt) =="
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
"$BUILD"/bench/bench_pt2pt --trace-out="$TMP/t.json" --counters=json \
    > "$TMP/out.txt"
python3 - "$TMP" <<'EOF'
import json, sys
tmp = sys.argv[1]
trace = json.load(open(f"{tmp}/t.json"))
tracks = {e["tid"] for e in trace["traceEvents"] if e["ph"] != "M"}
assert tracks, "trace has no event tracks"
out = open(f"{tmp}/out.txt").read()
counters = json.loads(out[out.index("{"):])
assert counters["olb.hits"] + counters["olb.misses"] == counters["net.messages"], \
    "OLB hit+miss must equal remote RMA message count"
print(f"smoke OK: {len(trace['traceEvents'])} trace events, "
      f"{len(tracks)} PE tracks, {counters['net.messages']} remote RMAs")
EOF

echo "== [6/18] fault-injection smoke (bench_pt2pt, docs/RESILIENCE.md) =="
"$BUILD"/bench/bench_pt2pt --fault-rma-drop=0.01 --fault-seed=7 \
    --counters=json > "$TMP/fault1.txt"
"$BUILD"/bench/bench_pt2pt --fault-rma-drop=0.01 --fault-seed=7 \
    --counters=json > "$TMP/fault2.txt"
python3 - "$TMP" <<'EOF'
import json, sys
tmp = sys.argv[1]
a = open(f"{tmp}/fault1.txt").read()
b = open(f"{tmp}/fault2.txt").read()
assert a == b, "identical fault seeds must reproduce identical runs"
counters = json.loads(a[a.index("{"):])
assert counters["fault.injected.rma_drop"] > 0, "no drops were injected"
assert counters["rma.retries"] > 0, "drops were injected but never retried"
assert counters["machine.pes_failed"] == 0, \
    "the retry path must absorb a 1% drop rate"
print(f"fault smoke OK: {counters['fault.injected.rma_drop']} drops "
      f"absorbed by {counters['rma.retries']} retries, deterministic replay")
EOF

echo "== [7/18] collective-policy smoke (docs/COLLECTIVES.md) =="
"$BUILD"/bench/bench_policy_crossover --pes 8 --sizes 16,4096 --reps 1 \
    --json "$TMP/cross.json" > /dev/null
python3 - "$TMP" <<'EOF'
import json, sys
tmp = sys.argv[1]
data = json.load(open(f"{tmp}/cross.json"))
points = {p["nelems"]: p for p in data["pes"][0]["points"]}
assert points[16]["auto_algo"] == "tree", "auto must pick tree at 16 elems"
assert points[4096]["auto_algo"] == "ring", "auto must pick ring at 4096 elems"
for p in points.values():
    assert p["auto_cycles"] <= min(p["tree_cycles"], p["ring_cycles"]) * 1.01, \
        f"auto must track min(tree, ring) at {p['nelems']} elems"
print("policy smoke OK: auto flips tree->ring across the crossover and "
      "tracks the faster family")
EOF

echo "== [8/18] hierarchy + tuner gauntlet (docs/COLLECTIVES.md) =="
# The engine/tuner test wall: k-nomial schedules, the depth x radix x PE
# conformance axis (each case under XbrSan full internally), the tuner
# round-trip, the golden modeled cost of every family through the one
# dispatcher, the team-registry churn regression, and the three regression
# suites from the hierarchy engine's bugfixes.
ctest --test-dir "$BUILD" -R '(Hierarch|Knomial|Tuner|DispatchGolden|TeamRegistry)' \
    --output-on-failure -j "$(nproc)"
# Fresh small sweep: build a tune table, gate the measurements, and verify
# the persisted table round-trips through --coll-tune-table.
"$BUILD"/bench/bench_osu_sweep --pes 16 --sizes 128,8192 \
    --json "$TMP/osu.json" --tune-table "$TMP/osu.table" > /dev/null
python3 - "$TMP/osu.json" <<'EOF'
import json, sys
for m in json.load(open(sys.argv[1]))["machines"]:
    big = max(r["bytes"] for r in m["results"] if r["kind"] == "broadcast")
    for r in m["results"]:
        assert r["tuned"] <= r["model"], \
            f"tuned dispatch lost to the model: {m['pes']} PEs {r}"
        if r["kind"] == "broadcast" and r["bytes"] == big:
            assert 0 < r["hier"] < r["flat_tree"], \
                f"hierarchy must beat the flat tree at {big}B: {r}"
print("osu sweep OK: tuned <= model everywhere, hier wins large broadcasts")
EOF
# bench_policy_crossover dispatches through the policy, so the loaded
# table is actually consulted (one counters JSON per machine; the last is
# the auto machine on the matching topology, where lookups must hit).
"$BUILD"/bench/bench_policy_crossover --pes 16 --topology cluster4x32 \
    --coll-tune-table "$TMP/osu.table" --counters=json > "$TMP/tuned.txt"
python3 - "$TMP/tuned.txt" <<'EOF'
import re, sys
out = open(sys.argv[1]).read()
entries = re.findall(r'"coll\.tuner\.entries": (\d+)', out)
hits = re.findall(r'"coll\.tuner\.hits": (\d+)', out)
assert entries and int(entries[-1]) > 0, "--coll-tune-table did not load"
assert hits and int(hits[-1]) > 0, "tune table was never hit at 16 PEs"
print(f"tune table round-trip OK: {entries[-1]} entries, {hits[-1]} hits")
EOF
# The committed run (BENCH_osu.json) must satisfy the same gates, including
# the 256-PE machine where the acceptance bar lives (>= 64 KiB broadcasts).
python3 - BENCH_osu.json <<'EOF'
import json, sys
machines = json.load(open(sys.argv[1]))["machines"]
assert max(m["pes"] for m in machines) >= 256, "committed run lacks 256 PEs"
for m in machines:
    for r in m["results"]:
        assert r["tuned"] <= r["model"], \
            f"committed tuned dispatch lost to the model: {m['pes']} PEs {r}"
        if r["kind"] == "broadcast" and r["bytes"] >= 65536:
            assert 0 < r["hier"] < r["flat_tree"], \
                f"committed hier must beat flat >=64KiB: {m['pes']} PEs {r}"
print("committed BENCH_osu.json OK")
EOF

echo "== [9/18] XbrSan smoke (docs/SANITIZER.md) =="
# Positive: a real workload under full checking finishes with 0 violations.
"$BUILD"/bench/bench_pt2pt --xbrsan=full --counters=json > "$TMP/san.txt"
python3 - "$TMP" <<'EOF'
import json, sys
tmp = sys.argv[1]
out = open(f"{tmp}/san.txt").read()
counters = json.loads(out[out.index("{"):])
assert counters["san.enabled"] == 1, "--xbrsan full must enable the sanitizer"
assert counters["san.bounds_checks"] > 0, "no remote accesses were checked"
assert counters["san.violations"] == 0, \
    "a clean benchmark must produce zero violations"
print(f"xbrsan positive smoke OK: {counters['san.bounds_checks']} accesses "
      f"checked, {counters['san.ledger_records']} ledger records, "
      f"0 violations")
EOF
# Negative: the planted out-of-bounds put must be detected (exit 0 iff the
# example caught its own bug).
"$BUILD"/examples/san_violation > "$TMP/san_neg.txt"
grep -q 'XbrSan\[out_of_bounds\]' "$TMP/san_neg.txt"
echo "xbrsan negative smoke OK: planted bug detected"

echo "== [10/18] survivor-recovery chaos smoke (bench_chaos) =="
# Scripted: the acceptance kill plan (mid-barrier + mid-RMA on 12 PEs).
"$BUILD"/bench/bench_chaos --pes 12 --rounds 4 \
    --fault-kill 3:barrier:11,7:rma:4
# Soak: seeded-random kill plans; every seed must recover and verify.
"$BUILD"/bench/bench_chaos --pes 10 --seeds 8 --rounds 4

echo "== [11/18] serving chaos smoke (bench_serving, docs/SERVING.md) =="
# Scripted: one mid-RMA kill under default transport faults on 12 PEs.
"$BUILD"/bench/bench_serving --pes 12 --batches 12 --ops-per-batch 32 \
    --fault-kill 5:rma:40
# Soak: seeded kill plans + double-run determinism check. The bench itself
# exits nonzero unless every seed recovers (shrink + restore + failover),
# every survivor's books balance, accounting replays identically, and
# post-failover throughput holds >= 50% of pre-failover.
"$BUILD"/bench/bench_serving --pes 10 --batches 12 --ops-per-batch 32 \
    --seeds 4

echo "== [12/18] partition-tolerance smoke (bench_partition, docs/RESILIENCE.md) =="
# The both-sides quorum proof and the fail-fast conformance axis: the 64-PE
# scripted split (majority shrinks + verifies, minority unwinds typed), the
# unreachable-peer escalation suite, and every blocking op terminating
# typed against a dead link with a zero retry budget.
ctest --test-dir "$BUILD" \
    -R '(PartitionQuorum|UnreachableEscalation|UnreachableFailFast|LinkFaults|DegradedTopologyView|LinkConfig)' \
    --output-on-failure -j "$(nproc)"
# Scripted: the acceptance split — ranks 48-63 cut off mid-traffic at 64
# PEs. The bench exits nonzero unless the majority evicts exactly the
# scripted minority by quorum and keeps serving with balanced books.
"$BUILD"/bench/bench_partition --pes 64 --fault-partition 48-63@200000
# Soak: seeded plans (odd seeds partition a contiguous minority, even seeds
# kill 2-4 point-to-point links), each run twice for bit-identical
# accounting.
"$BUILD"/bench/bench_partition --pes 64 --seeds 2
# The committed soak (BENCH_partition.json) must satisfy the same gates.
python3 - BENCH_partition.json <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
assert data["n_pes"] >= 64, "committed soak must run at >= 64 PEs"
assert any("partition" in r["plan"] for r in data["runs"]), \
    "committed soak lacks a 2-way partition plan"
assert any("link" in r["plan"] for r in data["runs"]), \
    "committed soak lacks a point-to-point link plan"
for r in data["runs"]:
    assert r["recovered"] and r["quorum_ok"] and r["progress_ok"] \
        and r["deterministic"], f"committed seed {r['seed']} failed a gate: {r}"
assert data["all_ok"], "committed bench_partition run reported failure"
print(f"committed BENCH_partition.json OK: {len(data['runs'])} seeded splits, "
      f"every eviction by quorum, bit-identical replays")
EOF

echo "== [13/18] nbi + write-combining smoke (bench_gups, docs/COLLECTIVES.md) =="
# The explicit-handle test wall in the main build: request-RMA semantics,
# the write combiner, the three new XbrSan epochs (negative + positive),
# the hedged-nbi failover ledger, and the nbi conformance axis — each
# conformance case runs under XbrSan full internally and asserts zero
# violations across {auto,tree,ring,hier} x 1-12 PEs.
ctest --test-dir "$BUILD" \
    -R '(NbiRequest|WriteCombiner|NbiSan|ConformanceNbi|HedgedNbi)' \
    --output-on-failure -j "$(nproc)"
# Self-checking bench: the small-put storm must land bitwise-identical with
# coalescing on/off at >= 2x fewer modeled cycles, replay deterministically,
# and the chunked-nbi ring allreduce must beat the blocking ring at 64 PEs.
"$BUILD"/bench/bench_gups --json "$TMP/gups.json" > "$TMP/gups_out.txt"
python3 - "$TMP" <<'EOF'
import json, sys
tmp = sys.argv[1]
data = json.load(open(f"{tmp}/gups.json"))
g, ar = data["gups"], data["allreduce"]
assert g["bitwise_identical"] and g["deterministic"], "storm must be exact"
assert g["speedup"] >= 2.0, f"coalescing won only {g['speedup']}x"
assert g["combiner"]["messages"] > g["combiner"]["flushes"], "no batching"
assert ar["correct"] and ar["speedup"] > 1.0, \
    f"pipelined allreduce must beat blocking ring, got {ar['speedup']}x"
assert data["all_ok"], "bench_gups reported failure"
print(f"nbi smoke OK: coalescing {g['speedup']}x over {g['combiner']['flushes']} "
      f"flushes, pipelined allreduce {ar['speedup']}x at {ar['n_pes']} PEs")
EOF

echo "== [14/18] scaling smoke (docs/SCALING.md) =="
# 256-PE conformance/recovery/chaos cases ride the integration suite; the
# 1024-PE smoke is its own slow-labeled binary.
ctest --test-dir "$BUILD" -R 'Scaling' --output-on-failure
# Log-depth check: dissemination barrier cycles from 16 to 1024 PEs must
# scale with log2(n) (ratio ~2.5x), nowhere near the 64x of a linear path.
"$BUILD"/bench/bench_scaling --pes 16,1024 --barrier-reps 16 \
    --allreduce-reps 2 --nelems 64 --json "$TMP/scaling.json" > /dev/null
python3 - "$TMP" <<'EOF'
import json, sys
tmp = sys.argv[1]
points = {p["n_pes"]: p for p in json.load(open(f"{tmp}/scaling.json"))["points"]}
ratio = points[1024]["barrier_cycles"] / points[16]["barrier_cycles"]
assert ratio <= 4, \
    f"barrier latency 16->1024 PEs grew {ratio:.1f}x; log-depth allows ~2.5x"
assert points[1024]["workers"] < 1024, "1024 PEs must not mean 1024 workers"
print(f"scaling smoke OK: barrier {points[16]['barrier_cycles']} -> "
      f"{points[1024]['barrier_cycles']} cycles (x{ratio:.2f} for 64x PEs), "
      f"{points[1024]['workers']} worker(s)")
EOF

echo "== [15/18] ASan+UBSan pass (full test suite) =="
cmake -B "$BUILD-asan" -S . -DXBGAS_SANITIZE=address -DXBGAS_WERROR=ON \
    -DXBGAS_BUILD_BENCH=OFF -DXBGAS_BUILD_EXAMPLES=OFF
cmake --build "$BUILD-asan" -j
ctest --test-dir "$BUILD-asan" --output-on-failure -j "$(nproc)"

echo "== [16/18] TSan pass (machine + sched + trace + fault + san + nbi + recovery + serving + conformance + scaling) =="
cmake -B "$BUILD-tsan" -S . -DXBGAS_SANITIZE=thread -DXBGAS_WERROR=ON \
    -DXBGAS_BUILD_BENCH=OFF -DXBGAS_BUILD_EXAMPLES=OFF
cmake --build "$BUILD-tsan" -j
ctest --test-dir "$BUILD-tsan" \
    -R '(machine|Machine|Barrier|Sched|trace|fault|San|Nonblocking|Nbi|WriteCombiner|Conformance|Hierarch|Knomial|Tuner|DispatchGolden|Team|Agree|Shrink|Checkpoint|Recovery|recovery|Serving|serving|Zipf|Scaling|Partition|Unreachable|LinkFaults)' \
    --output-on-failure -j "$(nproc)"

echo "== [17/18] paper-results gate (BENCH_paper.json, EXPERIMENTS.md) =="
scripts/bench_paper.sh "$BUILD" "$TMP/paper.json" > /dev/null
diff -u BENCH_paper.json "$TMP/paper.json"
echo "paper gate OK: BENCH_paper.json reproduces byte for byte"

echo "== [18/18] contended rendezvous (one CPU, then CPU burners) =="
# Every team, shrink, hierarchy, barrier, scheduler and partition test, five
# times over, under the host load that once split a team across two
# registry entries: first with every test pinned to CPU 0, then beside one
# busy loop per core.
RENDEZVOUS='Team|Shrink|Hierarch|Barrier|Sched|PartitionQuorum'
taskset -c 0 ctest --test-dir "$BUILD" -R "$RENDEZVOUS" \
    --repeat until-fail:5 --output-on-failure -j "$(nproc)"
BURNERS=()
stop_burners() {
  if ((${#BURNERS[@]})); then kill "${BURNERS[@]}" 2>/dev/null || true; fi
  BURNERS=()
}
trap 'stop_burners; rm -rf "$TMP"' EXIT
for _ in $(seq "$(nproc)"); do
  (while :; do :; done) &
  BURNERS+=("$!")
done
ctest --test-dir "$BUILD" -R "$RENDEZVOUS" \
    --repeat until-fail:5 --output-on-failure -j "$(nproc)"
stop_burners

echo "== all checks passed =="
