#!/usr/bin/env bash
# End-to-end smoke gates over an already built build/ tree: determinism,
# pinned digests, the live and loopback meshes, the perfbench build and a
# short run of each google-benchmark binary.  Every gate exits non-zero on
# failure.  scripts/check.sh and CI's release job both call this script
# after building build/; it takes no arguments.
set -euo pipefail
cd "$(dirname "$0")/.."

sim=build/tools/roflsim

# Observability smoke: a small sim with the trace sink + flight recorder on
# must emit a trace that chrome://tracing / Perfetto would accept, and with
# --timeline the trace must also carry live "ph":"C" counter tracks (the
# intra model is synchronous, so gate on msgs.join rather than sim.events).
$sim intra --hosts 200 --routes 100 --seed 7 \
  --trace build/trace_smoke.json --timeline build/timeline_smoke.jsonl \
  --traceroute --metrics > /dev/null
python3 scripts/validate_trace.py build/trace_smoke.json --min-events 50 \
  --require-counter msgs.join
$sim timeline --file build/timeline_smoke.jsonl --metric msgs > /dev/null

# Fault-matrix smoke: churn under 5% loss with link flaps must converge to
# canonical rings (roflsim exits nonzero otherwise), and two same-seed runs
# must produce byte-identical metrics -- the determinism contract that makes
# faulty runs debuggable.
for i in 1 2; do
  $sim faults --hosts 120 --churn 40 --loss 0.05 --flaps 3 --seed 11 \
    --metrics-json build/faults_run$i.json > /dev/null
done
cmp build/faults_run1.json build/faults_run2.json
grep -q '"faults.dropped"' build/faults_run1.json

# Corruption smoke: the same contract with byte corruption in the loss mix.
# Every corrupted frame must be CRC-rejected (counted under
# "faults.corrupted"), the run must still converge, and two same-seed runs
# must stay byte-identical.
for i in 1 2; do
  $sim faults --hosts 120 --churn 40 --loss 0.02 --corrupt 0.01 --seed 13 \
    --metrics-json build/corrupt_run$i.json > /dev/null
done
cmp build/corrupt_run1.json build/corrupt_run2.json
grep -q '"faults.corrupted"' build/corrupt_run1.json
grep -q '"bytes.join"' build/corrupt_run1.json

# Invariant-auditor smoke: a churn run with periodic audits must finish with
# zero hard violations and converge (roflsim exits nonzero otherwise), both
# fault-free and under loss; two same-seed runs must produce byte-identical
# metrics snapshots -- the digest printed on stdout covers the audit reports
# violation-by-violation.
audit="$sim audit --events 120 --initial-hosts 32 --seed 11"
for i in 1 2; do
  $audit --metrics-json build/audit_run$i.json > build/audit_out$i.txt
done
cmp build/audit_run1.json build/audit_run2.json
cmp <(grep 'audit digest' build/audit_out1.txt) \
    <(grep 'audit digest' build/audit_out2.txt)
grep -q '"audit.runs"' build/audit_run1.json
$audit --loss 0.05 > /dev/null

# Label-equivalence smoke: the label-switched fast path may change per-hop
# cost and byte counters, never route outcomes (DESIGN.md section 15).  Both
# modes would move together on a drift, so comparing them with each other
# is not enough: the "routes digest" (delivery, hops and latency of all 68
# routes) is pinned to a fixed value in both modes, fault-free and under
# loss + duplication.  The lossy labels-on run must also converge with zero
# hard violations (the intra.label.* auditor checks are active), and a
# same-seed labels-on double run must produce byte-identical metrics.
clean_routes='routes digest *n=68;delivered=68;fnv=58217ff9c8d10915'
lossy_routes='routes digest *n=68;delivered=51;fnv=19b882c9a49ae42a'
$audit --labels > build/labels_clean.txt
for f in build/audit_out1.txt build/labels_clean.txt; do
  grep -q "$clean_routes" "$f"
done
for i in 1 2; do
  $audit --loss 0.05 --dup 0.02 --labels \
    --metrics-json build/labels_run$i.json > build/labels_out$i.txt
done
$audit --loss 0.05 --dup 0.02 > build/labels_off.txt
for f in build/labels_out1.txt build/labels_out2.txt build/labels_off.txt; do
  grep -q "$lossy_routes" "$f"
done
cmp build/labels_run1.json build/labels_run2.json
grep -q '"labels.installed"' build/labels_run1.json
grep -q '"labels.hits"' build/labels_run1.json

# Shard-determinism smoke: the same seeded scale scenario at 1 and 4 shards
# must produce byte-identical merged metrics and identical flight-recorder /
# shard-audit digests (the shard count may change performance, never
# results), and the shard audit must be clean (roflsim exits nonzero
# otherwise).
shard="$sim shard --hosts 20000 --ases 400 --duration 500 --seed 11"
for n in 1 4; do
  $shard --shards $n --metrics-json build/shard_run$n.json \
    > build/shard_out$n.txt
done
cmp build/shard_run1.json build/shard_run4.json
cmp <(grep -E 'flight digest|shard audit' build/shard_out1.txt) \
    <(grep -E 'flight digest|shard audit' build/shard_out4.txt)
grep -q '"scale.ops.lookup"' build/shard_run1.json

# Timeline-determinism smoke: the merged timeline (per-window counter deltas,
# gauges, histogram percentiles) must also be shard-count independent.  The
# JSONL trailer carries wall-clock provenance ({"run": ...}), which varies by
# construction, so scrub it before the byte-compare (DESIGN.md section 14).
for n in 1 4; do
  $shard --shards $n --timeline build/shard_tl$n.jsonl > /dev/null
done
cmp <(grep -v '"run"' build/shard_tl1.jsonl) \
    <(grep -v '"run"' build/shard_tl4.jsonl)
grep -q '"sim.events"' build/shard_tl1.jsonl
grep -q '"run"' build/shard_tl1.jsonl
$sim timeline --file build/shard_tl1.jsonl --metric sim.events > /dev/null

# Net smoke: the control plane over actual sockets (DESIGN.md section 16).
# An 8-router live UDP mesh must converge its join storm with a clean ring
# audit (roflsim exits nonzero otherwise), also under loss + duplication;
# the deterministic loopback backend must hit the section 6.3 byte-parity
# gate (1638 bytes per 256-finger JoinRequest, enforced by the run itself);
# and spawn mode -- one real process per router -- must do the same over a
# fixed port range.  Hard timeouts: a wedged mesh fails, never hangs.
net="timeout 120 $sim net"
$net --routers 8 --hosts 400 --fingers 8 --seed 11 > /dev/null
$net --routers 8 --hosts 300 --fingers 8 --seed 11 --loss 0.02 --dup 0.01 \
  > /dev/null
$net --backend loopback --routers 4 --hosts 200 --fingers 256 --seed 11 \
  > build/net_loopback.txt
grep -q 'byte parity (6.3).*exact' build/net_loopback.txt
$net --spawn --routers 6 --hosts 240 --fingers 8 --seed 11 \
  --base-port 47500 > build/net_spawn.txt
grep -q 'audit=clean' build/net_spawn.txt

# Lookup + leave smoke: data-plane lookups over the converged live mesh (all
# probes must hit) followed by a clean departure whose post-leave ring audit
# stays exact (roflsim exits nonzero on either failing); the deterministic
# loopback run must reproduce byte-identical metrics across two same-seed
# runs with both phases on.
$net --routers 4 --hosts 200 --fingers 8 --seed 11 --lookups 50 --leave 2 \
  > build/net_lookup_leave.txt
grep -q 'lookups hit/served  *50/50' build/net_lookup_leave.txt
grep -q 'departure  *clean' build/net_lookup_leave.txt
for i in 1 2; do
  $net --backend loopback --routers 4 --hosts 200 --fingers 8 --seed 11 \
    --lookups 50 --leave 2 --metrics-json build/net_ll_run$i.json > /dev/null
done
cmp build/net_ll_run1.json build/net_ll_run2.json
grep -q '"net.lookups.hit"' build/net_ll_run1.json
grep -q '"net.leave.relinks"' build/net_ll_run1.json

# Impaired loopback determinism: the only gate that runs proto::Core's
# retransmission code on a deterministic clock.  Two same-seed impaired
# loopback runs must write byte-identical metrics, and must have
# retransmitted.
for i in 1 2; do
  $net --backend loopback --routers 4 --hosts 200 --fingers 8 --seed 11 \
    --loss 0.05 --dup 0.02 --lookups 50 --leave 2 \
    --metrics-json build/net_impaired$i.json > /dev/null
done
cmp build/net_impaired1.json build/net_impaired2.json
grep -Eq '"net.retrans": *[1-9]' build/net_impaired1.json

# Benchmark smoke: perfbench/ is a separate CMake project compiling ../src,
# so a src/ signature change can break it without breaking build/.  Build it
# and run two short traced workloads: the live mesh join storm and the
# serial simulator (the only one entering intra::Network).  Each result line
# (the last line of output) must report a correct run.
for w in mesh-join-256f sim-intra-flows; do
  python3 perfbench/run.py --workload $w --seed 1 --seconds 2 --trace 1 \
    > build/perfbench_$w.txt
  tail -n 1 build/perfbench_$w.txt | grep -q '"correct": true'
done

# Micro-bench smoke: one short run of each google-benchmark binary, so a
# fixture that crashes or stops compiling fails here.  Their JSON comes from
# google-benchmark's own --benchmark_out; perfbench is the perf ledger.
for b in micro_datapath wire_codec; do
  build/bench/$b --benchmark_min_time=0.01 \
    --benchmark_out=build/$b.json --benchmark_out_format=json > /dev/null
  grep -q '"benchmarks"' build/$b.json
done
