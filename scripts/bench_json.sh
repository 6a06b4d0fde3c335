#!/usr/bin/env bash
# Benchmark trajectories (ISSUE 6 + ISSUE 7 + ISSUE 9 satellites).
#
# Default mode: run the tiered read-path benchmarks and write BENCH_6.json,
# the campaign-expansion benchmark into BENCH_7.json, and the observability
# hot-path benchmarks (per-job trace lifecycle with worker-subtree stitch,
# fleet-metrics federation) into BENCH_9.json, and the CLAMR steady-state
# step (face and cell kernels, one and several lanes) into BENCH_12.json,
# and the steady-state mesh adaptation cycle (one and two lanes) into
# BENCH_13.json — one record per bench with
# ns/op, ops/sec, B/op and allocs/op (for the campaign bench, ops/sec is
# specs expanded+hashed per second). The files are committed so the
# trajectory is versioned alongside the code.
#
# --check mode (the CI regression gate): re-run the benches on this
# machine and compare against the committed BENCH_*.json files. Two
# kinds of assertion:
#   * machine-independent ratios, checked against the FRESH numbers — a
#     hot-tier hit must be >=10x faster than a cold disk hit at >=10x
#     fewer allocs/op, and a 304 must do no worse than the cold disk read
#     (these encode the PR's acceptance criteria and hold on any host);
#   * alloc regression vs the committed baseline — allocs/op is
#     machine-independent, so any tracked bench allocating >20% more than
#     the committed number fails the gate;
#   * zero allocations for the CLAMR step benches and the mesh adapt
#     cycle: neither may allocate at any lane count. Lane speedups are not
#     gated (a
#     1-core host cannot show one). Raw ns/op is NOT compared
#     across machines (a faster or slower CI host would make the gate
#     meaningless); the ratio checks carry the wall-clock contract.
set -euo pipefail

cd "$(dirname "$0")/.."
GO=${GO:-go}
OUT=BENCH_6.json
OUT7=BENCH_7.json
OUT9=BENCH_9.json
OUT12=BENCH_12.json
OUT13=BENCH_13.json
MODE=${1:-generate}

raw=$(mktemp)
raw7=$(mktemp)
raw9=$(mktemp)
raw12=$(mktemp)
raw13=$(mktemp)
trap 'rm -f "$raw" "$raw7" "$raw9" "$raw12" "$raw13"' EXIT

echo "== running read-path benchmarks (this takes ~10s)"
$GO test -run '^$' -bench 'ReadPath' -benchmem -benchtime=1s \
    ./internal/serve/cache/ ./internal/serve/api/ | tee "$raw" | grep -E '^Benchmark' || {
    echo "FAIL: benchmarks did not run"; exit 1; }

echo "== running campaign-expansion benchmark"
$GO test -run '^$' -bench 'CampaignExpand' -benchmem -benchtime=1s \
    ./internal/serve/campaign/ | tee "$raw7" | grep -E '^Benchmark' || {
    echo "FAIL: campaign benchmark did not run"; exit 1; }

echo "== running observability hot-path benchmarks"
$GO test -run '^$' -bench 'Obs(JobTrace|StitchSnapshot|Federate)' -benchmem -benchtime=1s \
    ./internal/obs/ | tee "$raw9" | grep -E '^Benchmark' || {
    echo "FAIL: observability benchmarks did not run"; exit 1; }

echo "== running CLAMR step benchmarks"
$GO test -run '^$' -bench 'CLAMRStep' -benchmem -benchtime=1s \
    ./internal/clamr/ | tee "$raw12" | grep -E '^Benchmark' || {
    echo "FAIL: CLAMR step benchmarks did not run"; exit 1; }

echo "== running mesh adaptation benchmarks"
$GO test -run '^$' -bench 'MeshAdapt' -benchmem -benchtime=1s \
    ./internal/mesh/ | tee "$raw13" | grep -E '^Benchmark' || {
    echo "FAIL: mesh adaptation benchmarks did not run"; exit 1; }

# Parse `BenchmarkName-N  iters  ns/op  B/op  allocs/op` lines into JSON.
parse_json() { # parse_json <raw-file>
    awk '
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name); sub(/^Benchmark/, "", name)
    ns = $3; bytes = $5; allocs = $7
    ops = (ns > 0) ? 1e9 / ns : 0
    printf "%s{\"name\":\"%s\",\"ns_per_op\":%s,\"ops_per_sec\":%.0f,\"bytes_per_op\":%s,\"allocs_per_op\":%s}", sep, name, ns, ops, bytes, allocs
    sep = ",\n    "
}' "$1"
}
json=$(parse_json "$raw")
json7=$(parse_json "$raw7")
json9=$(parse_json "$raw9")
json12=$(parse_json "$raw12")
json13=$(parse_json "$raw13")

if [ -z "$json" ] || [ -z "$json7" ] || [ -z "$json9" ] || [ -z "$json12" ] || [ -z "$json13" ]; then
    echo "FAIL: no benchmark lines parsed"; exit 1
fi

get() { # get <file> <bench-name> <field>
    awk -v n="$2" -v f="$3" 'BEGIN{RS=","} $0 ~ "\""n"\"" || found {found=1}
        found && $0 ~ "\""f"\"" {gsub(/[^0-9.]/,"",$0); print; exit}' "$1"
}

check_ratios() { # check_ratios <json-file>
    local f=$1
    local cold_ns hot_ns cold_allocs hot_allocs etag_ns
    cold_ns=$(get "$f" ReadPathColdDisk ns_per_op)
    hot_ns=$(get "$f" ReadPathHotTier ns_per_op)
    cold_allocs=$(get "$f" ReadPathColdDisk allocs_per_op)
    hot_allocs=$(get "$f" ReadPathHotTier allocs_per_op)
    etag_ns=$(get "$f" ReadPath304 ns_per_op)
    [ -n "$cold_ns" ] && [ -n "$hot_ns" ] || { echo "FAIL: benches missing from $f"; return 1; }
    echo "   cold disk: ${cold_ns} ns/op, ${cold_allocs} allocs/op"
    echo "   hot tier:  ${hot_ns} ns/op, ${hot_allocs} allocs/op"
    echo "   etag 304:  ${etag_ns} ns/op"
    awk -v c="$cold_ns" -v h="$hot_ns" 'BEGIN{ exit !(h*10 <= c) }' || {
        echo "FAIL: hot-tier hit is not >=10x faster than a cold disk hit"; return 1; }
    awk -v c="$cold_allocs" -v h="$hot_allocs" 'BEGIN{ hh = (h<1)?1:h; exit !(hh*10 <= c) }' || {
        echo "FAIL: hot-tier hit does not allocate >=10x less than a cold disk hit"; return 1; }
    awk -v c="$cold_ns" -v e="$etag_ns" 'BEGIN{ exit !(e <= c) }' || {
        echo "FAIL: a 304 revalidation costs more than the cold disk read it replaces"; return 1; }
    echo "   ratio gates OK (hot >=10x faster, >=10x fewer allocs, 304 <= cold disk)"
}

# alloc_gate <committed-json> <fresh-json> <bench...>: allocs/op is
# machine-independent, so any tracked bench allocating >20% more than the
# committed number fails. Returns nonzero on any regression.
alloc_gate() {
    local committed=$1 fresh=$2 bench base now fail=0; shift 2
    for bench in "$@"; do
        base=$(get "$committed" "$bench" allocs_per_op)
        now=$(get "$fresh" "$bench" allocs_per_op)
        [ -n "$base" ] && [ -n "$now" ] || { echo "FAIL: $bench missing"; fail=1; continue; }
        if awk -v b="$base" -v n="$now" 'BEGIN{ exit !(n > b*1.2 && n > b+1) }'; then
            echo "FAIL: $bench allocs/op regressed: $base -> $now (>20%)"
            fail=1
        else
            echo "   $bench allocs/op: $base -> $now OK"
        fi
    done
    return "$fail"
}

# zero_alloc_gate <json-file> <bench...>: each bench must report exactly
# 0 allocs/op. Returns nonzero on any allocation.
zero_alloc_gate() {
    local f=$1 bench now fail=0; shift
    for bench in "$@"; do
        now=$(get "$f" "$bench" allocs_per_op)
        if [ -z "$now" ]; then
            echo "FAIL: $bench missing"; fail=1
        elif [ "$now" != 0 ]; then
            echo "FAIL: $bench allocates $now objects/op (must be 0)"; fail=1
        else
            echo "   $bench allocs/op: 0 OK"
        fi
    done
    return "$fail"
}

STEP_BENCHES=(CLAMRStep/face/w1 CLAMRStep/face/w2 CLAMRStep/face/w4 CLAMRStep/cell/w1 CLAMRStep/cell/w4)
ADAPT_BENCHES=(MeshAdapt/w1 MeshAdapt/w2)

if [ "$MODE" = "--check" ]; then
    [ -f "$OUT" ] || { echo "FAIL: no committed $OUT to gate against"; exit 1; }
    [ -f "$OUT7" ] || { echo "FAIL: no committed $OUT7 to gate against"; exit 1; }
    [ -f "$OUT9" ] || { echo "FAIL: no committed $OUT9 to gate against"; exit 1; }
    fresh=$(mktemp); fresh7=$(mktemp); fresh9=$(mktemp); fresh12=$(mktemp); fresh13=$(mktemp)
    trap 'rm -f "$raw" "$raw7" "$raw9" "$raw12" "$raw13" "$fresh" "$fresh7" "$fresh9" "$fresh12" "$fresh13"' EXIT
    printf '%s\n' "$json" > "$fresh"
    printf '%s\n' "$json7" > "$fresh7"
    printf '%s\n' "$json9" > "$fresh9"
    printf '%s\n' "$json12" > "$fresh12"
    printf '%s\n' "$json13" > "$fresh13"
    echo "== fresh-run ratio gates"
    check_ratios "$fresh"
    fail=0
    echo "== alloc regression gate vs committed $OUT (>20% fails)"
    alloc_gate "$OUT" "$fresh" ReadPathColdDisk ReadPathHotTier ReadPath304 || fail=1
    echo "== alloc regression gate vs committed $OUT7 (>20% fails)"
    alloc_gate "$OUT7" "$fresh7" CampaignExpand || fail=1
    specs_sec=$(get "$fresh7" CampaignExpand ops_per_sec)
    echo "   campaign expansion: ${specs_sec:-?} specs/sec"
    echo "== alloc regression gate vs committed $OUT9 (>20% fails: instrumentation must stay off the hot path)"
    alloc_gate "$OUT9" "$fresh9" ObsJobTrace ObsStitchSnapshot ObsFederate || fail=1
    echo "== zero-allocation gate on the CLAMR step benches (the step loop allocates nothing at any lane count)"
    zero_alloc_gate "$fresh12" "${STEP_BENCHES[@]}" || fail=1
    echo "== zero-allocation gate on the mesh adapt cycle (a refine/coarsen cycle that does not grow the mesh allocates nothing)"
    zero_alloc_gate "$fresh13" "${ADAPT_BENCHES[@]}" || fail=1
    [ "$fail" = 0 ] || exit 1
    echo "PASS: bench regression gate"
    exit 0
fi

cat > "$OUT" <<EOF
{
  "schema": "bench-trajectory/v1",
  "issue": 6,
  "description": "Tiered read path: cold disk hit vs hot-tier hit vs ETag 304 revalidation.",
  "command": "make bench-json",
  "benchmarks": [
    $json
  ]
}
EOF
cat > "$OUT7" <<EOF
{
  "schema": "bench-trajectory/v1",
  "issue": 7,
  "description": "Campaign lazy expansion: cursor walk + spec normalization + content-address hash per expanded spec (the dedup key derivation every admission pays).",
  "command": "make bench-json",
  "benchmarks": [
    $json7
  ]
}
EOF
cat > "$OUT9" <<EOF
{
  "schema": "bench-trajectory/v1",
  "issue": 9,
  "description": "Fleet observability hot path: per-job trace lifecycle (spans + worker-subtree stitch + snapshot), the stitch snapshot alone, and one GET /metrics/fleet federation of four worker scrapes.",
  "command": "make bench-json",
  "benchmarks": [
    $json9
  ]
}
EOF
cat > "$OUT12" <<EOF
{
  "schema": "bench-trajectory/v1",
  "issue": 12,
  "description": "CLAMR steady-state step (128x128, no AMR, full precision): face kernel at 1, 2 and 4 lanes (1 lane is the serial vectorized kernel; more lanes run pooled flux passes plus the per-cell gather) and cell kernel at 1 and 4 lanes. allocs/op is gated at 0; ns/op is recorded, not gated.",
  "command": "make bench-json",
  "benchmarks": [
    $json12
  ]
}
EOF
cat > "$OUT13" <<EOF
{
  "schema": "bench-trajectory/v1",
  "description": "Steady-state mesh adaptation: one refine/coarsen cycle (two mesh.Adapt calls) on a 192x192 coarse mesh with two levels, 68k leaves growing to 124k and back, neighbor resolution on 1 and 2 lanes. allocs/op is gated at 0; ns/op is recorded, not gated.",
  "command": "make bench-json",
  "benchmarks": [
    $json13
  ]
}
EOF
echo "== wrote $OUT, $OUT7, $OUT9, $OUT12 and $OUT13"
zero_alloc_gate "$OUT12" "${STEP_BENCHES[@]}"
zero_alloc_gate "$OUT13" "${ADAPT_BENCHES[@]}"
check_ratios "$OUT"
echo "   campaign expansion: $(get "$OUT7" CampaignExpand ops_per_sec) specs/sec at $(get "$OUT7" CampaignExpand allocs_per_op) allocs/spec"
