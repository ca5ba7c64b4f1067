#!/usr/bin/env bash
# CI entry point. Enforces the hermetic-build policy: everything must
# build and test fully --offline (no registry traffic, no external
# dependencies) and be rustfmt-clean.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --release --offline"
cargo build --workspace --release --offline

# The benchmark (gpsbench/, its own package) compiles against the
# gps_obs and gps_sim::orchestrate APIs: build it here so an API change
# that breaks it fails CI, not the benchmark run. Build only.
echo "==> cargo build --release --offline --manifest-path gpsbench/Cargo.toml"
cargo build --release --offline --manifest-path gpsbench/Cargo.toml

# The test suite runs three times across the scheduling matrix: the
# exact serial fallback (GPS_PAR_THREADS=1), a multi-worker pass with
# single-replication chunks (GPS_PAR_THREADS=4 GPS_PAR_CHUNK=1, maximal
# scheduling freedom), and with both knobs unset (worker count =
# available parallelism, default chunking). All three must pass and —
# via tests/determinism.rs and tests/campaign_scaling.rs — produce
# identical campaign outputs.
echo "==> GPS_PAR_THREADS=1 cargo test --workspace -q --offline"
GPS_PAR_THREADS=1 cargo test --workspace -q --offline

echo "==> GPS_PAR_THREADS=4 GPS_PAR_CHUNK=1 cargo test --workspace -q --offline"
GPS_PAR_THREADS=4 GPS_PAR_CHUNK=1 cargo test --workspace -q --offline

echo "==> cargo test --workspace -q --offline (GPS_PAR_THREADS/GPS_PAR_CHUNK unset)"
env -u GPS_PAR_THREADS -u GPS_PAR_CHUNK cargo test --workspace -q --offline

echo "==> cargo clippy --workspace --all-targets --offline -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo doc (broken intra-doc links are errors)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --workspace --no-deps --offline

# Live telemetry server + flight recorder: run a tiny campaign with the
# exporter on an ephemeral port and tracing armed, and verify /metrics,
# /metrics.json, /health, the live /progress tracker, the scheduler
# accounting gauges, and the exported Chrome trace over plain TCP (the
# check binary is its own HTTP client — no curl needed).
echo "==> obs_check (exporter + flight-recorder integration)"
GPS_OBS_TRACE=1 GPS_OBS_SERVE=127.0.0.1:0 ./target/release/obs_check

# Admission-control service: replay a scripted decision stream through
# admitd's own HTTP front end (keep-alive connections against the
# exporter) under maximally different scheduling and cache settings,
# with the NDJSON access log and the SLO surfaces enabled on the matrix
# runs. The full digest (decisions + /region) must be invariant across
# the GPS_PAR_THREADS matrix, and so must the access-log decision digest
# (the request_id/route/status/bytes projection of the /admit + /depart
# lines); the decision stream alone must additionally be invariant under
# disabling the certificate cache (GPS_ADMIT_CACHE_CAP=0) — caching may
# never change an admission decision. The default run must also actually
# exercise the cache (hits > 0).
echo "==> admitd replay (digest invariance + cache-hit counters)"
adm="$(mktemp -d)"
trap 'rm -rf "$adm"' EXIT
GPS_PAR_THREADS=1 GPS_OBS_ACCESS_LOG="$adm/access_a.ndjson" \
    ./target/release/admitd --replay 2000 --seed 7 --slo > "$adm/a.txt"
GPS_PAR_THREADS=4 GPS_PAR_CHUNK=1 GPS_OBS_ACCESS_LOG="$adm/access_b.ndjson" \
    ./target/release/admitd --replay 2000 --seed 7 --slo > "$adm/b.txt"
GPS_ADMIT_CACHE_CAP=0 ./target/release/admitd --replay 2000 --seed 7 > "$adm/c.txt"
dig_a="$(grep '^admitd digest:' "$adm/a.txt")"
dig_b="$(grep '^admitd digest:' "$adm/b.txt")"
if [ "$dig_a" != "$dig_b" ]; then
    echo "verify.sh: admitd digest differs across GPS_PAR_THREADS ($dig_a vs $dig_b)" >&2
    exit 1
fi
acc_a="$(grep '^admitd access digest:' "$adm/a.txt")"
acc_b="$(grep '^admitd access digest:' "$adm/b.txt")"
if [ -z "$acc_a" ] || [ "$acc_a" != "$acc_b" ]; then
    echo "verify.sh: admitd access digest differs across GPS_PAR_THREADS ($acc_a vs $acc_b)" >&2
    exit 1
fi
dec_a="$(grep '^admitd decisions digest:' "$adm/a.txt")"
dec_c="$(grep '^admitd decisions digest:' "$adm/c.txt")"
if [ "$dec_a" != "$dec_c" ]; then
    echo "verify.sh: decision stream changed when the cache was disabled ($dec_a vs $dec_c)" >&2
    exit 1
fi
if ! grep -q '^admitd cache: [1-9][0-9]* hits' "$adm/a.txt"; then
    echo "verify.sh: default admitd replay recorded no cache hits" >&2
    exit 1
fi
if ! grep -q '^admitd cache: 0 hits' "$adm/c.txt"; then
    echo "verify.sh: GPS_ADMIT_CACHE_CAP=0 still recorded cache hits" >&2
    exit 1
fi

# Flight recorder, counts mode: the digest is part of the determinism
# contract — the same campaign traced under maximally different
# scheduling (1 worker vs 4 workers with single-replication chunks)
# must export byte-identical trace files.
echo "==> flight-recorder counts digest (schedule invariance)"
tr_a="$(mktemp -d)"
tr_b="$(mktemp -d)"
trap 'rm -rf "$adm" "$tr_a" "$tr_b"' EXIT
GPS_RESULTS_DIR="$tr_a" GPS_MEASURE_SLOTS=50000 GPS_OBS_TRACE=counts GPS_PAR_THREADS=1 \
    ./target/release/validate_single --quiet > /dev/null
GPS_RESULTS_DIR="$tr_b" GPS_MEASURE_SLOTS=50000 GPS_OBS_TRACE=counts GPS_PAR_THREADS=4 GPS_PAR_CHUNK=1 \
    ./target/release/validate_single --quiet > /dev/null
if [ ! -s "$tr_a/validate_single_trace.json" ]; then
    echo "verify.sh: counts-mode run produced no trace file" >&2
    exit 1
fi
cmp "$tr_a/validate_single_trace.json" "$tr_b/validate_single_trace.json"

# Supervised campaigns: a run that loses a replication to an injected
# panic must complete (quarantining it), and a resume of its checkpoint
# without the fault must reproduce the straight-through CSV and metrics
# byte-for-byte.
echo "==> supervised-campaign smoke (quarantine + checkpoint/resume)"
sup_a="$(mktemp -d)"
sup_b="$(mktemp -d)"
trap 'rm -rf "$adm" "$tr_a" "$tr_b" "$sup_a" "$sup_b"' EXIT
GPS_RESULTS_DIR="$sup_a" GPS_MEASURE_SLOTS=200000 \
    ./target/release/validate_single --quiet > "$sup_a/stdout.txt"
GPS_RESULTS_DIR="$sup_b" GPS_MEASURE_SLOTS=200000 GPS_FAULT_TASK_PANIC=3 \
    ./target/release/validate_single --quiet > "$sup_b/stdout.txt"
if ! grep -q "1 quarantined" "$sup_b/stdout.txt"; then
    echo "verify.sh: injected panic was not quarantined" >&2
    exit 1
fi
GPS_RESULTS_DIR="$sup_b" GPS_MEASURE_SLOTS=200000 \
    ./target/release/validate_single --quiet --resume > "$sup_b/stdout_resume.txt"
if ! grep -q "7 of 8 replications restored" "$sup_b/stdout_resume.txt"; then
    echo "verify.sh: resume did not restore the checkpointed replications" >&2
    exit 1
fi
cmp "$sup_a/validate_single.csv" "$sup_b/validate_single.csv"
cmp "$sup_a/validate_single_metrics.json" "$sup_b/validate_single_metrics.json"
GPS_RESULTS_DIR="$sup_a" ./target/release/report
GPS_RESULTS_DIR="$sup_b" ./target/release/report
hash_a="$(sha256sum "$sup_a/dashboard.html" | cut -d' ' -f1)"
hash_b="$(sha256sum "$sup_b/dashboard.html" | cut -d' ' -f1)"
if [ "$hash_a" != "$hash_b" ]; then
    echo "verify.sh: resumed-run dashboard differs from straight-through ($hash_a vs $hash_b)" >&2
    exit 1
fi

# Distributed orchestration: the same overload campaign run three ways —
# in-process (campaignd --local), distributed across two worker
# processes over the real HTTP transport, and distributed with one
# worker kill -9'd mid-shard and replaced — must write byte-identical
# CSV and metrics artifacts. The kill run must actually stall at the
# injection point and the rescuer must report a lease takeover.
echo "==> distributed campaign drill (HTTP workers + kill -9 recovery)"
dist="$(mktemp -d)"
trap 'rm -rf "$adm" "$tr_a" "$tr_b" "$sup_a" "$sup_b" "$dist"' EXIT
mkdir -p "$dist/ref" "$dist/net" "$dist/kill"
camp_env=(GPS_CAMPAIGN_WARMUP=200 GPS_CAMPAIGN_MEASURE=2000)

env "${camp_env[@]}" GPS_RESULTS_DIR="$dist/ref" \
    ./target/release/campaignd --local 2 --scenario overload --quiet > /dev/null

env "${camp_env[@]}" GPS_RESULTS_DIR="$dist/net" \
    ./target/release/campaignd --scenario overload --listen 127.0.0.1:0 \
    --addr-file "$dist/net/addr" --quiet > /dev/null &
cpid=$!
for _ in $(seq 100); do [ -s "$dist/net/addr" ] && break; sleep 0.1; done
env "${camp_env[@]}" GPS_RESULTS_DIR="$dist/net" \
    ./target/release/campaign-worker --addr-file "$dist/net/addr" \
    --worker-id net-a --quiet > /dev/null &
wa=$!
env "${camp_env[@]}" GPS_RESULTS_DIR="$dist/net" \
    ./target/release/campaign-worker --addr-file "$dist/net/addr" \
    --worker-id net-b --quiet > /dev/null &
wb=$!
wait "$cpid" "$wa" "$wb"

env "${camp_env[@]}" GPS_RESULTS_DIR="$dist/kill" \
    ./target/release/campaignd --scenario overload --listen 127.0.0.1:0 \
    --addr-file "$dist/kill/addr" --lease-patience 20 --quiet > /dev/null &
cpid=$!
for _ in $(seq 100); do [ -s "$dist/kill/addr" ] && break; sleep 0.1; done
env "${camp_env[@]}" GPS_RESULTS_DIR="$dist/kill" GPS_FAULT_WORKER_KILL=0:stall \
    ./target/release/campaign-worker --addr-file "$dist/kill/addr" \
    --worker-id victim --threads 1 --quiet > "$dist/kill/victim.log" 2>&1 &
vpid=$!
for _ in $(seq 200); do
    grep -q 'gps-worker-stall' "$dist/kill/victim.log" && break
    sleep 0.1
done
if ! grep -q 'gps-worker-stall' "$dist/kill/victim.log"; then
    echo "verify.sh: victim worker never reached the stall point" >&2
    exit 1
fi
kill -9 "$vpid"
env "${camp_env[@]}" GPS_RESULTS_DIR="$dist/kill" \
    ./target/release/campaign-worker --addr-file "$dist/kill/addr" \
    --worker-id rescuer --quiet > "$dist/kill/rescuer.log"
wait "$cpid"
if ! grep -Eq '\([1-9][0-9]* takeovers\)' "$dist/kill/rescuer.log"; then
    echo "verify.sh: rescuer reported no lease takeover after kill -9" >&2
    exit 1
fi

for run in net kill; do
    cmp "$dist/ref/campaignd_overload.csv" "$dist/$run/campaignd_overload.csv"
    cmp "$dist/ref/campaignd_overload_metrics.json" "$dist/$run/campaignd_overload_metrics.json"
done

# Bench-history ledger: every pinned bench snapshot must have at least
# one dated line in results/bench_history.ndjson recording when its
# numbers were produced (the harness appends one on every finish()).
echo "==> bench-history ledger covers every pinned bench JSON"
for bench_json in results/bench_*.json; do
    suite="$(basename "$bench_json" .json)"
    suite="${suite#bench_}"
    if ! grep -q "\"suite\": \"$suite\"" results/bench_history.ndjson 2>/dev/null; then
        echo "verify.sh: $bench_json has no history line in results/bench_history.ndjson" >&2
        exit 1
    fi
done

# Dashboard generator: rebuilding over unchanged results must be
# byte-identical (the report is a pure function of the files on disk).
echo "==> report (dashboard smoke + determinism)"
tmp_results="$(mktemp -d)"
trap 'rm -rf "$adm" "$tmp_results" "$tr_a" "$tr_b" "$sup_a" "$sup_b" "$dist"' EXIT
cp -r results/. "$tmp_results"/
GPS_RESULTS_DIR="$tmp_results" ./target/release/report
hash1="$(sha256sum "$tmp_results/dashboard.html" | cut -d' ' -f1)"
GPS_RESULTS_DIR="$tmp_results" ./target/release/report
hash2="$(sha256sum "$tmp_results/dashboard.html" | cut -d' ' -f1)"
if [ "$hash1" != "$hash2" ]; then
    echo "verify.sh: dashboard.html is not deterministic ($hash1 vs $hash2)" >&2
    exit 1
fi

# Committed artifacts: both validation campaigns must reproduce the
# CSVs in results/ byte-for-byte. Refactors and speedups of the slot
# kernel, the sources or the CCDF recorder may not move a single bit.
echo "==> validate_single + validate_network reproduce results/ byte-for-byte"
art="$(mktemp -d)"
trap 'rm -rf "$adm" "$tmp_results" "$tr_a" "$tr_b" "$sup_a" "$sup_b" "$dist" "$art"' EXIT
GPS_RESULTS_DIR="$art" ./target/release/validate_single --quiet > /dev/null
GPS_RESULTS_DIR="$art" ./target/release/validate_network --quiet > /dev/null
cmp "$art/validate_single.csv" results/validate_single.csv
cmp "$art/validate_network.csv" results/validate_network.csv

echo "verify.sh: all checks passed"
