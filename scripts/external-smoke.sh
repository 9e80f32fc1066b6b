#!/usr/bin/env bash
# External ingest smoke: a real 3-replica collectd tier as separate OS
# processes on loopback, driven by loadgen twice through the wire protocol —
# a synthetic fleet, then a tiny simulated campaign under network faults —
# then gracefully drained with SIGTERM and unioned with tiermerge.
#
# This is the one test layer the in-process suites cannot cover: the actual
# built binaries, flag parsing, signal handling, process-exit codes, and the
# /healthz + /metrics HTTP surface, all talking over real sockets. It fails
# on any loadgen conservation error, a non-zero loadgen or collectd exit, a
# tiermerge merge error, or a merged sample count that disagrees with the
# uploads both loadgen manifests report.
#
# Fixed loopback ports (17020-17022 data, 19090-19092 metrics) keep the run
# reproducible; override with SMOKE_PORT_BASE / SMOKE_METRICS_BASE if they
# collide on a dev box.
set -euo pipefail

cd "$(dirname "$0")/.."

REPLICAS=3
PORT_BASE=${SMOKE_PORT_BASE:-17020}
METRICS_BASE=${SMOKE_METRICS_BASE:-19090}
AGENTS=${SMOKE_AGENTS:-200}
BATCHES=${SMOKE_BATCHES:-3}
BATCH=${SMOKE_BATCH:-8}

scratch=$(mktemp -d "${TMPDIR:-/tmp}/external-smoke.XXXXXX")
pids=()

cleanup() {
    local code=$?
    for pid in "${pids[@]:-}"; do
        kill -9 "$pid" 2>/dev/null || true
    done
    if [ "$code" -ne 0 ]; then
        echo "--- collectd logs (run failed) ---" >&2
        cat "$scratch"/collectd-*.log >&2 2>/dev/null || true
    fi
    rm -rf "$scratch"
    exit "$code"
}
trap cleanup EXIT

echo "building binaries..."
go build -o "$scratch/bin/" ./cmd/collectd ./cmd/loadgen ./cmd/tiermerge

# http_status <host:port> <path> — status line of a GET, via /dev/tcp so the
# script has no curl/wget dependency.
http_status() {
    exec 3<>"/dev/tcp/${1%%:*}/${1##*:}" || return 1
    printf 'GET %s HTTP/1.0\r\nHost: %s\r\n\r\n' "$2" "$1" >&3
    head -n1 <&3
    exec 3<&- 3>&-
}

wait_healthy() {
    for _ in $(seq 1 100); do
        if http_status "$1" /healthz 2>/dev/null | grep -q ' 200 '; then
            return 0
        fi
        sleep 0.1
    done
    echo "replica at $1 never became healthy" >&2
    return 1
}

addrs=""
metrics=""
for r in $(seq 0 $((REPLICAS - 1))); do
    data_addr="127.0.0.1:$((PORT_BASE + r))"
    metrics_addr="127.0.0.1:$((METRICS_BASE + r))"
    "$scratch/bin/collectd" \
        -addr "$data_addr" \
        -replica-id "$r" -replicas "$REPLICAS" \
        -spool-dir "$scratch/spool$r" -wal-dir "$scratch/wal$r" \
        -checkpoint-interval 2s \
        -metrics-addr "$metrics_addr" \
        >"$scratch/collectd-$r.log" 2>&1 &
    pids[r]=$!
    addrs="$addrs${addrs:+,}$data_addr"
    metrics="$metrics${metrics:+,}http://$metrics_addr"
done
for r in $(seq 0 $((REPLICAS - 1))); do
    wait_healthy "127.0.0.1:$((METRICS_BASE + r))"
done
echo "tier up: $addrs"

"$scratch/bin/loadgen" \
    -addrs "$addrs" -metrics "$metrics" \
    -agents "$AGENTS" -batches "$BATCHES" -batch "$BATCH" \
    -out "$scratch/ingest.json" >/dev/null

# A simulated campaign through real agents, after the synthetic leg has
# reconciled its counters: 2013 at scale 0.005 is 8 devices. Refused dials
# make them retry and fail over between replicas. Only refusals: a lost ack
# or a reset after the send would let a retry land on a second replica,
# which the tier accepts twice until tiermerge drops the copy, and the
# ledger's accepted == uploaded check would then fail.
"$scratch/bin/loadgen" \
    -addrs "$addrs" -metrics "$metrics" \
    -campaign 2013 -scale 0.005 -faults dial=0.1 \
    -out "$scratch/campaign.json" >/dev/null

# uploaded <manifest> — the fleet's uploaded_samples from a loadgen manifest.
uploaded() {
    sed -n 's/.*"uploaded_samples": \([0-9]*\).*/\1/p' "$1"
}
loadgen_uploaded=$(uploaded "$scratch/ingest.json")
campaign_uploaded=$(uploaded "$scratch/campaign.json")
if [ -z "$loadgen_uploaded" ] || [ -z "$campaign_uploaded" ]; then
    echo "could not read uploaded_samples from the loadgen manifests" >&2
    exit 1
fi

# Graceful drain: SIGTERM must exit 0 (checkpoint cut, spool flushed).
for r in $(seq 0 $((REPLICAS - 1))); do
    kill -TERM "${pids[r]}"
done
for r in $(seq 0 $((REPLICAS - 1))); do
    if ! wait "${pids[r]}"; then
        echo "replica $r exited non-zero on SIGTERM" >&2
        exit 1
    fi
done
pids=()

# Union the per-replica spools; the tier must conserve every sample.
spools=()
for r in $(seq 0 $((REPLICAS - 1))); do
    spools+=("$scratch/spool$r")
done
merge_out=$("$scratch/bin/tiermerge" -o "$scratch/merged.trace" "${spools[@]}" 2>&1)
echo "$merge_out"
want=$((loadgen_uploaded + campaign_uploaded))
if ! echo "$merge_out" | grep -q " $want unique "; then
    echo "merged trace does not hold exactly $want unique samples ($loadgen_uploaded synthetic, $campaign_uploaded simulated)" >&2
    exit 1
fi

echo "external smoke PASS: $want samples ($loadgen_uploaded synthetic, $campaign_uploaded simulated) through $REPLICAS collectd processes, merged exactly-once"
