#!/usr/bin/env bash
# External ingest smoke: a real 3-replica collectd tier as separate OS
# processes on loopback, driven by loadgen and then by agentsim (a tiny
# simulated campaign) through the wire protocol, then gracefully drained
# with SIGTERM and unioned with tiermerge.
#
# This is the one test layer the in-process suites cannot cover: the actual
# built binaries, flag parsing, signal handling, process-exit codes, and the
# /healthz + /metrics HTTP surface, all talking over real sockets. It fails
# on any loadgen conservation error, a non-zero agentsim or collectd exit, a
# tiermerge merge error, or a merged sample count that disagrees with what
# loadgen's fleet and agentsim's agents uploaded.
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
go build -o "$scratch/bin/" ./cmd/collectd ./cmd/loadgen ./cmd/agentsim ./cmd/tiermerge

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
    -out "$scratch/ingest.json"
loadgen_uploaded=$((AGENTS * BATCHES * BATCH))

# A simulated campaign through real agents, after loadgen has reconciled its
# counters: 2013 at scale 0.005 is 8 devices.
if ! agentsim_out=$("$scratch/bin/agentsim" -servers "$addrs" -year 2013 -scale 0.005 2>&1); then
    echo "$agentsim_out" >&2
    echo "agentsim exited non-zero" >&2
    exit 1
fi
echo "$agentsim_out"
agentsim_uploaded=$(echo "$agentsim_out" | sed -n 's/.* uploaded=\([0-9]*\) .*/\1/p')
if [ -z "$agentsim_uploaded" ]; then
    echo "could not read agentsim's uploaded sample count" >&2
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
want=$((loadgen_uploaded + agentsim_uploaded))
if ! echo "$merge_out" | grep -q " $want unique "; then
    echo "merged trace does not hold exactly $want unique samples ($loadgen_uploaded from loadgen, $agentsim_uploaded from agentsim)" >&2
    exit 1
fi

echo "external smoke PASS: $want samples ($loadgen_uploaded from loadgen, $agentsim_uploaded from agentsim) through $REPLICAS collectd processes, merged exactly-once"
