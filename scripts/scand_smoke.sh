#!/bin/sh
# scand_smoke.sh — end-to-end smoke of the ATPG job server: build the
# binaries, start scand on an ephemeral port, run an s298 generate job
# through the HTTP API with scanctl, validate the job's streamed metrics
# with metricscheck, exercise the sharded simulate flow against an
# unsharded reference for byte-identity, SIGTERM the server and require
# a clean drain — then a worker-fleet topology: a remote-only scand
# with two scanworker processes running a two-circuit compact job, one
# worker SIGKILLed while it runs a claimed task, the reclaim required in
# the job's event stream, and the post-crash result byte-compared
# against the single-process reference. Used by `make scand-smoke` and
# CI.
set -eu

GO=${GO:-go}
work=$(mktemp -d /tmp/scand-smoke.XXXXXX)
pid=""
wpids=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    for w in $wpids; do kill -9 "$w" 2>/dev/null || true; done
    rm -rf "$work"
}
trap cleanup EXIT INT TERM

echo "== building scand, scanctl, scanworker, metricscheck"
$GO build -o "$work/scand" ./cmd/scand
$GO build -o "$work/scanctl" ./cmd/scanctl
$GO build -o "$work/scanworker" ./cmd/scanworker
$GO build -o "$work/metricscheck" ./cmd/metricscheck

echo "== starting scand"
"$work/scand" -addr 127.0.0.1:0 -addr-file "$work/addr" \
    -data "$work/data" -workers 2 2>"$work/scand.log" &
pid=$!
for _ in $(seq 1 50); do
    [ -s "$work/addr" ] && break
    sleep 0.1
done
[ -s "$work/addr" ] || { echo "scand never wrote its address"; cat "$work/scand.log"; exit 1; }
server="http://$(cat "$work/addr")"
echo "   serving on $server"

ctl() { "$work/scanctl" -server "$server" "$@"; }

echo "== health"
curl -sf "$server/healthz" >/dev/null

echo "== generate job over HTTP (s298), watching the event stream"
ctl submit -flow generate -circuits s298 -watch >"$work/events.jsonl"

echo "== validating the streamed events with metricscheck"
"$work/metricscheck" "$work/events.jsonl"

echo "== sharded simulate equals unsharded (byte-identical results)"
ctl submit -flow simulate -circuits s298 -seq-len 64 -watch >/dev/null
ctl submit -flow simulate -circuits s298 -seq-len 64 -partitions 3 -watch >/dev/null
ctl result job-0002 >"$work/unsharded.json"
ctl result job-0003 >"$work/sharded.json"
cmp "$work/unsharded.json" "$work/sharded.json" || {
    echo "sharded result differs from unsharded"; exit 1; }

echo "== single-process compact reference (restore + omission)"
ctl submit -flow compact -circuits s298,s344 -seq-len 512 -watch >/dev/null
ctl result job-0004 >"$work/compact-ref.json"

echo "== job listing"
ctl list

echo "== SIGTERM drain"
kill -TERM "$pid"
i=0
while kill -0 "$pid" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "scand did not drain"; exit 1; }
    sleep 0.1
done
pid=""
grep -q "drained; all jobs settled" "$work/scand.log" || {
    echo "scand log missing drain confirmation:"; cat "$work/scand.log"; exit 1; }

echo "== worker-fleet topology: remote-only scand + two scanworkers"
"$work/scand" -addr 127.0.0.1:0 -addr-file "$work/addr2" \
    -data "$work/data2" -workers -1 -lease-ttl 2s 2>"$work/scand2.log" &
pid=$!
for _ in $(seq 1 50); do
    [ -s "$work/addr2" ] && break
    sleep 0.1
done
[ -s "$work/addr2" ] || { echo "fleet scand never wrote its address"; cat "$work/scand2.log"; exit 1; }
server="http://$(cat "$work/addr2")"
echo "   serving on $server (no local workers)"

"$work/scanworker" -server "$server" -name doomed -poll 50ms \
    -data "$work/w1" 2>"$work/w1.log" &
w1=$!
wpids="$w1"
"$work/scanworker" -server "$server" -name survivor -poll 50ms \
    -data "$work/w2" 2>"$work/w2.log" &
w2=$!
wpids="$w1 $w2"

echo "== compact job on the fleet, SIGKILLing one worker mid-task"
ctl submit -flow compact -circuits s298,s344 -seq-len 512 >/dev/null
# Kill 'doomed' the moment it logs a claim: a 512-vector compaction runs
# far longer than one poll of this loop, so the task is still running.
i=0
until grep -q "claimed job-0001" "$work/w1.log"; do
    i=$((i + 1))
    [ "$i" -gt 200 ] && { echo "worker 'doomed' never claimed a task"; cat "$work/w1.log"; exit 1; }
    sleep 0.05
done
kill -9 "$w1"
echo "   killed worker 'doomed' (pid $w1) after: $(grep "claimed job-0001" "$work/w1.log")"
ctl watch job-0001 >"$work/fleet-events.jsonl" || {
    echo "fleet compact job failed"; cat "$work/w2.log"; exit 1; }
grep -q '"task_reclaimed"' "$work/fleet-events.jsonl" || {
    echo "fleet job's event stream has no task_reclaimed: the kill interrupted no task"
    cat "$work/fleet-events.jsonl"; exit 1; }
ctl result job-0001 >"$work/compact-fleet.json"
cmp "$work/compact-ref.json" "$work/compact-fleet.json" || {
    echo "post-crash fleet result differs from single-process reference"; exit 1; }

echo "== fleet view"
ctl top -once

kill "$w2" 2>/dev/null || true
wait "$w2" 2>/dev/null || true
wpids=""
kill -TERM "$pid"
i=0
while kill -0 "$pid" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "fleet scand did not drain"; exit 1; }
    sleep 0.1
done
pid=""

echo "scand smoke OK"
