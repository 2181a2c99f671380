#!/usr/bin/env bash
# End-to-end smoke of the synthesis service: start `asynth serve` with a
# result store, fire N concurrent client requests twice (distinct specs per
# request), assert the second pass is >= 90% store hits, demonstrate
# request correlation (one --req-id greps identically from the response,
# the daemon's --log-file and the trace spans), probe health/readiness
# before and during a SIGTERM drain, then assert the daemon drains cleanly
# (exit 0, socket removed).
#
# Usage: service_smoke.sh <asynth-binary> <workdir> [concurrency]
#
# The same script backs the CTest `service_smoke` target (concurrency 4) and
# the CI service-smoke job (concurrency 8, store uploaded as an artifact).
set -u

ASYNTH=${1:?usage: service_smoke.sh <asynth-binary> <workdir> [concurrency]}
WORKDIR=${2:?usage: service_smoke.sh <asynth-binary> <workdir> [concurrency]}
N=${3:-8}

fail() { echo "service_smoke: FAIL: $*" >&2; exit 1; }

# Absolutise the binary: the script cds into WORKDIR (callers may pass
# ./build/asynth).
[ -x "$ASYNTH" ] || fail "not an executable: $ASYNTH"
ASYNTH=$(cd "$(dirname "$ASYNTH")" && pwd)/$(basename "$ASYNTH")
TOOLS_DIR=$(cd "$(dirname "$0")" && pwd)

rm -rf "$WORKDIR"
mkdir -p "$WORKDIR" || fail "cannot create $WORKDIR"
cd "$WORKDIR" || fail "cannot enter $WORKDIR"
SOCKET=svc.sock   # relative: AF_UNIX paths are length-limited

# Eight distinct specs: the embedded corpus, cycled if N > 8.
CORPUS=(fig1 lr qmodule lr_full fig6 par par_manual mmu)

"$ASYNTH" serve --socket "$SOCKET" --store store --jobs 2 --queue 64 \
    --log-file serve_events.log --trace traces \
    --report serve_report.json > serve.log 2>&1 &
SERVER_PID=$!
trap 'kill -9 $SERVER_PID 2>/dev/null' EXIT

run_pass() {  # $1 = pass index; writes resp_<pass>_<i>.json
    local pass=$1 pids=() i rc=0
    for ((i = 0; i < N; i++)); do
        "$ASYNTH" client --socket "$SOCKET" --corpus "${CORPUS[i % 8]}" \
            --id $((pass * 1000 + i)) > "resp_${pass}_${i}.json" &
        pids+=($!)
    done
    for p in "${pids[@]}"; do wait "$p" || rc=1; done
    return $rc
}

run_pass 1 || fail "first pass had failing requests"
run_pass 2 || fail "second pass had failing requests"

# Every response must be completed; the second pass must be >= 90% hits.
hits=0
for ((i = 0; i < N; i++)); do
    grep -q '"completed":true' "resp_1_${i}.json" || fail "pass 1 request $i not completed: $(cat "resp_1_${i}.json")"
    grep -q '"completed":true' "resp_2_${i}.json" || fail "pass 2 request $i not completed: $(cat "resp_2_${i}.json")"
    grep -q '"store":"hit"' "resp_2_${i}.json" && hits=$((hits + 1))
done
[ $((hits * 10)) -ge $((N * 9)) ] || fail "second pass: only $hits/$N store hits (need >= 90%)"

# Stats must agree that the store served the second pass.
"$ASYNTH" client --socket "$SOCKET" --op stats > stats.json || fail "stats request failed"
grep -q '"store_enabled":true' stats.json || fail "store not enabled: $(cat stats.json)"

# The metrics op returns Prometheus text exposition with the store and
# queue-wait series the daemon accumulated (docs/OBSERVABILITY.md).
"$ASYNTH" client --socket "$SOCKET" --op metrics > metrics.txt || fail "metrics request failed"
grep -q '^asynth_store_hits_total [0-9]' metrics.txt \
    || fail "metrics exposition lacks asynth_store_hits_total: $(head -5 metrics.txt)"
grep -q '^asynth_store_misses_total [0-9]' metrics.txt \
    || fail "metrics exposition lacks asynth_store_misses_total"
grep -q '^asynth_service_queue_wait_ms_bucket{le="' metrics.txt \
    || fail "metrics exposition lacks the queue-wait histogram"
grep -q '^asynth_service_requests_total' metrics.txt \
    || fail "metrics exposition lacks asynth_service_requests_total"

# Liveness and readiness while healthy: health always answers with the
# process fingerprint; ready's exit code is the verdict (0 = ready).
"$ASYNTH" client --socket "$SOCKET" --op health > health.json || fail "health request failed"
grep -q '"ok":true' health.json || fail "health not ok: $(cat health.json)"
grep -q '"version":"' health.json || fail "health lacks version: $(cat health.json)"
grep -q '"uptime_s":' health.json || fail "health lacks uptime_s: $(cat health.json)"
grep -q '"pid":' health.json || fail "health lacks pid: $(cat health.json)"
"$ASYNTH" client --socket "$SOCKET" --op ready > ready.json || fail "daemon not ready while idle"
grep -q '"ready":true' ready.json || fail "ready not true: $(cat ready.json)"
"$ASYNTH" client --socket "$SOCKET" --op ping > ping.json || fail "ping request failed"
grep -q '"version":"' ping.json || fail "ping lacks version: $(cat ping.json)"
grep -q '"uptime_s":' ping.json || fail "ping lacks uptime_s: $(cat ping.json)"

# End-to-end request correlation: one request with a known --req-id must be
# greppable from its response, from the daemon's structured log and from the
# service.request span args of the daemon's trace capture.
"$ASYNTH" client --socket "$SOCKET" --corpus fig1 --req-id smoke-corr-1 \
    > resp_corr.json || fail "correlated request failed"
grep -q '"req_id":"smoke-corr-1"' resp_corr.json \
    || fail "response does not echo the req_id: $(cat resp_corr.json)"
grep -q '"req_id":"smoke-corr-1"' serve_events.log \
    || fail "no log line carries req_id smoke-corr-1"
sleep 0.3  # the dispatcher writes the trace file after the batch drains
grep -ql 'smoke-corr-1' traces/trace_batch_*.json 2>/dev/null \
    || fail "no trace span carries req_id smoke-corr-1"

# Every log line must parse as one self-contained JSON object with the
# schema fields, and every response req_id must appear in the log.
if command -v python3 > /dev/null 2>&1; then
    python3 "$TOOLS_DIR/check_log_lines.py" serve_events.log --responses resp_*.json \
        || fail "check_log_lines rejected serve_events.log"
else
    echo "service_smoke: python3 not found; skipping check_log_lines.py" >&2
fi

# A synthesis client with --out must land the recovered STG on disk.
"$ASYNTH" client --socket "$SOCKET" --corpus lr --out lr_recovered.g -q \
    || fail "client --out request failed"
[ -s lr_recovered.g ] || fail "client --out wrote no recovered STG"
grep -q '^\.model' lr_recovered.g || fail "recovered STG is not ASTG text: $(head -1 lr_recovered.g)"

# Graceful drain on SIGTERM with work in flight: the listen socket stays
# open, so health keeps answering ok:true while ready flips to false until
# the backlog finishes.  The backlog must outlast the arrival wait below by
# a wide margin, whatever the synthesis speed: a four-way parallel fan-out
# (2644 states, several hundred ms per run, against tens of ms for the
# largest corpus spec) under --no-store, so every request really runs.
cat > drain_fanout.g <<'EOF'
.model drain_fanout
.channels a b c d e
.graph
a? b! c! d! e!
b! b?
b? a!
c! c?
c? a!
d! d?
d? a!
e! e?
e? a!
a! a?
.marking { <a!,a?> }
.end
EOF
DRAIN_PIDS=()
for ((i = 0; i < 4; i++)); do
    "$ASYNTH" client --socket "$SOCKET" --no-store -q drain_fanout.g &
    DRAIN_PIDS+=($!)
done
sleep 0.3  # let the requests reach the daemon's queue
kill -TERM $SERVER_PID
"$ASYNTH" client --socket "$SOCKET" --op ready > ready_drain.json
READY_RC=$?
[ "$READY_RC" = "1" ] || fail "ready during drain: exit $READY_RC, want 1 ($(cat ready_drain.json))"
grep -q '"ready":false' ready_drain.json || fail "ready not false during drain: $(cat ready_drain.json)"
grep -q '"reason":"draining"' ready_drain.json || fail "ready lacks the drain reason: $(cat ready_drain.json)"
"$ASYNTH" client --socket "$SOCKET" --op health > health_drain.json \
    || fail "health stopped answering during drain: $(cat health_drain.json)"
grep -q '"ok":true' health_drain.json || fail "health not ok during drain: $(cat health_drain.json)"
grep -q '"draining":true' health_drain.json || fail "health does not report draining: $(cat health_drain.json)"
for p in "${DRAIN_PIDS[@]}"; do wait "$p" || fail "in-flight request failed during drain"; done

# Graceful drain on SIGTERM: exit code 0, socket gone, drain line logged.
SERVER_RC=-1
for _ in $(seq 1 100); do
    if ! kill -0 $SERVER_PID 2>/dev/null; then wait $SERVER_PID; SERVER_RC=$?; break; fi
    sleep 0.1
done
trap - EXIT
[ "$SERVER_RC" = "0" ] || fail "server exit code $SERVER_RC after SIGTERM (log: $(cat serve.log))"
[ ! -e "$SOCKET" ] || fail "socket not removed on drain"
grep -q "drained cleanly" serve.log || fail "no clean-drain line in serve.log: $(cat serve.log)"
# The structured journal tells the same lifecycle story.
for ev in server.start server.drain_begin server.drained; do
    grep -q "\"event\":\"$ev\"" serve_events.log || fail "no $ev event in serve_events.log"
done
[ -s serve_report.json ] || fail "drain report not written"
grep -q '"schema_version": 6' serve_report.json || fail "drain report is not schema v6"
grep -q '"counters": {' serve_report.json || fail "drain report lacks the counters block"
# Undeadlined service runs are never cut (schema v6 per-spec flag).
! grep -q '"deadline_hit": true' serve_report.json || fail "drain report has a deadline-cut row"

# The store survives the daemon and is shared across tools: a batch sweep
# over the embedded corpus against the same store must hit every spec the
# service already synthesised (batch and service use one key discipline).
"$ASYNTH" batch --count 0 --store store --report batch_resume.json -q \
    || fail "batch resume against the service store failed"
want=$((N < 8 ? N : 8))
got=$(grep -o '"store_hits": [0-9]*' batch_resume.json | head -1 | grep -o '[0-9]*$')
[ "${got:-0}" -ge "$want" ] || fail "batch resume: $got corpus hits (need >= $want)"

echo "service_smoke: OK ($hits/$N second-pass hits; $got batch-resume hits; artifacts in $WORKDIR)"
exit 0
