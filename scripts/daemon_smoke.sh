#!/usr/bin/env bash
# Daemon smoke: start metarepaird on a scratch dir, run Q1 through the
# HTTP API, and assert the suggested repair matches a one-shot CLI run
# of the same scenario at the same scale. Afterwards, scrape /metrics
# and assert the telemetry agrees with the work the smoke actually did:
# every required family present, one succeeded job on the books.
set -euo pipefail

SCALE_FLAGS=(-switches 19 -flows 300)
ADDR=127.0.0.1:18091
WORK=$(mktemp -d)
trap 'kill "$DPID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

go build -o "$WORK/metarepair" ./cmd/metarepair
go build -o "$WORK/metarepaird" ./cmd/metarepaird

# One-shot CLI baseline: the accepted suggestions ("*" rows).
"$WORK/metarepair" run -scenario Q1 "${SCALE_FLAGS[@]}" | tee "$WORK/cli.out"
grep '^ \*' "$WORK/cli.out" | sed 's/.*] //' | sort > "$WORK/cli.accepted"
[ -s "$WORK/cli.accepted" ] || { echo "CLI run accepted no repairs" >&2; exit 1; }

"$WORK/metarepaird" -addr "$ADDR" -data "$WORK/data" &
DPID=$!
for _ in $(seq 50); do
  curl -sf "http://$ADDR/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -sf "http://$ADDR/healthz" >/dev/null

JOB=$(curl -sf -X POST "http://$ADDR/v1/tenants/smoke/jobs" \
  -d '{"scenario":"Q1","switches":19,"flows":300}' |
  python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
echo "submitted $JOB"

for _ in $(seq 300); do
  STATE=$(curl -sf "http://$ADDR/v1/jobs/$JOB" |
    python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
  case "$STATE" in
    succeeded) break ;;
    failed|cancelled) echo "job ended $STATE" >&2
      curl -sf "http://$ADDR/v1/jobs/$JOB"; exit 1 ;;
  esac
  sleep 0.2
done
[ "$STATE" = succeeded ] || { echo "job stuck in $STATE" >&2; exit 1; }

curl -sf "http://$ADDR/v1/jobs/$JOB" |
  python3 -c '
import json, sys
rep = json.load(sys.stdin)["report"]
for r in rep["results"]:
    if r["accepted"]:
        print(r["desc"])
' | sort > "$WORK/api.accepted"

if ! diff -u "$WORK/cli.accepted" "$WORK/api.accepted"; then
  echo "daemon verdicts diverge from the one-shot CLI run" >&2
  exit 1
fi
echo "daemon smoke ok: $(wc -l < "$WORK/api.accepted") accepted repair(s) match the CLI"

# Observability: the scrape must carry every layer's families, and the
# job counters must match the one job this smoke ran.
curl -sf "http://$ADDR/metrics" > "$WORK/metrics.prom"
for fam in jobs_queue_depth jobs_total jobs_run_duration_seconds \
           jobs_queue_wait_seconds http_requests_total \
           http_request_duration_seconds session_span_duration_seconds \
           session_events_total ndlog_engine_ops_total \
           ndlog_delta_group_joins_total tracestore_entries; do
  grep -q "^# TYPE $fam " "$WORK/metrics.prom" || {
    echo "/metrics is missing family $fam" >&2; exit 1; }
done
SUCCEEDED=$(grep '^jobs_total{state="succeeded"}' "$WORK/metrics.prom" |
  awk '{print $2}')
if [ "${SUCCEEDED:-0}" != 1 ]; then
  echo "jobs_total{state=\"succeeded\"} = ${SUCCEEDED:-absent}, want 1" >&2
  exit 1
fi
RUNS=$(grep '^jobs_run_duration_seconds_count{state="succeeded"}' \
  "$WORK/metrics.prom" | awk '{print $2}')
if [ "${RUNS:-0}" != 1 ]; then
  echo "run-duration histogram recorded ${RUNS:-0} runs, want 1" >&2
  exit 1
fi
echo "metrics smoke ok: all families present, job counters match"

# Graceful drain: SIGTERM must stop the daemon cleanly.
kill -TERM "$DPID"
wait "$DPID"
