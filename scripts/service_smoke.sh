#!/usr/bin/env bash
# Service smoke test: boots a coordinator + 2 workers, submits one async
# sweep through the job API, polls it to completion, and checks the
# report. Exercises the coordinator's trace placement (the home captures,
# the second choice borrows) end-to-end with nothing but the built binary
# and curl.
set -euo pipefail

cd "$(dirname "$0")/.."
work=$(mktemp -d)
cleanup() {
  kill $(jobs -p) 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/mgserve" ./cmd/mgserve

# mgserve holds every trace resident: the chunk-window flag is gone, so
# it must be refused at startup as undefined, not accepted and ignored.
status=0
msg=$("$work/mgserve" -addr 127.0.0.1:18459 -trace-chunk-window 2 2>&1 >/dev/null) || status=$?
if [ "$status" -ne 2 ] || ! grep -q -- 'flag provided but not defined: -trace-chunk-window' <<<"$msg"; then
  echo "-trace-chunk-window: exit $status, want 2 and an undefined-flag error; stderr:" >&2
  echo "$msg" >&2
  exit 1
fi

coord=http://127.0.0.1:18450
"$work/mgserve" -addr 127.0.0.1:18451 -cache-dir "$work/w1" &
"$work/mgserve" -addr 127.0.0.1:18452 -cache-dir "$work/w2" &
"$work/mgserve" -addr 127.0.0.1:18450 -cache-dir "$work/coord" \
  -workers http://127.0.0.1:18451,http://127.0.0.1:18452 &

wait_healthy() {
  for _ in $(seq 1 100); do
    if curl -fsS "$1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "service at $1 never became healthy" >&2
  exit 1
}
for p in 18451 18452 18450; do wait_healthy "http://127.0.0.1:$p"; done

req='{"name":"smoke","jobs":[
  {"arm":"sha/base","bench":"sha","baseline":true,"machine":"baseline","max_records":3000},
  {"arm":"sha/mg","bench":"sha","max_records":3000},
  {"arm":"adpcm/base","bench":"adpcm.enc","baseline":true,"machine":"baseline","max_records":3000},
  {"arm":"adpcm/mg","bench":"adpcm.enc","max_records":3000}]}'

id=$(curl -fsS -X POST "$coord/v1/jobs" -d "$req" \
  | grep -o '"id": *"[^"]*"' | head -1 | cut -d'"' -f4)
[ -n "$id" ] || { echo "no job id returned" >&2; exit 1; }
echo "submitted job $id"

state=queued
for _ in $(seq 1 300); do
  state=$(curl -fsS "$coord/v1/jobs/$id" | grep -o '"state": *"[^"]*"' | head -1 | cut -d'"' -f4)
  case "$state" in
    done) break ;;
    failed|canceled)
      echo "job ended $state:" >&2
      curl -fsS "$coord/v1/jobs/$id" >&2 || true
      exit 1 ;;
  esac
  sleep 0.2
done
if [ "$state" != done ]; then
  echo "job still $state after timeout" >&2
  exit 1
fi

report=$(curl -fsS "$coord/v1/jobs/$id/report")
echo "$report" | grep -q '"metric": "ipc"' || { echo "report missing ipc rows" >&2; echo "$report" >&2; exit 1; }
rows=$(echo "$report" | grep -c '"metric"')
echo "job done: $rows report rows"

# The arms must have run on the worker tier, not the coordinator.
worker_runs=0
for p in 18451 18452; do
  runs=$(curl -fsS "http://127.0.0.1:$p/statsz" | grep -o '"sim_runs": *[0-9]*' | head -1 | grep -o '[0-9]*$')
  worker_runs=$((worker_runs + runs))
done
if [ "$worker_runs" -lt 4 ]; then
  echo "workers only ran $worker_runs simulations for a 4-arm sweep" >&2
  exit 1
fi
echo "service smoke OK ($worker_runs worker simulations)"

# --- Dynamic membership pass ----------------------------------------
# A dynamic coordinator starts with an empty tier; workers join by
# registering, the tier survives a worker death mid-lifetime, and the
# re-run sweep report is byte-identical to the one before the churn.
dcoord=http://127.0.0.1:18460
"$work/mgserve" -addr 127.0.0.1:18460 -cache-dir "$work/dcoord" \
  -coordinator -member-ttl 3s &
wait_healthy "$dcoord"

"$work/mgserve" -addr 127.0.0.1:18461 -cache-dir "$work/w3" \
  -register "$dcoord" -advertise http://127.0.0.1:18461 &
w3=$!
wait_healthy http://127.0.0.1:18461

wait_members() { # wait until the coordinator sees $1 live members
  for _ in $(seq 1 100); do
    live=$(curl -fsS "$dcoord/v1/workers" | grep -c '"live": *true' || true)
    [ "$live" -ge "$1" ] && return 0
    sleep 0.2
  done
  echo "tier never reached $1 live members:" >&2
  curl -fsS "$dcoord/v1/workers" >&2 || true
  exit 1
}
wait_members 1

dynreq='{"name":"dyn","jobs":[
  {"arm":"sha/base","bench":"sha","baseline":true,"machine":"baseline","max_records":3000},
  {"arm":"sha/mg","bench":"sha","max_records":3000}]}'
r1=$(curl -fsS -X POST "$dcoord/v1/sweep" -d "$dynreq")
echo "$r1" | grep -q '"metric": "ipc"' || { echo "dynamic sweep missing ipc rows" >&2; exit 1; }

# A second worker joins, then the first one dies: routing must follow
# the tier without the client seeing any of it.
"$work/mgserve" -addr 127.0.0.1:18462 -cache-dir "$work/w4" \
  -register "$dcoord" -advertise http://127.0.0.1:18462 &
wait_healthy http://127.0.0.1:18462
wait_members 2
kill "$w3" 2>/dev/null
wait "$w3" 2>/dev/null || true

r2=$(curl -fsS -X POST "$dcoord/v1/sweep" -d "$dynreq")
if [ "$r1" != "$r2" ]; then
  echo "dynamic-tier report changed across membership churn" >&2
  diff <(echo "$r1") <(echo "$r2") >&2 || true
  exit 1
fi
echo "dynamic membership OK (report byte-identical across join + worker death)"

# --- Store layout ---------------------------------------------------
# The store keeps recency in the files' mtimes alone: a worker's cache
# directory holds its outcome entries (*.ent) and trace segments (*.seg),
# no *.seq sidecar or any other file, one file per thing its store
# indexes. w3 was killed, so its directory is checked for strays only.
for w in w1:18451 w2:18452 w3: w4:18462; do
  dir=$work/${w%%:*} port=${w##*:}
  stray=$(find "$dir" -type f ! -name '*.ent' ! -name '*.seg')
  if [ -n "$stray" ]; then
    echo "$dir holds files other than entries and segments:" >&2
    echo "$stray" >&2
    exit 1
  fi
  [ -n "$port" ] || continue
  files=$(find "$dir" -type f | wc -l)
  entries=$(curl -fsS "http://127.0.0.1:$port/statsz" | grep -o '"entries": *[0-9]*' | head -1 | grep -o '[0-9]*$')
  if [ "$files" -ne "$entries" ]; then
    echo "$dir holds $files files for $entries stored entries and segments" >&2
    exit 1
  fi
done
echo "store layout OK (only *.ent and *.seg, one file per stored entry or segment)"
