#!/usr/bin/env bash
# Fault-tolerance smoke test: a placed distributed query must survive losing
# a worker mid-membership. Starts paroptd plus three paroptw workers, installs
# a placement map, then SIGKILLs one worker WITHOUT deregistering it — the
# daemon still lists the dead address, so fragment dispatch hits a refused
# connection and must re-dispatch to a survivor (fully-shipped fragments are
# side-effect-free at the workers, which is what makes the retry sound). The
# query has to return exactly the rows a local run produces, with at least one
# retry and zero coordinator fallbacks. Then the dead worker is deregistered,
# restarted on the same port (exercising startup re-registration and the lazy
# placement fetch), and the query is run once more over the healed cluster.
# Set PAROPT_SMOKE_RACE=1 to build both binaries with the race detector.
set -euo pipefail

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
pids=()
trap 'for p in "${pids[@]}"; do kill "$p" 2>/dev/null || true; done; rm -rf "$tmp"' EXIT

build_flags=()
[ "${PAROPT_SMOKE_RACE:-}" = 1 ] && build_flags+=(-race)
go build "${build_flags[@]}" -o "$tmp/paroptd" ./cmd/paroptd
go build "${build_flags[@]}" -o "$tmp/paroptw" ./cmd/paroptw

addr=localhost:7273
"$tmp/paroptd" -addr "$addr" -workload portfolio -nodes 3 -log none &
pids+=($!)

for i in $(seq 1 50); do
  kill -0 "${pids[0]}" 2>/dev/null || { echo "fault_smoke: daemon exited (port in use?)" >&2; exit 1; }
  curl -fsS "http://$addr/healthz" >/dev/null 2>&1 && break
  [ "$i" = 50 ] && { echo "fault_smoke: daemon never became healthy" >&2; exit 1; }
  sleep 0.2
done

start_worker() {
  "$tmp/paroptw" -listen "127.0.0.1:$1" -daemon "http://$addr" &
  pids+=($!)
}
for port in 7285 7286 7287; do start_worker "$port"; done

members() {
  curl -fsS "http://$addr/cluster/workers" | grep -c '^ *"127.0.0.1:728' || true
}
wait_members() {
  for i in $(seq 1 50); do
    n=$(members)
    [ "$n" = "$1" ] && return 0
    sleep 0.2
  done
  echo "fault_smoke: membership never reached $1 (got $n)" >&2
  exit 1
}
wait_members 3
echo "fault_smoke: 3 workers registered"

metric() {
  curl -fsS "http://$addr/metrics" | awk -v m="$1" '$1 == m {print $2}'
}
# fallbacks sums the per-reason coordinator fallback family (0 when no
# fallback has a reason yet, so the family has no sample).
fallbacks() {
  curl -fsS "http://$addr/metrics" | awk '$1 ~ /^paroptd_exchange_fallback_reason_total[{]/ {n += $2} END {print n + 0}'
}
# run_query distributed? QUERY → root actRows. Bounded so a wedged exchange
# fails the run with goroutine dumps instead of hanging CI.
run_query() {
  local url="http://$addr/explain?analyze=1" out
  [ "$1" = 1 ] && url="$url&distributed=1"
  out=$(curl -fsS --max-time 120 -X POST "$url" \
    -H 'Content-Type: application/json' -d "{\"query\": \"$2\"}") || {
    echo "fault_smoke: explain-analyze stalled; dumping stacks" >&2
    for p in "${pids[@]}"; do kill -QUIT "$p" 2>/dev/null || true; done
    sleep 2
    exit 1
  }
  echo "$out" | jq -e '.analyze' >/dev/null || {
    echo "fault_smoke: explain-analyze returned no report: $out" >&2
    exit 1
  }
  echo "$out" | jq -r '.analyze.ops[] | select(.root) | .actRows'
}

fp=$(curl -fsS -X POST "http://$addr/cluster/placement" \
  -H 'Content-Type: application/json' -d '{}' | jq -r '.fingerprint')
[ -n "$fp" ] && [ "$fp" != null ] || { echo "fault_smoke: placement install failed" >&2; exit 1; }
echo "fault_smoke: placement $fp installed"

# Both sides of the pair join live at the workers under this placement, so
# every fragment is fully shipped — the class the retry path covers.
pair="SELECT * FROM trades, stocks WHERE trades.stock_id = stocks.stock_id"
base_rows=$(run_query 0 "$pair")
[ -n "$base_rows" ] && [ "$base_rows" -gt 0 ] || {
  echo "fault_smoke: local baseline returned no rows" >&2
  exit 1
}
echo "fault_smoke: local baseline: $base_rows rows"

# Kill a worker outright: no SIGTERM handler runs, so it never deregisters
# and the daemon keeps dispatching to the dead address.
kill -9 "${pids[1]}"
wait "${pids[1]}" 2>/dev/null || true
echo "fault_smoke: worker 127.0.0.1:7285 killed (still registered)"

rows=$(run_query 1 "$pair")
[ "$rows" = "$base_rows" ] || {
  echo "fault_smoke: query over degraded cluster returned $rows rows, local run $base_rows" >&2
  exit 1
}
retries=$(metric paroptd_exchange_retries_total)
fallbacks=$(fallbacks)
if [ -z "$retries" ] || [ "$retries" -lt 1 ]; then
  echo "fault_smoke: dead worker produced no retries (retries='$retries')" >&2
  exit 1
fi
if [ "$fallbacks" != 0 ]; then
  echo "fault_smoke: survivors should have absorbed every fragment, but fallbacks=$fallbacks" >&2
  exit 1
fi
echo "fault_smoke: degraded query OK: $rows rows, $retries retries, 0 fallbacks"

# Operator removes the dead address, then the worker comes back on the same
# port: it re-registers at startup and refetches the placement lazily on its
# first shipped scan.
curl -fsS -X POST "http://$addr/cluster/deregister" \
  -H 'Content-Type: application/json' -d '{"addr": "127.0.0.1:7285"}' >/dev/null
wait_members 2
start_worker 7285
wait_members 3
echo "fault_smoke: worker restarted and re-registered"

rows=$(run_query 1 "$pair")
[ "$rows" = "$base_rows" ] || {
  echo "fault_smoke: query over healed cluster returned $rows rows, local run $base_rows" >&2
  exit 1
}
echo "fault_smoke: healed query OK: $rows rows"

kill -TERM "${pids[2]}" "${pids[3]}" "${pids[4]}"
wait "${pids[2]}" "${pids[3]}" "${pids[4]}" 2>/dev/null || true
wait_members 0
echo "fault_smoke: OK"
