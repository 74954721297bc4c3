#!/usr/bin/env bash
# Metrics-exposition lint: start paroptd and a paroptw, serve a little traffic,
# then check that each binary's /metrics is well-formed Prometheus text — every
# sample belongs to a family that declared # HELP and # TYPE, every name is a
# valid identifier, and the exported family set matches the golden list the
# unit tests pin (internal/service/testdata/metrics.golden,
# cmd/paroptw/testdata/metrics.golden), so a new metric cannot ship without
# updating its golden and its HELP text. It first checks, with nothing
# started, that README's audit table ("Who reads each family") has one row
# per family of the two goldens, so a family cannot ship without naming
# what reads it.
set -euo pipefail

cd "$(dirname "$0")/.."

golden_families=$(awk '{print $3}' internal/service/testdata/metrics.golden cmd/paroptw/testdata/metrics.golden | sort)
audit_rows=$(grep -o '^| `paropt[dw]_[a-z_]*` |' README.md | tr -d '|` ' | sort)
if ! diff -u <(echo "$golden_families") <(echo "$audit_rows"); then
  echo "metrics_lint: README's family audit table drifted from the goldens (- no row, + no family)" >&2
  exit 1
fi
tmp=$(mktemp -d)
pid= wpid=
trap 'kill $pid $wpid 2>/dev/null || true; rm -rf "$tmp"' EXIT

go build -o "$tmp/paroptd" ./cmd/paroptd
go build -o "$tmp/paroptw" ./cmd/paroptw

addr=localhost:7173
waddr=localhost:7174
"$tmp/paroptd" -addr "$addr" -workload portfolio -log none &
pid=$!
"$tmp/paroptw" -http "$waddr" &
wpid=$!

wait_healthy() { # name pid url
  for i in $(seq 1 50); do
    kill -0 "$2" 2>/dev/null || { echo "metrics_lint: $1 exited (port in use?)" >&2; exit 1; }
    curl -fsS "$3/healthz" >/dev/null 2>&1 && return
    sleep 0.2
  done
  echo "metrics_lint: $1 never became healthy" >&2
  exit 1
}
wait_healthy paroptd $pid "http://$addr"
wait_healthy paroptw $wpid "http://$waddr"

curl -fsS -X POST "http://$addr/optimize" -H 'Content-Type: application/json' \
  -d '{"query": "SELECT * FROM trades, stocks WHERE trades.stock_id = stocks.stock_id"}' >/dev/null

lint() { # name url golden
  curl -fsS "$2/metrics" > "$tmp/$1.txt"
  awk '
    /^# HELP / { help[$3] = 1; next }
    /^# TYPE / { type[$3] = 1; next }
    /^#/ { next }
    /^[[:space:]]*$/ { next }
    {
      name = $1; sub(/\{.*/, "", name)
      base = name; sub(/_(bucket|sum|count)$/, "", base)
      if (name !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*$/) { print "invalid metric name: " name; bad = 1 }
      if (!(name in type) && !(base in type)) { print "sample without # TYPE: " name; bad = 1 }
      if (!(name in help) && !(base in help)) { print "sample without # HELP: " name; bad = 1 }
    }
    END { exit bad }
  ' "$tmp/$1.txt" || { echo "metrics_lint: $1 exposition malformed" >&2; exit 1; }
  grep '^# TYPE' "$tmp/$1.txt" > "$tmp/$1.types"
  if ! diff -u "$3" "$tmp/$1.types"; then
    echo "metrics_lint: live $1 /metrics families drifted from $3" >&2
    exit 1
  fi
  echo "metrics_lint: $1 $(grep -c '^# TYPE' "$tmp/$1.types") families, exposition well-formed"
}
lint paroptd "http://$addr" internal/service/testdata/metrics.golden
lint paroptw "http://$waddr" cmd/paroptw/testdata/metrics.golden
