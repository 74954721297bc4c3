#!/usr/bin/env bash
# Surface scoreboard: what a user can run, set, call and scrape, plus how much
# code carries it and which of the module's packages each served binary links.
# Prints the eleven numbers and one row per linked package, and fails when a
# row differs from scripts/surface.golden or the line count exceeds its
# ceiling there — so an added binary, flag, service.Config or
# exchange.ClusterConfig field, route, metric family, dependency edge or
# non-test use of the row type outside storage is a visible diff of the
# golden, not a side effect. Needs no build (go list only
# reads the sources) and starts nothing.
set -euo pipefail

cd "$(dirname "$0")/.."

loc=$(find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' -not -path './.*' -print0 | xargs -0 cat | wc -l)
counts=$(
  echo "binaries $(ls cmd | wc -l)"
  echo "paroptd_flags $(grep -c 'flag\.[A-Z][A-Za-z0-9]*("' cmd/paroptd/main.go)"
  echo "paroptw_flags $(grep -c 'flag\.[A-Z][A-Za-z0-9]*("' cmd/paroptw/main.go)"
  # paropt's own flags plus each subcommand's FlagSet flags.
  echo "paropt_flags $(( $(grep -c 'flag\.[A-Z][A-Za-z0-9]*("' cmd/paropt/main.go) + $(find cmd/paropt -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | grep -c 'fs\.[A-Z][A-Za-z0-9]*("') ))"
  echo "service_config_fields $(sed -n '/^type Config struct {/,/^}/p' internal/service/service.go | grep -c '^	[A-Z]')"
  echo "cluster_config_fields $(sed -n '/^type ClusterConfig struct {/,/^}/p' internal/engine/exchange/cluster.go | grep -c '^	[A-Z]')"
  echo "routes $(grep -c 'mux\.HandleFunc("' internal/service/http.go)"
  echo "metric_families $(grep -c '^# TYPE' internal/service/testdata/metrics.golden)"
  echo "paroptw_metric_families $(grep -c '^# TYPE' cmd/paroptw/testdata/metrics.golden)"
  # Non-test lines outside storage and the benchmark that name storage.Row:
  # results and oracles are columnar, so only the row boundary vec keeps.
  echo "storage_row_refs $(find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' -not -path './internal/storage/*' -not -path './.*' -print0 | xargs -0 cat | grep -c 'storage\.Row\b')"
  for bin in paroptd paroptw; do
    go list -deps "./cmd/$bin" | grep -E '^paropt(/|$)' | grep -v '^paropt/cmd/' | sort | sed "s|^|${bin}_dep |"
  done
)
echo "$counts"
echo "nontest_loc $loc"

if ! diff -u <(grep -v '^nontest_loc_max ' scripts/surface.golden) <(echo "$counts"); then
  echo "surface: counts drifted from scripts/surface.golden" >&2
  exit 1
fi
max=$(awk '$1 == "nontest_loc_max" {print $2}' scripts/surface.golden)
if [ "$loc" -gt "$max" ]; then
  echo "surface: $loc non-test Go lines outside bench/, ceiling $max (scripts/surface.golden)" >&2
  exit 1
fi
