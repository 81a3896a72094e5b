#!/bin/sh
# CI entry point: build everything, run the test suites, and build the
# API docs when odoc is available. Run from the repository root.
set -eu

cd "$(dirname "$0")/.."

echo "== one trace path"
# the library reports only through the metric registry and Trace: an
# environment switch or a stderr print in lib/ is a second trace path
if grep -rnE 'Sys\.getenv|Printf\.eprintf' lib; then
  echo "lib/ must not read the environment or print to stderr; use Trace" >&2
  exit 1
fi

echo "== dune build"
dune build @all

echo "== dune runtest"
dune runtest

echo "== selfbench smoke (--quick, 2 jobs)"
# selfbench parses the file back through Asvm_obs.Json before exiting,
# so a zero exit already means well-formed JSON; re-check the schema
# tag here so a stale file can't satisfy this step
dune exec bench/main.exe -- --quick selfbench --jobs 2
test -s BENCH_selfbench.json
head -c 64 BENCH_selfbench.json | grep -q '"schema":"asvm.selfbench/v1"'

echo "== pagestore smoke (--quick)"
# the pagestore bench exits nonzero when the COW store is under 1.3x
# the eager baseline or the table2 cell pays as many materializations
# as snapshots, and parses the file back before exiting; re-check the
# schema tag and the sharing verdict on the file itself
dune exec bench/main.exe -- --quick pagestore
test -s BENCH_pagestore.json
head -c 64 BENCH_pagestore.json | grep -q '"schema":"asvm.pagestore/v1"'
grep -q '"cow_lt_snapshots":true' BENCH_pagestore.json

echo "== chaos smoke (--quick, 3 seeds)"
# the chaos experiment exits nonzero on any invariant violation, lost
# write or incomplete cell and validates its JSON by parsing it back;
# re-check the schema tag and the zero-violation verdict on the file
# itself
dune exec bench/main.exe -- --quick chaos --seeds 3
test -s BENCH_chaos.json
head -c 96 BENCH_chaos.json | grep -q '"schema":"asvm.chaos/v1"'
head -c 96 BENCH_chaos.json | grep -q '"total_violations":0'
grep -q '"lost_writes":0' BENCH_chaos.json

echo "== serve smoke (--quick, 2 jobs)"
# the serve bench exits nonzero when any cell fails to drain, reports
# out-of-order percentiles, an inexact shard merge, or an invariant
# violation in the chaos-composed cell, and parses the file back
# before exiting; re-check the schema tag, the percentile ordering
# verdict and the tail-percentile field on the file itself
dune exec bench/main.exe -- --quick serve --jobs 2
test -s BENCH_serve.json
head -c 64 BENCH_serve.json | grep -q '"schema":"asvm.serve/v1"'
grep -q '"percentiles_ordered":true' BENCH_serve.json
grep -q '"p999_ms"' BENCH_serve.json
if grep -q '"percentiles_ordered":false' BENCH_serve.json; then
  echo "serve: a cell reports unordered percentiles" >&2
  exit 1
fi

echo "== crash-soak smoke (--crash --quick)"
# rolling k-of-n whole-node crash/rejoin under every workload and both
# protocols (docs/AVAILABILITY.md); nonzero exit on any violation,
# lost write or incomplete cell
dune exec bin/asvm_sim.exe -- chaos --crash --quick --jobs 2

echo "== docs link check"
# every relative markdown link and every docs/*.md path mentioned in
# the sources must resolve to a file in the repository
for doc in README.md docs/*.md; do
  grep -o '](\([^)#]*\))' "$doc" 2>/dev/null | sed 's/^](//; s/)$//' |
  grep -v '^[a-z]*://' |
  while read -r target; do
    base="$(dirname "$doc")"
    if ! [ -e "$base/$target" ] && ! [ -e "$target" ]; then
      echo "broken link in $doc: $target" >&2
      exit 1
    fi
  done
done
grep -rho 'docs/[A-Z_]*\.md' lib bin bench --include='*.ml*' | sort -u |
while read -r target; do
  if ! [ -e "$target" ]; then
    echo "source code references missing doc: $target" >&2
    exit 1
  fi
done

if command -v odoc >/dev/null 2>&1; then
  echo "== dune build @doc"
  dune build @doc
else
  echo "== odoc not installed; skipping dune build @doc"
fi

echo "== ok"
