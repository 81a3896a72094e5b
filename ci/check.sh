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

echo "== heap repeatability (no mark-stack compression)"
# perfbench rejects a run whose heap_peak_mb differs between
# repetitions of one input.  OCaml 5.1 compresses the major GC's mark
# stack once it exceeds 1/32 of the major heap, and what it compresses
# depends on memory addresses, so under address-space randomisation the
# peak then varies by one 32 KB pool from run to run.  The benchmark's
# workloads never compress today; a change that makes one compress (for
# example by shrinking the heap under a large mark stack) fails here,
# in the development build, instead of as a flaky benchmark run.
gclog=$(mktemp)
for workload in "paper-cells" "em3d-32 --seed 42" "serve-asvm-64 --seed 42"; do
  # $workload is unquoted on purpose: it carries the options
  OCAMLRUNPARAM=v=0x0FFF _build/default/perfbench/perfbench.exe \
    --workload $workload >/dev/null 2>"$gclog"
  if grep -q Compressing "$gclog"; then
    echo "perfbench --workload $workload: the GC compressed its mark stack" >&2
    rm -f "$gclog"
    exit 1
  fi
done
rm -f "$gclog"

echo "== selfbench smoke (--quick, 2 jobs)"
# selfbench parses the file back through Asvm_obs.Json before exiting,
# so a zero exit already means well-formed JSON; re-check the schema
# tag here so a stale file can't satisfy this step
dune exec bin/asvm_sim.exe -- bench --quick selfbench --jobs 2
test -s BENCH_selfbench.json
head -c 64 BENCH_selfbench.json | grep -q '"schema":"asvm.selfbench/v2"'

echo "== pagestore smoke (--quick)"
# the pagestore bench exits nonzero when the COW store is under 1.3x
# the eager baseline or the table2 cell pays as many materializations
# as snapshots, and parses the file back before exiting; re-check the
# schema tag and the sharing verdict on the file itself
dune exec bin/asvm_sim.exe -- bench --quick pagestore
test -s BENCH_pagestore.json
head -c 64 BENCH_pagestore.json | grep -q '"schema":"asvm.pagestore/v1"'
grep -q '"cow_lt_snapshots":true' BENCH_pagestore.json

echo "== chaos smoke (--quick, 3 seeds)"
# the chaos experiment exits nonzero on any invariant violation, lost
# write or incomplete cell, including its rolling k-of-n whole-node
# crash/rejoin cells (docs/AVAILABILITY.md), and validates its JSON by
# parsing it back; re-check the schema tag and the zero-violation
# verdict on the file itself
dune exec bin/asvm_sim.exe -- bench --quick chaos --seeds 3
test -s BENCH_chaos.json
head -c 96 BENCH_chaos.json | grep -q '"schema":"asvm.chaos/v1"'
head -c 96 BENCH_chaos.json | grep -q '"total_violations":0'
grep -q '"lost_writes":0' BENCH_chaos.json

echo "== serve grid (full, 2 jobs)"
# the serve bench exits nonzero when any cell fails to drain, reports
# out-of-order percentiles, an inexact shard merge, or an invariant
# violation in the full-length chaos-composed cell, and parses the
# file back before exiting; re-check the schema tag, the percentile
# ordering verdict and the tail-percentile field on the file itself
dune exec bin/asvm_sim.exe -- bench serve --jobs 2
test -s BENCH_serve.json
head -c 64 BENCH_serve.json | grep -q '"schema":"asvm.serve/v1"'
grep -q '"percentiles_ordered":true' BENCH_serve.json
grep -q '"p999_ms"' BENCH_serve.json
if grep -q '"percentiles_ordered":false' BENCH_serve.json; then
  echo "serve: a cell reports unordered percentiles" >&2
  exit 1
fi
# every cell is a pure function of the experiment seed, so in a git
# checkout the regenerated file must equal the checked-in one
if git rev-parse --git-dir >/dev/null 2>&1; then
  if ! git diff --quiet -- BENCH_serve.json; then
    echo "serve: BENCH_serve.json differs from the checked-in file" >&2
    git --no-pager diff --stat -- BENCH_serve.json >&2
    exit 1
  fi
fi

echo "== serve strand check (64 nodes, 16,000 req/s, seeds 32 44 88 111)"
# serve-asvm-64's parameters on the arrival seeds where a self-owned
# write upgrade that waited for a receive buffer was once lost;
# asvm-sim serve exits nonzero when any request does not complete
for seed in 32 44 88 111; do
  dune exec bin/asvm_sim.exe -- serve --nodes 64 --rate 16000 \
    --duration-ms 200 --seed "$seed"
done

echo "== paper experiments smoke (--quick, 2 jobs)"
# Tables 1-3, Figures 10-11 and the ablations at quick sizes; bechamel
# is left out because it times the host, not the simulator
dune exec bin/asvm_sim.exe -- bench --quick --metrics --jobs 2 \
  table1 figure10 figure11 table2 table3 ablation-forwarding \
  ablation-paging ablation-readerlist ablation-striping ablation-memory
# an unknown experiment name is a usage error, not a silent no-op
if dune exec bin/asvm_sim.exe -- bench nosuch >/dev/null 2>&1; then
  echo "asvm-sim bench accepted an unknown experiment name" >&2
  exit 1
fi

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
grep -rho 'docs/[A-Z_]*\.md' lib bin --include='*.ml*' | sort -u |
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
