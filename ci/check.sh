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
# serve-asvm-64's mark stack grows close to the limit, so every arrival
# seed from 1 to 120 is scanned (~35 s), not just the benchmark's 42.
gclog=$(mktemp)
no_compression() {
  OCAMLRUNPARAM=v=0x0FFF _build/default/perfbench/perfbench.exe \
    --workload "$@" >/dev/null 2>"$gclog"
  if grep -q Compressing "$gclog"; then
    echo "perfbench --workload $*: the GC compressed its mark stack" >&2
    rm -f "$gclog"
    exit 1
  fi
}
no_compression paper-cells
no_compression em3d-32 --seed 42
for seed in $(seq 1 120); do
  no_compression serve-asvm-64 --seed "$seed"
done
rm -f "$gclog"

echo "== chaos soak (10 seeds) against BENCH_chaos.json"
# the chaos experiment exits nonzero on any invariant violation, lost
# write or incomplete cell, including its rolling k-of-n whole-node
# crash/rejoin cells (docs/AVAILABILITY.md), and validates its JSON by
# parsing it back; re-check the schema tag and the zero-violation
# verdict on the file itself.  Every field is a pure function of the
# source, and crash recovery walks its tables in iteration order, so
# the output must equal the committed file byte for byte.  It runs in
# a temporary directory so the committed file stays as it is; when a
# change of output is intended, regenerate it with
# "asvm-sim bench chaos --seeds 10" and commit it.
root=$(pwd)
chaos=$(mktemp -d)
(cd "$chaos" && "$root/_build/default/bin/asvm_sim.exe" bench chaos --seeds 10 >/dev/null)
test -s "$chaos/BENCH_chaos.json"
head -c 96 "$chaos/BENCH_chaos.json" | grep -q '"schema":"asvm.chaos/v2"'
head -c 96 "$chaos/BENCH_chaos.json" | grep -q '"total_violations":0'
grep -q '"lost_writes":0' "$chaos/BENCH_chaos.json"
if ! cmp -s BENCH_chaos.json "$chaos/BENCH_chaos.json"; then
  echo "chaos: output differs from BENCH_chaos.json" >&2
  rm -rf "$chaos"
  exit 1
fi
rm -rf "$chaos"

echo "== serve grid (full, 2 jobs) against BENCH_serve.json"
# the serve bench exits nonzero when any cell fails to drain, reports
# out-of-order percentiles, an inexact shard merge, or an invariant
# violation in the full-length chaos-composed cell, and parses the
# file back before exiting; re-check the schema tag, the percentile
# ordering verdict and the tail-percentile field on the file itself.
# Every cell is a pure function of the experiment seed, so the output
# must equal the committed file byte for byte.  Like the chaos soak it
# runs in a temporary directory; regenerate the committed file with
# "asvm-sim bench serve" when a change of output is intended.
serve=$(mktemp -d)
(cd "$serve" && "$root/_build/default/bin/asvm_sim.exe" bench serve --jobs 2)
test -s "$serve/BENCH_serve.json"
head -c 64 "$serve/BENCH_serve.json" | grep -q '"schema":"asvm.serve/v1"'
grep -q '"percentiles_ordered":true' "$serve/BENCH_serve.json"
grep -q '"p999_ms"' "$serve/BENCH_serve.json"
if grep -q '"percentiles_ordered":false' "$serve/BENCH_serve.json"; then
  echo "serve: a cell reports unordered percentiles" >&2
  rm -rf "$serve"
  exit 1
fi
if ! cmp -s BENCH_serve.json "$serve/BENCH_serve.json"; then
  echo "serve: output differs from BENCH_serve.json" >&2
  rm -rf "$serve"
  exit 1
fi
rm -rf "$serve"

echo "== serve strand check (64 nodes, 16,000 req/s, seeds 32 44 88 111)"
# serve-asvm-64's parameters on the arrival seeds where a self-owned
# write upgrade that waited for a receive buffer was once lost;
# asvm-sim serve exits nonzero when any request does not complete
for seed in 32 44 88 111; do
  dune exec bin/asvm_sim.exe -- serve --nodes 64 --rate 16000 \
    --duration-ms 200 --seed "$seed"
done

echo "== serve strand check (256 nodes, 64,000 req/s, Zipf 0.9 and uniform keys)"
# the top of the 4-256-node scale curve, hot keys and uniform keys:
# every request must complete at a fleet size four times the one above
for zipf in 0.9 0; do
  dune exec bin/asvm_sim.exe -- serve --nodes 256 --rate 64000 \
    --duration-ms 100 --zipf "$zipf"
done

echo "== golden traces against ci/traces.sha256"
# the --trace-out JSONL of two single faults and two serve cells, one
# per protocol, is a pure function of the source: every message, note
# and ownership change in order.  A refactor must leave all four
# byte-identical; when a change of behaviour is intended, regenerate
# the digests with these same commands (sha256sum in the trace
# directory) and commit them.
traces=$(mktemp -d)
dune exec bin/asvm_sim.exe -- fault --mm asvm \
  --trace-out "$traces/fault-asvm.jsonl" >/dev/null
dune exec bin/asvm_sim.exe -- fault --mm xmm \
  --trace-out "$traces/fault-xmm.jsonl" >/dev/null
dune exec bin/asvm_sim.exe -- serve --nodes 16 \
  --trace-out "$traces/serve-asvm-16.jsonl" >/dev/null
dune exec bin/asvm_sim.exe -- serve --mm xmm --nodes 8 \
  --trace-out "$traces/serve-xmm-8.jsonl" >/dev/null
if ! (cd "$traces" && sha256sum -c --quiet -) <ci/traces.sha256 >&2; then
  echo "golden traces: a trace differs from ci/traces.sha256" >&2
  rm -rf "$traces"
  exit 1
fi
rm -rf "$traces"

echo "== paper experiments (--quick, 2 jobs) against ci/bench_quick.expected"
# Tables 1-3, Figures 10-11 and the ablations at quick sizes.  Every
# number printed is simulated, so the output is a pure function of the
# source whatever --jobs is: a difference from the committed copy is a
# change of behaviour.  When the change is intended, regenerate the
# file with this same command and commit it.
quick=$(mktemp)
dune exec bin/asvm_sim.exe -- bench --quick --metrics --jobs 2 >"$quick"
if ! diff -u ci/bench_quick.expected "$quick" >&2; then
  echo "paper experiments: output differs from ci/bench_quick.expected" >&2
  rm -f "$quick"
  exit 1
fi
rm -f "$quick"
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
