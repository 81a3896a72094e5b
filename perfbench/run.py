#!/usr/bin/env python3
"""The repository's benchmark: one workload, several fresh-process repetitions.

    python3 perfbench/run.py --workload serve-asvm-64 --seed 42 --seconds 30 --trace 0

Builds perfbench/perfbench.exe from source (dune, build directory
.bench_build), then starts one worker process per repetition until
--seconds of repetitions have run.  Each worker runs the workload once on
one input and prints one JSON line.  Host times are scaled to a reference
host speed, timed by a fixed computation just before and after each
repetition (see calib.ml); the raw wall times are reported beside them.

The run's inputs are a fixed set of input seeds derived from --seed (on
em3d-32 the first is --seed itself; serve-asvm-64 draws its arrival seeds
from a fixed list, SERVE_SEEDS); repetitions cycle through them, so every
input runs at least once and the first runs at least twice.  A simulated
metric must be identical in every repetition of one input.  Each metric's value
for one input is the median over its repetitions; the reported value is
the mean over the inputs (a failure count: the total), so a simulated
metric depends on --seed alone.

The last line of output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.  A traced run pairs an untraced and a traced
repetition of each input: per-layer metrics come from the traced ones and
trace.overhead_pct compares the two.  See perfbench/README.md.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ".bench_build"
EXE = Path(BUILD_DIR) / "default" / "perfbench" / "perfbench.exe"

# Inputs per run.  serve-asvm-64's work varies with its arrival schedule
# (the measured phase's event count spreads 11 % between inputs), so a run
# averages several; em3d-32's varies by under 1 %; paper-cells has no
# random input.
INPUTS = {"serve-asvm-64": 9, "em3d-32": 5, "paper-cells": 1}
# A later performance claim must also hold on this seed; do not tune on it.
HELD_OUT_SEED = 4242
# serve-asvm-64's arrival seeds.  On 4 of the seeds 1..120 one request
# never completes (a known protocol bug, see README.md), so the workload
# uses the other 116, on which every request completes: a run fails no
# operation when the benchmark is defined, and a change that strands a
# request on one of them shows as a failure.  The last nine are the
# held-out seed's own inputs.
SERVE_STRANDING = {32, 44, 88, 111}
SERVE_SEEDS = [s for s in range(1, 121) if s not in SERVE_STRANDING]
# Failure counts are totals over the run's inputs, so that one bad input
# shows; every other metric is the mean over the inputs.
TOTALS = {"violations", "asvm.invariant_violations", "serve.stranded"}
# Host times of the set-up phase, which opens a repetition.
SETUP_TIMES = {"setup_s", "cluster.create_s", "serve.schedule_s", "serve.warmup_s"}
MIN_REPS = 3  # per mode
MAX_REPS = 400
WORKER_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    cmd = [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache=disabled", "--no-config",
           "--require-dune-project-file=true", "./perfbench/perfbench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0 or not (ROOT / EXE).is_file():
        fail("build failed")


def input_seeds(workload, seed):
    """The run's input seeds, which depend on --seed alone."""
    n = INPUTS[workload]
    if workload != "serve-asvm-64":
        return [seed] + [(seed * 1_000_003 + i * 7_919) % (1 << 30) for i in range(1, n)]
    if seed == HELD_OUT_SEED:
        return SERVE_SEEDS[-n:]
    return random.Random(seed).sample(SERVE_SEEDS[:-n], n)


def pin_to_quiet_cpu():
    # Keep the measured process on one CPU, the highest-numbered one
    # allowed: on small VMs CPU 0 also takes the device interrupts.
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return None
    if len(cpus) < 2:
        return None
    return lambda: os.sched_setaffinity(0, {cpus[-1]})


def run_exe(args):
    """One worker process; its JSON output line."""
    # the GC settings are part of what heap_peak_mb measures
    env = {k: v for k, v in os.environ.items() if k not in ("OCAMLRUNPARAM", "CAMLRUNPARAM")}
    try:
        done = subprocess.run([str(ROOT / EXE)] + args, cwd=ROOT, capture_output=True,
                              text=True, env=env, preexec_fn=pin_to_quiet_cpu(),
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench.exe {' '.join(args)} timed out")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        fail(f"perfbench.exe {' '.join(args)} exited with {done.returncode}")
    return json.loads(lines[-1])


def run_rep(workload, seed, traced):
    """One repetition, its host times scaled to the reference host speed.

    On a shared VM the host's speed changes by 10-20 % from one second to
    the next, so the reference computation is timed in a process of its
    own just before and just after the repetition, and each host time is
    multiplied by reference / measured, using the timing nearest to it:
    the one before for the set-up phase, which opens the repetition, and
    the one after for the measured phase, which closes it.  paper-cells
    alternates the two phases over its 58 cells, so it uses their mean.
    The raw wall times stay in the report."""
    before = run_exe(["--calibrate"])
    out = run_exe(["--workload", workload, "--seed", str(seed)] + (["--trace"] if traced else []))
    after = run_exe(["--calibrate"])
    reference_s = before["reference_s"]
    if workload == "paper-cells":
        scale_setup = scale_run = reference_s * 2 / (before["calib_s"] + after["calib_s"])
    else:
        scale_setup = reference_s / before["calib_s"]
        scale_run = reference_s / after["calib_s"]
    wall = {m["name"]: m["value"] for m in out["metrics"] if m["host"]}
    for m in out["metrics"]:
        if m["host"]:
            m["value"] *= scale_setup if m["name"] in SETUP_TIMES else scale_run
    out["metrics"] += [
        {"name": "host_wall_s", "unit": "s", "value": wall["host_s"], "host": True},
        {"name": "setup_wall_s", "unit": "s", "value": wall["setup_s"], "host": True},
        {"name": "calib_before_s", "unit": "s", "value": before["calib_s"], "host": True},
        {"name": "calib_after_s", "unit": "s", "value": after["calib_s"], "host": True},
    ]
    return out


def quartile_spread(values):
    """Interquartile range over the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def metric_values(reps, name):
    return [next(m["value"] for m in r["metrics"] if m["name"] == name) for r in reps]


def aggregate(reps, problems):
    """One value per metric from a list of (input index, worker output):
    per input, the median over its repetitions (a simulated metric must
    be the same in all of them); then the mean over the inputs, or for a
    failure count the total."""
    by_input = {}
    for i, r in reps:
        by_input.setdefault(i, []).append(r)
    out = {}
    for m in reps[0][1]["metrics"]:
        name = m["name"]
        values = []
        for i, rs in sorted(by_input.items()):
            vs = metric_values(rs, name)
            if not m["host"] and any(v != vs[0] for v in vs):
                problems.append(f"{name} differs between repetitions of input {i}: {vs}")
            values.append(statistics.median(vs))
        value = sum(values) if name in TOTALS else statistics.fmean(values)
        out[name] = {"value": value, "unit": m["unit"], "host": m["host"],
                     "values": metric_values([r for _, r in reps], name)}
    return out


def span_summary(reps):
    """Per span name: count in one repetition, and the medians over
    repetitions of its summed duration and self time."""
    per_rep = []
    for r in reps:
        acc = {}
        for s in r["spans"]:
            a = acc.setdefault(s["name"], [0, 0.0, 0.0])
            a[0] += 1
            a[1] += s["dur_s"]
            a[2] += s["self_s"]
        per_rep.append(acc)
    return [(name, count,
             statistics.median(acc[name][1] for acc in per_rep),
             statistics.median(acc[name][2] for acc in per_rep))
            for name, (count, _, _) in per_rep[0].items()]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(INPUTS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found")
    wanted = json.loads(spec_path.read_text())["per_layer" if args.trace else "end_to_end"]
    if not (ROOT / "dune-project").is_file() or not (ROOT / "lib").is_dir():
        fail("not a checkout of the simulator (no dune-project or lib/)")
    build()

    # Cycle through the inputs until --seconds have passed, running every
    # input and repeating the first.  A traced run pairs an untraced and
    # a traced repetition so both see the same host conditions.
    seeds = input_seeds(args.workload, args.seed)
    n_inputs = len(seeds)
    modes = [False, True] if args.trace else [False]
    reps = {mode: [] for mode in modes}
    min_rounds = max(MIN_REPS, n_inputs if args.trace else n_inputs + 1)
    start = time.monotonic()
    rounds = 0
    while True:
        i = rounds % n_inputs
        for mode in modes:
            out = run_rep(args.workload, seeds[i], mode)
            reps[mode].append((i, out))
        rounds += 1
        elapsed = time.monotonic() - start
        if rounds >= min_rounds and (elapsed * (rounds + 1) / rounds > args.seconds
                                     or rounds >= MAX_REPS):
            break

    problems = []
    for rs in reps.values():
        for _, r in rs:
            problems += [f"check failed: {c['name']}" for c in r["checks"] if not c["ok"]]
    untraced = aggregate(reps[False], problems)
    source = untraced
    if args.trace:
        source = aggregate(reps[True], problems)
        # tracing must not change what is simulated
        for name, m in untraced.items():
            if not m["host"] and name != "heap_peak_mb" and source[name]["values"] != m["values"]:
                problems.append(f"{name} differs between traced and untraced repetitions")
        overhead = 100.0 * (source["host_s"]["value"] / untraced["host_s"]["value"] - 1.0)
        source["trace.overhead_pct"] = {"value": overhead, "unit": "%", "host": True,
                                        "values": [overhead]}

    metrics = {}
    for m in wanted:
        got = source.get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} was not measured")
            continue
        if got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} has unit {got['unit']}, "
                            f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    # the report: every metric this workload measures, by name and unit
    n_reps = {("traced" if mode else "untraced"): len(rs) for mode, rs in reps.items()}
    print(f"# {args.workload} seed={args.seed} inputs={seeds} repetitions={n_reps} "
          f"elapsed={time.monotonic() - start:.1f}s")
    print(f"# {'metric':<32} {'value':>14} {'unit':<12} spread over repetitions")
    for name, m in source.items():
        spread = f"{quartile_spread(m['values']):.3f}" if m["host"] else "-"
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']:<12} {spread}")
    if args.trace:
        traced_reps = [r for _, r in reps[True]]
        print(f"# {'span':<24} {'count':>6} {'total_s':>10} {'self_s':>10}")
        for name, count, total, self_s in span_summary(traced_reps):
            print(f"  {name:<24} {count:>6} {total:>10.4f} {self_s:>10.4f}")
        out_dir = ROOT / BUILD_DIR / "perfbench"
        out_dir.mkdir(parents=True, exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w") as f:
            for rep, r in enumerate(traced_reps):
                for s in r["spans"]:
                    f.write(json.dumps({"rep": rep, "seed": r["seed"], **s}) + "\n")
        print(f"# spans written to {spans_path.relative_to(ROOT)}")
    for p in problems:
        print(f"! {p}")

    all_reps = [r for rs in reps.values() for _, r in rs]
    print(json.dumps({"correct": not problems,
                      "attempted": sum(r["attempted"] for r in all_reps),
                      "failed": sum(r["failed"] for r in all_reps),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
