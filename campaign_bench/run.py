#!/usr/bin/env python3
"""End-to-end campaign benchmark for hdiff.

Usage (from the repository root):

    python3 campaign_bench/run.py --workload h1-sim --seed 1 --seconds 10 --trace 0

Builds the measuring binary (``campaign_bench/``, a Cargo package of its
own that depends on the repository's crates by path), then runs the
workload in fresh processes:

* ``--trace 0``: ``PROCESSES`` measuring processes of ``--seconds /
  PROCESSES`` each plus ``SETUP_SAMPLES`` set-up-only processes; prints
  every end-to-end metric as a median over all of them (campaign walls
  and rates: over the least-stolen half of all campaigns).
* ``--trace 1``: one traced process; prints every per-layer metric.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it is the
run's input-property record. A failed output check prints the result
with ``"correct": false`` and exits 1; a build or process failure exits
1 without a result. See ``campaign_bench/README.md`` for every metric.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("h1-sim", "h1-tcp-async", "h1-tcp", "fuzz-sim")
# Measuring processes per untraced run. Each process's heap layout and
# thread placement shift its speed by several percent on a two-core box,
# so a run takes its medians over several processes, not one.
PROCESSES = 10
# Cold set-up samples beyond the measuring processes' own; set-up takes
# milliseconds, so the median of fifteen fresh processes is what is reported.
SETUP_SAMPLES = 5
# Wall-clock budget for everything after the build.
RUN_BUDGET_S = 170.0


def fail(message):
    print(f"campaign_bench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the measuring binary and returns its path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", BENCH_DIR / "target"))
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(BENCH_DIR / "Cargo.toml"),
    ]
    try:
        built = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"cannot build: {e}")
    if built.returncode != 0:
        fail(f"build failed with exit code {built.returncode}")
    binary = target / "release" / "campaign-bench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def run_json(cmd, deadline):
    """Runs one process to completion; returns (exit code, last JSON line)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before " + " ".join(cmd[1:3]))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"no JSON record from {' '.join(cmd)} (exit {proc.returncode})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Raising on SIGTERM lets subprocess.run kill and reap the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be within 1..60")

    binary = str(build())
    deadline = time.monotonic() + RUN_BUDGET_S
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    if args.trace == 1:
        code, record = run_json(
            [binary, "run", *common, "--seconds", str(args.seconds), "--trace", "1",
             "--out", str(out_dir)],
            deadline,
        )
        records, setups, metrics = [(code, record)], [], record["metrics"]
    else:
        records, setups, metrics = measure(binary, common, args.seconds, out_dir, deadline)

    first = records[0][1]
    digests = {r["output_digest"] for _, r in records}
    problems = [p for _, r in records for p in r["problems"]]
    if len(digests) > 1:
        problems.append(f"processes disagree on the output digest: {sorted(digests)}")
    correct = not problems and all(code == 0 and r["correct"] for code, r in records)

    print(json.dumps({
        "workload": args.workload,
        "inputs": first["inputs"],
        "processes": len(records),
        "repeats": sum(len(r["walls"]) for _, r in records),
        "threads": first["threads"],
        "setup_samples_s": setups,
        "steal_shares": [x for _, r in records for x in r["steal"]],
        "problems": problems,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for _, r in records),
        "failed": sum(r["failed"] for _, r in records),
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


def measure(binary, common, seconds, out_dir, deadline):
    """The untraced run: set-up samples, then the measuring processes.

    Returns the processes' (exit code, record) pairs, every set-up sample
    and the end-to-end metrics as medians over all processes.
    """
    setups = []
    for _ in range(SETUP_SAMPLES):
        code, sample = run_json([binary, "setup", *common], deadline)
        if code != 0:
            fail(f"set-up process exited {code}")
        setups.append(sample["setup_s"])
    records = []
    for process in range(PROCESSES):
        cmd = [binary, "run", *common, "--seconds", str(seconds / PROCESSES), "--trace", "0",
               "--out", str(out_dir), "--process", str(process)]
        if process == 0:
            cmd.append("--reference")
        code, record = run_json(cmd, deadline)
        if code not in (0, 1):
            fail(f"measuring process exited {code}")
        records.append((code, record))

    setups += [r["setup_s"] for _, r in records]
    setup_s = statistics.median(setups)
    quiet = least_stolen_half(records)
    metrics = records[0][1]["metrics"]
    metrics["setup_s"]["value"] = setup_s
    metrics["wall_s"]["value"] = setup_s + statistics.median(w for _, w, _ in quiet)
    metrics["cases_per_s"]["value"] = statistics.median(r for _, _, r in quiet)
    metrics["peak_rss_mb"]["value"] = statistics.median(
        [r["metrics"]["peak_rss_mb"]["value"] for _, r in records])
    return records, setups, metrics


def least_stolen_half(records):
    """The half of all timed campaigns during which the hypervisor stole
    the least CPU time, as (steal share, wall, rate) triples.

    On a shared host, stolen time slows a two-thread campaign by several
    times its share: a stalled worker holds up every chunk barrier. The
    sort is stable, so campaigns with equal steal keep their run order and
    the choice never looks at the walls themselves.
    """
    campaigns = [c for _, r in records for c in zip(r["steal"], r["walls"], r["rates"])]
    campaigns.sort(key=lambda c: c[0])
    return campaigns[:(len(campaigns) + 1) // 2]


if __name__ == "__main__":
    main()
