#!/usr/bin/env python3
"""Builds the snailqc benchmark from source and runs it.

One run:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
prints the run's result as the last line of standard output.

Repeat mode:
    python3 perfbench/run.py --repeat <N> [--seconds <s>]
runs N interleaved untraced rounds of every workload, seeds 1..N, and prints
each end-to-end metric's median and quartiles per workload.

Run from the repository root. The build goes to $CARGO_TARGET_DIR, or
perfbench/target when it is unset.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["paper-grid", "kiloqubit-cold", "serve-mix"]
HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    """Builds the benchmark binary in release mode; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.abspath(target)
    # rustc_wrapper.py makes the build independent of the checkout path.
    env = dict(os.environ, CARGO_TARGET_DIR=target, RUSTC_WRAPPER=sys.executable,
               RUSTC=os.path.join(HERE, "rustc_wrapper.py"))
    manifest = os.path.join(HERE, "Cargo.toml")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
    )
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def one_cpu():
    """Keeps the calling process on one CPU.

    In serve-mix the client and the daemon hand each RPC back and forth and
    never run at once. Spread over two vCPUs, every handoff waits for the
    host to wake the other vCPU, which put the host's load into each round
    trip: op p50 spread 24-31% over ten runs, 5-9% on one CPU.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns its parsed result line."""
    done = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=600,
        preexec_fn=one_cpu if workload == "serve-mix" else None,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perfbench: {workload} seed {seed} exited with {done.returncode}")
    return lines[-1]


def repeat(binary, rounds, seconds):
    """Interleaves `rounds` untraced runs of each workload; prints medians and
    quartiles."""
    results = {w: [] for w in WORKLOADS}
    for seed in range(1, rounds + 1):
        for workload in WORKLOADS:
            result = json.loads(run_once(binary, workload, seed, seconds, 0))
            results[workload].append(result)
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr)
    summary = {}
    for workload, runs in results.items():
        rows = {}
        for name, metric in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, mid, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                           else (values[0],) * 3)
            rows[name] = {"unit": metric["unit"], "q1": q1, "median": mid, "q3": q3,
                          "spread": (q3 - q1) / mid if mid else 0.0}
            print(f"{workload:15} {name:28} {mid:14.6g} {metric['unit']:6} "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {rows[name]['spread']:.2%}")
        summary[workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
            "metrics": rows,
        }
    print(json.dumps(summary))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0)
    args = parser.parse_args()
    if not args.repeat and not args.workload:
        parser.error("give --workload, or --repeat N")
    if args.repeat and args.trace:
        parser.error("repeat mode runs untraced")
    binary = build()
    if args.repeat:
        repeat(binary, args.repeat, args.seconds)
    else:
        print(run_once(binary, args.workload, args.seed, args.seconds, args.trace))


if __name__ == "__main__":
    main()
