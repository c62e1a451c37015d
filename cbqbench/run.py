#!/usr/bin/env python3
"""Builds cbq and the benchmark harness, then runs one benchmark workload.

Usage (from the repository root):

    python3 cbqbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: circuit-quant, ic3-deep, serve-mixed (see cbqbench/NOTES.md).
Both builds go to $CARGO_TARGET_DIR (default: .bench_build). The harness
runs as a fresh process and its standard output is passed through; its
last line is the result object. Before passing it on, this script checks
that the result names exactly the metrics BENCHMARK.json declares for the
chosen mode, with the same units. Exit status: the harness's own (1 on a
verdict or trace mismatch), or nonzero on a build or contract failure.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("circuit-quant", "ic3-deep", "serve-mixed")
# A run measures for --seconds plus at most one round and the replay.
HARNESS_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "cbq"],
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join("cbqbench", "Cargo.toml"),
        ],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def declared_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    table = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: m["unit"] for m in table}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "crates")):
        fail(f"no cbq sources under {root}")
    target_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(root, target_dir)
    release = os.path.join(target_dir, "release")
    cmd = [
        os.path.join(release, "cbqbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--cbq", os.path.join(release, "cbq"),
        "--out", os.path.join(root, ".bench_out"),
    ]
    # Its own session, so a timeout also takes down a `cbq serve` child.
    proc = subprocess.Popen(
        cmd, cwd=root, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        if lines:
            print(lines[-1], file=sys.stderr)
        fail(f"harness exited with {proc.returncode}")
    result = json.loads(lines[-1])
    want = declared_metrics(root, args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
