#!/usr/bin/env python3
"""Builds and runs the TSN-Builder benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <plant-100k|dse-batch|customize|all>
                             --seed N --seconds S --trace 0|1

The script builds the `perfbench` package (release profile, offline) into
$CARGO_TARGET_DIR, or `.bench_build` when that is unset, then runs the
workload in a process of its own, so that its peak RSS is its own. It
passes the benchmark's output through, adds one line of host metadata
(CPU count, commit, build profile, rustc version, seed) and ends with the
benchmark's result object as the last line. `--workload all` runs every
workload, each in its own process, one after another.

Results and spans are written under `.bench_out/`. The exit code is not
0 when the build or a run fails; no result line is printed then.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["plant-100k", "dse-batch", "customize"]
PROFILE = "release"
OUT_DIR = ".bench_out"
# A run measures for --seconds plus set-up and checks; this bounds it.
RUN_TIMEOUT_S = 170


def here():
    return os.path.dirname(os.path.abspath(__file__))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    manifest = os.path.join(here(), "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not run: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    binary = os.path.join(target_dir(), PROFILE, "perfbench")
    if not os.path.isfile(binary):
        fail(f"build left no binary at {binary}")
    return binary


def command_output(cmd):
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts
    without git metadata."""
    root = os.path.dirname(here())
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "__pycache__"))
            files += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if f.endswith((".rs", ".toml", ".lock"))]
        for f in files:
            digest.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def host_metadata(args, workload):
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": cpus,
        "commit": command_output(["git", "rev-parse", "HEAD"]) or "unknown",
        "source_digest": source_digest(),
        "profile": PROFILE,
        "rustc": command_output(["rustc", "--version"]) or "unknown",
    }


def run_workload(binary, args, workload):
    """Runs one workload in its own process; returns the parsed result
    object or exits on failure."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"{workload} exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} printed no result line")
    for line in lines[:-1]:
        print(line)
    host = host_metadata(args, workload)
    print("host " + json.dumps(host, sort_keys=True))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump({"host": host, "result": result}, handle, indent=1, sort_keys=True)
    return lines[-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    binary = build()
    if args.workload != "all":
        line, _ = run_workload(binary, args, args.workload)
        print(line)
        return
    results = {}
    for workload in WORKLOADS:
        _, results[workload] = run_workload(binary, args, workload)
        print()
    print(json.dumps(results))


if __name__ == "__main__":
    main()
