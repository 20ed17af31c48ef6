#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py                      # every workload, every
                                                  # metric, as a table
    python3 perfbench/run.py --workload zi_exchange --seed 3 \
        --seconds 20 --trace 0                    # one run, JSON last line

The program's libraries and the benchmark binary are built in Release
into $CARGO_TARGET_DIR (default .bench_build) on first use.  Each workload
runs in its own process.  A single run prints the binary's '#' lines and,
as its last line, one JSON object with the keys correct, attempted,
failed and metrics (end-to-end metrics with --trace 0, per-layer metrics
with --trace 1; BENCHMARK.json names them).  A traced run also writes its
spans as Chrome trace JSON to .bench_out/trace-<workload>-<seed>.json.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Runnable by name and part of the table, but not one of BENCHMARK.json's
# workloads: on a shared host its figures spread beyond any bound (see
# README.md).
EXTRA_WORKLOADS = ["zi_exchange"]


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(
        ["cmake", "--build", out, "--target", "fnda_perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0:
        fail("build failed")
    return os.path.join(out, "fnda_perfbench")


def revision():
    """The git revision if there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return "git:" + rev.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "sources:" + digest.hexdigest()[:16]


def run_one(binary, spec, workload, seed, seconds, trace, rev):
    """Runs one workload process; returns (exit code, stdout lines)."""
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--revision", rev]
    if trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        args += ["--trace-out",
                 os.path.join(out_dir, f"trace-{workload}-{seed}.json")]
    try:
        proc = subprocess.run(args, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} printed nothing (exit {proc.returncode})", 1)
    result = json.loads(lines[-1])
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(wanted):
        fail(f"{workload} metrics {sorted(result['metrics'])} differ from "
             f"BENCHMARK.json {sorted(wanted)}", 1)
    return proc.returncode, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: print the per-layer metrics")
    args = parser.parse_args()

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS
    if args.workload is not None and args.workload not in names:
        fail(f"unknown workload {args.workload}; one of {', '.join(names)}")
    binary = build()
    rev = revision()

    if args.workload is not None:
        code, lines = run_one(binary, spec, args.workload, args.seed, seconds,
                              args.trace, rev)
        print("\n".join(lines), flush=True)
        sys.exit(code)

    # Every workload, untraced then traced, each run in its own process:
    # one table of every metric.
    status = 0
    print(f"{'workload':18s} {'metric':36s} {'value':>16s} unit")
    for workload in names:
        for trace in (0, 1):
            code, lines = run_one(binary, spec, workload, args.seed, seconds,
                                  trace, rev)
            result = json.loads(lines[-1])
            status = status or code
            for name, metric in result["metrics"].items():
                print(f"{workload:18s} {name:36s} {metric['value']:16.6g} "
                      f"{metric['unit']}")
            print(f"{workload:18s} {'(correct, attempted, failed)':36s} "
                  f"{str(result['correct']):>16s} {result['attempted']}, "
                  f"{result['failed']}", flush=True)
    sys.exit(status)


if __name__ == "__main__":
    main()
