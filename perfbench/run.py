#!/usr/bin/env python3
"""Build the layered benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload circuit-cold --seed 1 --seconds 20 --trace 0

Workloads: circuit-cold, sat-logical, serve-open (see perfbench/README.md).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones.  setup_s is the median of cold set-ups,
each in a fresh process: the run's own and those of --setup-only probes
before and after it.
The build goes to .bench_build/ and run state to .bench_state/, both under
the working directory.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import statistics
import threading
import time

BUILD_DIR = ".bench_build"
TARGET = "perfbench/src/main.exe"
WORKLOADS = ("circuit-cold", "sat-logical", "serve-open")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 165
# Set-up probes, half before the run and half after it, so that they see
# more than one phase of the host's drifting speed: each half takes at
# least SETUP_PROBES cold set-ups, more while it has taken under
# SETUP_PROBE_S, at most SETUP_MAX_PROBES.
SETUP_PROBES = 2
SETUP_PROBE_S = 1.0
SETUP_MAX_PROBES = 15


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def revision():
    """The git commit when run in a git checkout, else a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(top) for f in files)
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return "src-" + digest.hexdigest()[:16]


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", TARGET]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "default", TARGET)


def run(exe, argv, timeout):
    """Run the benchmark binary, echoing its output, and return its last
    line and its peak resident set in MB (from wait4, so nothing is read
    outside the working directory)."""
    read_fd, write_fd = os.pipe()
    pid = os.posix_spawn(exe, [exe] + argv, os.environ,
                         file_actions=[(os.POSIX_SPAWN_DUP2, write_fd, 1),
                                       (os.POSIX_SPAWN_CLOSE, read_fd)])
    os.close(write_fd)
    timer = threading.Timer(timeout, lambda: os.kill(pid, signal.SIGKILL))
    timer.start()
    last = None
    with os.fdopen(read_fd, "r") as out:
        for line in out:
            if last is not None:
                sys.stdout.write(last)
            last = line
    _, status, usage = os.wait4(pid, 0)
    timer.cancel()
    if not os.WIFEXITED(status) or os.WEXITSTATUS(status) != 0:
        if last is not None:
            sys.stdout.write(last)
        fail("benchmark exited abnormally (status %d)" % status)
    if last is None:
        fail("benchmark printed nothing")
    return last, usage.ru_maxrss / 1024.0


def setup_probes(exe, workload, deadline):
    """Cold set-up times, each in a fresh process."""
    samples = []
    start = time.monotonic()
    while len(samples) < SETUP_MAX_PROBES and (
            len(samples) < SETUP_PROBES or time.monotonic() - start < SETUP_PROBE_S):
        remaining = deadline - time.monotonic()
        if remaining < 10:
            fail("no time left for the set-up probes")
        last, _ = run(exe, ["--workload", workload, "--setup-only"], remaining)
        samples.append(json.loads(last)["setup_s"])
    return samples


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root: the program's sources "
             "(dune-project, lib/) are not here")
    exe = build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    # set-up time is an end-to-end metric, reported by untraced runs only
    probes = [] if args.trace else setup_probes(exe, args.workload, deadline)
    last, peak_rss_mb = run(exe, ["--workload", args.workload, "--seed", str(args.seed),
                                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                                  "--commit", revision()], deadline - time.monotonic())
    try:
        result = json.loads(last)
    except ValueError:
        sys.stdout.write(last)
        fail("last line is not a result object")
    if args.trace == 0:
        metrics = result["metrics"]
        samples = (probes + [metrics["setup_s"]["value"]]
                   + setup_probes(exe, args.workload, deadline))
        print("setup_s samples: " + " ".join("%.6f" % v for v in samples), flush=True)
        metrics["setup_s"]["value"] = statistics.median(samples)
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
