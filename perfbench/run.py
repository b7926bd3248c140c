#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark binary (Release) together with the monitor libraries under
$CARGO_TARGET_DIR (default .bench_build); later runs only rebuild what
changed. Build output goes to stderr, so the last line on stdout is the
benchmark's JSON result. The run fails, without a result, when the
repository sources are missing, the build fails, or the binary reports
a metric set other than the one BENCHMARK.json names.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        # Only this checkout's own repository, not one enclosing it.
        if out.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "include", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no repository sources next to {HERE}")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if res.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    expected = expected_metrics(args.trace)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(target, "perfbench"))
    # Relative, so the Unix socket path stays short.
    workdir = os.path.relpath(os.path.join(target, "perfbench-run"))
    os.makedirs(workdir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--commit", source_id()]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    lines = res.stdout.rstrip("\n").split("\n")
    if res.returncode != 0:
        sys.stderr.write(res.stdout)
        fail(f"benchmark exited with {res.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(res.stdout)
        fail("benchmark printed no result line")
    got = set(result.get("metrics", {}))
    if got != expected:
        sys.stderr.write(res.stdout)
        fail(f"metric set differs from BENCHMARK.json: "
             f"missing {sorted(expected - got)}, extra {sorted(got - expected)}")
    sys.stdout.write(res.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
