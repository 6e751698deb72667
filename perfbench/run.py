#!/usr/bin/env python3
"""Build and run the NFactor benchmark (perfbench) from a checkout root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures perfbench/CMakeLists.txt (a Release build of the library
sources under src/ plus the perfbench binary) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, builds it, and runs that binary. Build
output goes to stderr; the binary's stdout passes through, and its last
line is the result object {"correct", "attempted", "failed", "metrics"}.
The metric names are checked against BENCHMARK.json before that line is
printed.

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own tests instead.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd):
    """Run a build step with its output on stderr; fail on error."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    if proc.returncode != 0:
        fail(f"build step failed ({proc.returncode}): {' '.join(cmd)}")


def build(build_dir, targets):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs, "--target", *targets])


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the sources the benchmark builds and reads."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "examples", "tests/golden/topology"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    for needed in ("src/CMakeLists.txt", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from the root of an NFactor checkout", 2)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))

    if args.selftest:
        build(build_dir, ["perfbench_test"])
        proc = subprocess.run(["ctest", "--test-dir", build_dir, "--output-on-failure"],
                              cwd=ROOT)
        sys.exit(proc.returncode)

    if args.workload is None or args.seed is None or args.seconds is None \
            or args.trace is None:
        fail("--workload, --seed, --seconds and --trace are required", 2)
    if args.seed < 0:
        fail("--seed must be >= 0", 2)

    build(build_dir, ["perfbench"])
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--root", ROOT,
           "--out-dir", build_dir, "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"perfbench exited with {proc.returncode}")
    body, last = lines[:-1], lines[-1]
    result = json.loads(last)
    got = set(result["metrics"])
    want = expected_metrics(bool(args.trace))
    if got != want:
        sys.stdout.write("\n".join(body) + "\n")
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(want - got)}, "
             f"extra {sorted(got - want)}")
    print("\n".join(body))
    print(last, flush=True)


if __name__ == "__main__":
    main()
