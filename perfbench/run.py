#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload ask|serve|maintain --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The build goes to .bench_build/perfbench
(configured once, then rebuilt incrementally); outputs (traces, session
directories) go to .bench_out. The oracle tests run once per build of
them. The last line of standard output is the result JSON; build
logs go to standard error. Exits non-zero, printing no result, when the
build, the oracle tests or the run fail.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
# Temporary files (the compiler's among them) stay inside the checkout.
TMP = os.path.join(ROOT, ".bench_build", "tmp")
ENV = dict(os.environ, TMPDIR=TMP)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def step(cmd, timeout):
    """Runs cmd with its output sent to stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=ENV, timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        log("timed out:", " ".join(cmd))
        return False


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if not step(configure, 300):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return step(["cmake", "--build", BUILD, "-j", jobs], 840)


def oracle_tests():
    """Runs the oracle tests unless they passed since their last build."""
    binary = os.path.join(BUILD, "oracle_test")
    stamp = os.path.join(BUILD, "oracle_test.passed")
    if (os.path.exists(stamp) and
            os.path.getmtime(stamp) >= os.path.getmtime(binary)):
        return True
    if not step([binary], 120):
        return False
    with open(stamp, "w"):
        pass
    return True


def revision():
    """The git revision, or a digest of the sources in a plain checkout."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["ask", "serve", "maintain"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("no library sources next to the benchmark")
        return 1
    os.makedirs(TMP, exist_ok=True)
    if not build():
        log("build failed")
        return 1
    if not oracle_tests():
        log("oracle tests failed")
        return 1
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--revision", revision(),
           "--out", os.path.join(ROOT, ".bench_out")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             env=ENV, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark run timed out")
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
