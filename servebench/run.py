#!/usr/bin/env python3
"""Build and run the end-to-end served benchmark.

    python3 servebench/run.py --workload ingest --seed 1 --seconds 15 --trace 0
    python3 servebench/run.py --workload all      # every workload, both modes
    python3 servebench/run.py --selftest          # the benchmark's own checks

Run from the root of a checkout of the repository. The script builds the
benchmark with dune (the first build compiles the store libraries it
links), runs its self-tests, then runs one workload; the last line of
stdout is the benchmark's JSON result. Exits non-zero, without a result,
when the checkout cannot be built, and with status 1 on any
reference-model mismatch.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, "_build", "default", os.path.basename(HERE))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"servebench: {msg}", file=sys.stderr)
    sys.exit(2)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found on PATH")


def run_child(cmd, timeout, **kw):
    """Run cmd to completion; kill it (and wait) if it outlives timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{' '.join(cmd[:2])} timed out after {timeout} s")
    return proc.returncode, out


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")) or not os.path.isdir(
        os.path.join(ROOT, "lib")
    ):
        fail("run from a checkout of the repository (no dune-project or lib/)")
    rel = os.path.relpath(HERE, ROOT)
    targets = [f"./{rel}/main.exe", f"./{rel}/selftest.exe"]
    # No shared dune cache: the build writes only under the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, out = run_child(
        dune_command() + ["build", "--root", "."] + targets,
        BUILD_TIMEOUT_S,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    if code != 0:
        sys.stderr.write(out or "")
        fail(f"build failed (exit {code})")


def selftest(quiet):
    code, out = run_child(
        [os.path.join(BUILD_DIR, "selftest.exe")],
        60,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if code != 0 or not quiet:
        sys.stderr.write(out or "")
    if code != 0:
        fail("self-tests failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    help="ingest, point_hot, range_cold, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run only the benchmark's self-tests")
    args = ap.parse_args()
    build()
    selftest(quiet=not args.selftest)
    if args.selftest:
        return 0
    cmd = [
        os.path.join(BUILD_DIR, "main.exe"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    timeout = RUN_TIMEOUT_S if args.workload != "all" else 6 * RUN_TIMEOUT_S
    code, _ = run_child(cmd, timeout)
    return code


if __name__ == "__main__":
    sys.exit(main())
