#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload lineage-prob --seed 1 --seconds 42 --trace 0

Builds perfbench/bench.exe with dune (inside the checkout, dune's shared
cache off), pins OCaml domains through CTWSDD_DOMAINS, runs one workload and
passes its output through: the last line is the result JSON.  Exits
non-zero, printing no result, when the checkout holds no sources, the build
fails, or the run does not finish in time.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("lineage-prob", "cnf-count", "circuit-minimize")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# One domain.  On a 2-vCPU VM shared with other tenants, cnf-count at 2
# domains had a p50 spread of 34% over ten seeds (7.7% at one domain) and
# was no faster; see perfbench/README.md.
DOMAINS = 1


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def revision():
    """Git revision when the checkout is a repository, else a digest of
    the library and benchmark sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1", 2)
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s here: run from the root of a source checkout" % needed, 2)

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "-j", "2", "./perfbench/bench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e, 3)
    if build.returncode != 0:
        fail("build failed", 3)

    env["CTWSDD_DOMAINS"] = str(DOMAINS)
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--git-rev", revision()]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
