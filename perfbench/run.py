#!/usr/bin/env python3
"""Build the benchmark from source and run one workload in a fresh process.

    python3 perfbench/run.py --workload null_stack --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout.  The build goes to .bench_build/
(dune's build log to stderr); bench.exe then prints its report and, as
the last line of stdout, the JSON result.  Every argument is passed on
to bench.exe, together with the source revision when the checkout is a
git work tree.  A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bench.exe"


def commit():
    """The checked-out revision, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", TARGET],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "bench.exe")
    sys.stdout.flush()
    return subprocess.run([exe, *sys.argv[1:], "--commit", commit()],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
