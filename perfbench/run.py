#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload table1|gen1000-cold|gen1000-warm \
        --seed N --seconds S --trace 0|1

Run from the root of an Extractocol source tree.  The benchmark builds
with dune into _build/ and writes scratch files and traces under
.perfbench/.  Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result.  Exits non-zero, without
a result, when the tree has no Extractocol sources to build.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def main():
    for needed in ("dune-project", "lib", "perfbench"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.stderr.write("perfbench: %s has no %s; nothing to build\n"
                             % (ROOT, needed))
            return 2
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "perfbench/main.exe"],
        cwd=ROOT, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT,
                          stdin=subprocess.DEVNULL).returncode


if __name__ == "__main__":
    sys.exit(main())
