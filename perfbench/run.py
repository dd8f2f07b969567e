#!/usr/bin/env python3
"""Build and run the QSPR benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/main.exe with dune, runs it with the same arguments and
exits with its exit code.  The last line of standard output is the result
object; see perfbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("run.py: run from the root of a QSPR checkout "
                         "(no dune-project and lib/ here)\n")
        return 2
    # --cache=disabled keeps every build output inside the checkout
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "--display", "quiet",
         "./perfbench/main.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return 2
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
