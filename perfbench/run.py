#!/usr/bin/env python3
"""Build the compiler and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload compile|serve|spec-edit \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build goes to .bench_build/; the
benchmark's private files go to .bench_tmp/ and its stamped results and
span dumps to .bench_out/.  The last line of standard output is the
result object.  The whole process group is killed if the run outlives
its time limit, so no child survives it.
"""

import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
RUN_LIMIT_S = 170
NEEDED = ("dune-project", "bin/pasc.ml", "specs/amdahl470.cgg",
          "perfbench/dune", "perfbench/pool")


def kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    # wait until every member of the group (a daemon, a compile) is gone
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    missing = [p for p in NEEDED if not os.path.exists(p)]
    if missing:
        print("perfbench: not a checkout root (missing %s)" % ", ".join(missing),
              file=sys.stderr)
        return 2
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    build = subprocess.run(
        dune + ["build", "--root", ".", "--build-dir", BUILD_DIR,
                "./bin/pasc.exe", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    pasc = os.path.join(BUILD_DIR, "default", "bin", "pasc.exe")
    proc = subprocess.Popen([exe, "run", "--pasc", pasc] + sys.argv[1:],
                            start_new_session=True)

    def on_signal(signum, _frame):
        kill_group(proc)
        sys.exit(128 + signum)

    for s in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(s, on_signal)
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s; killed" % RUN_LIMIT_S,
              file=sys.stderr)
        kill_group(proc)
        return 3
    kill_group(proc)
    return code


if __name__ == "__main__":
    sys.exit(main())
