#!/usr/bin/env python3
"""Builds the repository's `fbb` binary and the benchmark from source, then
runs one benchmark workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload table1_ilp --seed 1 --seconds 20 --trace 0

Build output goes to `$CARGO_TARGET_DIR` (default `.bench_build`). The last
line of standard output is the run's JSON result. Without the repository
sources next to `perfbench/` the build fails and the script exits non-zero
without printing a result.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Leave headroom under the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build(env):
    """Release-builds `fbb` and the benchmark; returns False on failure."""
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "fbb"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print(f"perfbench: no repository at {ROOT} (Cargo.toml missing)", file=sys.stderr)
        sys.exit(1)
    if not build(env):
        sys.exit(1)
    binary = os.path.join(target, "release", "perfbench")
    fbb = os.path.join(target, "release", "fbb")
    # A session of its own, so a timeout can stop the runner and the
    # daemon it spawned together.
    proc = subprocess.Popen([binary, *sys.argv[1:], "--fbb-bin", fbb], cwd=ROOT, env=env,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        sys.exit(1)
    try:
        # Nothing the run started may outlive it.
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    sys.exit(code)


if __name__ == "__main__":
    main()
