#!/usr/bin/env python3
"""Build and run gemmec's benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload large-stream --seed 1 --seconds 10 --trace 0

It builds perfbench/ (a Go module that imports the repository through a
replace directive) into .bench_build/, keeping the Go build cache there
too, then runs it with the given arguments from the repository root. The
last line of standard output is the result object. The exit code is the
benchmark's: 0 on success, nonzero on a byte mismatch, a failed build or
a run that overstays its time limit.
"""

import os
import subprocess
import sys

# A run that has not finished by then is killed and reported as failed.
RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    # The commit is read only from a git checkout rooted here, never from
    # a repository above it.
    if os.path.isdir(os.path.join(root, ".git")):
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True)
        if rev.returncode == 0:
            env["GEMMEC_COMMIT"] = rev.stdout.strip()
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        ran = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
