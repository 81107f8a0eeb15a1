#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload fixed-bisect --seed 1 --seconds 25 --trace 0

Run it from the repository root. It builds the Go program in perfbench/
(a module of its own that uses the repository through a replace directive)
into the build directory, runs it with the given arguments, and exits with
its exit code. The last line of standard output is the result JSON. Traced
runs (--trace 1) also write their spans to <build dir>/traces/.

Everything it writes stays under the build directory: $CARGO_TARGET_DIR if
set, else .bench_build in the repository root.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def arg(name, default):
    args = sys.argv[1:]
    for i, a in enumerate(args):
        if a == name and i + 1 < len(args):
            return args[i + 1]
        if a.startswith(name + "="):
            return a.split("=", 1)[1]
    return default


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    home = os.path.join(build, "home")
    os.makedirs(home, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
        GOPROXY="off",
        GOENV="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    r = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    trace_out = os.path.join(
        build, "traces", "%s-seed%s.json" % (arg("--workload", "none"), arg("--seed", "1")))
    try:
        r = subprocess.run([binary] + sys.argv[1:] + ["--trace-out", trace_out], cwd=ROOT, env=env, timeout=175)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
