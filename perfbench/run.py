#!/usr/bin/env python3
"""Build and run the cxlmem benchmark; see perfbench/README.md.

From the repository root:

    python3 perfbench/run.py --workload fig5-cold --seed 1 --seconds 10 --trace 0

The Go program is built into .bench_build/ (with its Go build cache there
too) and run once; its last line of standard output is the result JSON.
Exits non-zero, printing no result, when the build fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench")

RUN_BUDGET_S = 175
BUILD_BUDGET_S = 850


def go_env():
    """Keeps every file the Go toolchain writes inside .bench_build."""
    env = dict(os.environ)
    for d in ("gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOWORK="off",
        GOFLAGS="-mod=readonly",
    )
    return env


def source_revision():
    """The git commit when the tree is a checkout, and a digest of the Go
    sources either way (the benchmark may run from a plain copy)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    rev = "src-" + h.hexdigest()[:16]
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        if commit.returncode == 0 and commit.stdout.strip():
            rev = "git-" + commit.stdout.strip() + "," + rev
    except (OSError, subprocess.TimeoutExpired):
        pass
    return rev


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.makedirs(BUILD, exist_ok=True)
    try:
        b = subprocess.run(["go", "build", "-o", BIN, "."], cwd=HERE, env=go_env(),
                           timeout=BUILD_BUDGET_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed:", e, file=sys.stderr)
        return 1
    if b.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [BIN, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source", source_revision()]
    if args.trace == 1:
        cmd += ["--trace-out", os.path.join(BUILD, "trace-%s-seed%d.json" % (args.workload, args.seed))]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_BUDGET_S).returncode or 0
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
