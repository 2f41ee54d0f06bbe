#!/usr/bin/env python3
"""Build and run the taqos benchmark harness.

Run from the root of a checkout:

    python3 perfbench/run.py --workload column_sweep --seed 1 \
        --seconds 20 --trace 0

The harness (perfbench/src, built with perfbench/CMakeLists.txt from the
checkout's src/ tree) is configured and built on first use into
$CARGO_TARGET_DIR (default .bench_build), then run with the given
arguments. Build output goes to stderr; the harness's report goes to
stdout, ending with one JSON line. Other modes:

    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record-reference --workload W --seed N

Exits non-zero, printing no result, when the build fails (for instance
in a directory without the simulator sources).
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def source_id():
    """The git commit when the checkout is a repository, otherwise a
    digest of the simulator and benchmark sources."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, files in os.walk(base):
            dirnames.sort()
            for name in sorted(files):
                if name.endswith((".h", ".cpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def main():
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    workdir = os.path.join(out, "work-%d" % os.getpid())
    cmd = [os.path.join(out, "taqos_bench"), *sys.argv[1:],
           "--workdir", workdir,
           "--reference", os.path.join(HERE, "reference.txt"),
           "--commit", source_id()]
    try:
        return subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
