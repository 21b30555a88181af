#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload insitu_loop --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The library and the benchmark program are
built from source into .bench_build/ (the first run compiles; later
runs rebuild only what changed). Build output goes to stderr; the last
line of stdout is the result object. See perfbench/README.md.
"""
import argparse
import hashlib
import os
import shlex
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(os.getcwd(), ".bench_build", "perfbench")
OUT = os.path.join(os.getcwd(), ".bench_build", "perfbench-out")
WORKLOADS = ("insitu_loop", "node_stream", "fleet_scale")


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    """Run a build step with its output on stderr. Compiler scratch
    files stay inside the build tree."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env)
    if proc.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "--target", "perfbench",
               "-j", jobs])
    return os.path.join(BUILD, "perfbench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="show that every oracle fires on a wrong value")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        fail("--workload is required")

    binary = build()
    if args.selftest:
        sys.exit(subprocess.run([binary, "--selftest"]).returncode)
    os.makedirs(OUT, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT, "--commit", source_id(),
           "--command", " ".join(shlex.quote(a)
                                 for a in ["python3"] + sys.argv)]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
