#!/usr/bin/env python3
"""Build and run the end-to-end job benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
phpf library and the perfbench driver (Release, CMake + Ninja when
available) under $CARGO_TARGET_DIR (default .bench_build); later runs
rebuild incrementally. The driver prints one JSON result as its last
line of output; this script exits with the driver's status. A traced run
(--trace 1) also writes its spans to <build dir>/perfbench-trace-<workload>.json
(the last traced run of each workload). See perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/ -- run from a full checkout")
    binary_dir = os.path.join(build_dir, "perfbench")
    configure = ["cmake", "-S", HERE, "-B", binary_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", binary_dir, "-j", jobs]]
    if not os.path.isfile(os.path.join(binary_dir, "CMakeCache.txt")):
        steps.insert(0, configure)
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(binary_dir, "perfbench")


def main():
    args = sys.argv[1:]
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        workload = args[args.index("--workload") + 1] if "--workload" in args else "unknown"
        args += ["--trace-out", os.path.join(build_dir, "perfbench-trace-%s.json" % workload)]
    sys.stdout.flush()
    done = subprocess.run([binary] + args)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
