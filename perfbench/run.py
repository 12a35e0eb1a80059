#!/usr/bin/env python3
"""Build perfbench from the checkout's sources and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and is reused
by later runs; scratch files (checkpoints, Chrome traces) go to
.bench_build/perfbench-out. Build output is sent to stderr, so the last
line of stdout is the benchmark's JSON result. The exit code is the
benchmark's own: 0 when every correctness check passed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configure (once) and build the perfbench target; return the binary."""
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", build_dir, "-j", jobs,
                   "--target", "perfbench"]
    if subprocess.run(compile_cmd, stdout=sys.stderr, env=env).returncode:
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(root, "perfbench"))
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    out_dir = os.path.join(root, "perfbench-out")
    return subprocess.run([binary] + sys.argv[1:] + ["--out", out_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())
