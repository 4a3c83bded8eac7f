#!/usr/bin/env python3
"""Builds crsm_bench and crsm_node from this checkout, then runs crsm_bench.

Run from the root of a checkout; every argument goes to crsm_bench:

    python3 bench/crsm_bench/run.py --workload durable_write --seed 1 \
        --seconds 10 --trace 0

The build directory is $CARGO_TARGET_DIR when set, else .bench_build; the
build is incremental, so only the first run compiles. Build output goes to
stderr: the last line of stdout is crsm_bench's JSON result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def main():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.stderr.write("run.py: %s is not a Clock-RSM checkout\n" % ROOT)
        return 2
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", build,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                           stdout=sys.stderr, check=True)
        jobs = str(min(os.cpu_count() or 1, 4))
        subprocess.run(["cmake", "--build", build, "--parallel", jobs,
                        "--target", "crsm_bench", "crsm_node"],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.stderr.write("run.py: build failed: %s\n" % e)
        return 2
    sys.stdout.flush()
    binary = os.path.join(build, "crsm_bench")
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
