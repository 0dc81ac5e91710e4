#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve-steady --seed 1 \
        --seconds 10 --trace 0

Run from the repository root. The first run configures and compiles
the gpupm library and the benchmark from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
benchmark's arithmetic self-test, and fits the default `gpupm train`
forest once per benchmark binary (untimed). Then it runs one workload;
the last line of standard output is the JSON result. Build and fit
output goes to standard error. See perfbench/README.md.
"""

import argparse
import glob
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-steady", "serve-churn", "sweep-paper")


def run_quiet(cmd, env=None):
    """Run a build step with its output on stderr; exit on failure."""
    if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT,
                      env=env).returncode != 0:
        sys.exit("perfbench: failed: " + " ".join(cmd))


def build(build_dir):
    # The compiler's temporary files stay inside the build directory.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], env)
    run_quiet(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
               "--target", "perfbench", "perfbench_selftest"], env)
    run_quiet([os.path.join(build_dir, "perfbench_selftest")])


def model_for(build_dir, binary):
    """The fitted model of this binary; fit it when missing."""
    with open(binary, "rb") as f:
        key = hashlib.sha256(f.read()).hexdigest()[:16]
    path = os.path.join(build_dir, "model-%s.rf" % key)
    if not os.path.isfile(path):
        for stale in glob.glob(os.path.join(build_dir, "model-*.rf*")):
            os.remove(stale)
        run_quiet([binary, "--fit-model", path])
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the gpupm sources (src/) are missing next to "
                 "perfbench/; run from a full checkout")
    if args.seed < 0 or args.seconds <= 0:
        sys.exit("perfbench: --seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)
    binary = os.path.join(build_dir, "perfbench")
    model = model_for(build_dir, binary)

    # The process default inference engine, not a host override.
    env = dict(os.environ)
    env.pop("GPUPM_SIMD", None)
    sys.stdout.flush()
    return subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--model", model], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
