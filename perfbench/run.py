#!/usr/bin/env python3
"""Build and run the ixpscope benchmark.

    python3 perfbench/run.py --workload week|weeks --seed N \
        --seconds S --trace 0|1 [--serve-rate R] [--held-out-seed N]

Builds the libraries under src/ and the benchmark in perfbench/ from this
checkout (Release, into $CARGO_TARGET_DIR or .bench_build), then runs one
workload. The benchmark prints progress lines and, as its last line, one
JSON object: correct, attempted, failed and metrics. The exit code is the
benchmark's: 0 when every output check passed, nonzero otherwise.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; the build before the first run is not
# counted against it.
RUN_TIMEOUT_S = 175


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target) if not os.path.isabs(target) else target


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no src/ next to perfbench/; nothing to build")
    cmake = shutil.which("cmake")
    if cmake is None:
        sys.exit("run.py: cmake not found")
    tree = os.path.join(out_dir, "perfbench")
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        subprocess.run(
            [cmake, "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run([cmake, "--build", tree, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(tree, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["week", "weeks"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--serve-rate", type=float, default=6000.0,
                        help="open-loop datagrams per second of the serve "
                             "replay in week's traced run")
    parser.add_argument("--held-out-seed", type=int,
                        help="seed kept back for re-checking claims (printed)")
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except subprocess.CalledProcessError as error:
        sys.exit(f"run.py: build failed: {error}")

    if args.held_out_seed is not None:
        print(f"held-out seed for re-checking claims: {args.held_out_seed}",
              flush=True)
    work_dir = os.path.join(out_dir, "work")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--serve-rate", str(args.serve_rate), "--work-dir", work_dir]
    try:
        run = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
