#!/usr/bin/env python3
"""Build the end-to-end benchmark from this checkout and run it.

Run from the root of the repository:

    python3 bench/e2e/run.py --workload fa_serial_std --seed 11 --seconds 20 --trace 0
    python3 bench/e2e/run.py --workload all --seed 11 --out bench_out/e2e.json

Configures bench/e2e (which compiles raxh from this checkout's src/) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, builds raxh and
bench_e2e, then runs bench_e2e with the arguments given here. Build output
goes to stderr, so the last line on stdout is the benchmark's JSON result.
The exit status is bench_e2e's, or 2 when the sources are missing or the
build fails.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"run.py: {needed} not found; run from the root of a raxh "
                  "source checkout", file=sys.stderr)
            return 2

    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "-j", jobs, "--target", "bench_e2e", "raxh"],
    ]
    if os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps = steps[1:]  # configured already; the build re-runs cmake if needed
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(step), file=sys.stderr)
            return 2

    # The commit stamp; "-dirty" marks a working tree with uncommitted edits.
    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        git = subprocess.run(["git", "-C", root, "describe", "--always",
                              "--dirty", "--abbrev=12"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            commit = git.stdout.strip()

    command = [
        os.path.join(build, "bench_e2e"),
        "--raxh", os.path.join(build, "raxh", "src", "cli", "raxh"),
        "--workdir", os.path.join(build, "e2e_runs"),
        "--goldens", os.path.join(here, "goldens.json"),
        "--commit", commit,
    ] + sys.argv[1:]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
