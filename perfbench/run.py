#!/usr/bin/env python3
"""Builds and runs the MAP-IT end-to-end benchmark.

    python3 perfbench/run.py --workload cold_snapshot|delta_ingest|serve_open_loop \
        [--seed N] [--seconds S] [--trace 0|1] [--scale standard|small]

Run from the repository root. The first run configures and builds the
`mapit` CLI and the benchmark program (perfbench/src) into
.bench_build/perfbench; later runs only re-check the build. The last line of stdout is the result
JSON; build logs go to stderr. A traced run (--trace 1) also writes its
spans to .bench_build/traces/<workload>-seed<N>.json (Chrome trace-event
format; open it in ui.perfetto.dev or chrome://tracing).

Seeds: 1 is the default; 2 is held out for re-checking a claim on inputs
that were not used while the claimed change was written.
"""
import argparse
import os
import subprocess
import sys

DEFAULT_SEED = 1
HELD_OUT_SEED = 2
WORKLOADS = ("cold_snapshot", "delta_ingest", "serve_open_loop")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no MAP-IT sources under {root}; run from a repository checkout")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "mapit_cli", "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("standard", "small"),
                        default="standard")
    args = parser.parse_args()

    root = os.getcwd()
    bench_root = os.path.join(root, ".bench_build")
    build_dir = os.path.join(bench_root, "perfbench")
    build(root, build_dir)

    program = os.path.join(build_dir, "perfbench")
    mapit = os.path.join(build_dir, "mapit", "tools", "mapit")
    work_dir = os.path.join(bench_root, "work", f"{args.workload}-{os.getpid()}")
    command = [program, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale, "--mapit", mapit, "--work-dir", work_dir]
    if args.trace:
        command += ["--trace-out", os.path.join(
            bench_root, "traces", f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
