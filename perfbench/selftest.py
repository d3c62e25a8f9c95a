#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root. Runs every workload briefly on the small
configuration, untraced and traced, and checks that every correctness
gate passed, that no operation failed, that every metric BENCHMARK.json
names is printed with its unit, that the traced run's Chrome trace is
well formed and its top-level spans cover at least 90% of its wall time,
and that the benchmark refuses to run (non-zero exit, no result) in a
directory holding only BENCHMARK.json and the benchmark's own files.
"""
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
ENVIRONMENT_KEYS = ("nproc", "program_threads", "thread_scaling", "build_type",
                    "compiler", "input_traces", "input_trace_bytes", "fail_ratio")
failures = []


def check(condition, what):
    if not condition:
        failures.append(what)
        print(f"FAIL: {what}", flush=True)


def run(workload, trace, cwd=ROOT):
    command = SPEC["command"] + ["--workload", workload, "--seed", "1",
                                 "--seconds", "1", "--trace", str(trace),
                                 "--scale", "small"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_result(workload, trace, proc):
    label = f"{workload} trace={trace}"
    check(proc.returncode == 0, f"{label}: exit {proc.returncode}: {proc.stderr[-2000:]}")
    if proc.returncode != 0:
        return None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    environment = json.loads(lines[-2])["environment"]
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(result)}")
    check(result["correct"] is True, f"{label}: a gate failed")
    check(result["attempted"] >= 1 and result["failed"] == 0,
          f"{label}: attempted {result['attempted']} failed {result['failed']}")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    check(set(result["metrics"]) == {m["name"] for m in wanted},
          f"{label}: metrics {sorted(result['metrics'])}")
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None:
            continue
        check(got["unit"] == metric["unit"], f"{label}: {metric['name']} unit {got['unit']}")
        check(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
              f"{label}: {metric['name']} value {got['value']}")
    for key in ENVIRONMENT_KEYS:
        check(key in environment, f"{label}: environment lacks {key}")
    check(environment.get("program_threads") == 1, f"{label}: program threads")
    return environment


def check_trace(workload, environment):
    label = f"{workload} trace"
    path = environment.get("trace_file", "")
    check(os.path.isfile(path), f"{label}: no trace file at {path!r}")
    if not os.path.isfile(path):
        return
    events = json.load(open(path))["traceEvents"]
    ids = {event["args"]["id"] for event in events}
    check(len(events) > 0, f"{label}: no spans")
    for event in events:
        check(event["ph"] == "X" and event["dur"] >= 0, f"{label}: bad event {event}")
        check(event["args"]["parent"] == -1 or event["args"]["parent"] in ids,
              f"{label}: dangling parent in {event}")
    if workload in ("cold_snapshot", "delta_ingest"):
        check(environment["top_level_span_coverage"] >= 0.9,
              f"{label}: top-level spans cover {environment['top_level_span_coverage']}")


def check_refuses_without_sources():
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    proc = run("cold_snapshot", 0, cwd=bare)
    check(proc.returncode != 0, "bare directory: exit 0")
    check('"metrics"' not in proc.stdout, "bare directory: printed a result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            print(f"selftest: {workload} trace={trace}", flush=True)
            environment = check_result(workload, trace, run(workload, trace))
            if trace and environment is not None:
                check_trace(workload, environment)
    print("selftest: bare directory", flush=True)
    check_refuses_without_sources()
    print("selftest: " + ("FAILED" if failures else "ok"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
