#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload bulk_tcp|paced_mpi|chaos_soak \
        --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout. It builds the driver from the
checkout's own src/ into .bench_build/perfbench (the first run takes a few
minutes), runs the untraced driver for --seconds (--trace 0), or the
untraced and the link-time-traced driver for half of --seconds each
(--trace 1), and prints the driver's report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The exit code is 0 only when every run's
output matched its reference.
"""
import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("bulk_tcp", "paced_mpi", "chaos_soak")
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, units


def build():
    """Configures once, then lets the build tool skip what is up to date."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    # The build system files exist only after a configure that succeeded.
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo", f"-DMGQ_ROOT={ROOT}"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench", "perfbench_traced"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("building the benchmark failed: " + " ".join(cmd))


def drive(binary, workload, seed, seconds):
    cmd = [os.path.join(BUILD, binary), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--golden", os.path.join(ROOT, "tests", "scenario", "golden_catalog.txt"),
           "--references", os.path.join(HERE, "references.txt")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{binary} did not finish within {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"{binary} printed nothing (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{binary} exited {proc.returncode} without a result")
    return report


def main():
    spec, units = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    build()
    if args.trace == 0:
        reports = [drive("perfbench", args.workload, args.seed, args.seconds)]
        wanted = [m["name"] for m in spec["end_to_end"]]
        values = dict(reports[0]["metrics"])
    else:
        untraced = drive("perfbench", args.workload, args.seed, args.seconds / 2)
        traced = drive("perfbench_traced", args.workload, args.seed,
                       args.seconds / 2)
        reports = [untraced, traced]
        wanted = [m["name"] for m in spec["per_layer"]]
        values = dict(traced["metrics"])
        for name in ("host.raw_wall_s", "host.probe_ms"):
            values[name] = untraced["metrics"][name]
        values["trace.overhead_ratio"] = (
            traced["metrics"]["wall_s"] / untraced["metrics"]["wall_s"])
        events = (untraced["metrics"]["sim.events"], traced["metrics"]["sim.events"])
        print(f"sim.events untraced {events[0]:.0f} traced {events[1]:.0f}")
        if events[0] != events[1]:
            traced["failed"] += 1
            print("FAIL traced and untraced runs executed different events")

    host = reports[-1]["host"]
    untraced_metrics = reports[0]["metrics"]
    print(f"host: cpu={host['cpu']!r} nproc={os.cpu_count()} "
          f"compiler={host['compiler']!r} build_type={host['build_type']} "
          f"os={platform.system()} {platform.release()} "
          f"probe_ms={untraced_metrics['host.probe_ms']:.4f} "
          f"raw_wall_s={untraced_metrics['host.raw_wall_s']:.4f}")

    missing = [name for name in wanted if name not in values]
    if missing:
        fail("driver did not report " + ", ".join(missing))
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in wanted},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
