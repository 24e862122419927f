#!/usr/bin/env python3
"""Service benchmark for phocusd and phocus_coordinator.

  python3 perfbench/run.py --workload plan|ingest|browse --seed N \\
      --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. Builds the daemons and perfbench_probe from
source into .bench_build (or $CARGO_TARGET_DIR), starts fresh daemons on
ephemeral loopback ports, drives one workload for S seconds, checks every
response, stops every process it started, and prints one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones (see README.md).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
TARGETS = {"phocusd": "phocus/src/service/phocusd",
           "coordinator": "phocus/src/coordinator/phocus_coordinator",
           "probe": "perfbench_probe"}


def build(build_dir):
    """Configures once, then brings the three binaries up to date."""
    log_path = os.path.join(build_dir, "perfbench-build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "phocusd", "phocus_coordinator_bin", "perfbench_probe"])
    with open(log_path, "ab") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
                if step is steps[0] and len(steps) == 2:
                    # A failed configure must not leave a cache behind that
                    # would skip configuring next time.
                    shutil.rmtree(os.path.join(build_dir, "CMakeFiles"),
                                  ignore_errors=True)
                    cache = os.path.join(build_dir, "CMakeCache.txt")
                    if os.path.exists(cache):
                        os.remove(cache)
                raise RuntimeError(f"build failed; see {log_path}")
    return {name: os.path.join(build_dir, path)
            for name, path in TARGETS.items()}


def format_metrics(metrics, kind):
    """Attaches the units from BENCHMARK.json; the names must match it."""
    expected = {m["name"] for m in SPEC[kind]}
    checks.require(set(metrics) == expected,
                   f"metrics differ from BENCHMARK.json {kind}: "
                   f"{sorted(set(metrics) ^ expected)}")
    return {name: {"value": value, "unit": UNITS[name]}
            for name, value in metrics.items()}


def run(args, bins):
    run_dir = os.path.join(ROOT, ".bench_run",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    sizes = (workloads.SMOKE if args.smoke else workloads.FULL)[args.workload]
    bench = workloads.Bench(bins, run_dir, args.seed, args.seconds,
                            args.trace == 1)
    correct = True
    metrics = {}
    try:
        setup_start = time.perf_counter()
        setup_s, replay = workloads.WORKLOADS[args.workload](
            bench, sizes, setup_start)
        bench.verify_score()
        end_to_end = bench.end_to_end(setup_s)
        if args.trace:
            replay["ingest"].update(
                workloads.INGEST_POLICY,
                wal_dir=os.path.join(run_dir, "replay-wal"))
            layers = bench.probe(dict(replay, cmd="trace"))
            checks.require(
                layers.pop("wal.recovered_queued_photos")
                == bench.episodes[0]["queued"],
                "the replayed WAL does not hold the queued trickle")
            checks.require(
                layers["incremental.replans"]
                == bench.episodes[0]["reasons"].count("drift_exceeded"),
                "the replay replanned a different number of times")
            metrics = format_metrics(bench.per_layer(layers), "per_layer")
            print("end-to-end figures of this traced run: "
                  + json.dumps(end_to_end), file=sys.stderr)
        else:
            metrics = format_metrics(end_to_end, "end_to_end")
        print(bench.summary(), file=sys.stderr)
    except checks.CheckError as error:
        correct = False
        print(f"check failed: {error}", file=sys.stderr)
    except Exception as error:  # noqa: BLE001 - reported, run marked failed
        correct = False
        print(f"run failed: {error!r}", file=sys.stderr)
    finally:
        bench.daemons.stop_all()
    if correct:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {"correct": correct, "attempted": bench.attempted,
            "failed": bench.failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: every phase and check, quickly")
    args = parser.parse_args()
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        bins = build(build_dir)
    except (RuntimeError, OSError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    # One CPU for the client and every process it starts (they inherit the
    # mask). The closed loop runs one thing at a time, so nothing waits for
    # the CPU, and a request hops between processes on one CPU instead of
    # waking another: on a 4-vCPU VM this made cache hits 1.4x faster and
    # their run-to-run spread 0.04-0.13 instead of 0.14-0.23.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result = run(args, bins)
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
