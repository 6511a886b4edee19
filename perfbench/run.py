#!/usr/bin/env python3
"""The repository benchmark: one command that builds the planner from
source, runs one workload, checks its outputs and prints every metric.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the root of a checkout. Workloads: enterprise1-exact,
multiperiod-t4, federal-heuristic, daemon-mixed (see perfbench/README.md).
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics. Human-readable context goes to stdout first; the last
line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Build output goes to stderr. Build files and raw run documents are kept in
$CARGO_TARGET_DIR (default .bench_build) under the checkout.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import perf_stats  # noqa: E402  (after the bytecode switch)

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = perf_stats.SOLVER_WORKLOADS + ("daemon-mixed",)
BUILD_JOBS = "4"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail("no etransform sources under %s/src; run from a checkout root" % root)
    cmake_dir = build_dir / "cmake"
    if not (cmake_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(cmake_dir), "-j", BUILD_JOBS,
                    "--target", "perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return cmake_dir / "perfbench"


def source_id(root):
    """The commit, or a digest of the sources when there is no git."""
    try:
        head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
        return head.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        digest = hashlib.sha1()
        for top in ("src", "perfbench"):
            for path in sorted((root / top).rglob("*")):
                if path.is_file() and "__pycache__" not in path.parts:
                    digest.update(str(path.relative_to(root)).encode())
                    digest.update(path.read_bytes())
        return "sources-sha1:" + digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(root, build_dir)
    raw_path = build_dir / ("raw-%s-%d-%d.json" % (args.workload, args.seed,
                                                    args.trace))
    subprocess.run([str(binary), "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--out", str(raw_path)],
                   check=True, stdout=sys.stderr, timeout=args.seconds + 150)
    with open(raw_path) as f:
        raw = json.load(f)

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    e2e, info = perf_stats.end_to_end(raw)
    if args.trace:
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        metrics = perf_stats.per_layer(raw, names)
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}

    context = dict(raw["context"])
    context["commit"] = source_id(root)
    context["samples"] = info["samples"]
    context["tail_percentile"] = info["tail_percentile"]
    context["host.probe_start_ms"] = raw["probe_start_ms"]
    context["host.probe_end_ms"] = raw["probe_end_ms"]
    context["nominal_probe_ms"] = perf_stats.NOMINAL_PROBE_MS
    for key, value in context.items():
        print("# %s: %s" % (key, value))
    for failure in raw["checks"]["failures"]:
        print("# check failed: " + failure)
    for name, m in metrics.items():
        print("%-32s %16.6f %s" % (name, m["value"], m["unit"]))
    attempted, failed = perf_stats.check_counts(raw)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
