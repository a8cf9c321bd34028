#!/usr/bin/env python3
"""Builds rtoffload_bench from the checkout and runs one workload.

    python3 rtoffload_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds into
.bench_build/ (or $CARGO_TARGET_DIR); later runs only re-check the build.
Build output goes to stderr; stdout is rtoffload_bench's: `name value unit`
lines, then one JSON result line. Each run also writes its record to
.bench_out/runs/ (or --out), the input of compare.py; a traced run writes
its Chrome trace to .bench_out/.

    python3 rtoffload_bench/run.py --smoke [--binary PATH]

runs every workload of BENCHMARK.json at --scale smoke, traced and
untraced, and checks that no operation failed and that every metric of
BENCHMARK.json is printed with its unit (the bench_e2e_smoke test).
"""

import argparse
import json
import os
import subprocess
import sys
import time

PACKAGE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PACKAGE)
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds rtoffload_bench; returns its path."""
    for needed in ("CMakeLists.txt", "src", os.path.join("examples", "specs")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} missing: run from a full checkout of the repository")
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "cmake")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", PACKAGE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "rtoffload_bench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "rtoffload_bench")


def run_bench(binary, args, capture):
    try:
        return subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        fail(f"rtoffload_bench {' '.join(args)} exceeded {RUN_TIMEOUT_S} s")


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    trace_path = os.path.join(ROOT, ".bench_out", "smoke.trace.json")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    problems = []
    start = time.monotonic()
    for workload in (w["name"] for w in spec["workloads"]):
        for traced in (0, 1):
            args = ["--workload", workload, "--seed", "1", "--seconds", "0.05",
                    "--scale", "smoke"]
            if traced:
                args += ["--trace", trace_path]
            proc = run_bench(binary, args, capture=True)
            lines = proc.stdout.strip().splitlines()
            where = f"{workload} trace={traced}"
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(f"{where}: no JSON result line")
                continue
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{where}: exit {proc.returncode}, "
                                f"failed {result['failed']} of {result['attempted']}")
            printed = {}
            for line in lines[:-1]:
                parts = line.split()
                if len(parts) == 3 and not line.startswith("#"):
                    printed[parts[0]] = parts[2]
            for name, unit in expected[traced].items():
                got = result["metrics"].get(name, {}).get("unit")
                if got != unit or printed.get(name) != unit:
                    problems.append(f"{where}: metric {name} [{unit}] "
                                    f"printed as {printed.get(name)}, JSON {got}")
            extra = set(result["metrics"]) - set(expected[traced])
            if extra:
                problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    for p in problems:
        print("FAIL " + p)
    print(f"smoke: {len(problems)} problems in {time.monotonic() - start:.1f} s")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result record path (default .bench_out/runs/)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="use this rtoffload_bench binary instead of building")
    args = parser.parse_args()

    binary = args.binary or build()
    if args.smoke:
        sys.exit(smoke(binary))
    if not args.workload:
        fail("--workload is required")

    out_dir = os.path.join(ROOT, ".bench_out")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = args.out or os.path.join(out_dir, "runs", f"{stem}-{time.time_ns()}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--out", out]
    if args.trace:
        bench_args += ["--trace", os.path.join(out_dir, f"{stem}.trace.json")]
    sys.stdout.flush()
    sys.exit(run_bench(binary, bench_args, capture=False).returncode)


if __name__ == "__main__":
    main()
