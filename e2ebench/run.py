#!/usr/bin/env python3
"""Builds and runs the end-to-end MetaDPA benchmark (see README.md).

  python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 e2ebench/run.py --workload all --seed N   # every workload in turn
  python3 e2ebench/run.py --selftest                # the benchmark's unit tests

Run from the repository root. The benchmark is built from source with CMake
into $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench); run
manifests and span files go to .../e2ebench-out. The last line of stdout is
one JSON object holding exactly the metrics BENCHMARK.json lists for the mode
(end_to_end untraced, per_layer traced).
"""
import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2ebench"


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("the library sources (src/) are missing: run from a full checkout")
    out = build_dir()
    try:
        if not (out / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(out), "--target", target, "-j", "4"],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")
    return out / target


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")


def run_one(binary, spec, workload, seed, seconds, trace):
    out_dir = build_dir().parent / "e2ebench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    if proc.returncode != 0:
        fail(f"{workload} exited with code {proc.returncode}", 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload} printed no result line", 1)

    # Exactly the metrics BENCHMARK.json lists for this mode, with its units.
    # A per-layer metric of a layer the workload does not run reads 0.
    listed = spec["per_layer" if trace else "end_to_end"]
    measured = result["metrics"]
    unknown = sorted(set(measured) - {m["name"] for m in listed})
    if unknown:
        fail(f"{workload} reported metrics BENCHMARK.json does not list: {unknown}", 3)
    metrics, not_run = {}, []
    for metric in listed:
        name = metric["name"]
        if name not in measured:
            if not trace:
                fail(f"{workload} did not report end-to-end metric {name}", 3)
            not_run.append(name)
            metrics[name] = {"value": 0, "unit": metric["unit"]}
            continue
        value = measured[name]["value"]
        if measured[name]["unit"] != metric["unit"] or not math.isfinite(value):
            fail(f"{workload}: bad {name} {measured[name]}", 3)
        metrics[name] = {"value": value, "unit": metric["unit"]}
    if not_run:
        print(f"run.py: {workload} does not run these layers (reported as 0): "
              f"{', '.join(not_run)}", file=sys.stderr)
    print("\n".join(lines[:-1]))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        test = build("e2ebench_test")
        sys.exit(subprocess.run([str(test)]).returncode)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        fail(f"--workload must be one of {names} or all")
    if args.seed < 0:
        fail("--seed must be >= 0")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if not 1 <= seconds <= 60:
        fail("--seconds must be within 1..60")
    binary = build("e2ebench")
    for workload in names if args.workload == "all" else [args.workload]:
        run_one(binary, spec, workload, args.seed, seconds, args.trace)


if __name__ == "__main__":
    main()
