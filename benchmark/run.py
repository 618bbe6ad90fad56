#!/usr/bin/env python3
"""Builds and runs the repository benchmark (benchmark/README.md).

    python3 benchmark/run.py --workload knn_serve --seed 3 --trace 0
    python3 benchmark/run.py                 # every workload, seed 1
    python3 benchmark/run.py --smoke         # every workload at reduced sizes

Configures the repository's own top-level CMake project into build-bench/
with benchmark/attach.cmake hooked in, builds only the sepdc_bench target,
and runs it once per workload, each in its own process. Prints every metric
with its unit (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1); the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. The full result of each run, with
its host row and per-window values, is kept in build-bench/results/ for
benchmark/compare.py. Exits non-zero, printing no result, when the build
fails, a check inside the run fails, or a metric is missing.
"""
import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / "build-bench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"benchmark/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print(f"benchmark/run.py: {ROOT} holds no repository to build "
              "(CMakeLists.txt and src/ are missing)", file=sys.stderr)
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    hook = ROOT / "benchmark" / "attach.cmake"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(BUILD),
                      f"-DCMAKE_PROJECT_INCLUDE={hook}"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "sepdc_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_workload(spec, name, seed, seconds, trace, smoke):
    out_dir = BUILD / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "sepdc_bench"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, SEPDC_BENCH_COMMIT=commit())
    try:
        proc = subprocess.run(cmd, cwd=out_dir, env=env, text=True,
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{name}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{name}: the run failed (exit code {proc.returncode})")
    result = json.loads(lines[-1])

    units = {}
    for section in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        produced = result[section]
        if set(declared) != set(produced):
            fail(f"{name}: {section} metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(declared) - set(produced))}, "
                 f"undeclared {sorted(set(produced) - set(declared))}")
        for metric, value in produced.items():
            if not math.isfinite(value):
                fail(f"{name}: {metric} is not a finite number")
            if section == "end_to_end" and value <= 0:
                fail(f"{name}: end-to-end metric {metric} is {value}")
        units.update(declared)
    result["units"] = units

    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{trace}" + ("-smoke" if smoke else "")
    (results / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")

    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        value = result[section][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{name:20s} {m['name']:45s} {value:>18.6g} {m['unit']}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, same code paths and checks")
    args = parser.parse_args()
    build()
    for name in [args.workload] if args.workload else names:
        run_workload(spec, name, args.seed, args.seconds, args.trace,
                     args.smoke)


if __name__ == "__main__":
    main()
