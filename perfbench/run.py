#!/usr/bin/env python3
"""End-to-end benchmark of the profile, serve and simulate pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the library, ipg_cli and the
benchmark program from source into .bench_build/perfbench (incremental after
the first run), runs one workload, and prints as the last line of stdout
one JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports every end-to-end metric of BENCHMARK.json; --trace 1 is
the traced run: it reports every per-layer metric (0 for a layer the
workload does not exercise) and writes its spans as Chrome trace-event
JSON to .bench_build/traces/. Exits nonzero when a correctness gate fails
or the program cannot be built. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when there is one, else a hash of the built sources."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True,
                             check=True).stdout.split()
        if os.path.realpath(top[0]) == os.path.realpath(ROOT):
            return "git:" + top[1]
    except (OSError, subprocess.CalledProcessError, IndexError):
        pass
    h = hashlib.sha256()
    for base in ("src", "examples", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, base))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ beside perfbench/: run from the root of a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release", *gen],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "ipg_perfbench",
                    "ipg_cli", "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    traces = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(traces, exist_ok=True)
    trace_out = os.path.join(traces, f"{args.workload}-seed{args.seed}.json")
    proc = subprocess.run(
        [os.path.join(BUILD, "ipg_perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--cli", os.path.join(BUILD, "ipg_cli"),
         "--trace-out", trace_out, "--source", source_id()],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        print(f"perfbench: ipg_perfbench exited {proc.returncode} (a gate "
              f"failed or the run was refused); its result: {lines[-1:]}",
              file=sys.stderr)
        return proc.returncode
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("ipg_perfbench printed no result")

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    for name, m in raw["metrics"].items():
        if units.get(name) != m["unit"]:
            fail(f"metric {name} ({m['unit']}) is not declared as such")
    metrics = {}
    for name, unit in units.items():
        if name in raw["metrics"]:
            metrics[name] = {"value": raw["metrics"][name]["value"],
                             "unit": unit}
        elif args.trace:  # a layer this workload does not exercise
            metrics[name] = {"value": 0, "unit": unit}
        else:
            fail(f"end-to-end metric {name} was not measured")

    print("meta " + json.dumps(raw["meta"]))
    for name, b in raw["bases"].items():
        print(f"base {name} = {b['num']!r} / {b['den']!r}")
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if raw["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
