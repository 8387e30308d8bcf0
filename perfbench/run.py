#!/usr/bin/env python3
"""Build xqdb's benchmark from source and run one workload.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

Run from the root of an xqdb checkout.  The benchmark program
(perfbench/main.exe) is built with dune into the checkout's _build
directory, then run with the same arguments.  Its standard output is
passed through; its last line is the JSON result.  Before exiting, the
result is checked against BENCHMARK.json: with --trace 0 it must carry
exactly the end_to_end metrics, with --trace 1 exactly the per_layer
metrics, each with the unit BENCHMARK.json gives it.

Exit codes: 0 success; 1 a failed or oracle-mismatched operation;
2 not an xqdb checkout, or bad arguments; 3 the build failed;
4 the result does not match BENCHMARK.json; other codes come from the
benchmark program.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def check_result(line, spec, trace):
    try:
        result = json.loads(line)
    except ValueError as e:
        return "last line is not JSON: %s" % e
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are %s" % sorted(result)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    if sorted(got) != sorted(units):
        missing = sorted(set(units) - set(got))
        extra = sorted(set(got) - set(units))
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (missing, extra)
    for name, m in got.items():
        if m.get("unit") != units[name]:
            return "metric %s has unit %r, BENCHMARK.json says %r" % (name, m.get("unit"), units[name])
        v = m.get("value")
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            return "metric %s has value %r" % (name, v)
    if not trace:
        zero = [n for n, m in got.items() if m["value"] == 0]
        if zero:
            return "end-to-end metrics read 0: %s" % zero
    return None


def main():
    parser = argparse.ArgumentParser(description="Run one xqdb benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    for need in ("dune-project", "lib", "BENCHMARK.json", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail(2, "%s not found: run from the root of an xqdb checkout" % need)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(2, "unknown workload %r (have %s)" % (args.workload, ", ".join(names)))

    dune = shutil.which("dune")
    if dune is None:
        fail(3, "dune not found on PATH")
    # Build output goes to stderr, so the last line of stdout stays the
    # result.  The shared dune cache lives outside the checkout, so it is
    # not used.
    build = subprocess.run(
        [dune, "build", "--root", ".", "--cache=disabled", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail(3, "build failed (exit %d)" % build.returncode)

    run = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        sys.exit(run.returncode)
    lines = run.stdout.strip().splitlines()
    problem = check_result(lines[-1], spec, args.trace == 1) if lines else "no output"
    if problem:
        fail(4, problem)


if __name__ == "__main__":
    main()
