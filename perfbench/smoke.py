#!/usr/bin/env python3
"""Smoke check of the benchmark: runs every workload of BENCHMARK.json at
the smallest horizon (one round per pass), in both modes, and checks the
printed result against BENCHMARK.json: the four top-level keys, every
declared metric name with its declared unit and a finite value, and no
undeclared metric. Also checks that a bad command line is refused with a
usage error and no result.

Usage (from the repository root):
    python3 perfbench/smoke.py [--workload NAME]

Exits 0 when every check passes; the whole check takes about a minute.
`--workload large-ep` checks the workload kept out of BENCHMARK.json.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def run(args):
    proc = subprocess.run(RUN + args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    return proc.returncode, proc.stdout.splitlines()


def check_result(label, code, lines, declared):
    problems = []
    if code != 0:
        problems.append("exit code %d" % code)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return problems + ["last line is not a JSON result"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("top-level keys %s" % sorted(result))
    if result.get("correct") is not True:
        problems.append("correct is %r" % result.get("correct"))
    if result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
        problems.append("attempted %r failed %r" %
                        (result.get("attempted"), result.get("failed")))
    metrics = result.get("metrics", {})
    for name, unit in declared.items():
        got = metrics.get(name)
        if got is None:
            problems.append("missing metric %s" % name)
            continue
        if got.get("unit") != unit:
            problems.append("%s unit %r, declared %r" %
                            (name, got.get("unit"), unit))
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s value %r" % (name, value))
    for name in sorted(set(metrics) - set(declared)):
        problems.append("undeclared metric %s" % name)
    print("%-26s %s" % (label, "ok" if not problems else "FAIL"))
    for p in problems:
        print("    " + p)
    return problems


def main(argv):
    parser = argparse.ArgumentParser(allow_abbrev=False)
    parser.add_argument("--workload")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    modes = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload is not None:
        workloads = [args.workload]

    failures = 0
    for workload in workloads:
        for trace, declared in modes.items():
            code, lines = run(["--workload", workload, "--seed", "5",
                               "--seconds", "0", "--trace", str(trace)])
            label = "%s --trace %d" % (workload, trace)
            failures += bool(check_result(label, code, lines, declared))

    for bad in (["--workload", "nope"], ["--workload", workloads[0], "--x"],
                ["--workload", workloads[0], "--seed", "abc"]):
        code, lines = run(bad)
        refused = code == 2 and not any(l.startswith("{") for l in lines)
        print("%-26s %s" % ("refuses " + " ".join(bad[-2:]),
                            "ok" if refused else "FAIL"))
        failures += not refused
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
