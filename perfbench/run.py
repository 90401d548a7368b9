#!/usr/bin/env python3
"""End-to-end benchmark of the FlexMoE simulator.

Builds perfbench_runner (the simulator library plus perfbench/runner.cc)
from source, runs one workload, checks its outputs and prints one JSON
object as the last line of stdout:

    {"correct": true, "attempted": 20, "failed": 0, "metrics": {...}}

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

--trace 0 reports the end-to-end metrics from the timed pass; --trace 1
runs the traced pass (interleaved with a timed one, for the tracing
overhead) and reports the per-layer metrics. Exits 0 only when every check passed; exits
2 on a usage or build error without printing a result. perfbench/README.md
describes the workloads and metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-catalog", "large-ep", "serve-mix")

# Set-up is timed in fresh processes, for about SETUP_SAMPLING_S seconds
# and within [SETUP_MIN_SAMPLES, SETUP_MAX_SAMPLES] processes; the median is
# reported.
SETUP_SAMPLING_S = 3.0
SETUP_MIN_SAMPLES = 5
SETUP_MAX_SAMPLES = 25
# Every run after the first build must finish inside this many seconds.
RUN_BUDGET_S = 170

END_TO_END_UNITS = {
    "sim_steps_per_s": "steps/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "flexmoe_sim_step_ms": "ms",
}

# Simulated FlexMoE outcomes that apply to some workloads only; reported
# with the traced output.
OUTCOME_UNITS = {
    "flexmoe_hours_to_target": "h",
    "flexmoe_slo_attainment": "ratio",
    "flexmoe_latency_p50_ms": "ms",
    "flexmoe_latency_p99_ms": "ms",
    "flexmoe_goodput_tok_per_s": "tokens/s",
}

LAYER_UNITS = {
    "setup.topology_s": "s",
    "setup.calibrate_s": "s",
    "setup.trace_source_s": "s",
    "setup.system_s": "s",
    "gate.busy_s": "s",
    "gate.calls": "count",
    "gate.tokens_per_s": "assignments/s",
    "gate.share": "ratio",
    "system.flexmoe.busy_s": "s",
    "system.flexmoe.calls": "count",
    "system.flexmoe.step_ms_p50": "ms",
    "system.flexmoe.step_ms_tail": "ms",
    "system.flexmoe.tail_pct": "%",
    "system.flexmoe.samples": "count",
    "system.static.busy_s": "s",
    "system.static.calls": "count",
    "system.static.step_ms_p50": "ms",
    "system.static.step_ms_tail": "ms",
    "system.static.tail_pct": "%",
    "system.static.samples": "count",
    "system.share": "ratio",
    "policy.invocations": "count",
    "policy.triggers": "count",
    "policy.candidates_evaluated": "count",
    "policy.plan_rounds": "count",
    "policy.ops_enqueued": "count",
    "policy.rounds_per_candidate": "ratio",
    "placement.ops_applied": "count",
    "placement.applied_ratio": "ratio",
    "serve.admission_self_s": "s",
    "serve.batches": "count",
    "serve.chunked_admissions": "count",
    "serve.failed_batches": "count",
    "serve.shed_ratio": "ratio",
    "cost_model.floor_calls": "count",
    "cost_model.floor_s": "s",
    "sim.a2a_ms": "ms",
    "sim.compute_ms": "ms",
    "sim.sync_ms": "ms",
    "sim.non_moe_ms": "ms",
    "sim.adjust_block_ms": "ms",
    "sim.balance_ratio": "ratio",
    "sim.expert_efficiency": "ratio",
    "sim.gpu_utilization": "ratio",
    "sim.token_efficiency": "ratio",
    "sim.recirculated_ratio": "ratio",
    "harness.self_share": "ratio",
    "trace_overhead_ratio": "ratio",
}

PER_LAYER_UNITS = dict(LAYER_UNITS)
PER_LAYER_UNITS["failed_cell_ratio"] = "ratio"
PER_LAYER_UNITS.update(OUTCOME_UNITS)


class BenchError(Exception):
    """A failure that ends the run without a result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", allow_abbrev=False,
        description="End-to-end benchmark of the FlexMoE simulator.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=10,
                        help="loop wall to measure per pass (0: one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be in [0, 2^64)")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def build_dir():
    # The build tree lives inside the checkout; CARGO_TARGET_DIR, when set,
    # names it (relative paths are taken from the checkout root).
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_runner")


def call_runner(binary, args, deadline):
    """Runs perfbench_runner; returns (exit code, JSON result, other lines)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted before " + " ".join(args))
    try:
        proc = subprocess.run([binary] + args, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired as exc:
        # subprocess.run kills the child and waits for it before raising.
        raise BenchError("runner timed out: " + " ".join(args)) from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except json.JSONDecodeError:
            result = None
    if result is None:
        sys.stdout.write(proc.stdout)
        raise BenchError("runner printed no result: " + " ".join(args))
    return proc.returncode, result, lines


def end_to_end(binary, common, seconds, deadline):
    """The timed pass, plus set-up timed in fresh processes."""
    setup = []
    codes = []
    start = time.monotonic()
    while len(setup) < SETUP_MIN_SAMPLES or (
            len(setup) < SETUP_MAX_SAMPLES and
            time.monotonic() - start < SETUP_SAMPLING_S):
        code, res, _ = call_runner(binary, common + ["--mode", "setup"],
                                  deadline)
        codes.append(code)
        setup.append(res["setup_s"])
    code, timed, lines = call_runner(
        binary, common + ["--seconds", str(seconds), "--mode", "timed"],
        deadline)
    codes.append(code)
    print("\n".join(lines))
    values = {name: timed[name] for name in END_TO_END_UNITS
              if name != "setup_s"}
    values["setup_s"] = statistics.median(setup)
    ok = all(c == 0 for c in codes)
    return ok, timed["attempted"], timed["failed"], values


def per_layer(binary, common, seconds, workload, seed, deadline):
    """The traced pass, interleaved with a timed pass for the overhead."""
    spans = os.path.join(build_dir(), "spans-%s-seed%d.tsv" % (workload, seed))
    code, traced, lines = call_runner(
        binary, common + ["--seconds", str(seconds), "--mode", "traced",
                          "--spans", spans], deadline)
    print("\n".join(lines))
    print("spans in %s" % os.path.relpath(spans, ROOT))
    values = dict(traced["layers"])
    for name in list(OUTCOME_UNITS) + ["failed_cell_ratio"]:
        values[name] = traced[name]
    return code == 0, traced["attempted"], traced["failed"], values


def main(argv):
    args = parse_args(argv)
    try:
        binary = build()
        deadline = time.monotonic() + RUN_BUDGET_S
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        if args.trace == 0:
            units = END_TO_END_UNITS
            ok, attempted, failed, values = end_to_end(
                binary, common, args.seconds, deadline)
        else:
            units = PER_LAYER_UNITS
            ok, attempted, failed, values = per_layer(
                binary, common, args.seconds, args.workload, args.seed,
                deadline)
    except BenchError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 2

    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            print("FAIL metric %s has no finite value (%r)" % (name, value))
            ok = False
            value = 0
        metrics[name] = {"value": value, "unit": unit}
    correct = ok and failed == 0
    print(json.dumps({"correct": correct, "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
