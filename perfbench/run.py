#!/usr/bin/env python3
"""Runs one workload of the gridsec benchmark and checks its outputs.

Builds the benchmark driver (perfbench/CMakeLists.txt: the gridsec
libraries from src/ plus the driver) into .bench_build/perfbench, runs one
workload and prints, as the last line of standard output, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics. Exit code 0 means the output check
passed and 1 that it failed; 2 means there is no result (a usage, build or
driver error).

    python3 perfbench/run.py --workload impact_chain --seed 3 --trace 0
    python3 perfbench/run.py --workload impact_chain --steadiness 10
    python3 perfbench/run.py --record-references

perfbench/README.md describes the workloads, metrics and checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "gridsec_perfbench")
REFERENCES = os.path.join(HERE, "references.json")

# The seed the references are stored for, and the default --seed.
DEFAULT_SEED = 2015
# Optimal welfare is unique, so welfare values must match the stored ones
# to this relative tolerance.
WELFARE_RTOL = 1e-7
# A run must end within 180 s; this bounds the driver alone.
DRIVER_TIMEOUT_S = 170


class BenchError(Exception):
    """A failure that leaves no result to print."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_references():
    with open(REFERENCES) as f:
        return json.load(f)


def _run_tool(cmd):
    sys.stdout.flush()
    if subprocess.run(cmd, stdout=sys.stderr.fileno()).returncode != 0:
        raise BenchError("failed: " + " ".join(cmd))


def build():
    """Configures once, then builds the driver; tool output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("gridsec sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        _run_tool(["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"])
    _run_tool(["cmake", "--build", BUILD_DIR, "--target", "gridsec_perfbench",
               "--parallel", "2"])


def measure(workload, seed, seconds, trace, force_fail=False):
    """Runs the driver once and returns its JSON document."""
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--spans", os.path.join(BUILD_DIR, "spans-%s.json" % workload)]
    if force_fail:
        cmd.append("--force-fail")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("driver still running after %d s" % DRIVER_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("driver exited with code %d" % proc.returncode)
    return json.loads(lines[-1])


def compare_references(doc, references):
    """Errors from comparing the check pass's values with stored ones.

    A value K with a stored K_se is a Monte-Carlo mean (the Fig 5 means
    depend on LMP duals, which degenerate optima leave non-unique) and must
    lie within that standard error. Every other value is an optimal
    welfare, which is unique, and must match to WELFARE_RTOL.
    """
    stored = references.get(doc["workload"])
    if stored is None:
        return ["no stored references for " + doc["workload"]]
    errors = []
    for key, ref in stored.items():
        if key.endswith("_se"):
            continue
        got = doc["check_values"].get(key, [])
        if len(got) != len(ref):
            errors.append("%s: %d values, %d stored" % (key, len(got), len(ref)))
            continue
        se = stored.get(key + "_se")
        for i, (g, r) in enumerate(zip(got, ref)):
            tol = WELFARE_RTOL * max(1.0, abs(r))
            if se is not None:
                tol = max(tol, se[i])
            if g is None or abs(g - r) > tol:
                errors.append("%s[%d] = %r, stored %r" % (key, i, g, r))
    return errors


def judge(doc, seed, references=None):
    """Every reason the run's output is wrong; empty when it is correct.

    References are compared at DEFAULT_SEED only; `references` overrides
    the stored file.
    """
    errors = list(doc["check_errors"])
    if doc["failed"]:
        errors.append("%d of %d units failed" % (doc["failed"], doc["attempted"]))
    if seed == DEFAULT_SEED:
        if references is None:
            references = load_references()
        errors += compare_references(doc, references)
    return errors


def result_line(doc, errors, spec, trace):
    """The contract's result object, with BENCHMARK.json's metrics."""
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = doc["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise BenchError("driver reported %s as %r" % (m["name"], got))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": not errors, "attempted": doc["attempted"],
            "failed": doc["failed"], "metrics": metrics}


def _fmt(value):
    return "%14s" % "n/a" if value is None else "%14.6g" % value


def print_summary(doc, errors, result):
    print("gridsec benchmark: %s, seed %d, trace %d"
          % (doc["workload"], doc["seed"], doc["trace"]))
    for name, m in result["metrics"].items():
        print("  %-28s %s %s" % (name, _fmt(m["value"]), m["unit"]))
    attempted = doc["attempted"]
    print("  %-28s %s (%d of %d units)"
          % ("fail_frac", _fmt(doc["failed"] / attempted if attempted else 0.0),
             doc["failed"], attempted))
    for name, value in sorted(doc["info"].items()):
        print("  %-28s %s" % (name, _fmt(value)))
    print("  output check: %s, %d solves certified"
          % ("FAILED" if errors else "passed", doc["certified"]))
    for e in errors[:20]:
        print("    " + e)
    if len(errors) > 20:
        print("    ... and %d more" % (len(errors) - 20))


def steadiness(args, spec):
    """Repeats a workload on seeds seed, seed+1, ... and prints each
    metric's median and quartiles across the runs next to its bound. A
    metric whose spread (quartile distance / median) exceeds its bound is
    unresolved: a change to it that small cannot be told from noise."""
    kind = "per_layer" if args.trace else "end_to_end"
    docs, all_correct = [], True
    for i in range(args.steadiness):
        seed = args.seed + i
        doc = measure(args.workload, seed, args.seconds, args.trace)
        errors = judge(doc, seed)
        all_correct = all_correct and not errors
        docs.append(doc)
        print("run %d, seed %d: %s" % (i + 1, seed, "correct" if not errors
                                      else "INCORRECT: " + errors[0]),
              flush=True)
    print("%-28s %-6s %12s %12s %12s %8s %6s  %s" % (
        "metric", "unit", "median", "q1", "q3", "spread", "bound", "status"))
    for m in spec[kind]:
        values = [d["metrics"][m["name"]]["value"] for d in docs]
        med = statistics.median(values)
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        if med:
            spread = (q3 - q1) / abs(med)
        else:
            spread = 0.0 if q3 == q1 else float("inf")
        bound = m.get("bound")
        if bound is None:
            status = "-"
        else:
            status = "steady" if spread <= bound else "unresolved"
        print("%-28s %-6s %12.6g %12.6g %12.6g %8.4f %6s  %s" % (
            m["name"], m["unit"], med, q1, q3, spread,
            "-" if bound is None else "%.2f" % bound, status))
    return 0 if all_correct else 1


def record_references(spec):
    """Rewrites references.json from default-seed runs of every workload."""
    refs = {"seed": DEFAULT_SEED}
    for w in spec["workloads"]:
        doc = measure(w["name"], DEFAULT_SEED, 1, 0)
        errors = judge(doc, None)
        if errors:
            raise BenchError("%s: %s" % (w["name"], errors[0]))
        refs[w["name"]] = doc["check_values"]
    with open(REFERENCES, "w") as f:
        f.write("{\n")
        f.write(",\n".join("%s: %s" % (json.dumps(k), json.dumps(v))
                           for k, v in refs.items()))
        f.write("\n}\n")


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description="Run one workload of the gridsec benchmark.")
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N",
                        help="run N times on consecutive seeds and report "
                             "each metric's median and quartiles")
    parser.add_argument("--force-fail", action="store_true",
                        help="give every solve a near-zero time limit so "
                             "that units fail (used by the self-tests)")
    parser.add_argument("--record-references", action="store_true",
                        help="rewrite references.json from default-seed runs")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload is None and not args.record_references:
        parser.error("--workload is required")
    try:
        build()
        if args.record_references:
            record_references(spec)
            return 0
        if args.steadiness:
            return steadiness(args, spec)
        doc = measure(args.workload, args.seed, args.seconds, args.trace,
                      args.force_fail)
        errors = judge(doc, args.seed)
        result = result_line(doc, errors, spec, args.trace)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    print_summary(doc, errors, result)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
