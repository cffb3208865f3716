#!/usr/bin/env python3
"""Builds and runs the S-Ariadne end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload query_hot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload
    python3 perfbench/run.py --smoke                        # short schema check

The first run configures and builds the repository's libraries, the
daemon and the benchmark into .bench_build/cmake (Release). The last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics (--trace 0) or the per-layer
metrics (--trace 1). Result files with run metadata go to
.bench_build/results/, Chrome trace files to .bench_build/traces/.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
BINARY = os.path.join(BUILD, "perfbench", "sariadne_bench")
WORKLOADS = ["query_hot", "query_cold", "large_directory", "publish_mix",
             "backbone_sim"]
# What the benchmark needs from the repository besides its own files.
REQUIRED = ["CMakeLists.txt", "src/CMakeLists.txt", "tools/sariadne_daemon.cpp"]
# A run that builds must still end within 900 s, any other within 180 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        log("not a sariadne checkout (missing %s)" % ", ".join(missing))
        return False
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DCMAKE_PROJECT_sariadne_INCLUDE=" +
                      os.path.join(ROOT, "perfbench", "graft.cmake")])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "sariadne_bench",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        try:
            code = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            code = None
        if code != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_one(workload, seed, seconds, trace, capture):
    """Runs the benchmark binary once; returns (exit code, stdout or None)."""
    for sub in ("results", "traces"):
        os.makedirs(os.path.join(ROOT, ".bench_build", sub), exist_ok=True)
    tag = "%s-seed%d%s" % (workload, seed, "-trace" if trace else "")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-file", os.path.join(ROOT, ".bench_build", "traces",
                                        workload + ".trace.json"),
           "--out", os.path.join(ROOT, ".bench_build", "results", tag + ".json"),
           "--commit", commit()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1, None
    return done.returncode, done.stdout


def last_json(stdout):
    lines = [line for line in (stdout or "").splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def smoke():
    """Every workload, both modes, short: correctness and output schema."""
    end_to_end, per_layer = contract()
    ok = True
    for workload in WORKLOADS:
        for trace, names in ((0, end_to_end), (1, per_layer)):
            code, out = run_one(workload, 1, 2, trace, capture=True)
            result = last_json(out) if code == 0 else None
            problems = []
            if result is None:
                problems.append("exit code %d, no result" % code)
            else:
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append("result keys %s" % sorted(result))
                if not result.get("correct") or result.get("failed"):
                    problems.append("incorrect answers (%s failed)" %
                                    result.get("failed"))
                missing = set(names) - set(result.get("metrics", {}))
                if missing:
                    problems.append("missing metrics " + ", ".join(sorted(missing)))
            status = "ok" if not problems else "; ".join(problems)
            print("smoke %-16s trace %d: %s" % (workload, trace, status), flush=True)
            ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 2
    if args.smoke:
        return smoke()
    if args.workload != "all":
        code, _ = run_one(args.workload, args.seed, args.seconds, args.trace,
                          capture=False)
        return code
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, out = run_one(workload, args.seed, args.seconds, args.trace,
                            capture=True)
        sys.stdout.write(out or "")
        result = last_json(out) if code == 0 else None
        if result is None:
            log("%s failed with exit code %d" % (workload, code))
            return 1
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "/" + name] = metric
    print(json.dumps(combined), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
