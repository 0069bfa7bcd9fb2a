#!/usr/bin/env python3
"""The repository benchmark's entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  On first use it configures and builds
perfbench/ (which builds libllamp from the checkout's src/ through the root
CMakeLists) into $CARGO_TARGET_DIR, default .bench_build, then runs
llamp_perfbench.  The last line on stdout is the result JSON; build output
goes to stderr.  --smoke runs every workload for one second in both modes and
checks that each metric named in BENCHMARK.json is reported with its unit and
that no request failed.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "api", "engine.hpp"))):
        fail("no llamp sources beside perfbench/; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", "llamp_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "llamp_perfbench")


def run_bench(binary, bdir, workload, seed, seconds, trace, capture):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace),
           "--out-dir", os.path.join(bdir, "results")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")


def smoke(binary, bdir):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            p = run_bench(binary, bdir, w["name"], 1, 1, trace, capture=True)
            label = f"{w['name']} trace={trace}"
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                problems.append(f"{label}: exit {p.returncode}")
                continue
            res = json.loads(lines[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append(f"{label}: failed {res['failed']} of {res['attempted']}")
            names = {m["name"] for m in wanted}
            if set(res["metrics"]) != names:
                problems.append(f"{label}: metrics differ: "
                                f"{sorted(set(res['metrics']) ^ names)}")
            for m in wanted:
                got = res["metrics"].get(m["name"])
                if got is None:
                    continue
                if got.get("unit") != m["unit"]:
                    problems.append(f"{label}: {m['name']} unit {got.get('unit')}")
                v = got.get("value")
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    problems.append(f"{label}: {m['name']} value {v}")
                elif trace == 0 and v <= 0:
                    problems.append(f"{label}: {m['name']} is {v}")
            print(f"smoke {label}: {res['attempted']} requests, {len(res['metrics'])} metrics")
    if problems:
        for p in problems:
            print("FAIL " + p, file=sys.stderr)
        sys.exit(1)
    print("smoke: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    bdir = build_dir()
    binary = build(bdir)
    if args.smoke:
        smoke(binary, bdir)
        return
    if not args.workload:
        ap.error("--workload is required")
    p = run_bench(binary, bdir, args.workload, args.seed, args.seconds, args.trace,
                  capture=False)
    sys.exit(p.returncode)


if __name__ == "__main__":
    main()
