#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fempic_solve --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

The first call builds perfbench/main.exe from source with dune into
.bench_build/. A measuring call prints the benchmark's full record (one
JSON line) and, as its last line, the result object
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ".bench_build"
EXE = ROOT / BUILD_DIR / "default" / "perfbench" / "main.exe"
RUN_DIR = BUILD_DIR + "/run"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    if not (ROOT / "dune-project").is_file() or not (ROOT / "lib").is_dir():
        fail("no OCaml sources here (dune-project and lib/ are missing)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--display", "quiet", "./perfbench/main.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0 or not EXE.is_file():
        fail("build failed")


def run_exe(args, timeout=RUN_TIMEOUT_S):
    """Run main.exe; return its stdout lines, or None if it failed."""
    cmd = [str(EXE)] + args + ["--run-dir", RUN_DIR]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: main.exe exited with {proc.returncode}", file=sys.stderr)
        return None
    return lines


def measure(a):
    names = [w["name"] for w in spec()["workloads"]]
    if a.workload not in names:
        fail(f"unknown workload {a.workload!r}; known: {', '.join(names)}")
    if a.trace not in (0, 1):
        fail("--trace must be 0 or 1")
    if not a.seconds > 0:
        fail("--seconds must be positive")
    build()
    lines = run_exe(["--workload", a.workload, "--seed", str(a.seed),
                     "--seconds", str(a.seconds), "--trace", str(a.trace)])
    if lines is None:
        sys.exit(1)
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail("malformed result line")
    for line in lines:
        print(line)


def self_test():
    """Small-size runs of every workload: each metric named in
    BENCHMARK.json is emitted with its unit, nothing fails on current
    code, and a deliberately broken field solve is counted as failed."""
    s = spec()
    build()
    problems = []
    wanted = {0: {m["name"]: m["unit"] for m in s["end_to_end"]},
              1: {m["name"]: m["unit"] for m in s["per_layer"]}}

    def small(workload, trace, extra=()):
        lines = run_exe(["--workload", workload, "--seed", "3", "--seconds", "1.5",
                         "--trace", str(trace), "--size", "small", *extra])
        if lines is None:
            problems.append(f"{workload} trace={trace}: run failed")
            return None
        return json.loads(lines[-1])

    for w in s["workloads"]:
        for trace in (0, 1):
            r = small(w["name"], trace)
            if r is None:
                continue
            tag = f"{w['name']} trace={trace}"
            if set(r) != RESULT_KEYS:
                problems.append(f"{tag}: result keys {sorted(r)}")
                continue
            got = {k: v.get("unit") for k, v in r["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                units = sorted(k for k in got if k in wanted[trace] and got[k] != wanted[trace][k])
                problems.append(f"{tag}: missing {missing} extra {extra} wrong units {units}")
            bad = [k for k, v in r["metrics"].items()
                   if not isinstance(v.get("value"), (int, float))]
            if bad:
                problems.append(f"{tag}: non-numeric values {bad}")
            if trace == 0:
                zero = [k for k, v in r["metrics"].items() if not v["value"] > 0]
                if zero:
                    problems.append(f"{tag}: end-to-end metrics not positive {zero}")
            if not (r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1):
                problems.append(f"{tag}: correct={r['correct']} failed={r['failed']} "
                                f"attempted={r['attempted']}")
            print(f"self-test: {tag}: {r['attempted']} steps, failed_frac "
                  f"{r['failed'] / r['attempted']:.3f}", file=sys.stderr)
    for workload in ("fempic_solve", "fempic_resilient"):
        r = small(workload, 0, ["--break-solve"])
        if r is None:
            continue
        if r["correct"] or r["failed"] == 0:
            problems.append(f"{workload} with Newton capped at 1: failed={r['failed']} "
                            f"correct={r['correct']}, expected failed steps")
        else:
            print(f"self-test: {workload} broken solve: {r['failed']}/{r['attempted']} "
                  f"steps counted as failed", file=sys.stderr)
    for p in problems:
        print(f"self-test: FAIL {p}", file=sys.stderr)
    print("self-test: ok" if not problems else f"self-test: {len(problems)} problem(s)")
    sys.exit(1 if problems else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    os.chdir(ROOT)
    if a.self_test:
        self_test()
    if a.workload is None:
        fail("--workload is required")
    measure(a)


if __name__ == "__main__":
    main()
