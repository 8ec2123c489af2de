#!/usr/bin/env python3
"""Run one workload of the ftsched benchmark and print its result.

    python3 perfbench/run.py --workload layered-dense --seed 7 --seconds 30 --trace 0

Run from the root of the repository.  The script builds
``perfbench/main.exe`` with dune into ``.bench_build``, then runs the three
phases of the workload -- plan-large, recover-campaign and serve-open --
each in a process of its own, so that each phase's heap high-water mark
is its own.  It prints the phases' notes, then as its last line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.  Any failure
to build or run exits with code 1 and prints no result.
"""

import argparse
import json
import os
import subprocess
import sys
import time

PHASES = ("plan", "recover", "serve")
BUILD_DIR = ".bench_build"
DEADLINE_S = 170.0


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "-j", "2",
           "--display", "quiet", "./perfbench/main.exe"]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build failed")
    return os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def run_phase(exe, phase, args, deadline):
    sock = os.path.join(BUILD_DIR, "perfbench-%d.sock" % os.getpid())
    cmd = [exe, phase, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sock", sock]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("phase %s did not finish in time" % phase)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("phase %s exited with code %d" % (phase, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("phase %s printed nothing" % phase)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %s" % args.workload)
    exe = build()
    # The build may take long in a fresh checkout; the phases get their
    # own time limit.
    deadline = time.monotonic() + DEADLINE_S
    phases = [run_phase(exe, p, args, deadline) for p in PHASES]

    measured = {}
    for ph in phases:
        for name, m in ph["metrics"].items():
            measured[name] = (m["value"], m["unit"])
        measured[ph["phase"] + ".peak_heap_mb"] = (ph["peak_heap_mb"], "MB")
        for note in ph["notes"]:
            print("%s: %s" % (ph["phase"], note))
    attempted = sum(ph["attempted"] for ph in phases)
    failed = sum(ph["failed"] for ph in phases)
    measured["setup_s"] = (sum(ph["setup_s"] for ph in phases), "s")
    measured["ok_share"] = (1.0 - failed / max(1, attempted), "share")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            fail("metric %s was not measured" % m["name"])
        value, unit = measured[m["name"]]
        if unit != m["unit"]:
            fail("metric %s measured in %s, declared in %s"
                 % (m["name"], unit, m["unit"]))
        metrics[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": all(ph["correct"] for ph in phases),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
