#!/usr/bin/env python3
"""End-to-end benchmark of the powercap RJMS reproduction.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload replay-deep-queue --seed 1 \
        --seconds 25 --trace 0

It builds the program (perfbench/CMakeLists.txt, into .bench_build/),
generates the workload's inputs from --seed, and repeats whole rounds of
the workload for --seconds seconds, each round in a fresh `perfbench`
process. Every round checks its outputs (see README.md). The last line of
stdout is one JSON object: correct, attempted, failed and the metrics —
the end-to-end metrics of BENCHMARK.json with --trace 0 (medians over the
rounds), the per-layer metrics with --trace 1 (medians over traced rounds,
after one untraced round whose fingerprint every traced round must match).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_ROOT = ".bench_work"
# Wall-time budget of all rounds of one run, after the build: a hung round
# is stopped well inside the 180 s a run may take.
ROUND_BUDGET_S = 160.0

# Workload -> (curie_month trace jobs, days, traces per round); None for the
# grid, whose jobs are generated in-process from the seed. A replay round
# covers four independent 16-week traces: one trace's throughput moves by up
# to 20 % with its seed (its deep-queue episodes), and four per round halve
# that swing.
TRACES = {
    "replay-deep-queue": (200000, 112, 4),
    "fig8-grid": None,
    "serve-crash-recover": (50000, 28, 1),
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure and build perfbench, ps-serve and make_curie_month."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--parallel", jobs, "--target",
         "perfbench", "ps-serve", "make_curie_month"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))


def binary(name):
    if name == "perfbench":
        return os.path.join(BUILD_DIR, "perfbench")
    return os.path.join(BUILD_DIR, "program", name)


def run_json(argv, timeout):
    """Runs one perfbench process; returns (notes, parsed last line).

    The process gets its own process group, so a timeout also stops the
    ps-serve daemons it started."""
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise RuntimeError("%s timed out" % argv[1])
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError("%s exited with %d" % (argv[1], child.returncode))
    return lines[:-1], json.loads(lines[-1])


def trace_paths(workload, work):
    spec = TRACES[workload]
    count = spec[2] if spec else 0
    return [os.path.join(work, "trace%d.swf" % k) for k in range(count)]


def round_argvs(workload, work, seed, traced):
    """One argv per perfbench process of a round."""
    perfbench = binary("perfbench")
    flag = "1" if traced else "0"
    if workload == "fig8-grid":
        return [[perfbench, "grid", "--seed", str(seed), "--trace", flag]]
    if workload == "replay-deep-queue":
        return [[perfbench, "replay", "--swf", swf, "--trace", flag]
                for swf in trace_paths(workload, work)]
    return [[perfbench, "serve", "--swf", swf, "--serve-bin", binary("ps-serve"),
             "--spool", os.path.join(work, "spool"), "--trace", flag]
            for swf in trace_paths(workload, work)]


def make_inputs(workload, work, seed):
    spec = TRACES[workload]
    if not spec:
        return
    jobs, days, count = spec
    for k, path in enumerate(trace_paths(workload, work)):
        trace_seed = seed if count == 1 else seed * count + k
        subprocess.run([binary("make_curie_month"), path, "--jobs", str(jobs),
                        "--days", str(days), "--seed", str(trace_seed % (1 << 63))],
                       stdout=sys.stderr, check=True)


def run_round(argvs, deadline):
    results = []
    for argv in argvs:
        notes, result = run_json(argv, deadline - time.monotonic())
        for note in notes:
            print(note)
        results.append(result)
    return results


def combine_end_to_end(parts):
    """A round's end-to-end metrics from its processes (one per trace)."""
    m = [p["metrics"] for p in parts]
    measured = sum(p["jobs"] / x["jobs_per_s"] for p, x in zip(parts, m))
    work = sum(x["effective_work_core_h"] for x in m)
    return {
        "jobs_per_s": sum(p["jobs"] for p in parts) / measured,
        "setup_s": statistics.median(x["setup_s"] for x in m),
        "peak_rss_mb": max(x["peak_rss_mb"] for x in m),
        "effective_work_core_h": work / len(m),
        "energy_per_work_j":
            sum(x["energy_per_work_j"] * x["effective_work_core_h"] for x in m) / work,
        "process.allocs_per_job": statistics.median(x["process.allocs_per_job"] for x in m),
    }


def combine_layers(parts):
    """A traced round's per-layer metrics: the median over its traces."""
    names = set().union(*(p["metrics"] for p in parts))
    return {n: statistics.median(p["metrics"].get(n, 0.0) for p in parts) for n in names}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRACES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as spec_file:
        spec = json.load(spec_file)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    seed = args.seed % (1 << 63)

    build()
    work = os.path.join(WORK_ROOT, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        make_inputs(args.workload, work, seed)
        _, selftest = run_json([binary("perfbench"), "selftest"], 60)
        correct = bool(selftest.get("ok"))
        if not correct:
            log("self-test of the checks failed")

        rounds, reference = [], None
        started = time.monotonic()
        deadline = started + ROUND_BUDGET_S
        if args.trace:
            # One untraced round: the fingerprints every traced round must
            # reproduce, and the wall time the trace overhead is taken against.
            reference = run_round(round_argvs(args.workload, work, seed, False), deadline)
        while True:
            rounds.append(run_round(round_argvs(args.workload, work, seed, args.trace),
                                    deadline))
            if time.monotonic() - started >= args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    counted = rounds + ([reference] if reference else [])
    for part in (p for r in counted for p in r):
        for error in part["errors"]:
            log("check failed: " + error)
        correct = correct and part["ok"]
    if reference:
        want = [p["fingerprint"] for p in reference]
        for r in rounds:
            got = [p["fingerprint"] for p in r]
            if got != want:
                correct = False
                log("traced fingerprints %s differ from the untraced %s" % (got, want))
        wall = lambda r: sum(p["wall_s"] for p in r)
        overhead = statistics.median(wall(r) for r in rounds) / wall(reference)
        print("trace overhead: traced/untraced wall %.3f" % overhead)

    if args.trace:
        values = [combine_layers(r) for r in rounds]
        # Allocations come from the untraced reference round: the probes allocate.
        allocs = combine_end_to_end(reference)["process.allocs_per_job"]
        for v in values:
            v["process.allocs_per_job"] = allocs
    else:
        values = [combine_end_to_end(r) for r in rounds]
    metrics = {m["name"]: {"value": statistics.median(v.get(m["name"], 0.0) for v in values),
                           "unit": m["unit"]}
               for m in wanted}
    print("rounds: %d, fingerprints %s"
          % (len(rounds), " ".join(p["fingerprint"] for p in rounds[-1])))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p["attempted"] for r in counted for p in r),
        "failed": sum(p["failed"] for r in counted for p in r),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except Exception as error:  # a build, input or round failure: no result
        log("perfbench: %s" % error)
        sys.exit(1)
