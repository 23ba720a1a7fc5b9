#!/usr/bin/env python3
"""hopsbench launcher.

Builds the benchmark from the checkout's sources (CMake, into
$CARGO_TARGET_DIR/hopsbench, default .bench_build/hopsbench), runs the
requested workload in one hopsbench child process, checks the result, prints
a readable summary to stderr and, as the last line of stdout, one JSON
object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Without --workload (or with --workload all)
all four workloads run one after another and the metric names are prefixed
with the workload name. --seconds defaults to BENCHMARK.json's run_seconds.

  python3 bench/hopsbench/run.py --workload spotify --seed 1 --seconds 20 --trace 0
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["spotify", "spotify-bigns-occ", "hotdir-occ", "jobs-async"]
DEADLINE_S = 170  # for one child process


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "hopsbench")


def build(bdir):
    """Configures once, then (re)builds; returns the binary path or None."""
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", bdir, "--target", "hopsbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    exe = os.path.join(bdir, "hopsbench")
    return exe if os.path.exists(exe) else None


def measure(exe, out_dir, workload, seed, seconds, trace):
    """Runs one hopsbench process; returns its result dict, or None if it did
    not produce one. A child killed by a signal fails the run: it is not
    re-run."""
    stem = os.path.join(out_dir, "%s-seed%d%s" % (workload, seed, "-trace" if trace else ""))
    out = stem + ".json"
    if os.path.exists(out):
        os.remove(out)
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", out]
    if trace:
        args += ["--trace-out", stem + ".chrome.json"]
    proc = subprocess.Popen([exe] + args, stdout=sys.stderr, stderr=sys.stderr)
    try:
        rc = proc.wait(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("hopsbench: timed out after %d s: %s" % (DEADLINE_S, " ".join(args)))
        return None
    if rc < 0:
        log("hopsbench: killed by signal %d: %s" % (-rc, " ".join(args)))
        return None
    # 0 = ran, 3 = ran but the oracle failed (the result file says so).
    if rc not in (0, 3) or not os.path.exists(out):
        log("hopsbench: exited with code %d: %s" % (rc, " ".join(args)))
        return None
    with open(out) as f:
        return json.load(f)


def select(result, wanted):
    """BENCHMARK.json's metrics, checked for presence and unit."""
    metrics = {}
    for spec in wanted:
        got = result["metrics"].get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            raise ValueError("metric %s missing or not in %s" % (spec["name"], spec["unit"]))
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    return metrics


def summarize(result, metrics):
    runs = [result[k] for k in ("run", "traced_run") if k in result]
    failures = {}
    for run in runs:
        for code, n in run["failures_by_code"].items():
            failures[code] = failures.get(code, 0) + n
    cfg = result["config"]
    log("== %s seed=%d engine=%s async=%s mux_gather=%s: correct=%s attempted=%d failed=%d %s"
        % (result["workload"], result["seed"], cfg["engine"], cfg["async_metadata_commit"],
           cfg["mux_adaptive_gather"], result["correct"], result["attempted"],
           result["failed"], json.dumps(failures)))
    for run in runs:
        for err in run["oracle"]["errors"]:
            log("   oracle: " + err)
    for name, m in metrics.items():
        samples = result["metrics"][name].get("samples")
        log("   %-40s %14.4f %-10s%s" % (name, m["value"], m["unit"],
                                         "" if samples is None else "  n=%d" % samples))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--save-dir", help="also write each result JSON here (compare.py input)")
    args = ap.parse_args()
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        log("hopsbench: build failed")
        return 2
    out_dir = os.path.join(bdir, "results")
    os.makedirs(out_dir, exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        result = measure(exe, out_dir, w, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        try:
            metrics = select(result, wanted)
        except ValueError as e:
            log("hopsbench: %s: %s" % (w, e))
            return 1
        summarize(result, metrics)
        if args.save_dir:
            os.makedirs(args.save_dir, exist_ok=True)
            name = "%s-seed%d%s.json" % (w, args.seed, "-trace" if args.trace else "")
            with open(os.path.join(args.save_dir, name), "w") as f:
                json.dump(result, f)
        final["correct"] = final["correct"] and result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        if len(workloads) == 1:
            final["metrics"] = metrics
        else:
            print(json.dumps(dict(workload=w, correct=result["correct"],
                                  attempted=result["attempted"], failed=result["failed"],
                                  metrics=metrics)), flush=True)
            for name, m in metrics.items():
                final["metrics"]["%s.%s" % (w, name)] = m
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
