#!/usr/bin/env python3
"""Builds and runs perfbench, the wall-clock benchmark of turbdb.

Run from the root of a turbdb source tree:

  python3 perfbench/run.py --workload cold_eval --seed 1 --seconds 24 --trace 0
  python3 perfbench/run.py --smoke

The first run configures and builds perfbench and turbdb_node into
.bench_build/ (RelWithDebInfo); later runs configure again, to stamp the
tree's current git SHA, and rebuild only what changed. Spans of traced runs
and the nodes' port files go to .bench_run/.

The benchmark's own report (provenance, guards, per-class latencies, the
per-layer table) precedes the result; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"} holding every metric
BENCHMARK.json names for the mode (end_to_end with --trace 0, per_layer
with --trace 1). The run fails, without a result line, when the build
fails, the benchmark crashes or overruns, a metric is missing, or a
process it started is still alive after it exits.

--smoke runs every workload on a 32^3 grid for about a second, traced and
untraced, and exits 0 only when no op failed and every metric named in
BENCHMARK.json was printed with its unit.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
PACKAGE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# Each run must end within 180 s; leave room for the checks after it.
RUN_TIMEOUT_S = 170

_child = None


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def git_sha():
    """Short SHA of the source tree's HEAD; "unknown" outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def build():
    """Configures, stamping the current git SHA, then brings perfbench and
    turbdb_node up to date."""
    configured = os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt"))
    generator = ["-G", "Ninja"] if shutil.which("ninja") and not configured \
        else []
    subprocess.run(
        ["cmake", "-S", PACKAGE, "-B", BUILD_DIR, *generator,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
         "-DPERFBENCH_GIT_SHA=" + git_sha()],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "turbdb_node",
         "--parallel", "4"],
        stdout=sys.stderr, check=True)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}, spec["workloads"]


def stop_child(sig):
    """Signals the benchmark's process group and reaps the benchmark."""
    if _child is None or _child.poll() is not None:
        return
    try:
        os.killpg(_child.pid, sig)
    except ProcessLookupError:
        return
    try:
        _child.wait(timeout=10)
    except subprocess.TimeoutExpired:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()


def on_signal(signum, _frame):
    stop_child(signal.SIGTERM)
    sys.exit(128 + signum)


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False


def run_benchmark(args_list):
    """Runs the benchmark in its own process group; returns (code, stdout)."""
    global _child
    _child = subprocess.Popen(
        [BINARY, *args_list],
        stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = _child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_child(signal.SIGKILL)
        log("benchmark overran %d s" % RUN_TIMEOUT_S)
        return 1, ""
    code = _child.returncode
    if group_alive(_child.pid):
        os.killpg(_child.pid, signal.SIGKILL)
        sys.stderr.write(out)
        log("a process the benchmark started outlived it (killed)")
        return 1, ""
    return code, out


def check_result(line, metrics):
    """Returns an error message, or None when the result line is complete."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    got = result["metrics"]
    for name, unit in metrics.items():
        if name not in got:
            return "metric %s missing" % name
        if got[name].get("unit") != unit:
            return "metric %s has unit %s, not %s" % (
                name, got[name].get("unit"), unit)
    extra = set(got) - set(metrics)
    if extra:
        return "unexpected metrics %s" % sorted(extra)
    return None


def run_once(workload, seed, seconds, trace, smoke=False):
    """One benchmark run; returns (exit code, report lines, result dict)."""
    metrics, _ = expected_metrics(trace)
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace)]
    if smoke:
        args.append("--smoke")
    code, out = run_benchmark(args)
    lines = out.rstrip("\n").split("\n") if out else []
    if not lines:
        log("benchmark printed no result (exit %d)" % code)
        return 1, lines, None
    error = check_result(lines[-1], metrics)
    if error:
        log("bad result: " + error)
        return 1, lines, None
    result = json.loads(lines[-1])
    if code != 0 or not result["correct"] or result["failed"]:
        log("benchmark reported failures (exit %d)" % code)
        return code or 1, lines, result
    return 0, lines, result


def smoke():
    _, workloads = expected_metrics(0)
    failures = []
    for workload in [w["name"] for w in workloads]:
        for trace in (0, 1):
            code, lines, result = run_once(workload, 1, 1, trace, smoke=True)
            for line in lines[:-1]:
                print(line, file=sys.stderr)
            status = "ok" if code == 0 else "FAILED"
            attempted = result["attempted"] if result else 0
            log("smoke %s trace=%d: %s (%d ops)" % (workload, trace, status,
                                                   attempted))
            if code != 0:
                failures.append("%s/trace=%d" % (workload, trace))
    print(json.dumps({"smoke": "ok" if not failures else "failed",
                      "failures": failures}))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")

    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        log("build failed: %s" % error)
        return 1
    if args.smoke:
        return smoke()
    code, lines, result = run_once(args.workload, args.seed, args.seconds,
                                   args.trace)
    if result is None:
        for line in lines:
            print(line, file=sys.stderr)
        return code or 1
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
