#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
railgun library and the `railbench` binary (perfbench/CMakeLists.txt) in
$CARGO_TARGET_DIR (default .bench_build); later runs reuse the build. The
binary's data directory lives under the build directory and is removed
after the run.

The last line of stdout is one JSON object:
    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}, ...}}
holding the end-to-end metrics of BENCHMARK.json with --trace 0 and its
per-layer metrics with --trace 1. Build and progress output go to stderr.

`python3 perfbench/run.py --self-test` checks the reply oracle against
corrupted values and runs a short ingest to show a corrupted expected
value is counted as a failure.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One run must finish within 180 s; keep a margin for build checks and
# teardown.
RUN_TIMEOUT_S = 170


def fail(message):
    print(message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds the binary; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out_dir, "--target", "railbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(out_dir, "railbench")


def run_binary(argv, timeout):
    """Runs the binary in its own process group; returns its stdout."""
    env = dict(os.environ)
    # The engine's own tracer stays off: its spans are not part of the
    # measured system.
    for var in ("RAILGUN_TRACE", "RAILGUN_TRACE_SAMPLE",
                "RAILGUN_TRACE_SLOW_US"):
        env.pop(var, None)
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        fail("railbench exited with code %d" % proc.returncode)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "api", "client.h")):
        fail("railgun sources (src/) not found next to perfbench/")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    out_dir = build_dir()
    binary = build(out_dir)
    if args.self_test:
        run_binary([binary, "--self-test", "--dir",
                    os.path.join(out_dir, "data", "self-test")],
                   RUN_TIMEOUT_S)
        return

    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload: %s" % args.workload)
    data_dir = os.path.join(out_dir, "data",
                            "%s-%d" % (args.workload, os.getpid()))
    # The build (long only on the first run) is not part of the bound.
    out = run_binary([binary, "--workload", args.workload,
                      "--seed", str(args.seed),
                      "--seconds", repr(args.seconds),
                      "--trace", str(args.trace), "--dir", data_dir],
                     RUN_TIMEOUT_S)
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        fail("railbench printed no result")
    raw = json.loads(lines[-1])

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        value = raw["metrics"].get(m["name"])
        if value is None:
            fail("railbench did not report %s" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": raw["correct"] and raw["failed"] == 0,
                      "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
