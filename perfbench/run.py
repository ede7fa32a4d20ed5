#!/usr/bin/env python3
"""Benchmark entry point (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload fleet_mlp|fleet_dtw|stream \
        [--seed N] [--seconds S] [--trace 0|1] [--record results.jsonl]
    python3 perfbench/run.py --selftest

Builds the repository's libraries, the `atm` CLI and the benchmark driver
from source (Release) into $CARGO_TARGET_DIR (default .bench_build), makes
the workload's traces from the seed, runs the workload, checks its outputs,
and prints as its last line one JSON object with the keys correct,
attempted, failed and metrics. The exit code is non-zero when the sources
are missing, the build fails, or any correctness check fails.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The ROADMAP baseline seed, and a second seed kept out of all tuning so a
# later gain claim can be re-checked on inputs it was not tuned on.
DEFAULT_SEED = 20150403
HELD_OUT_SEED = 20160628

WORKLOADS = ("fleet_mlp", "fleet_dtw", "stream")
TARGETS = ("perfbench_driver", "perfbench_selftest", "atm")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out):
    """Configures once, then brings the three targets up to date."""
    log_path = os.path.join(out, "build.log")
    os.makedirs(out, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", *TARGETS])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: %s)" % log_path)


def source_digest():
    """sha256 over every file of src/, tools/ and perfbench/ (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_group(cmd, timeout):
    """Runs cmd in its own process group; on timeout the whole group (the
    driver and any daemon it started) is killed and reaped."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %d s" % (os.path.basename(cmd[0]), timeout))
    return proc.returncode, out


def validate(result, spec, traced):
    """The result object must carry exactly the metrics BENCHMARK.json names
    for this mode, with their units. Per-layer metrics of a layer the
    workload does not exercise are added as 0."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("driver result has keys %s" % sorted(result))
    wanted = spec["per_layer" if traced else "end_to_end"]
    metrics = result["metrics"]
    names = {m["name"] for m in wanted}
    extra = sorted(set(metrics) - names)
    if extra:
        fail("driver reported metrics BENCHMARK.json does not name: %s" % extra)
    for m in wanted:
        if m["name"] not in metrics:
            if not traced:
                fail("end-to-end metric %s missing" % m["name"])
            print("%-32s %16s %-6s %8s  layer not exercised by this workload"
                  % (m["name"], 0, m["unit"], 0))
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        got = metrics[m["name"]]
        if got["unit"] != m["unit"]:
            fail("%s: unit %s, BENCHMARK.json says %s" % (m["name"], got["unit"], m["unit"]))
        if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            fail("%s: value %r is not a finite number" % (m["name"], got["value"]))
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append {workload, seed, trace, result, stamp} here")
    parser.add_argument("--selftest", action="store_true",
                        help="test the benchmark's statistics and load generator")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    for needed in ("src/CMakeLists.txt", "tools/atm_cli.cpp"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("repository sources not found (%s); nothing to benchmark" % needed, 2)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    out = build_dir()
    build(out)
    driver = os.path.join(out, "perfbench_driver")
    atm = os.path.join(out, "atm_tools", "atm")
    work = os.path.join(out, "runs", "%s-%d-%d" % (args.workload or "selftest", args.seed,
                                                     os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if args.selftest:
            code, text = run_group([os.path.join(out, "perfbench_selftest"), "--atm", atm,
                                    "--dir", work], RUN_TIMEOUT_S)
            sys.stdout.write(text)
            sys.exit(code)

        code, _ = run_group([driver, "gen", "--workload", args.workload, "--seed",
                             str(args.seed), "--dir", work], 60)
        if code != 0:
            fail("trace generation failed")
        spans = os.path.join(out, "spans", "%s-%d.json" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        code, text = run_group([driver, "run", "--workload", args.workload, "--dir", work,
                                "--seconds", repr(seconds), "--trace", str(args.trace),
                                "--atm", atm, "--spans-out", spans, "--commit", commit(),
                                "--source-digest", source_digest()], RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = text.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("driver printed no result (exit %d)" % code)
    if code != 0 or not result.get("correct"):
        print(lines[-1])
        fail("correctness check failed (exit %d)" % code)
    validate(result, spec, args.trace == 1)
    if args.record:
        stamp = next((json.loads(l[len("stamp: "):]) for l in lines if l.startswith("stamp: ")),
                     {})
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "seconds": seconds, "result": result,
                                "stamp": stamp}) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
