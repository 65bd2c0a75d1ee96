#!/usr/bin/env python3
"""Runs one workload of the serving benchmark and prints its metrics.

    python3 perfbench/run.py --workload edge_int8 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run builds the repository and the
benchmark (perfbench/CMakeLists.txt) into .bench_build/ and trains the
models once (perfbench_prepare); later runs reuse both. perfbench_driver
then serves the workload and writes its measurements;
this script checks them, prints every metric with its unit and sample
count, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. perfbench/README.md describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER_TIMEOUT_S = 170
# End-to-end metrics every untraced run prints but BENCHMARK.json does not
# gate. On a shared 4-vCPU host their spread over ten runs reached 0.31 to
# 0.92 of their median, above the largest bound a gated metric may
# have (README.md, "Measured spread").
REPORTED_ONLY = {"light.p99_ms": "ms", "heavy.p99_ms": "ms", "appeal.p50_ms": "ms",
                 "appeal.p99_ms": "ms", "max_rate_rps": "1/s", "edge_cpu_ms_per_req": "ms",
                 "cloud_cpu_ms_per_req": "ms"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark; returns False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4"])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                with open(build_log) as f:
                    log(f.read()[-3000:])
                return False
    return True


def build_info():
    """Build type, flags and compiler from the CMake cache, plus the source
    revision: the git sha when the checkout is a repository, otherwise a
    hash of the sources."""
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and not line.startswith(("#", "//")):
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":")[0]] = value
    info = {
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "cxx_flags": (cache.get("CMAKE_CXX_FLAGS", "") + " " +
                      cache.get("CMAKE_CXX_FLAGS_" + cache.get("CMAKE_BUILD_TYPE", "").upper(), "")).strip(),
        "appeal_native": cache.get("APPEAL_NATIVE", ""),
        "compiler": cache.get("CMAKE_CXX_COMPILER", ""),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    if sha.returncode == 0:
        info["git_sha"] = sha.stdout.strip()
    else:
        digest = hashlib.sha1()
        for top in ("src", "tools", "perfbench", "CMakeLists.txt"):
            path = os.path.join(ROOT, top)
            files = [path] if os.path.isfile(path) else sorted(
                os.path.join(d, n) for d, _, names in os.walk(path) for n in names)
            for name in files:
                digest.update(os.path.relpath(name, ROOT).encode())
                with open(name, "rb") as f:
                    digest.update(f.read())
        info["source_sha1"] = digest.hexdigest()
    return info


def check_names(metrics, expected, reported_only):
    """Emitted metric names and units must equal BENCHMARK.json's list plus
    the `reported_only` ones (a dict of name to unit)."""
    problems = []
    emitted = {m["name"]: m["unit"] for m in metrics}
    wanted = dict(reported_only)
    wanted.update((spec["name"], spec["unit"]) for spec in expected)
    for name, unit in wanted.items():
        if name not in emitted:
            problems.append("missing metric " + name)
        elif emitted[name] != unit:
            problems.append("unit of %s is %s, expected %s" % (name, emitted[name], unit))
    problems += ["unlisted metric " + n for n in emitted if n not in wanted]
    return problems


def result_line(correct, attempted, failed, metrics, expected):
    """The final line: every expected metric, in BENCHMARK.json's order."""
    by_name = {m["name"]: m for m in metrics}
    out = {}
    for spec in expected:
        m = by_name.get(spec["name"])
        if m is not None:
            out[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": out})


def driver_args(workload, cfg, seed, seconds, trace, untrained_edge):
    args = [os.path.join(BUILD, "perfbench_driver"),
            "--workload=" + workload, "--seed=%d" % seed, "--seconds=%g" % seconds,
            "--trace=%d" % trace, "--out=result.json",
            "--cache=" + os.path.join(BUILD, "models"),
            "--stub=" + os.path.join(BUILD, "appeal", "cloud_stub")]
    for key, value in cfg.items():
        if isinstance(value, list):
            value = ",".join("%g" % v for v in value)
        args.append("--%s=%s" % (key, value))
    if untrained_edge:
        args.append("--untrained_edge=1")
    return args


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--untrained-edge", action="store_true",
                        help="serve a random-init edge network (shows the "
                             "accuracy floor check failing)")
    opts = parser.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    workloads = load_json(os.path.join(HERE, "workloads.json"))
    if opts.workload not in workloads:
        log("unknown workload %r (have %s)" % (opts.workload, ", ".join(workloads)))
        return 2
    expected = bench["per_layer"] if opts.trace else bench["end_to_end"]

    if not build():
        log("build failed; see .bench_build/build.log")
        return 1
    prepare = subprocess.run([os.path.join(BUILD, "perfbench_prepare"),
                              "--cache=" + os.path.join(BUILD, "models")],
                             stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if prepare.returncode != 0:
        log(prepare.stdout[-3000:])
        return 1

    workdir = os.path.join(BUILD, "run-%s-%d" % (opts.workload, opts.trace))
    os.makedirs(workdir, exist_ok=True)
    for name in os.listdir(workdir):
        os.remove(os.path.join(workdir, name))
    cmd = driver_args(opts.workload, workloads[opts.workload], opts.seed, opts.seconds,
                      opts.trace, opts.untrained_edge)
    try:
        proc = subprocess.run(cmd, cwd=workdir, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench_driver timed out after %d s" % DRIVER_TIMEOUT_S)
        return 1
    if proc.returncode != 0:
        log("perfbench_driver failed with code %d" % proc.returncode)
        return 1
    result = load_json(os.path.join(workdir, "result.json"))

    checks = list(result["checks"])
    if opts.trace:
        report = subprocess.run([os.path.join(BUILD, "appeal", "trace_report"),
                                 os.path.join(workdir, result["trace_path"])],
                                capture_output=True, text=True)
        checks.append({"name": "trace_stages_reconcile", "pass": report.returncode == 0,
                       "detail": (report.stdout.strip().splitlines() or [""])[-1]})
    problems = check_names(result["metrics"], expected, {} if opts.trace else REPORTED_ONLY)
    checks.append({"name": "metric_names_and_units", "pass": not problems,
                   "detail": "; ".join(problems) or "match BENCHMARK.json"})
    # A p99 that lands on a request which never answered OK is unbounded;
    # it is reported as the deadline the request was given.
    for m in result["metrics"]:
        if m["value"] is None or not math.isfinite(m["value"]):
            m["value"] = result["deadline_ms"]

    info = build_info()
    print("workload %s seed %d trace %d: delta %.6f, %d held-out inputs, %d rounds "
          "(%d blocks measured again after host steal), set-ups %s s"
          % (result["workload"], result["seed"], opts.trace, result["delta"],
             result["inputs"], result["rounds"], result["redone_blocks"],
             ", ".join("%.4f" % s for s in result["setup_s"])))
    print("build: " + json.dumps(info, sort_keys=True))
    for block in result["blocks"]:
        print("block %-7s p50 %7.3f ms, p99 %8.3f ms over %d, host steal %.3f" % (
            block["name"], block["p50_ms"], block["p99_ms"] or float("inf"), block["samples"],
            block["steal_frac"]))
    for rung in result["ladder"]:
        print("rung %8.1f rps: p99 %9.3f ms over %6d, ok %.4f, backlog %d -> %d, %s"
              % (rung["rate"], rung["p99_ms"] or float("inf"), rung["samples"],
                 rung["ok_frac"], rung["backlog_mid"], rung["backlog_end"],
                 "pass" if rung["pass"] else "fail"))
    for m in result["metrics"]:
        print("%-30s %14.6f %-8s samples %d%s" % (m["name"], m["value"], m["unit"], m["samples"],
                                                  ", not gated" if m["name"] in REPORTED_ONLY else ""))
    for c in checks:
        print("check %-32s %s  %s" % (c["name"], "PASS" if c["pass"] else "FAIL", c["detail"]))

    attempted = result["attempted"]
    failed = attempted - result["answered_ok"]
    print(result_line(all(c["pass"] for c in checks), attempted, failed,
                      result["metrics"], expected))
    return 0


if __name__ == "__main__":
    sys.exit(main())
