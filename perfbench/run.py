#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the repository root. The benchmark package (perfbench/CMakeLists.txt)
is configured and built into $CARGO_TARGET_DIR, or .bench_build when that is
unset. The last line of standard output is one JSON object: the operation
counts and, with --trace 0, every end-to-end metric of BENCHMARK.json, with
--trace 1 every per-layer metric. Everything before it is detail for people.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table1-ilp", "saturate-greedy", "service-mix")
RUN_TIMEOUT_S = 170  # one run must end within 180 s
# Per-layer metrics (or name prefixes) of layers a workload never calls.
# They are absent from its traced output and read 0.
NOT_CALLED = {
    "table1-ilp": ("extract.greedy_s", "serialize.", "service.", "metrics."),
    "saturate-greedy": ("serialize.", "service.", "metrics."),
    "service-mix": ("extract.greedy_s",),
}


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Configures (once) and builds the benchmark; returns the binary's path."""
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def provenance():
    """Stamped at run time: a configure-time sha would name an older commit."""
    sha, dirty = "unknown", None
    try:
        if os.path.realpath(git("rev-parse", "--show-toplevel")) == os.path.realpath(ROOT):
            sha = git("rev-parse", "--short", "HEAD")
            dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    build_type = "unknown"
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    return {"git_sha": sha, "dirty": dirty, "source_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count(), "build_type": build_type}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_binary(binary, workload, seed, seconds, trace, tiny=False):
    """Runs one workload; returns (detail lines, parsed result line)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise RuntimeError(f"{workload} exited with {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def select_metrics(workload, result, trace, benchmark):
    """The metrics of the requested set, in BENCHMARK.json's order and units.

    A per-layer metric of a layer the workload never calls (NOT_CALLED)
    reads 0. Any other missing metric, a metric the binary emits that
    BENCHMARK.json does not list, or one with another unit, is an error.
    """
    listed = benchmark["per_layer" if trace else "end_to_end"]
    emitted = result["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    for name, metric in emitted.items():
        if units.get(name) != metric["unit"]:
            raise RuntimeError(f"metric {name} [{metric['unit']}] is not in BENCHMARK.json")
        if not math.isfinite(metric["value"]):
            raise RuntimeError(f"metric {name} is not finite")
    out = {}
    for m in listed:
        if m["name"] in emitted:
            out[m["name"]] = emitted[m["name"]]
        elif trace and m["name"].startswith(NOT_CALLED[workload]):
            out[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            raise RuntimeError(f"metric {m['name']} missing")
    return out


def run(args):
    benchmark = spec()
    binary = build()
    print("provenance " + json.dumps(provenance()))
    detail, result = run_binary(binary, args.workload, args.seed, args.seconds, args.trace)
    for line in detail:
        print(line)
    metrics = select_metrics(args.workload, result, args.trace, benchmark)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def self_check():
    """Tiny-scale run of every workload in both modes: every listed metric
    is emitted with its unit by each workload that calls its layer, and
    every check passes."""
    benchmark = spec()
    binary = build()
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            _, result = run_binary(binary, workload, 1, 1, trace, tiny=True)
            try:
                select_metrics(workload, result, trace, benchmark)
            except RuntimeError as e:
                problems.append(f"{workload} trace={int(trace)}: {e}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{workload} trace={int(trace)}: checks failed")
    for p in problems:
        print("self-check: " + p)
    print("self-check " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            parser.error("--workload is required")
        run(args)
    except (OSError, RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
