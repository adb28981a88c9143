#!/usr/bin/env python3
"""Build and run one workload of the ALF benchmark.

    python3 perfbench/run.py --workload compile|kernels|serve|runtime \
        --seed N --seconds S --trace 0|1

Run from the root of an ALF checkout. The first run configures and builds
perfbench/ (which builds the ALF libraries from ../src) into .bench_build/;
later runs only check the build is current. Build output goes to stderr.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see perfbench/README.md). The line before it records the
host the numbers come from.

Deterministic counts (contracted arrays, clusters, ASDG edges, storage,
vectorized nests, kernel compiles, cache misses, ...) are stored per
(binary, workload, seed, seconds) under .bench_build/perfbench/records/;
a later run of the same binary and inputs whose counts differ is reported
as not correct.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "Release"
WORKLOADS = ("compile", "kernels", "serve", "runtime")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"ALF sources not found: expected {ROOT}/src/CMakeLists.txt")
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"] + generator,
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "alf_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "alf_perfbench")


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.splitlines()[0] if out else "unavailable"


def host_fingerprint():
    """CPU model, cores, the SIMD flags -march=native sees, cc, build."""
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and model == "unknown":
                    model = value.strip()
                elif key.strip() == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    return {
        "cpu": model,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "avx2": "avx2" in flags,
        "avx512f": "avx512f" in flags,
        "cc": first_line(["cc", "--version"]),
        "build_type": BUILD_TYPE,
    }


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def check_counts(exe, args, counts):
    """Returns the counts that differ from an earlier run of the same
    binary, workload, seed and length (recording them if none exists)."""
    record = os.path.join(BUILD_DIR, "records", file_digest(exe),
                          f"{args.workload}-seed{args.seed}"
                          f"-s{args.seconds}.json")
    if not os.path.isfile(record):
        os.makedirs(os.path.dirname(record), exist_ok=True)
        with open(record, "w") as f:
            json.dump(counts, f, indent=1, sort_keys=True)
        return {}
    with open(record) as f:
        before = json.load(f)
    names = set(before) | set(counts)
    return {n: (before.get(n), counts.get(n)) for n in sorted(names)
            if before.get(n) != counts.get(n)}


def manifest_metrics(args, measured):
    """Returns the metrics BENCHMARK.json lists for this kind of run, in
    its order. Every workload measures every end-to-end metric. A per-layer
    metric of a layer the workload never calls is 0 (per-layer times are
    shares, so such a 0 is a share, not a time)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    key = "per_layer" if args.trace else "end_to_end"
    out = {}
    for m in manifest[key]:
        got = measured.get(m["name"])
        if got is None and key == "end_to_end":
            raise ValueError(f"{args.workload} did not report {m['name']}")
        if got is not None and got["unit"] != m["unit"]:
            raise ValueError(f"{m['name']} reported in {got['unit']}, "
                             f"not {m['unit']}")
        out[m["name"]] = got or {"value": 0, "unit": m["unit"]}
    extra = set(measured) - set(out)
    if extra:
        raise ValueError(f"metrics missing from BENCHMARK.json: "
                         f"{sorted(extra)}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    exe = build()
    work_dir = os.path.join(BUILD_DIR, "runs", str(os.getpid()))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--repo-root", ROOT, "--work-dir", work_dir]
    # Keep every file the run (and the cc it starts) writes inside it.
    tmp_dir = os.path.join(work_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir,
               ALF_JIT_CACHE_DIR=os.path.join(work_dir, "kernel-cache"))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{args.workload} exited with code {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    counts = result.pop("counts")
    for d in result.pop("diagnostics"):
        log(f"check failed: {d}")
    try:
        result["metrics"] = manifest_metrics(args, result["metrics"])
    except ValueError as e:
        log(str(e))
        return 1
    drift = check_counts(exe, args, counts)
    for name, (before, now) in drift.items():
        log(f"deterministic count {name} changed: {before} -> {now}")
    if drift:
        result["correct"] = False

    host = host_fingerprint()
    results_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump({"host": host, "args": vars(args), "counts": counts,
                   "result": result}, f, indent=1)
    print(json.dumps({"host": host}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
