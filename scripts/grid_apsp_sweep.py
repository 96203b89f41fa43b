#!/usr/bin/env python3
"""Time `dapsp_cli apsp` (Algorithm 1) on grids of growing size.

Usage: grid_apsp_sweep.py --build-dir DIR --label NAME [--out FILE]
                          [--commit TEXT]

Runs `DIR/apps/dapsp_cli apsp --gen grid --n N --seed 2` three times for
each N in 256, 512 and 1024 (the sizes ROADMAP.md tracks) and records, per
size, the median wall and user CPU time, the message count the CLI
reports, user CPU per message, and a SHA-256 of the CLI's stdout (two
builds that print the same digest answered byte-identically).
Each run's record also carries nproc, the CPU model, the compiler and the
CMake build type of DIR.

The record is stored under `runs[NAME]` in FILE (default
BENCH_grid_apsp_sweep.json); other labels already in FILE are kept, so a
before/after pair is two invocations with different labels against two
build trees.  User CPU is read from getrusage(RUSAGE_CHILDREN), so it
includes every engine worker thread.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time

SIZES = (256, 512, 1024)
SEED = 2
REPS = 3


def cmake_cache(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def compiler_version(build_dir):
    cxx = cmake_cache(build_dir, "CMAKE_CXX_COMPILER") or "c++"
    try:
        out = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True, check=True).stdout
        return out.splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        return cxx


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run_once(cli, n, seed):
    cmd = [cli, "apsp", "--gen", "grid", "--n", str(n), "--seed", str(seed)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, check=True)
    wall = time.monotonic() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = proc.stdout.decode()
    m = re.search(r"^messages: (\d+)", out, re.M)
    r = re.search(r"^rounds: (\d+)", out, re.M)
    if not m or not r:
        sys.exit("unexpected dapsp_cli output for n=%d" % n)
    return {
        "wall_s": wall,
        "user_s": after.ru_utime - before.ru_utime,
        "sys_s": after.ru_stime - before.ru_stime,
        "messages": int(m.group(1)),
        "rounds": int(r.group(1)),
        "output_sha256": hashlib.sha256(proc.stdout).hexdigest(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--out", default="BENCH_grid_apsp_sweep.json")
    ap.add_argument("--commit", default="")
    args = ap.parse_args()

    cli = os.path.join(args.build_dir, "apps", "dapsp_cli")
    results = []
    for n in SIZES:
        samples = [run_once(cli, n, SEED) for _ in range(REPS)]
        digests = {s["output_sha256"] for s in samples}
        if len(digests) != 1:
            sys.exit("n=%d: output differs between repetitions" % n)
        wall = statistics.median(s["wall_s"] for s in samples)
        user = statistics.median(s["user_s"] for s in samples)
        msgs = samples[0]["messages"]
        row = {
            "n": n,
            "wall_s": round(wall, 3),
            "user_s": round(user, 3),
            "sys_s": round(statistics.median(s["sys_s"] for s in samples), 3),
            "messages": msgs,
            "rounds": samples[0]["rounds"],
            "user_ns_per_msg": round(user * 1e9 / msgs, 1) if msgs else None,
            "wall_s_samples": [round(s["wall_s"], 3) for s in samples],
            "user_s_samples": [round(s["user_s"], 3) for s in samples],
            "output_sha256": samples[0]["output_sha256"],
        }
        results.append(row)
        print("n=%d wall %.3f s user %.3f s messages %d (%.0f ns/msg)" %
              (n, wall, user, msgs, row["user_ns_per_msg"] or 0))

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    doc["command"] = "dapsp_cli apsp --gen grid --n N --seed %d" % SEED
    doc.setdefault("runs", {})[args.label] = {
        "commit": args.commit,
        "reps": REPS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "compiler": compiler_version(args.build_dir),
        "build_type": cmake_cache(args.build_dir, "CMAKE_BUILD_TYPE"),
        "results": results,
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
