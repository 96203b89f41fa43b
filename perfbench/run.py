#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload grid-apsp|rmat-serve|grid-paths \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), always as a Release build.

--trace 0 runs the workload once, untraced, and reports the end-to-end
metrics.  --trace 1 runs it untraced and then traced (spans recorded in
memory and written to one JSON document), checks that the document parses
and its span tree is well formed, derives the per-layer metrics from it, and
reports trace.overhead_frac from the difference between the two runs.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it records the machine, build and per-run details.  The exit
code is nonzero when any answer was wrong or anything failed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("grid-apsp", "rmat-serve", "grid-paths")
CHILD_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                fail(f"cmake configure failed:\n{tail(log_path)}")
        cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
               "-j", jobs]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            fail(f"build failed:\n{tail(log_path)}")
    return build_dir, os.path.join(build_dir, "perfbench")


def tail(path, lines=30):
    with open(path, errors="replace") as f:
        return "".join(f.readlines()[-lines:])


def run_child(binary, args, trace_out=None):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {CHILD_TIMEOUT_S} s", 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with {proc.returncode}", 1)
    return json.loads(lines[-1])


# ------------------------------------------------------------------ traces

def load_trace(path):
    """Parses the span document and checks the tree: every span ends after it
    starts, and lies inside its parent, which was opened before it."""
    with open(path) as f:
        doc = json.load(f)
    names = doc["names"]
    spans = doc["spans"]
    for i, (name, start, end, parent, _op, items) in enumerate(spans):
        if not (0 <= name < len(names)) or end < start or items < 1:
            raise ValueError(f"span {i} is malformed")
        if parent != -1:
            p = spans[parent]
            if not (0 <= parent < i and p[1] <= start and end <= p[2]):
                raise ValueError(f"span {i} is not inside its parent")
    for span, _value in ((c[1], c[2]) for c in doc["counters"]):
        if not -1 <= span < len(spans):
            raise ValueError("counter refers to a missing span")
    return doc


def per_layer(doc):
    names = doc["names"]
    durs, items = {}, {}
    for name, start, end, _parent, _op, n in doc["spans"]:
        durs.setdefault(names[name], []).append((end - start) * 1e-9)
        items.setdefault(names[name], []).append(n)
    ctrs = {}
    for name, _span, value in doc["counters"]:
        ctrs.setdefault(names[name], []).append(value)

    def med(xs):
        return statistics.median(xs) if xs else 0.0

    def dur_s(name):
        return med(durs.get(name, []))

    def per_item_ns(name):
        return med([d * 1e9 / n for d, n in zip(durs.get(name, []),
                                                 items.get(name, []))])

    def ctr(name):
        return med(ctrs.get(name, []))

    def ratio_of(num, den):
        return num / den if den else 0.0

    def ratio(num, den):
        return ratio_of(ctr(num), ctr(den))

    sweep = durs.get("seq.sweep", [])
    arcs = ctrs.get("seq.arcs_x_sources", [])
    m = {
        "core.solve_s": dur_s("core.solve"),
        "congest.ns_per_msg": ratio_of(dur_s("core.solve") * 1e9,
                                       ctr("congest.messages")),
        "congest.send_s": ctr("congest.send_s"),
        "congest.receive_s": ctr("congest.receive_s"),
        "congest.deliver_s": ctr("congest.deliver_s"),
    }
    for name in ("congest.rounds", "congest.messages", "congest.skipped_rounds",
                 "congest.message_bytes", "congest.max_link_congestion",
                 "core.max_list_size", "core.max_entries_per_source",
                 "core.late_fires", "core.settle_round", "core.round_bound"):
        m[name] = ctr(name)
    m.update({
        "service.flatten_s": dur_s("service.flatten"),
        "seq.sweep_s": dur_s("seq.sweep"),
        "seq.mteps": med([a / d / 1e6 for d, a in zip(sweep, arcs) if d]),
        "service.nexthop_fill_s": dur_s("service.nexthop_fill"),
        "service.publish_us": dur_s("service.publish") * 1e6,
        "service.closure_mb": ctr("service.closure_mb"),
        "service.parse_ns": per_item_ns("probe.parse"),
        "service.pin_ns": per_item_ns("probe.pin"),
        "service.render_ns": per_item_ns("probe.render"),
        "service.raw_read_ns": per_item_ns("probe.raw_read"),
        "service.dist_ns": per_item_ns("probe.dist"),
        "service.next_ns": per_item_ns("probe.next"),
        "service.path_ns": per_item_ns("probe.path"),
    })
    m["service.overhead_ns"] = (m["service.dist_ns"] - m["service.raw_read_ns"]
                                if "probe.dist" in durs else 0.0)
    m.update({
        "service.path_walk_ns": per_item_ns("probe.path_walk"),
        "service.path_p50_us": dur_s("service.query.path") * 1e6,
        "service.path_cache_hit_rate": ratio("service.path_cache_hits",
                                             "service.path_cache_probes"),
        "query.kpath_p50_us": dur_s("service.query.kpath") * 1e6,
        "query.route_p50_us": dur_s("service.query.route") * 1e6,
        "query.spur_search_us": dur_s("query.constrained_route") * 1e6,
        "query.analytics_cache_hit_rate": ratio("query.analytics_cache_hits",
                                                "query.analytics_cache_probes"),
        "serve.rebuild_s": dur_s("serve.rebuild_now"),
        "service.swap_us": ctr("service.swap_p50_ns") / 1e3,
    })
    return m


def overhead(workload, untraced, traced):
    """Share by which tracing slowed the workload's main timed phase: the
    builds on grid-apsp, the query loop elsewhere."""
    u, t = untraced["metrics"], traced["metrics"]
    if workload == "grid-apsp":
        return t["build_s"] / u["build_s"] - 1.0
    return u["qps"] / t["qps"] - 1.0


# ------------------------------------------------------------------ main

def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    build_dir, binary = build()
    untraced = run_child(binary, args)
    runs = [untraced]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir,
                                  f"{args.workload}-{args.seed}.json")
        traced = run_child(binary, args, trace_path)
        runs.append(traced)
        try:
            doc = load_trace(trace_path)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
            fail(f"trace document {trace_path} is invalid: {e}", 1)
        values = per_layer(doc)
        values["trace.overhead_frac"] = overhead(args.workload, untraced,
                                                 traced)
        wanted = spec["per_layer"]
    else:
        values = untraced["metrics"]
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"no value for {', '.join(missing)}", 1)

    correct = all(r["correct"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "meta": dict(untraced["meta"], git_sha=git_sha()),
        "runs": runs,
    }
    if args.trace:
        record["trace_document"] = os.path.relpath(trace_path, ROOT)
        record["trace_spans"] = len(doc["spans"])
    print(json.dumps(record))
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    for r in runs:
        for err in r["info"]["errors"]:
            print(f"perfbench: {r['workload']}: {err}", file=sys.stderr)
    sys.exit(0 if correct and failed == 0 else 1)


if __name__ == "__main__":
    main()
