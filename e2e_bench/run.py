#!/usr/bin/env python3
"""Builds and runs the x100ir end-to-end benchmark.

    python3 e2e_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2e_bench/run.py --self-test

The engine is compiled from the checkout's src/ tree into the build
directory ($CARGO_TARGET_DIR, default .bench_build) on first use. The last
line of standard output is one JSON object with the keys "correct",
"attempted", "failed" and "metrics"; the metrics are BENCHMARK.json's
end_to_end set with --trace 0 and its per_layer set with --trace 1. Exit
status: 0 ok, 1 a correctness check failed (or the output did not match
BENCHMARK.json), 2 usage or build error, 3 the run was invalid (not
reported).

--self-test runs every workload briefly at tiny scale, checks that every
named metric prints with its unit, and shows that each correctness check
can fail: a corrupted oracle row (or ingest bookkeeping fact) must make
the run exit non-zero with the matching MISMATCH line.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["hot_ranked", "cold_storage", "ingest_mixed", "dist_scatter"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_id():
    """The checkout's git SHA, else a content hash of the engine sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "bench", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def build():
    """Configures and builds the benchmark binary; returns its path."""
    if not os.path.exists(os.path.join(ROOT, "src", "core", "database.h")) or \
            not os.path.exists(os.path.join(ROOT, "bench", "bench_util.h")):
        log("e2e_bench: engine sources (src/, bench/bench_util.h) not found "
            "next to " + HERE)
        sys.exit(2)
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "e2e_bench")
    binary = os.path.join(build_dir, "e2e_bench")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in ([] if os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
                else [configure]) + [["cmake", "--build", build_dir, "-j", jobs]]:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("e2e_bench: build step failed: " + " ".join(cmd))
            sys.exit(2)
    return binary


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def run_binary(binary, workload, seed, seconds, trace, extra=(), env=None):
    """Runs one measurement; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--data-dir", os.path.join(ROOT, ".bench_data"),
           "--git-sha", source_id()] + list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        log("e2e_bench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 2, []
    return proc.returncode, proc.stdout.splitlines()


def select_metrics(result, wanted):
    """Checks that every wanted metric is present with its unit; returns
    the result restricted to exactly those metrics, or None."""
    metrics = result.get("metrics", {})
    out = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            log("e2e_bench: metric %s missing or not in %s: %r"
                % (m["name"], m["unit"], got))
            return None
        out[m["name"]] = got
    return dict(result, metrics=out)


def measure(args):
    binary = build()
    code, lines = run_binary(binary, args.workload, args.seed, args.seconds,
                             args.trace)
    for line in lines[:-1]:
        print(line)
    if code not in (0, 1) or not lines:
        if lines:
            print(lines[-1])
        return code if code != 0 else 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        log("e2e_bench: the last output line is not a JSON result")
        return 1
    spec = load_spec()
    if spec is not None:
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        result = select_metrics(result, wanted)
        if result is None:
            return 1
    print(json.dumps(result), flush=True)
    return code


def self_test():
    binary = build()
    spec = load_spec()
    env = dict(os.environ, X100IR_BENCH_SCALE="tiny")
    failures = []

    def check(cond, what):
        log(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            failures.append(what)

    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_binary(binary, workload, 1, 1, trace, env=env)
            try:
                result = json.loads(lines[-1])
            except (ValueError, IndexError):
                check(False, "%s trace=%d prints a JSON result" % (workload, trace))
                continue
            if spec is not None:
                wanted = spec["per_layer"] if trace else spec["end_to_end"]
                check(select_metrics(result, wanted) is not None,
                      "%s trace=%d prints every named metric with its unit"
                      % (workload, trace))
            mismatch = [l for l in lines if l.startswith("MISMATCH")]
            verdict = "%s trace=%d clean run correct=%s%s" % (
                workload, trace, result.get("correct"),
                (" (" + mismatch[0] + ")") if mismatch else "")
            check(code == 0 and result.get("correct") is True, verdict)

    faults = {
        "hot_ranked": [("oracle_row", "serial oracle")],
        "cold_storage": [("oracle_row", "serial oracle")],
        "dist_scatter": [("oracle_row", "single-engine oracle")],
        "ingest_mixed": [("deleted_visible", "violate the write order"),
                         ("live_count", "live documents"),
                         ("reopen_row", "after a reopen")],
    }
    for workload, injections in faults.items():
        for fault, needle in injections:
            code, lines = run_binary(binary, workload, 1, 1, 0,
                                     ["--inject-fault", fault], env=env)
            hit = any(l.startswith("MISMATCH") and needle in l for l in lines)
            check(code != 0 and hit,
                  "%s --inject-fault %s exits non-zero with '%s'"
                  % (workload, fault, needle))
    log("self-test: %d failure(s)" % len(failures))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed is None or args.seconds is None or \
            args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
