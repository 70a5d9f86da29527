#!/usr/bin/env python3
"""End-to-end benchmark for the Viyojit reproduction.

Builds perfbench/ (which compiles the program from ../src) and runs one
workload:

    python3 perfbench/run.py --workload kv-a --seed 1 --seconds 10 --trace 0

With --trace 0 the result carries every end_to_end metric named in
BENCHMARK.json; with --trace 1 every per_layer metric (the binary then
runs under the LD_PRELOAD syscall interposer and writes its spans to
<build>/traces/).  Every metric row is printed as a JSON line stamped
with the source revision, host_cpus, seed and run length; the last line
of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

    python3 perfbench/run.py --self-test

runs every workload at a tiny size, traced and untraced, plus the
negative control (no last-gasp flush), and checks that every named
metric is printed with its unit and that the correctness checks fire.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; backing files live in a temporary directory there that
is removed on exit.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure once, then bring the binary and interposer up to date."""
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(bdir, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                      "perfbench_bin", "perfbench_syscount"])
        for cmd in steps:
            # Build chatter goes to stderr: stdout ends with the result.
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                raise BenchError("build failed: " + " ".join(cmd))


def source_revision():
    """git SHA when the tree is a git checkout, else a content hash."""
    try:
        git = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        # Only this tree's own repository, not one it happens to sit in.
        if git.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def run_binary(bdir, workload, seed, seconds, trace, extra):
    """Run perfbench_bin once; returns its parsed JSON line."""
    tmp = tempfile.mkdtemp(prefix="run-", dir=bdir)
    cmd = [os.path.join(bdir, "perfbench_bin"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--tmpdir", tmp] + extra
    env = dict(os.environ)
    if trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.jsonl" % (workload, seed))]
        env["LD_PRELOAD"] = os.path.join(bdir, "libperfbench_syscount.so")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=BINARY_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError("perfbench_bin exited with %d" % proc.returncode)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        raise BenchError("perfbench_bin printed nothing")
    return json.loads(lines[-1])


def measure(spec, workload, seed, seconds, trace, extra=()):
    """One benchmark run: the result object and the printed rows.

    Per-layer metrics a workload has no layer for (runtime.* on sim-a,
    core.* on kv-a, ...) read 0 and are listed as not applicable; every
    end-to-end metric must be measured.
    """
    names = {w["name"] for w in spec["workloads"]}
    if workload not in names:
        raise BenchError("unknown workload %r (have %s)"
                         % (workload, ", ".join(sorted(names))))
    bdir = build_dir()
    build(bdir)
    raw = run_binary(bdir, workload, seed, seconds, trace, list(extra))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = raw["metrics"]
    metrics, rows, not_applicable = {}, [], []
    provenance = {"workload": workload, "git_sha": source_revision(),
                  "host_cpus": os.cpu_count(), "seed": seed,
                  "seconds": seconds, "trace": int(trace),
                  "reps": raw["reps"], "traced_reps": raw["traced_reps"]}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        got = measured.get(name)
        if got is None:
            if not trace:
                raise BenchError("end-to-end metric %s was not measured"
                                 % name)
            not_applicable.append(name)
            got = {"value": 0, "unit": unit, "samples": 0}
        if got["unit"] != unit:
            raise BenchError("%s measured in %s, BENCHMARK.json says %s"
                             % (name, got["unit"], unit))
        metrics[name] = {"value": got["value"], "unit": unit}
        rows.append(dict(provenance, metric=name, value=got["value"],
                         unit=unit, samples=got["samples"]))
    result = {"correct": raw["failed"] == 0 and raw["attempted"] > 0,
              "attempted": raw["attempted"], "failed": raw["failed"],
              "metrics": metrics}
    return result, rows, not_applicable


def self_test(spec):
    """Tiny pass over every workload; returns the number of failures."""
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, file=sys.stderr)
        if not ok:
            failures.append(what)

    covered = set()
    for w in spec["workloads"]:
        name = w["name"]
        extra = ["--tiny"] + (["--check-harness"] if name == "sim-a" else [])
        for trace in (False, True):
            result, rows, na = measure(spec, name, 1, 1, trace, extra)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            check(result["correct"] and result["failed"] == 0,
                  "%s trace=%d: correctness checks pass (%d attempted)"
                  % (name, trace, result["attempted"]))
            check(all(m["name"] in result["metrics"] and
                      result["metrics"][m["name"]]["unit"] == m["unit"]
                      for m in wanted),
                  "%s trace=%d: every metric printed with its unit"
                  % (name, trace))
            check(len(rows) == len(wanted) and
                  all(r["git_sha"] and r["host_cpus"] for r in rows),
                  "%s trace=%d: every row carries provenance" % (name, trace))
            if not trace:
                check(all(v["value"] > 0 for v in result["metrics"].values()),
                      "%s: end-to-end metrics are nonzero" % name)
            else:
                covered |= {m["name"] for m in wanted} - set(na)
                calls = result["metrics"]["os.mprotect_calls"]["value"]
                check(calls == 0 if name == "sim-a" else calls > 0,
                      "%s: os.mprotect_calls = %d" % (name, calls))
        raw = run_binary(build_dir(), name, 1, 0.1, False,
                         ["--tiny", "--negative-control"])
        check(raw["failed"] > 0,
              "%s: negative control (no last-gasp flush) reports %d "
              "failed" % (name, raw["failed"]))
    missing = [m["name"] for m in spec["per_layer"]
               if m["name"] not in covered]
    check(not missing, "every per-layer metric is measured on some "
          "workload (missing: %s)" % ", ".join(missing))
    return len(failures)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    # Turn SIGTERM into an exception so child processes and the
    # temporary directory are cleaned up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        spec = load_spec()
        if args.self_test:
            return 1 if self_test(spec) else 0
        if not args.workload:
            parser.error("--workload is required")
        seconds = args.seconds or spec["run_seconds"]
        result, rows, na = measure(spec, args.workload, args.seed, seconds,
                                   bool(args.trace))
        for row in rows:
            print(json.dumps(row))
        if na:
            print(json.dumps({"not_applicable": na}))
        print(json.dumps(result))
        return 0
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
