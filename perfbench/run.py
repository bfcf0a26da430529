#!/usr/bin/env python3
"""The repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload movie_lit --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --selftest

A run builds the measuring program (perfbench/CMakeLists.txt, from the
library sources in src/) under $CARGO_TARGET_DIR (default .bench_build),
generates the workload's inputs from --seed, measures for about --seconds,
checks the outputs, and prints as its last stdout line one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Lines before it name the
host, the input digest and the output digest. The exit code is 0 only when
every output check passed.

--selftest runs every workload at a tiny size, checks that each prints
exactly the metrics BENCHMARK.json names with their units, that outputs and
inputs are reproducible from the seed, and that the output checkers catch a
corrupted frame and a wrong epoch echo.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("movie_lit", "movie_io", "steer_fleet")
RUN_LIMIT_S = 175.0   # a run must end within 180 s once the program is built
BUILD_LIMIT_S = 850.0  # the first run of a checkout also builds
ROOT = os.getcwd()


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure and build perfbench; returns the binary's path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources (src/CMakeLists.txt) not found under " + ROOT)
        return None
    bdir = os.path.join(target_dir(), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", "4"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_LIMIT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build failed: %s" % e)
            return None
        if proc.returncode != 0:
            log("build failed: %s exited %d" % (" ".join(cmd), proc.returncode))
            return None
    binary = os.path.join(bdir, "perfbench")
    return binary if os.path.isfile(binary) else None


def tree_digest(paths):
    """SHA-256 over the relative names and bytes of every file under paths."""
    h = hashlib.sha256()
    for base in paths:
        files = []
        for d, _, names in os.walk(base):
            files.extend(os.path.join(d, n) for n in names)
        for f in sorted(files):
            h.update(os.path.relpath(f, base).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    """HEAD of the checkout, only if the checkout itself is a git work tree."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "none (not a git checkout)"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() if head.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def host_identity(binary):
    ver = json.loads(subprocess.run([binary, "version"], capture_output=True,
                                    text=True, check=True, timeout=30).stdout)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": ver["compiler"],
        "build_type": ver["build_type"],
        "git_commit": git_commit(),
        "source_digest": tree_digest([os.path.join(ROOT, "src"),
                                      os.path.join(ROOT, "perfbench")]),
    }


def generate(binary, workload, seed, out, tiny=False):
    cmd = [binary, "gen", "--workload", workload, "--seed", str(seed), "--out", out]
    if tiny:
        cmd.append("--tiny")
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                   timeout=120)
    # Write the inputs back now, so the kernel's writeback of them does not
    # run during the measurement.
    for d, _, names in os.walk(out):
        for n in names:
            fd = os.open(os.path.join(d, n), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
    return tree_digest([out])


def measure(binary, workload, inputs, seconds, trace, deadline, tiny=False):
    """Runs the measuring program; returns (exit code, stdout lines)."""
    cmd = [binary, "run", "--workload", workload, "--inputs", inputs,
           "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def work_dir(tag):
    d = os.path.join(target_dir(), "work", "%s-%d" % (tag, os.getpid()))
    shutil.rmtree(d, ignore_errors=True)
    return d


def run_benchmark(args, binary, deadline):
    host = host_identity(binary)
    wdir = work_dir(args.workload)
    try:
        digest = generate(binary, args.workload, args.seed, wdir)
        code, lines = measure(binary, args.workload, wdir, args.seconds,
                              args.trace, deadline)
    finally:
        shutil.rmtree(wdir, ignore_errors=True)
    result = parse_result(lines)
    if result is None or code not in (0, 1):
        log("the measuring program failed (exit %d) without a result" % code)
        return 1
    print("host: " + json.dumps(host, sort_keys=True))
    print("workload: %s seed %d seconds %s trace %d" %
          (args.workload, args.seed, args.seconds, args.trace))
    print("input_digest: " + digest)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] and code == 0 else 1


def selftest(binary, deadline):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True

    def expect(cond, what):
        nonlocal ok
        print("selftest: %-64s %s" % (what, "ok" if cond else "FAILED"), flush=True)
        ok = ok and bool(cond)

    names = [w["name"] for w in spec["workloads"]]
    expect(sorted(names) == sorted(WORKLOADS), "BENCHMARK.json names the three workloads")

    scratch = work_dir("selftest")
    os.makedirs(scratch)
    try:
        proc = subprocess.run([binary, "selftest", "--scratch", scratch],
                              stdout=sys.stdout, stderr=sys.stderr, timeout=120)
        expect(proc.returncode == 0, "checkers catch a corrupted frame and a wrong epoch echo")
        for w in WORKLOADS:
            runs = {}
            for seed, trace in ((1, 0), (1, 1), (1, 0), (2, 0)):
                inputs = os.path.join(scratch, "%s-%d" % (w, seed))
                shutil.rmtree(inputs, ignore_errors=True)
                digest = generate(binary, w, seed, inputs, tiny=True)
                code, lines = measure(binary, w, inputs, 1, trace, deadline, tiny=True)
                result = parse_result(lines)
                out = [l for l in lines if l.startswith("output_digest: ")]
                runs.setdefault((seed, trace), []).append((digest, out))
                tag = "%s seed %d trace %d" % (w, seed, trace)
                expect(code == 0 and result is not None and result["correct"]
                       and result["failed"] == 0 and result["attempted"] > 0,
                       tag + ": output checks pass")
                if result is None:
                    continue
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                expect(got == want[trace], tag + ": every named metric, with its unit")
                if trace == 0:
                    expect(all(v["value"] > 0 for v in result["metrics"].values()),
                           tag + ": every end-to-end metric is nonzero")
            a, b = runs[(1, 0)]
            expect(a == b, "%s: same seed, same input and output digests" % w)
            expect(runs[(2, 0)][0][0] != a[0], "%s: another seed, other inputs" % w)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest: %s" % ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if binary is None:
        return 2
    # The build may take long on a fresh checkout; the run itself gets the
    # normal limit from here on.
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.selftest:
            return selftest(binary, deadline + 600)
        return run_benchmark(args, binary, deadline)
    except (OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log("failed: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
