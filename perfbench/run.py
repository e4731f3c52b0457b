#!/usr/bin/env python3
"""Build and run the cosmos pipeline benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper-kernels --seed 0 \\
        --seconds 20 --trace 0

The first run configures and builds perfbench/ (the cosmos libraries
from src/ plus the benchmark program, Release, in-program tracing off)
into $CARGO_TARGET_DIR (default .bench_build). The program's stdout is
checked against BENCHMARK.json -- the last line must carry exactly the
listed end-to-end (--trace 0) or per-layer (--trace 1) metrics with
their units -- and then passed through.

--self-check runs replay-grid with one golden counter planted wrong and
succeeds only if the gate counts that cell as failed without crashing.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Time the program may take beyond --seconds: three set-ups with their
# warm-up units and the untimed checks after the measurement.
SETUP_ALLOWANCE_S = 150


def source_id():
    """Git SHA of the checkout, else a digest of src/ and perfbench/."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build(build_dir, jobs):
    """Configure and build the benchmark program; returns its path."""
    r = subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        sys.exit("perfbench: configure failed")
    r = subprocess.run(["cmake", "--build", build_dir, "-j", str(jobs),
                        "--target", "cosmos_perfbench"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(build_dir, "cosmos_perfbench")


def expected_metrics(trace):
    """{name: unit} BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_program(binary, argv, timeout):
    """Run the benchmark program; returns (stdout lines, stderr text)."""
    proc = subprocess.Popen([binary] + argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit("perfbench: benchmark program timed out")
    sys.stderr.write(err)
    if proc.returncode != 0:
        sys.exit("perfbench: benchmark program exited with %d"
                 % proc.returncode)
    lines = out.splitlines()
    if not lines:
        sys.exit("perfbench: benchmark program printed nothing")
    return lines, err


def check_result(line, trace):
    """The result line must list exactly BENCHMARK.json's metrics."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: bad result keys %s" % sorted(result))
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        sys.exit("perfbench: metrics differ from BENCHMARK.json: missing "
                 "%s, extra %s, unit mismatch %s" % (missing, extra, wrong))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    jobs = max(1, min(4, os.cpu_count() or 1))
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
        "perfbench")
    # Compiler and benchmark temporaries stay inside the checkout too.
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    os.environ["TMPDIR"] = work_dir
    binary = build(build_dir, jobs)

    workload = "replay-grid" if args.self_check else args.workload
    seconds = 1 if args.self_check else args.seconds
    argv = ["--workload", workload, "--seed", str(args.seed),
            "--seconds", str(seconds),
            "--trace", str(args.trace), "--work-dir", work_dir,
            "--git-sha", source_id(),
            "--spans-out", os.path.join(
                work_dir, "spans-%s-%d.json" % (workload, args.seed))]
    if args.self_check:
        argv.append("--plant-wrong-golden")
    try:
        lines, err = run_program(binary, argv, seconds + SETUP_ALLOWANCE_S)
    finally:
        for name in os.listdir(work_dir):
            if name.endswith(".trace"):
                os.remove(os.path.join(work_dir, name))
    result = check_result(lines[-1], args.trace)

    if args.self_check:
        drift = [l for l in err.splitlines() if l.startswith("GOLDEN DRIFT")]
        planted = all(l.startswith("GOLDEN DRIFT appbt depth=1 filter=0:")
                      for l in drift)
        if result["correct"] or result["failed"] == 0 or not drift or \
                not planted or len(drift) != result["failed"]:
            sys.exit("self-check FAILED: planted golden drift was not "
                     "counted exactly (failed=%d, drift lines=%d)"
                     % (result["failed"], len(drift)))
        print("self-check ok: planted golden drift counted as %d failed "
              "of %d ops" % (result["failed"], result["attempted"]))
        return

    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
