#!/usr/bin/env python3
"""End-to-end simulator benchmark: builds perfbench/ from source and runs it.

Run from the repository root:

  python3 perfbench/run.py --workload auction_lan --seed 1 --seconds 55 --trace 0
  python3 perfbench/run.py --workload all [--trace 1]   # every workload, one table
  python3 perfbench/run.py --selftest                   # corrupted reference must fail rows
  python3 perfbench/run.py --write-reference            # regenerate reference.json

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Build output goes to stderr. The build tree
is $CARGO_TARGET_DIR (default .bench_build) under the current directory.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["auction_lan", "retry_lan", "crowd_1e5"]
# Seeds whose fingerprints reference.json pins (the default seed is 1).
REFERENCE_SEEDS = range(0, 11)
RUN_TIMEOUT_S = 170

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark; returns (binary, out_dir)."""
    root = Path.cwd()
    if not (root / "src" / "exp" / "experiment.hpp").is_file():
        fail(f"no simulator sources under {root / 'src'}; run from the repository root")
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = root / build_root
    bdir = build_root / "perfbench"
    cache = bdir / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" not in cache.read_text():
        shutil.rmtree(bdir)  # configured for another checkout
    if not cache.is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release", *gen]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", str(bdir)], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    out_dir = build_root / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    return bdir / "e2e_bench", out_dir


def run_one(binary, out_dir, workload, seed, seconds, trace, reference=REFERENCE, extra=()):
    """Runs one workload in its own process; returns (stdout lines, result)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--reference", str(reference), "--out-dir", str(out_dir),
           *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: malformed result line")
    return lines, result


def run_all(binary, out_dir, seed, seconds, trace):
    """Every workload in turn: one table, then one combined result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for w in WORKLOADS:
        _, r = run_one(binary, out_dir, w, seed, seconds, trace)
        merged["correct"] &= r["correct"]
        merged["attempted"] += r["attempted"]
        merged["failed"] += r["failed"]
        metrics = dict(r["metrics"])
        if not trace:
            metrics["failed_frac"] = {"value": r["failed"] / r["attempted"], "unit": "ratio"}
        for name, m in metrics.items():
            rows.append((w, name, m["value"], m["unit"]))
            merged["metrics"][f"{w}.{name}"] = m
    print(f"{'workload':<12} {'metric':<24} {'value':>16} unit")
    for w, name, value, unit in rows:
        print(f"{w:<12} {name:<24} {value:>16.6g} {unit}")
    print(json.dumps(merged))


def write_reference(binary, out_dir):
    empty = out_dir / "empty_reference.json"
    empty.write_text("{}\n")
    ref = {}
    for seed in REFERENCE_SEEDS:
        for w in WORKLOADS:
            lines, r = run_one(binary, out_dir, w, seed, 0, 0, reference=empty,
                               extra=["--print-fingerprints"])
            if not r["correct"]:
                fail(f"{w} seed {seed} fails its output checks; not writing a reference")
            fields = next(l for l in lines if l.startswith("fingerprints ")).split()[3:]
            ref.setdefault(str(seed), {})[w] = dict(f.split("=", 1) for f in fields)
            print(f"seed {seed} {w}: {len(fields)} rows", file=sys.stderr)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def selftest(binary, out_dir):
    """The output check must catch a wrong fingerprint: with every reference
    fingerprint corrupted, every row must fail; with the real one, none."""
    _, good = run_one(binary, out_dir, "auction_lan", 1, 0, 0)
    _, bad = run_one(binary, out_dir, "auction_lan", 1, 0, 0, extra=["--corrupt-reference"])
    ok = (good["correct"] and good["failed"] == 0 and not bad["correct"]
          and bad["failed"] == bad["attempted"] > 0)
    print(f"selftest: reference failed_frac={good['failed'] / good['attempted']:g}, "
          f"corrupted reference failed_frac={bad['failed'] / bad['attempted']:g}: "
          f"{'ok' if ok else 'FAILED'}")
    print(json.dumps({"correct": ok, "attempted": good["attempted"] + bad["attempted"],
                      "failed": good["failed"], "metrics": {}}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-reference", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.write_reference or args.selftest):
        ap.error("--workload, --write-reference or --selftest is required")

    binary, out_dir = build()
    if args.write_reference:
        write_reference(binary, out_dir)
        return 0
    if args.selftest:
        return selftest(binary, out_dir)
    if args.workload == "all":
        run_all(binary, out_dir, args.seed, args.seconds, args.trace)
        return 0
    lines, _ = run_one(binary, out_dir, args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
