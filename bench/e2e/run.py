#!/usr/bin/env python3
"""End-to-end verdict benchmark: build vp_e2e from source, run one workload.

    python3 bench/e2e/run.py --workload fleet_fanout --seed 1 --seconds 10 --trace 0
    python3 bench/e2e/run.py --self-test

Run from the repository root.  The first run configures and builds the
benchmark (and the product libraries it drives) under
$CARGO_TARGET_DIR/e2e, default .bench_build/e2e; later runs only re-check
the build.  The last line of standard output is the JSON result of
vp_e2e; build output goes to standard error.  The traced run (--trace 1)
also writes its ledger JSON and Chrome trace under <build dir>/ledger.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("wire_uplink", "fleet_fanout", "backlog_replay")


def build_dir() -> Path:
    root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (root / "e2e").resolve()


def build() -> Path:
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", "vp_e2e"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SystemExit(f"run.py: build failed: {' '.join(cmd)}")
    return out / "vp_e2e"


def self_test(binary: Path) -> int:
    """The correctness gate must trip on a perturbed oracle entry, and a
    clean run on the same seed must pass."""
    failures = 0
    for workload in WORKLOADS:
        for perturb in (True, False):
            cmd = [str(binary), "--workload", workload, "--seed", "7", "--seconds", "1"]
            if perturb:
                cmd.append("--perturb-oracle")
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            want_code, want_correct = (3, "false") if perturb else (0, "true")
            ok = proc.returncode == want_code and f'"correct": {want_correct}' in last
            print(f"{'ok  ' if ok else 'FAIL'} {workload} perturb={perturb} "
                  f"exit={proc.returncode}")
            failures += 0 if ok else 1
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and (args.workload is None or args.seed is None):
        ap.error("--workload and --seed are required")

    binary = build()
    if args.self_test:
        return self_test(binary)
    ledger = binary.parent / "ledger"
    ledger.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(ledger)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
