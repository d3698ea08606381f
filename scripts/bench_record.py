#!/usr/bin/env python3
"""Runs one benchmark workload and appends its result to a trajectory file.

    python3 scripts/bench_record.py --workload dist-motif --seed 1 --trace 0 \\
        [--seconds 10] [--label change] [--checkout DIR]

Run from the repository root. It runs `python3 perfbench/run.py` with the
given arguments inside the checkout (by default this repository; pass
another checkout, e.g. of the parent commit, to measure it with its own
code), and appends one row to BENCH_<workload>.json in this repository:
the checkout's git SHA, whether its tree had uncommitted changes, a digest
of the sources the benchmark compiles, the label, workload, seed, trace
flag, the command, the correct/attempted/failed counts and the metrics.
A run that fails appends nothing and exits non-zero.
"""
import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys

SOURCES = ("src/main/scala/**/*.scala", "perfbench/src/**/*.scala", "perfbench/*.py")


def git(checkout, *args):
    return subprocess.run(["git", "-C", checkout] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def source_digest(checkout):
    digest = hashlib.sha256()
    for pattern in SOURCES:
        for path in sorted(glob.glob(os.path.join(checkout, pattern), recursive=True)):
            digest.update(os.path.relpath(path, checkout).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def append_row(path, row):
    rows = []
    if os.path.exists(path):
        with open(path) as f:
            rows = json.load(f)
    rows.append(row)
    with open(path, "w") as f:
        f.write("[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n]\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--label", default="", help="free text, e.g. parent or change")
    p.add_argument("--checkout", default=".", help="the checkout whose code is measured")
    args = p.parse_args()

    checkout = os.path.abspath(args.checkout)
    command = ["python3", "perfbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    proc = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"[bench_record] run failed with exit code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    row = {
        "sha": git(checkout, "rev-parse", "HEAD"),
        "dirty": git(checkout, "status", "--porcelain", "--untracked-files=no") != "",
        "source_digest": source_digest(checkout),
        "label": args.label,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "command": " ".join(command),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }
    append_row(os.path.join(os.getcwd(), f"BENCH_{args.workload}.json"), row)
    print(json.dumps(row, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
