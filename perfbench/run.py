#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result.

    python3 perfbench/run.py --workload seq-shallow --seed 1 --seconds 10 --trace 0 [--smoke]

Run from the repository root. The program and the benchmark are compiled
first if needed (see build.py); the workload then runs in a fresh JVM with
fixed settings, so compilation is outside every measured number. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. A traced run also writes its spans to
.bench_build/perfbench/work/trace-<workload>-seed<seed>.jsonl. --smoke runs
the workload on a small graph, with every check, in under a minute. For
seq-deep, --nodes and --rmax replace the graph size and r_max (the README's
baseline table is made this way).
"""
import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no cache files beside the sources
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ("seq-shallow", "seq-deep", "seq-l1", "dist-motif")
RESULT_PREFIX = "PERFBENCH_RESULT "
JVM_TIMEOUT_S = 170

# Spark's launcher passes these itself; a plain JVM on JDK 17 needs them too.
SPARK_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def jvm_options(root, work_dir, workload):
    tmp = os.path.join(work_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Spark's driver code compiled by C2 ran at a speed that differed from
    # JVM to JVM; with C1 only, dist-motif's medians spread about half as
    # much between runs (README, "Fixed settings").
    jit = ["-XX:TieredStopAtLevel=1"] if workload == "dist-motif" else []
    return jit + [
        # fixed heap and collector, so memory and GC figures compare across runs
        "-Xms1g", "-Xmx1g", "-XX:+UseG1GC", "-XX:G1HeapRegionSize=2m", "-XX:+AlwaysPreTouch",
        "-XX:-UsePerfData",
        f"-Djava.io.tmpdir={tmp}",
        "-Dlog4j2.configurationFile=" + os.path.join(root, "perfbench", "log4j2.properties"),
    ] + [f"--add-opens={p}=ALL-UNNAMED" for p in SPARK_OPENS]


def declared_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true")
    # seq-deep only: the graph size and r_max of the README's baseline table
    p.add_argument("--nodes", type=int)
    p.add_argument("--rmax", type=float)
    args = p.parse_args()

    root = os.getcwd()
    try:
        classpath = build.ensure_built(root)
    except (build.BuildError, OSError, subprocess.TimeoutExpired) as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        return 2

    work_dir = os.path.join(root, build.BUILD_DIR, "work")
    cmd = [build.java()] + jvm_options(root, work_dir, args.workload) + [
        "-cp", classpath, "perfbench.Main",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", work_dir,
    ] + (["--smoke"] if args.smoke else [])
    cmd += ["--nodes", str(args.nodes)] if args.nodes else []
    cmd += ["--rmax", repr(args.rmax)] if args.rmax else []
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(work_dir, "spark-local"))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"[perfbench] workload did not finish within {JVM_TIMEOUT_S} s", file=sys.stderr)
        return 3

    result = None
    for line in out.splitlines():
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        print(f"[perfbench] workload exited with {proc.returncode} and no result", file=sys.stderr)
        return 1
    expected = declared_metrics(root, args.trace == 1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        print(f"[perfbench] metrics differ from BENCHMARK.json: printed {sorted(got.items())}, "
              f"declared {sorted(expected.items())}", file=sys.stderr)
        return 4
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
