#!/usr/bin/env python3
"""Build file of the benchmark.

Compiles the program's main sources (src/main/scala) together with the
benchmark's own sources (perfbench/src) into one class directory, with the
Scala compiler that ships in the Spark distribution, against the Spark jars.
It needs no sbt and no network. A build is kept under
.bench_build/perfbench/<digest of the sources> and reused until a source
changes.

Run from the repository root:  python3 perfbench/build.py
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
PROGRAM_SOURCES = os.path.join("src", "main", "scala")
BENCH_SOURCES = os.path.join("perfbench", "src")


class BuildError(Exception):
    pass


def spark_jars():
    """The jars directory of the Spark installation: $SPARK_HOME/jars, or
    the one beside spark-submit on the PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit is None:
            raise BuildError("Spark not found: set SPARK_HOME")
        home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars")
    if not os.path.isdir(jars):
        raise BuildError(f"no Spark jars directory at {jars}")
    return jars


def java():
    home = os.environ.get("JAVA_HOME")
    return os.path.join(home, "bin", "java") if home else "java"


def sources(root):
    found = []
    for top in (PROGRAM_SOURCES, BENCH_SOURCES):
        files = sorted(glob.glob(os.path.join(root, top, "**", "*.scala"), recursive=True))
        if not files:
            raise BuildError(f"no Scala sources under {top}: run from the repository root")
        found += files
    return found


def compiler_classpath(jars):
    parts = []
    for name in ("scala-compiler", "scala-library", "scala-reflect"):
        hits = sorted(glob.glob(os.path.join(jars, f"{name}-2.13.*.jar")))
        if not hits:
            raise BuildError(f"{name} 2.13 not found in {jars}")
        parts.append(hits[-1])
    return os.pathsep.join(parts)


def ensure_built(root):
    """Returns the run-time classpath, compiling first if no build of the
    current sources exists."""
    jars = spark_jars()
    files = sources(root)
    digest = hashlib.sha256()
    for path in files + [os.path.abspath(__file__)]:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    out = os.path.join(root, BUILD_DIR, digest.hexdigest()[:16])
    classes = os.path.join(out, "classes")
    runtime_cp = os.pathsep.join([classes, os.path.join(jars, "*")])
    if os.path.exists(os.path.join(out, "complete")):
        return runtime_cp
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(classes)
    cmd = [java(), "-Xss8m", "-Xmx2g", "-cp", compiler_classpath(jars),
           "scala.tools.nsc.Main", "-nowarn", "-usejavacp:false",
           "-classpath", os.path.join(jars, "*"), "-d", classes] + files
    print(f"[perfbench] compiling {len(files)} sources into {classes}", file=sys.stderr)
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=600)
    if done.returncode != 0:
        raise BuildError(f"compilation failed with exit code {done.returncode}")
    open(os.path.join(out, "complete"), "w").close()
    return runtime_cp


if __name__ == "__main__":
    try:
        print(ensure_built(os.getcwd()))
    except BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        sys.exit(2)
