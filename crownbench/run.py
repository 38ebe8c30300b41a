#!/usr/bin/env python3
"""Build the benchmark if its sources changed, then run one workload.

    python3 crownbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build is sbt (offline) in this directory;
it compiles the benchmark together with the repository's main sources and
writes the runtime classpath to target/classpath.txt. A stamp of the source
hashes makes later runs skip sbt. The workload then runs in FORKS fresh JVMs
one after another, each with a fixed heap and one garbage collector and a
share of --seconds; each metric of the JSON result, printed last, is the
median over the forks. See README.md.
"""
import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TARGET = HERE / "target"
JVM_FLAGS = ["-Xms1g", "-Xmx1g", "-XX:+UseParallelGC"]
# JIT outcomes and the machine's speed differ from one JVM to the next by more
# than the passes within one JVM do, so a run is the median of several JVMs.
FORKS = 3
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def sources():
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for base in (HERE / "src" / "main", ROOT / "src" / "main"):
        files += sorted(base.rglob("*.scala"))
    return files


def source_hash():
    h = hashlib.sha256()
    for f in sources():
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def build():
    """Return the runtime classpath, compiling first if any source changed."""
    stamp = TARGET / "build.stamp"
    classpath = TARGET / "classpath.txt"
    digest = source_hash()
    if classpath.is_file() and stamp.is_file() and stamp.read_text() == digest:
        return classpath.read_text().strip()
    env = dict(os.environ)
    opts = env.get("SBT_OPTS", "")
    # Resolve offline from the repositories sbt is configured with, and keep
    # sbt's global state (plugins, compiler bridge, server) in target/.
    for flag in ("-Dsbt.override.build.repos=true", "-Dsbt.offline=true",
                 f"-Dsbt.global.base={TARGET / 'sbt-global'}", "-Dsbt.server.autostart=false"):
        if flag.split("=")[0] not in opts:
            opts += " " + flag
    env["SBT_OPTS"] = opts.strip()
    env.setdefault("COURSIER_MODE", "offline")
    # sbt's output goes to stderr: standard output carries only the result.
    subprocess.run(["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"],
                   cwd=HERE, env=env, stdout=sys.stderr, check=True,
                   timeout=BUILD_TIMEOUT_S)
    stamp.write_text(digest)
    return classpath.read_text().strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()
    # On SIGTERM, unwind through subprocess.run, which then kills the running JVM.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "main" / "scala" / "repro" / "core" / "CrownEngine.scala").is_file():
        print("crownbench: the repository's sources (src/main/scala) are missing", file=sys.stderr)
        return 2
    try:
        cp = build()
    except (subprocess.SubprocessError, OSError) as e:
        print(f"crownbench: build failed: {e}", file=sys.stderr)
        return 2
    tmp = TARGET / "tmp"  # DuckDB unpacks its native library here
    tmp.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    for fork in range(FORKS):
        cmd = ["java", *JVM_FLAGS, f"-Djava.io.tmpdir={tmp}", "-cp", cp, "crownbench.Main",
               "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(math.ceil(a.seconds / FORKS)), "--trace", a.trace,
               "--out", str(TARGET / f"fork{fork}")]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"crownbench: the run took longer than {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 3
        lines = proc.stdout.splitlines()
        print(f"--- fork {fork + 1} of {FORKS}")
        print("\n".join(lines[:-1]), flush=True)
        try:
            results.append(json.loads(lines[-1]))
        except (IndexError, ValueError):
            print(f"crownbench: fork {fork + 1} printed no result (exit code {proc.returncode})",
                  file=sys.stderr)
            return proc.returncode or 1
    print(json.dumps(combine(results)))
    return 0 if all(r["correct"] for r in results) else 1


def combine(results):
    """One result from the forks' results: each metric is the median over the
    forks, or null where the workload has no such samples (a fork prints null)."""
    names = results[0]["metrics"]

    def median(n):
        values = [r["metrics"][n]["value"] for r in results]
        return None if None in values else statistics.median(values)

    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {n: {"value": median(n), "unit": names[n]["unit"]} for n in names},
    }


if __name__ == "__main__":
    sys.exit(main())
