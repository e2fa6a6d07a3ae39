#!/usr/bin/env python3
"""Runs one CHL benchmark workload and prints its metrics.

    python3 chlbench/run.py --workload road-build --seed 1 --seconds 30 --trace 0

Builds the program and the benchmark with sbt (offline) into
.bench_build/chlbench on first use, or whenever a source file changed, then
runs the workload in one JVM. The last line of stdout is the JSON result.
Everything written goes under .bench_build/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_build", "chlbench")
CLASSPATH = os.path.join(OUT, "classpath.txt")
STAMP = os.path.join(OUT, "stamp.txt")

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
WORKLOADS = ("road-build", "sf-dist")

# Module opens Spark needs on JDK 17 (the program's build passes the same).
JVM_OPTS = [
    "-Xms2g",
    "-Xmx2g",
    "-Dspark.driver.host=127.0.0.1",
    "-Djdk.reflect.useDirectMethodHandleAccessor=false",
] + [
    f"--add-opens={p}=ALL-UNNAMED"
    for p in (
        "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
        "java.base/java.io", "java.base/java.net", "java.base/java.nio",
        "java.base/java.util", "java.base/java.util.concurrent",
        "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
        "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
        "java.base/sun.util.calendar", "java.security.jgss/sun.security.krb5",
    )
]


def fail(msg, code=2):
    print(f"chlbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_stamp():
    """Hash of every file the build reads: the program's and the benchmark's."""
    h = hashlib.sha256()
    roots = ["build.sbt", "project", "src/main", "jobs",
             "chlbench/build.sbt", "chlbench/project", "chlbench/src"]
    skip = {"target", "project/project", ".bsp"}
    for r in roots:
        top = os.path.join(ROOT, r)
        paths = [top] if os.path.isfile(top) else []
        for d, dirs, files in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x not in skip and not (x == "project" and d.endswith("project")))
            paths += [os.path.join(d, f) for f in sorted(files)]
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def run(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the group on timeout."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(f"{cmd[0]} did not finish within {timeout} s", 124)
    return p.returncode, out


def build():
    stamp = source_stamp()
    if os.path.exists(CLASSPATH) and os.path.exists(STAMP):
        with open(STAMP) as f:
            if f.read() == stamp:
                return
    env = dict(os.environ, COURSIER_MODE="offline")
    sbt_opts = env.get("SBT_OPTS", "") + " -Dsbt.offline=true"
    repos = os.path.expanduser("~/.sbt/repositories")
    if os.path.exists(repos):
        sbt_opts += f" -Dsbt.override.build.repos=true -Dsbt.repository.config={repos}"
    env["SBT_OPTS"] = sbt_opts.strip()
    started = time.time()
    rc, _ = run(["sbt", "--batch", "-Dsbt.log.noformat=true", f"-Dchlbench.classpath={CLASSPATH}",
                 "compile", "writeClasspath"],
                BUILD_TIMEOUT_S, cwd=BENCH, env=env, stdout=sys.stderr)
    if rc != 0 or not os.path.exists(CLASSPATH):
        fail(f"build failed (sbt exit {rc})", 3)
    with open(STAMP, "w") as f:
        f.write(stamp)
    print(f"chlbench: built in {time.time() - started:.0f} s", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    for need in ("build.sbt", "src/main/scala"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"program source {need} not found next to {os.path.basename(BENCH)}/")
    for tool in ("sbt", "java"):
        if not any(os.access(os.path.join(d, tool), os.X_OK) for d in os.environ.get("PATH", "").split(os.pathsep)):
            fail(f"{tool} not found on PATH")

    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    build()
    with open(CLASSPATH) as f:
        cp = f.read().strip()

    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(OUT, "spark-local"), SPARK_LOCAL_IP="127.0.0.1")
    cmd = ["java", *JVM_OPTS, f"-Djava.io.tmpdir={os.path.join(OUT, 'tmp')}", "-cp", cp, "chlbench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--out", OUT]
    rc, out = run(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        sys.stderr.write(out)
        fail(f"benchmark JVM exited with {rc}", rc or 1)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(out)
        fail("last line is not a result", 1)
    sys.stdout.write(out if out.endswith("\n") else out + "\n")


if __name__ == "__main__":
    main()
