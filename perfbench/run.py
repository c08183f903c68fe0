#!/usr/bin/env python3
"""Run one MATE benchmark measurement.

    python3 perfbench/run.py --workload <wt-web|od-wide> [--seed <n>] \
        --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run compiles the
program (src/main/scala) together with the benchmark driver with sbt,
offline; later runs reuse the build while the sources are unchanged.
The driver's last stdout line is the JSON result. Everything the run
writes stays under perfbench/target and perfbench/out.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
TARGET = os.path.join(BENCH, "target")
OUT = os.path.join(BENCH, "out")
CLASSPATH = os.path.join(TARGET, "classpath.txt")
STAMP = os.path.join(TARGET, "build.stamp")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175

# Spark on Java 17 needs these packages opened to it.
JAVA_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
    "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def sources_digest():
    """Digest of every file the build reads, so a changed source rebuilds."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(BENCH, "src"),
             os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    for r in roots:
        paths = [r] if os.path.isfile(r) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(r) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run_child(cmd, cwd, timeout, env=None, stdout=None):
    """Run `cmd` in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None, None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build():
    digest = sources_digest()
    if os.path.exists(CLASSPATH) and os.path.exists(STAMP):
        with open(STAMP) as f:
            if f.read().strip() == digest:
                return
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    sbt_opts = env.get("SBT_OPTS", "")
    if "-Dsbt.offline" not in sbt_opts:
        env["SBT_OPTS"] = (sbt_opts + " -Dsbt.offline=true").strip()
    t0 = time.time()
    code, _ = run_child(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
         "compile", "writeClasspath"],
        cwd=BENCH, timeout=BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        fail("build failed" if code is not None else "build timed out", 3)
    with open(STAMP, "w") as f:
        f.write(digest + "\n")
    print(f"perfbench: built in {time.time() - t0:.0f} s", file=sys.stderr)


def main():
    # SIGTERM unwinds through run_child, which kills the child's process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, help="default: the workload's preset seed")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    a = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        fail(f"program sources not found under {ROOT}/src/main/scala; run from a source checkout", 2)
    build()

    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    with open(CLASSPATH) as f:
        cp = f.read().strip()
    # The parallel collector has no concurrent phases, so the timed calls do
    # not share the cores with GC threads; with G1 the dataflow medians of
    # one seed spread several times wider between runs. The generation
    # sizes are fixed: when the collector resized them from run to run,
    # the sequential medians of five seeds spread twice as wide.
    cmd = ["java", "-Xms3g", "-Xmx3g", "-Xmn1g", "-XX:+UseParallelGC", "-XX:-UseAdaptiveSizePolicy",
           f"-Djava.io.tmpdir={os.path.join(OUT, 'tmp')}", "-XX:+IgnoreUnrecognizedVMOptions"]
    cmd += [f"--add-opens={p}=ALL-UNNAMED" for p in JAVA_OPENS]
    cmd += ["-cp", cp, "repro.perfbench.Main",
            "--workload", a.workload, "--seconds", str(a.seconds), "--trace", a.trace, "--out", OUT]
    if a.seed is not None:
        cmd += ["--seed", str(a.seed)]
    code, out = run_child(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    if code is None:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
