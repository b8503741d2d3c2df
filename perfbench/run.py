#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call builds the program and the
harness with sbt (perfbench/build.sbt) and writes the JVM launch line to
perfbench/target/launch.txt; later calls reuse it until a source file is
newer. Each run is one fresh JVM (see perfbench/README.md); its last line
of standard output, the JSON result, is the last line printed here. Digests and times that runs leave for later runs
are kept per source tree, under perfbench/.run/state/<hash of the sources>.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCH = HERE / "target" / "launch.txt"
RUN_DIR = HERE / ".run"
HEAP = "4g"
BUILD_TIMEOUT_S = 840
LAUNCH_TIMEOUT_S = 170

# Files whose change requires a rebuild, relative to the repository root.
SOURCES = ["build.sbt", "project", "src/main", "jobs", "perfbench/build.sbt",
           "perfbench/project", "perfbench/src/main"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_files():
    """Every file under SOURCES, build output left out, in a fixed order."""
    for rel in SOURCES:
        p = ROOT / rel
        files = [p] if p.is_file() else sorted(p.rglob("*")) if p.is_dir() else []
        for f in files:
            if f.is_file() and "target" not in f.relative_to(ROOT).parts:
                yield f


def newest_source_mtime():
    return max((f.stat().st_mtime for f in source_files()), default=0.0)


def source_hash():
    """Hash of the sources' paths and contents: one value per source tree."""
    h = hashlib.sha256()
    for f in source_files():
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def build():
    if LAUNCH.exists() and LAUNCH.stat().st_mtime >= newest_source_mtime():
        return
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.offline=true -Dsbt.override.build.repos=true")
    log = HERE / "target" / "build.log"
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "w") as out:
        try:
            rc = subprocess.run(["sbt", "--batch", "-Dsbt.log.noformat=true", "perfbench/launchFile"],
                                cwd=HERE, env=env, stdout=out, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            rc = -1
    if rc != 0 or not LAUNCH.exists():
        sys.stderr.write(log.read_text()[-4000:])
        fail(f"build failed (log: {log})")


def launch(args):
    opts, classpath = LAUNCH.read_text().split("\n")[:2]
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=RUN_DIR))
    cmd = (["java", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={tmp}", f"-Dspark.local.dir={tmp}"]
           + [o for o in opts.split("\0") if o]
           + ["-cp", classpath, "repro.perfbench.Main",
              "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--state", str(RUN_DIR / "state" / source_hash())])
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    try:
        out, _ = proc.communicate(timeout=LAUNCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {LAUNCH_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}")
    json.loads(lines[-1])  # the result line must parse
    print("\n".join(lines))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args()

    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"no program sources under {ROOT}: run from a checkout of the repository")
    if shutil.which("sbt") is None or shutil.which("java") is None:
        fail("sbt and java must be on PATH")
    build()
    launch(args)


if __name__ == "__main__":
    main()
