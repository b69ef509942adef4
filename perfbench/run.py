#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark package (`perfbench/`) is
built from source with cargo in release mode, without the `profile`
feature for `--trace 0` and with it for `--trace 1`, each into its own
directory under `$CARGO_TARGET_DIR` (default `.bench_build`). The binary
then runs the workload; its standard output ends with one JSON object
`{"correct", "attempted", "failed", "metrics"}`. Row files (and, for a
traced run, a Chrome trace) are written under `perfbench/out/`.

Provenance the binary cannot see for itself is passed in the
environment: the git commit and dirty flag where the tree is a git
checkout ("unknown" otherwise) and a SHA-256 over the source files.

Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SOURCE_GLOBS = ["Cargo.toml", "Cargo.lock", "src/**/*.rs", "crates/**/*.rs", "crates/**/Cargo.toml",
                "perfbench/Cargo.toml", "perfbench/Cargo.lock", "perfbench/build.rs",
                "perfbench/src/**/*.rs"]


def git(*args):
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256():
    h = hashlib.sha256()
    files = sorted({p for g in SOURCE_GLOBS for p in ROOT.glob(g) if p.is_file()})
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def build(traced):
    base = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    target = base / ("perfbench-traced" if traced else "perfbench")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml"), "--target-dir", str(target)]
    if traced:
        cmd += ["--features", "profile"]
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return target / "release" / "dsh-perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--out", default=str(HERE / "out"), help="directory for row and trace files")
    args = ap.parse_args()

    exe = build(args.trace == "1")
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if commit else None
    env = dict(os.environ)
    env["PERFBENCH_COMMIT"] = commit or "unknown"
    env["PERFBENCH_DIRTY"] = "unknown" if status is None else str(bool(status)).lower()
    env["PERFBENCH_SOURCE_SHA256"] = source_sha256()

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--out", args.out]
    run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: benchmark exited with {run.returncode}", file=sys.stderr)
        return run.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("perfbench: the benchmark's last line is not a result object", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
