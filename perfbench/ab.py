#!/usr/bin/env python3
"""Same-host A/B of two commits on the repository benchmark.

    python3 perfbench/ab.py [--base REV] [--pairs N]

Builds REV (default: HEAD^, the parent) in a `git worktree` outside the
repository (removed again at the end), with this tree's `perfbench/` and
`BENCHMARK.json` copied in so both sides run identical benchmark code,
and compares it against the current working tree. The worktree and both
builds live in a temporary directory (`$TMPDIR` picks where). Runs are
interleaved in pairs, alternating which side goes first; pair i runs
both sides of every listed workload on seed i + 1, for the run length
`BENCHMARK.json` sets.

For every workload x end-to-end metric it prints each side's median and
quartiles, the change's win fraction (ties count for neither side), and
a verdict:
  unresolved  the base's own spread (IQR / median) exceeds the metric's
              bound, unless every change run beat every base run;
  regression  the change's median is worse than the base's by more than
              the bound;
  gain        the change won >= 90% of pairs and the medians differ by
              more than the base's spread;
  same        otherwise.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def sh(*cmd, cwd=ROOT):
    return subprocess.run(cmd, cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def run_side(root, target, workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--out", str(target / "out")],
        cwd=root, capture_output=True, text=True,
        env={**os.environ, "CARGO_TARGET_DIR": str(target)})
    if out.returncode != 0:
        raise RuntimeError(f"{root}: {workload} seed {seed} failed:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{root}: {workload} seed {seed}: a correctness check failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def verdict(metric, base, head):
    better_low = metric["better"] == "lower"
    bound = metric["bound"]
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    wins = sum((h < b) if better_low else (h > b) for b, h in zip(base, head))
    losses = sum((h > b) if better_low else (h < b) for b, h in zip(base, head))
    win_frac = wins / len(base)
    spread = (b3 - b1) / bm if bm else 0.0
    change = (hm - bm) / bm if bm else 0.0
    worse = change if better_low else -change
    all_better = (max(head) < min(base)) if better_low else (min(head) > max(base))
    if spread > bound and not all_better:
        v = "unresolved"
    elif worse > bound:
        v = "regression"
    elif win_frac >= 0.9 and abs(change) > spread:
        v = "gain"
    else:
        v = "same"
    return {"base_median": bm, "base_q1": b1, "base_q3": b3, "head_median": hm,
            "head_q1": h1, "head_q3": h3, "win_frac": win_frac,
            "losses": losses, "change": change, "base_spread": spread, "verdict": v}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD^", help="commit to compare against (default HEAD^)")
    ap.add_argument("--pairs", type=int, default=10, help="interleaved pairs (at least 10)")
    args = ap.parse_args()
    if args.pairs < 10:
        ap.error("--pairs must be at least 10")
    workloads = [w["name"] for w in spec["workloads"]]

    base_rev = sh("git", "rev-parse", args.base)
    work = Path(tempfile.mkdtemp(prefix="dsh-ab-"))
    tree = work / "base"
    sh("git", "worktree", "add", "--detach", str(tree), base_rev)
    try:
        shutil.rmtree(tree / "perfbench", ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", tree / "perfbench",
                        ignore=shutil.ignore_patterns("out", "target"))
        shutil.copy2(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
        sides = {"base": (tree, work / "build-base"), "head": (ROOT, work / "build-head")}
        print(f"base {base_rev[:12]} vs head (working tree at {sh('git', 'rev-parse', 'HEAD')[:12]})",
              file=sys.stderr)
        # One untimed run per side builds it and warms the page cache.
        for name, (root, target) in sides.items():
            run_side(root, target, workloads[0], 1, 0)

        samples = {w: {"base": [], "head": []} for w in workloads}
        for i in range(args.pairs):
            order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
            for w in workloads:
                for side in order:
                    root, target = sides[side]
                    samples[w][side].append(
                        run_side(root, target, w, i + 1, spec["run_seconds"]))
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

        print(f"{'workload':14} {'metric':22} {'base med [q1,q3]':>32} {'head med [q1,q3]':>32} "
              f"{'change':>8} {'wins':>5} verdict")
        for w in workloads:
            for m in spec["end_to_end"]:
                base = [s[m["name"]] for s in samples[w]["base"]]
                head = [s[m["name"]] for s in samples[w]["head"]]
                r = verdict(m, base, head)
                print(f"{w:14} {m['name']:22} "
                      f"{r['base_median']:>12.6g} [{r['base_q1']:.4g},{r['base_q3']:.4g}] "
                      f"{r['head_median']:>12.6g} [{r['head_q1']:.4g},{r['head_q3']:.4g}] "
                      f"{r['change']:>+8.2%} {r['win_frac']:>5.2f} {r['verdict']}")
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(tree)], cwd=ROOT,
                       capture_output=True)
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
