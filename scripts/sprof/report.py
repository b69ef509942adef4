#!/usr/bin/env python3
"""Resolves sprof samples to source lines and aggregates them.

    python3 scripts/sprof/report.py PROFILE [--units N] [--per M] [--top K]
    python3 scripts/sprof/report.py --diff BASE HEAD [--units N N] [--per M] [--top K]

PROFILE is a file written by `sprof.so` (`$SPROF_OUT.<pid>`): the
process's /proc/self/maps, a `SAMPLES` line, then one hex program counter
per sample. Each sample is mapped to its object, rebased by that object's
load bias (the start of its offset-0 mapping, for position-independent
objects), and resolved with `addr2line -f -C -i`. A sample is charged to
the first in-repository `file:line` of its inline chain (innermost
first), so time spent in an inlined standard-library helper lands on the
repository line that called it. Samples with no repository frame are
charged to their object (`[libc.so.6]`) or, inside the program, to
`[std] <function>`.

`--units N --per M` scales counts to samples per M units of work (e.g.
the benchmark's `attempted` flow count, per 100000 flows), so runs of
different length compare. `--diff` prints both profiles side by side with
the change, by file and by line; line keys only match across builds for
files the change did not edit, so read the file totals first.
"""

import argparse
import bisect
import collections
import os
import subprocess
import sys

REPO_DIRS = ("/crates/", "/perfbench/src/", "/src/", "/examples/", "/tests/")


def load(path):
    maps, samples = [], []
    with open(path) as f:
        lines = iter(f)
        for line in lines:
            if line.strip() == "SAMPLES":
                break
            parts = line.split(None, 5)
            if len(parts) < 5:
                continue
            start, end = (int(x, 16) for x in parts[0].split("-"))
            name = parts[5].strip() if len(parts) == 6 else "[anon]"
            maps.append((start, end, parts[1], int(parts[2], 16), name))
        for line in lines:
            line = line.strip()
            if line:
                samples.append(int(line, 16))
    maps.sort()
    return maps, samples


def is_pie(path):
    """ELF e_type: ET_DYN (3) objects load at a bias, ET_EXEC (2) do not."""
    try:
        with open(path, "rb") as f:
            head = f.read(18)
    except OSError:
        return True
    return len(head) == 18 and head[16] == 3


def repo_key(frames):
    """First in-repository `file:line` of an inline chain, innermost first."""
    for func, loc in frames:
        file = loc.rsplit(":", 1)[0]
        for d in REPO_DIRS:
            i = file.find(d)
            if i >= 0 and "/rustc/" not in file and "/.cargo/" not in file:
                line = loc.rsplit(":", 1)[1].split()[0]
                return f"{file[i + 1:]}:{line}"
    return None


def resolve(maps, samples):
    """Sample counts keyed by the charged `file:line` (or object label)."""
    starts = [m[0] for m in maps]
    bias = {}
    for start, _, _, offset, name in maps:
        if offset == 0 and name not in bias:
            bias[name] = start
    by_obj = collections.defaultdict(collections.Counter)
    for pc in samples:
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= maps[i][1]:
            by_obj["[unmapped]"][pc] += 1
            continue
        by_obj[maps[i][4]][pc] += 1

    counts = collections.Counter()
    for obj, pcs in by_obj.items():
        label = f"[{os.path.basename(obj)}]"
        if not obj.startswith("/") or not os.path.exists(obj):
            counts[label] += sum(pcs.values())
            continue
        base = bias.get(obj, 0) if is_pie(obj) else 0
        addrs = sorted(pcs)
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-C", "-i", "-e", obj],
            input="\n".join(f"{pc - base:x}" for pc in addrs),
            capture_output=True, text=True, check=True).stdout.splitlines()
        chains = []
        k = 0
        while k < len(out):
            if out[k].startswith("0x"):
                chains.append([])
                k += 1
            else:
                chains[-1].append((out[k], out[k + 1] if k + 1 < len(out) else "??:0"))
                k += 2
        for pc, frames in zip(addrs, chains):
            key = repo_key(frames)
            if key is None:
                outer = frames[-1][0] if frames else "??"
                key = label if ".so" in label else f"[std] {outer}"
            counts[key] += pcs[pc]
    return counts


def file_of(key):
    return key if key.startswith("[") else key.rsplit(":", 1)[0]


def by_file(counts):
    files = collections.Counter()
    for key, n in counts.items():
        files[file_of(key) if not key.startswith("[std]") else "[std]"] += n
    return files


def scale(counts, units, per):
    f = per / units if units else 1.0
    return {k: v * f for k, v in counts.items()}


def print_table(title, rows, top):
    print(f"\n{title}")
    for key, n, share in rows[:top]:
        print(f"{n:>12.1f} {share:>6.1%}  {key}")


def report(args):
    maps, samples = load(args.profile[0])
    counts = resolve(maps, samples)
    total = sum(counts.values())
    units = args.units[0] if args.units else None
    scaled = scale(counts, units, args.per)
    print(f"{total} samples" + (f", per {args.per:g} units of work" if units else ""))
    lines = sorted(scaled.items(), key=lambda kv: -kv[1])
    print_table("by line", [(k, v, counts[k] / total) for k, v in lines], args.top)
    files = by_file(counts)
    sfiles = scale(files, units, args.per)
    print_table("by file", [(k, sfiles[k], n / total) for k, n in files.most_common()], args.top)


def diff(args):
    sides = []
    for i, path in enumerate(args.diff):
        maps, samples = load(path)
        counts = resolve(maps, samples)
        units = args.units[i] if args.units else None
        sides.append((scale(counts, units, args.per), scale(by_file(counts), units, args.per)))
    (base_l, base_f), (head_l, head_f) = sides
    unit = f" (per {args.per:g} units of work)" if args.units else ""
    for title, b, h in (("by file" + unit, base_f, head_f), ("by line" + unit, base_l, head_l)):
        keys = sorted(set(b) | set(h), key=lambda k: -max(b.get(k, 0), h.get(k, 0)))
        print(f"\n{title}\n{'base':>12} {'head':>12} {'change':>12}")
        for k in keys[:args.top]:
            x, y = b.get(k, 0.0), h.get(k, 0.0)
            print(f"{x:>12.1f} {y:>12.1f} {y - x:>+12.1f}  {k}")
        print(f"{sum(b.values()):>12.1f} {sum(h.values()):>12.1f} "
              f"{sum(h.values()) - sum(b.values()):>+12.1f}  total")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile", nargs="*", help="one sprof output file")
    ap.add_argument("--diff", nargs=2, metavar=("BASE", "HEAD"), help="compare two profiles")
    ap.add_argument("--units", nargs="+", type=float,
                    help="units of work per profile (one, or two with --diff)")
    ap.add_argument("--per", type=float, default=100000, help="normalise to this many units")
    ap.add_argument("--top", type=int, default=30, help="rows per table")
    args = ap.parse_args()
    want = 2 if args.diff else 1
    if args.units and len(args.units) != want:
        ap.error(f"--units needs {want} value(s)")
    if args.diff:
        diff(args)
    elif len(args.profile) == 1:
        report(args)
    else:
        ap.error("give one PROFILE or --diff BASE HEAD")
    return 0


if __name__ == "__main__":
    sys.exit(main())
