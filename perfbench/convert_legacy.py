#!/usr/bin/env python3
"""Folds the legacy BENCH_PR*.json files into the benchmark's row schema.

    python3 perfbench/convert_legacy.py [--out rows.json]

Converts every BENCH_PR*.json at the repository root. The input files
are only read. Output (stdout, or --out) is one JSON document
`{"rows": [...]}` where every row is

    {cell, layer, metric, value, unit, spread, commit, provenance}

the schema the benchmark's own row files (`perfbench/out/*.json`) use.
`commit` is the commit that added the file, where git can tell; the
legacy files recorded none themselves. `spread` is null: none of them
recorded one.

Three legacy shapes exist:
  * `benches` / `metrics` lists (BENCH_PR2.json to BENCH_PR7.json and
    BENCH_PR10.json): compat-criterion's recorder, `{name, mean_ns,
    iterations}` and `{name, value}`;
  * the fidelity A-B document (BENCH_PR8.json): `accuracy` / `speed`
    cells with per-size-bucket FCT statistics, packet vs hybrid;
  * the fig. 17 document (BENCH_PR9.json): `fig17.points` plus a probe.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# First matching pattern names the layer (module) a legacy cell measured.
LAYERS = [
    (r"event_queue|engine_profile", "simcore"),
    (r"^mmu", "core"),
    (r"parallel|partition|workers", "par"),
    (r"fidelity|hybrid|fluid", "fluid"),
    (r"lossy|recovery|nack|sr_path", "transport"),
    (r"packet_path|incast|forward_chain", "net"),
    (r"^fig", "figure"),
]


def layer_of(name):
    for pattern, layer in LAYERS:
        if re.search(pattern, name):
            return layer
    return "other"


def unit_of(metric):
    if metric.endswith("_ns") or metric in ("nanos", "mean_ns"):
        return "ns"
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("_secs"):
        return "s"
    if "per_sec" in metric:
        return "1/s"
    if metric.endswith("_bytes"):
        return "B"
    if "per_packet" in metric:
        return "count/packet"
    if "speedup" in metric or "_vs_" in metric or metric in ("load",):
        return "ratio"
    return "count"


def commit_of(path):
    try:
        out = subprocess.run(
            ["git", "log", "--diff-filter=A", "--format=%H", "--", path.name],
            cwd=path.parent, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    return lines[-1] if out.returncode == 0 and lines else None


def row(cell, metric, value, commit, provenance, layer=None):
    return {"cell": cell, "layer": layer or layer_of(cell), "metric": metric, "value": value,
            "unit": unit_of(metric), "spread": None, "commit": commit, "provenance": provenance}


def split_name(name):
    cell, _, metric = name.rpartition("/")
    return (cell, metric) if cell else (name, "value")


def criterion_rows(doc, commit, prov):
    for b in doc.get("benches", []):
        yield row(b["name"], "mean_ns", b["mean_ns"], commit, {**prov, "iterations": b["iterations"]})
    for m in doc.get("metrics", []):
        cell, metric = split_name(m["name"])
        yield row(cell, metric, m["value"], commit, prov)


def fidelity_rows(doc, commit, prov):
    for section in ("accuracy", "speed"):
        sec = doc.get(section, {})
        p = {**prov, "hybrid": sec.get("hybrid")}
        for c in sec.get("cells", []):
            cell = f"fidelity_ab/{section}/{c['label']}"
            yield row(cell, "speedup", c["speedup"], commit, p, "fluid")
            for b in c.get("buckets", []):
                bcell = f"{cell}/{b['bucket']}"
                for stat in ("mean_us", "p50_us", "p99_us"):
                    packet, hybrid = b[stat]
                    yield row(bcell, f"{stat[:-3]}_packet_us", packet, commit, p, "fluid")
                    yield row(bcell, f"{stat[:-3]}_hybrid_us", hybrid, commit, p, "fluid")
        if "min_speedup_low_mid" in sec:
            yield row(f"fidelity_ab/{section}", "min_speedup_low_mid", sec["min_speedup_low_mid"],
                      commit, p, "fluid")
    for key in ("allocs_per_packet", "probe_events_per_sec"):
        if key in doc:
            yield row("fidelity_ab/probe", key, doc[key], commit, prov, "fluid")


def fig17_rows(doc, commit, prov):
    for pt in doc["fig17"].get("points", []):
        cell = f"fig17/{pt['cell']}/load{pt['load']}"
        for k, v in pt.items():
            if k not in ("cell", "load") and isinstance(v, (int, float)):
                yield row(cell, k, v, commit, prov, "figure")
    probe = doc.get("sr_path_probe", {})
    for k, v in probe.items():
        if isinstance(v, (int, float)):
            yield row("packet_path/lossy_sr_incast_8_to_1", k, v, commit, prov, "transport")
    yield from criterion_rows({"metrics": doc.get("metrics", [])}, commit, prov)


def convert(path):
    doc = json.loads(path.read_text())
    prov = dict(doc.get("provenance", {}))
    prov.setdefault("available_parallelism", doc.get("available_parallelism"))
    prov["source"] = path.name
    commit = commit_of(path)
    if "fig17" in doc:
        return list(fig17_rows(doc, commit, prov))
    if "accuracy" in doc or "speed" in doc:
        return list(fidelity_rows(doc, commit, prov))
    if "benches" in doc or "metrics" in doc:
        return list(criterion_rows(doc, commit, prov))
    raise ValueError(f"{path.name}: unknown legacy shape (keys {sorted(doc)})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, help="write here instead of stdout")
    args = ap.parse_args()
    files = sorted(ROOT.glob("BENCH_PR*.json"), key=lambda p: int(re.sub(r"\D", "", p.stem) or 0))
    rows = [r for f in files for r in convert(f)]
    text = json.dumps({"rows": rows}, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    print(f"{len(rows)} rows from {len(files)} files", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
