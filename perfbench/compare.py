"""Compare two result sets of the benchmark, per workload and per metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are directories (or single files) of the records run.py
writes to perfbench/_results/.  For every workload and every metric the
records of both sides carry it prints both medians, both spreads and a
verdict (per-layer metrics have no bound of their own and use 0.25):

- unresolved: a side's spread (quartile distance over median) exceeds the
  metric's bound, unless every NEW run beats every BASE run (improved);
- regressed: NEW's median is worse than BASE's by more than the bound;
- improved: NEW's median is better by more than BASE's own spread, and
  NEW beats BASE in at least nine tenths of all (BASE, NEW) run pairs;
- unchanged: otherwise.

Exit code 1 if any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BOUND = 0.25


def load(path: Path) -> List[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def spread(values: List[float]) -> float:
    """Quartile distance over the median; infinite below two values."""
    if len(values) < 2:
        return math.inf
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else math.inf


def verdict(base: List[float], new: List[float], bound: float, better: str) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    mb, mn = statistics.median(base), statistics.median(new)
    sb, sn = spread(base), spread(new)
    worse_by = sign * (mn - mb) / abs(mb) if mb else 0.0
    all_better = max(new) < min(base) if better == "lower" else min(new) > max(base)
    wins = sum(1 for b in base for n in new if sign * (n - b) < 0) / (len(base) * len(new))
    if min(base) == max(base) == min(new) == max(new):
        status = "unchanged"          # exact counts, or zero error rates
    elif all_better:
        status = "improved"
    elif sb > bound or sn > bound:
        status = "unresolved"
    elif worse_by > bound:
        status = "regressed"
    elif -worse_by > sb and wins >= 0.9:
        status = "improved"
    else:
        status = "unchanged"
    return {"base_median": mb, "new_median": mn, "base_spread": sb, "new_spread": sn,
            "change": sign * worse_by, "status": status}


def compare(base: List[dict], new: List[dict], bench: dict) -> List[dict]:
    specs: Dict[str, dict] = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    rows = []
    for wl in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        b = [r for r in base if r["workload"] == wl]
        n = [r for r in new if r["workload"] == wl]
        for name in sorted(set().union(*(r["metrics"] for r in b))):
            bv = [r["metrics"][name] for r in b if r["metrics"].get(name) is not None]
            nv = [r["metrics"][name] for r in n if r["metrics"].get(name) is not None]
            if not bv or not nv:
                continue
            spec = specs.get(name, {})
            row = verdict(bv, nv, spec.get("bound", DEFAULT_BOUND), spec.get("better", "lower"))
            row.update(workload=wl, metric=name, runs=(len(bv), len(nv)))
            rows.append(row)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="compare two benchmark result sets")
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load(args.base), load(args.new), bench)
    for r in rows:
        print(f"{r['workload']:18s} {r['metric']:36s} base {r['base_median']:.6g} "
              f"(spread {r['base_spread']:.3f}, n={r['runs'][0]})  new {r['new_median']:.6g} "
              f"(spread {r['new_spread']:.3f}, n={r['runs'][1]})  {r['change']:+.1%}  {r['status']}")
    return 1 if any(r["status"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
