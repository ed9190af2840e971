"""Compare two sets of benchmark records: a parent commit and a change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``result-*.json`` records that ``run.py`` writes to
``bench/out/`` (copy them out between the two checkouts' runs).  Run the two
sides alternately, parent first on odd seeds and change first on even ones,
with the same seeds and ``--seconds`` on both.  Runs are paired by
(workload, seed).

For every end-to-end metric and workload this prints each side's median and
quartiles, the share of pairs the change wins (ties count for neither side),
and a verdict, with the bound taken from BENCHMARK.json:

* improved: the change wins at least 9 of 10 pairs and the medians differ by
  more than the parent's interquartile range;
* regressed: the change's median is worse than the parent's by more than the
  bound;
* unresolved: the parent's own spread exceeds the bound, unless every change
  run beats every parent run (or loses to every one);
* unchanged otherwise;
* failing, for every metric of a workload, when the change's runs fail more
  operations than the parent's: a gain does not count while more fails.

Per-layer records (``--trace 1``) are compared metric by metric: counts must
match exactly and are reported as equal or as the two values; times are
reported as medians.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_records(directory: Path) -> dict:
    """{(trace, workload): {seed: record}}"""
    out: dict = {}
    for path in sorted(directory.glob("result-*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        out.setdefault((rec["trace"], rec["workload"]), {})[rec["seed"]] = rec
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float, failed: tuple[int, int] = (0, 0)) -> tuple[str, float]:
    """Verdict and win share; `failed` is (parent, change) failed operations."""
    sign = 1.0 if better == "higher" else -1.0
    decided = [(c - p) * sign for (p, c) in pairs if c != p]
    wins = sum(1 for d in decided if d > 0) / len(pairs) if pairs else 0.0
    if failed[1] > failed[0]:
        return "failing", wins
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    spread = p3 - p1
    lo, hi = (min, max) if sign > 0 else (max, min)
    all_better = (lo(change) - hi(parent)) * sign > 0
    all_worse = (hi(change) - lo(parent)) * sign < 0
    worse_by = (pm - cm) * sign / abs(pm) if pm else 0.0
    if wins >= 0.9 and abs(cm - pm) > spread and (cm - pm) * sign > 0:
        return "improved", wins
    if worse_by > bound:
        return "regressed", wins
    if pm and spread / abs(pm) > bound:
        if all_better:
            return "improved", wins
        if all_worse:
            return "regressed", wins
        return "unresolved", wins
    return "unchanged", wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = load_records(args.parent), load_records(args.change)
    for key in sorted(set(parent) & set(change)):
        trace, workload = key
        seeds = sorted(set(parent[key]) & set(change[key]))
        if not seeds:
            continue
        failed = tuple(sum(side[key][s]["failed"] for s in seeds) for side in (parent, change))
        print(f"{workload:17s} trace {trace}: failed operations parent {failed[0]}, change {failed[1]}")
        for name, first in parent[key][seeds[0]]["metrics"].items():
            p = [parent[key][s]["metrics"][name]["value"] for s in seeds]
            c = [change[key][s]["metrics"][name]["value"] for s in seeds]
            unit = first["unit"]
            if trace == 0 and name in e2e:
                m = e2e[name]
                p1, pm, p3 = quartiles(p)
                c1, cm, c3 = quartiles(c)
                shown, wins = verdict(p, c, list(zip(p, c)), m["better"], m["bound"], failed)
                print(f"{workload:17s} {name:16s} parent {pm:12.5g} [{p1:.5g}, {p3:.5g}]  "
                      f"change {cm:12.5g} [{c1:.5g}, {c3:.5g}] {unit:5s} "
                      f"wins {wins:4.0%}  {shown}")
            elif unit == "count" or unit == "bytes":
                if failed[1] > failed[0]:
                    shown = "failing"
                elif p == c:
                    shown = "equal"
                else:
                    shown = f"changed {statistics.median(p):g} -> {statistics.median(c):g}"
                print(f"{workload:17s} {name:58s} {shown}")
            else:
                print(f"{workload:17s} {name:58s} {statistics.median(p):.6g} -> {statistics.median(c):.6g} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
