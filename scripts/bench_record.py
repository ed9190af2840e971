"""Write one BENCH JSON document from two sets of benchmark records.

    python3 scripts/bench_record.py PARENT_DIR CHANGE_DIR OUT

PARENT_DIR and CHANGE_DIR hold the ``result-*.json`` records that
``bench/run.py`` wrote for a parent commit and a change, run as
``bench/compare.py`` describes (alternating, same seeds and ``--seconds``).
OUT gets, for every workload both sides ran untraced and every end-to-end
metric of BENCHMARK.json, both sides' median and quartiles, the change's
win share and the verdict, all as ``bench/compare.py`` computes them, with
the paired seeds and ``--seconds``; and each side's provenance (CPU model,
nproc, Python, numpy, git SHA, ``src_sha256``).  A side whose records
disagree on their provenance, or runs that differ in ``--seconds``, stop the
script with an error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from compare import load_records, quartiles, verdict  # noqa: E402

PROVENANCE_KEYS = ("cpu_model", "nproc", "python", "numpy", "git_sha", "src_sha256")


def provenance(records: list[dict]) -> dict:
    """The provenance shared by every record of one side."""
    seen = {
        json.dumps({k: rec["provenance"].get(k) for k in PROVENANCE_KEYS}, sort_keys=True)
        for rec in records
    }
    if len(seen) != 1:
        raise SystemExit("one side's records come from more than one build or host")
    return json.loads(seen.pop())


def summary(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3}


def bench_document(parent_dir: Path, change_dir: Path) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = load_records(parent_dir), load_records(change_dir)
    keys = sorted(k for k in set(parent) & set(change) if k[0] == 0)
    sides = {"parent": [], "change": []}
    workloads = {}
    for key in keys:
        workload = key[1]
        seeds = sorted(set(parent[key]) & set(change[key]))
        if not seeds:
            continue
        records = [side[key][s] for side in (parent, change) for s in seeds]
        seconds = {rec["seconds"] for rec in records}
        if len(seconds) != 1:
            raise SystemExit(f"{workload}: the runs differ in --seconds")
        sides["parent"] += records[:len(seeds)]
        sides["change"] += records[len(seeds):]
        failed = tuple(sum(side[key][s]["failed"] for s in seeds) for side in (parent, change))
        metrics = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [parent[key][s]["metrics"][name]["value"] for s in seeds]
            c = [change[key][s]["metrics"][name]["value"] for s in seeds]
            shown, wins = verdict(p, c, list(zip(p, c)), m["better"], m["bound"], failed)
            metrics[name] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                "parent": summary(p), "change": summary(c), "wins": wins, "verdict": shown,
            }
        workloads[workload] = {
            "seeds": seeds,
            "seconds": seconds.pop(),
            "failed": {"parent": failed[0], "change": failed[1]},
            "metrics": metrics,
        }
    if not workloads:
        raise SystemExit("no untraced workload was run on both sides with the same seeds")
    return {
        "provenance": {side: provenance(records) for side, records in sides.items()},
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("out", type=Path)
    args = parser.parse_args(argv)
    doc = bench_document(args.parent, args.change)
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
