"""Write the benchmark's committed input pools and expected-output tables.

    python3 bench/make_inputs.py

Run from the repository root.  The pools (descriptor lists, system
documents) are defined here; the count, type and digest tables are computed
with the library at the commit this is run on and become the reference every
later run is checked against.  Rerun only to add inputs: regenerating the
tables on a changed library would hide a changed output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from crossedprod.classify import enumerate_crossed_systems, enumerate_raw_systems  # noqa: E402
from crossedprod.decompose import decompose, holder_cross_validate  # noqa: E402
from crossedprod.groups import make_group  # noqa: E402
from crossedprod.systems import system_to_doc  # noqa: E402

sys.path.insert(0, str(BENCH))
from workloads import digest, pair_key, run_cli  # noqa: E402

INPUTS = BENCH / "inputs"

D = {
    "C1": "cyclic:1", "C2": "cyclic:2", "C3": "cyclic:3", "C4": "cyclic:4",
    "C5": "cyclic:5", "C6": "cyclic:6", "C8": "cyclic:8", "C9": "cyclic:9",
    "K4": "product(cyclic:2,cyclic:2)", "S3": "symmetric:3",
    "D8": "dihedral:8", "Q8": "quaternion:8",
}
CATALOG = ["C1", "C2", "C3", "C4", "C5", "C6", "C8", "K4", "S3", "D8", "Q8"]

# enumerate-bulk: in every pass, pairs with abelian H (C3, C4, C8) and
# non-abelian H (Q8, D8) with 1,000-4,400 systems each, every cheap pair, and
# one pair from each slot of pairs with equal system count and product order
# whose costs differ by a few milliseconds.  (S3, S3) stays in the count table
# but not in the passes: at 4.1 s it alone would be most of a pass.
BULK_FIXED_HEAVY = [("C3", "Q8"), ("Q8", "C4"), ("C8", "K4"), ("C8", "C4"), ("D8", "C4"), ("C4", "S3")]
BULK_CHEAP = 100  # pairs with at most this many systems are in every pass
BULK_SLOTS = [
    [("C2", "C8"), ("C2", "Q8")],
    [("C3", "C6"), ("C3", "S3")],
    [("C4", "C5"), ("K4", "C5")],
    [("S3", "C4"), ("S3", "K4")],
]

CLASSIFY_PAIRS = [("K4", "K4"), ("C2", "D8"), ("C2", "Q8"), ("C3", "S3"), ("C4", "C4"), ("Q8", "C2"), ("D8", "C2")]
CLASSIFY_WORKERS = 2

HOLDER_HEAVY = [(2, 18), (3, 12)]
HOLDER_LIGHT_MAX_SYSTEMS = 1000

# cli-requests: groups whose decomposition root gives a system for `build`
# (products of order 8-64).
BUILD_GROUPS = [
    "quaternion:8", "dihedral:8", "cyclic:8", "product(cyclic:2,cyclic:4)",
    "dihedral:12", "product(cyclic:2,symmetric:3)", "dihedral:16", "cyclic:16",
    "product(cyclic:2,quaternion:8)", "product(cyclic:4,cyclic:4)", "symmetric:4",
    "dihedral:24", "product(cyclic:3,symmetric:3)", "product(cyclic:2,dihedral:8)",
    "dihedral:32", "product(cyclic:4,cyclic:8)", "product(quaternion:8,cyclic:4)",
    "dihedral:48", "product(cyclic:2,symmetric:4)", "dihedral:64",
]
MORPH_SMALL = [("C2", "C2"), ("C4", "C2"), ("C2", "C4"), ("K4", "C2"), ("C2", "K4"),
               ("C3", "C2"), ("C2", "S3"), ("C4", "C3"), ("C4", "C4"), ("C8", "C2")]
MORPH_LARGE = [("C3", "C6"), ("C5", "C4"), ("S3", "C3"), ("C3", "S3"), ("C6", "C4"),
               ("C3", "C8"), ("S3", "C4")]
DECOMPOSE_SMALL = (
    [f"cyclic:{n}" for n in range(2, 25)]
    + [f"dihedral:{n}" for n in range(6, 25, 2)]
    + ["quaternion:8", "symmetric:3", "symmetric:4",
       "product(cyclic:2,cyclic:2)", "product(cyclic:2,cyclic:4)",
       "product(cyclic:2,cyclic:6)", "product(cyclic:3,cyclic:3)",
       "product(cyclic:4,cyclic:4)", "product(cyclic:2,symmetric:3)",
       "product(cyclic:2,quaternion:8)", "product(cyclic:3,symmetric:3)",
       "product(cyclic:2,dihedral:8)"]
)
DECOMPOSE_LARGE = ["product(cyclic:2,symmetric:4)", "product(symmetric:3,dihedral:8)",
                   "dihedral:64", "symmetric:5"]
# Every enumerate pair has 256 systems and every classify pair 36, so the
# systems a pass lists do not depend on the draw.
ENUMERATE = [("C2", "D8"), ("C4", "C5"), ("K4", "C5"), ("C2", "C9")]
CLASSIFY_SMALL = [(a, b, rel) for (a, b) in (("C3", "C4"), ("S3", "C3"), ("C6", "C3"))
                  for rel in ("eq1", "eq2", "iso")]
# No real CLI traffic was observed, so a pass weights the subcommands equally:
# 4 requests each, split evenly between the two size bands of `morphisms` and
# of `decompose`.  4 is the size of the smallest pool (`enumerate`).
CLI_PER_COMMAND = 4
CLI_TAKE = {"build": CLI_PER_COMMAND, "morphisms-small": CLI_PER_COMMAND // 2,
            "morphisms-large": CLI_PER_COMMAND // 2, "decompose-small": CLI_PER_COMMAND // 2,
            "decompose-large": CLI_PER_COMMAND // 2, "enumerate": CLI_PER_COMMAND,
            "classify": CLI_PER_COMMAND}


def count_systems(h, g) -> int:
    n = [0]

    def visit(alpha, f_bytes):
        n[0] += 1

    enumerate_raw_systems(h, g, visit)
    return n[0]


def write(name: str, doc) -> None:
    path = INPUTS / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def make_bulk() -> None:
    pairs = [(a, b) for a in CATALOG for b in CATALOG
             if make_group(D[a]).order * make_group(D[b]).order <= 32] + [("S3", "S3")]
    counts = {}
    for (a, b) in pairs:
        counts[pair_key(D[a], D[b])] = count_systems(make_group(D[a]), make_group(D[b]))
        print("bulk", a, b, counts[pair_key(D[a], D[b])], flush=True)
    in_slots = {p for slot in BULK_SLOTS for p in slot}
    cheap = [p for p in pairs if counts[pair_key(D[p[0]], D[p[1]])] <= BULK_CHEAP and p not in in_slots]
    for slot in BULK_SLOTS:
        assert len({counts[pair_key(D[a], D[b])] for (a, b) in slot}) == 1, slot
    write("bulk.json", {
        "fixed": [[D[a], D[b]] for (a, b) in BULK_FIXED_HEAVY + cheap],
        "slots": [[[D[a], D[b]] for (a, b) in slot] for slot in BULK_SLOTS],
        "counts": counts,
    })


def make_classify() -> None:
    expected = {}
    for (a, b) in CLASSIFY_PAIRS:
        for rel in ("eq1", "eq2", "iso"):
            code, out = run_cli(["classify", "--h", D[a], "--g", D[b], "--relation", rel,
                                 "--workers", str(CLASSIFY_WORKERS)])
            assert code == 0
            doc = json.loads(out)
            expected[f"{pair_key(D[a], D[b])}|{rel}"] = {
                "class_count": doc["class_count"],
                "system_count": doc["system_count"],
                "digest": digest(out),
            }
            print("classify", a, b, rel, doc["class_count"], flush=True)
    write("classify.json", {
        "pairs": [[D[a], D[b]] for (a, b) in CLASSIFY_PAIRS],
        "relations": ["eq1", "eq2", "iso"],
        "workers": CLASSIFY_WORKERS,
        "expected": expected,
    })


def make_holder() -> None:
    expected, light = {}, []
    for n in range(1, 37):
        for m in range(1, 37 // n + 1):
            if n * m > 36:
                continue
            rep = holder_cross_validate(n, m)
            systems = count_systems(make_group(f"cyclic:{n}"), make_group(f"cyclic:{m}"))
            assert rep["match"] and rep["presentation_types"] == rep["system_types"]
            expected[f"{n},{m}"] = {"types": rep["presentation_types"], "systems": systems}
            if systems <= HOLDER_LIGHT_MAX_SYSTEMS and (n, m) not in HOLDER_HEAVY:
                light.append([n, m])
            print("holder", n, m, systems, flush=True)
    write("holder.json", {
        "heavy": [list(p) for p in HOLDER_HEAVY],
        "light": light,
        "expected": expected,
    })


def _system_file(name: str, sys_obj) -> str:
    write(f"systems/{name}.json", system_to_doc(sys_obj))
    return f"@{name}.json"


def make_cli() -> None:
    strata = {k: [] for k in CLI_TAKE}
    for i, spec in enumerate(BUILD_GROUPS):
        root = decompose(make_group(spec)).system
        strata["build"].append({"id": f"build-{i:02d}", "argv": ["build", "--system", _system_file(f"build-{i:02d}", root)]})
    for kind, pairs in (("morphisms-small", MORPH_SMALL), ("morphisms-large", MORPH_LARGE)):
        for (a, b) in pairs:
            systems = enumerate_crossed_systems(make_group(D[a]), make_group(D[b]))
            for j, (x, y) in enumerate(((0, len(systems) - 1), (len(systems) // 2, len(systems) // 3))):
                rid = f"morph-{a}-{b}-{j}"
                argv = ["morphisms", "--system-a", _system_file(f"{rid}-a", systems[x]),
                        "--system-b", _system_file(f"{rid}-b", systems[y])]
                order = systems[0].h.order * systems[0].g.order
                strata[kind].append({"id": rid, "argv": argv, "hom_oracle": order <= 16})
    for kind, specs in (("decompose-small", DECOMPOSE_SMALL), ("decompose-large", DECOMPOSE_LARGE)):
        for spec in specs:
            strata[kind].append({"id": f"decompose-{spec}", "argv": ["decompose", "--group", spec]})
    for (a, b) in ENUMERATE:
        strata["enumerate"].append({"id": f"enumerate-{a}-{b}", "argv": ["enumerate", "--h", D[a], "--g", D[b]], "pair": True})
    for (a, b, rel) in CLASSIFY_SMALL:
        strata["classify"].append({"id": f"classify-{a}-{b}-{rel}", "pair": True, "argv": [
            "classify", "--h", D[a], "--g", D[b], "--relation", rel, "--workers", str(CLASSIFY_WORKERS)]})
    for reqs in strata.values():
        for req in reqs:
            argv = [f"@{INPUTS / 'systems' / a[1:]}" if a.startswith("@") else a for a in req["argv"]]
            code, out = run_cli(argv)
            assert code == 0, req
            req["digest"] = digest(out)
            doc = json.loads(out)
            if "system_count" in doc or doc["command"] == "enumerate":
                req["systems"] = doc.get("system_count", doc.get("count"))
            print("cli", req["id"], len(out), flush=True)
    write("cli.json", {"strata": {k: {"take": CLI_TAKE[k], "requests": v} for k, v in strata.items()}})


if __name__ == "__main__":
    make_bulk()
    make_classify()
    make_holder()
    make_cli()
