"""The benchmark's four workloads.

Each workload turns a seed into inputs drawn from the pools committed under
``bench/inputs`` (``__init__``, which is the set-up), lists the operations of
pass k (``ops``), runs one operation (``run``) and checks its output
(``check``).  ``run`` is timed; ``check`` runs after the pass, untimed.

Library functions are called through their modules (``products.center_pairs``,
not a name imported here), so the tracer's wrappers see the benchmark's own
calls as well as the library's internal ones.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
from pathlib import Path

import numpy as np

cli = importlib.import_module("crossedprod.cli")
classify_mod = importlib.import_module("crossedprod.classify")
decompose_mod = importlib.import_module("crossedprod.decompose")
groups = importlib.import_module("crossedprod.groups")
products = importlib.import_module("crossedprod.products")
systems = importlib.import_module("crossedprod.systems")

INPUTS = Path(__file__).resolve().parent / "inputs"

# The original lru_cache object: the tracer replaces the module attribute.
_clear_product_cache = products.cached_product.cache_clear


def load(name: str):
    with open(INPUTS / name, encoding="utf-8") as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def pair_key(h: str, g: str) -> str:
    return f"{h}|{g}"


def _rng(seed: int, k: int) -> random.Random:
    return random.Random(f"{seed}:{k}")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI call, as a fresh process would see it: cold product cache."""
    _clear_product_cache()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class Workload:
    """Interface shared by the four workloads.

    `tail_pct` is the fixed percentile reported as `request_tail_ms`;
    `min_passes` guarantees at least ten samples beyond it in every run.
    `one_cpu` pins the run to one CPU (see run.pin_to_one_cpu).
    """

    name = ""
    tail_pct = 90.0
    min_passes = 1
    one_cpu = False

    def ops(self, k: int) -> list:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, result) -> str | None:
        raise NotImplementedError

    def units(self, op, result) -> tuple[int, int]:
        """(systems, pairs) an operation accounts for."""
        raise NotImplementedError


# enumerate-bulk ----------------------------------------------------------------


class EnumerateBulk(Workload):
    """Stream every system of each pair; scan the product table directly and
    compare with the centre and abelianness formulas (criterion 6's shape).

    A pass takes every `fixed` pair plus one seed-drawn pair from each slot;
    pairs in one slot have the same system count and product order, so the
    work per pass barely depends on the draw.
    """

    name = "enumerate-bulk"
    # Six pairs per pass take 0.2-0.8 s each, the rest under 0.1 s; p92.5 falls
    # inside the six for any pass count, where p90 and p95 fall at a gap.
    tail_pct = 92.5
    min_passes = 4

    def __init__(self, seed: int):
        doc = load("bulk.json")
        self.seed = seed
        self.fixed = [tuple(p) for p in doc["fixed"]]
        self.slots = [[tuple(p) for p in slot] for slot in doc["slots"]]
        self.counts = doc["counts"]
        for spec in {s for pair in self.fixed + sum(self.slots, []) for s in pair}:
            groups.make_group(spec)

    def ops(self, k: int) -> list:
        rng = _rng(self.seed, k)
        pairs = self.fixed + [rng.choice(slot) for slot in self.slots]
        rng.shuffle(pairs)
        return pairs

    def run(self, op):
        h, g = groups.make_group(op[0]), groups.make_group(op[1])
        n, m = h.order, g.order
        hm = np.array(h.table, dtype=np.int64)
        gm = np.array(g.table, dtype=np.int64)
        auts = [np.array(a.map, dtype=np.int64) for a in groups.automorphism_group(h)]
        tally = {"systems": 0, "disagreements": 0}

        def visit(alpha, f_bytes):
            act = np.stack([auts[a] for a in alpha])
            f_arr = np.frombuffer(f_bytes, dtype=np.uint8).astype(np.int64).reshape(m, m)
            table = products.product_table_np(hm, gm, act, f_arr)
            central = np.flatnonzero((table == table.T).all(axis=1))
            direct_center = {(int(i % n), int(i // n)) for i in central}
            sys_obj = classify_mod.system_from_raw(h, g, alpha, f_bytes)
            if products.center_pairs(sys_obj) != direct_center:
                tally["disagreements"] += 1
            if products.abelian_by_criterion(sys_obj) != (central.size == n * m):
                tally["disagreements"] += 1
            tally["systems"] += 1

        classify_mod.enumerate_raw_systems(h, g, visit)
        return tally

    def check(self, op, result):
        want = self.counts[pair_key(*op)]
        if result["systems"] != want:
            return f"{op}: {result['systems']} systems, expected {want}"
        if result["disagreements"]:
            return f"{op}: {result['disagreements']} formula/scan disagreements"
        return None

    def units(self, op, result):
        return self.counts[pair_key(*op)], 1


# classify-witness ---------------------------------------------------------------


class ClassifyWitness(Workload):
    """The CLI `classify` command for eq1, eq2 and iso on fixed pairs.

    Pairwise witness searches dominate; enumeration is negligible.  The seed
    orders the jobs.  Classes must match the committed counts and digests, and
    eq1 must refine eq2, which must refine iso.
    """

    name = "classify-witness"
    tail_pct = 75.0
    min_passes = 2
    one_cpu = True

    def __init__(self, seed: int):
        doc = load("classify.json")
        self.seed = seed
        self.workers = str(doc["workers"])
        self.jobs = [(h, g, rel) for (h, g) in doc["pairs"] for rel in doc["relations"]]
        self.expected = doc["expected"]
        for spec in {s for (h, g, _) in self.jobs for s in (h, g)}:
            groups.make_group(spec)
        self._members: dict = {}

    def ops(self, k: int) -> list:
        jobs = list(self.jobs)
        _rng(self.seed, k).shuffle(jobs)
        return jobs

    def run(self, op):
        h, g, rel = op
        return run_cli(["classify", "--h", h, "--g", g, "--relation", rel, "--workers", self.workers])

    def check(self, op, result):
        code, out = result
        want = self.expected[f"{pair_key(op[0], op[1])}|{op[2]}"]
        if code != 0:
            return f"{op}: exit code {code}"
        doc = json.loads(out)
        if doc["class_count"] != want["class_count"] or doc["system_count"] != want["system_count"]:
            return f"{op}: {doc['class_count']} classes of {doc['system_count']}, expected {want}"
        if digest(out) != want["digest"]:
            return f"{op}: stdout digest differs"
        # Refinement eq1 -> eq2 -> iso, checked once all three relations of a pair are in.
        members = self._members.setdefault(op[:2], {})
        members[op[2]] = [c["members"] for c in doc["classes"]]
        if len(members) == 3:
            del self._members[op[:2]]
            for fine, coarse in (("eq1", "eq2"), ("eq2", "iso")):
                where = {i: ci for ci, ms in enumerate(members[coarse]) for i in ms}
                if any(len({where[i] for i in ms}) != 1 for ms in members[fine]):
                    return f"{op[:2]}: {fine} does not refine {coarse}"
        return None

    def units(self, op, result):
        return self.expected[f"{pair_key(op[0], op[1])}|{op[2]}"]["system_count"], 1


# holder-sweep -------------------------------------------------------------------


class HolderSweep(Workload):
    """`holder_cross_validate(n, m)`: each pass runs one heavy case, (2, 18)
    and (3, 12) in turn, with every light (n, m) pair in seed order, half
    before and half after it.

    Passes alternate between the heavy cases in a fixed order, since which one
    ran first changed the run's peak memory by 16 %.  Running the light pairs
    in several groups spread over the run, rather than in one 2-second window,
    makes their latencies sample the host's speed at several times.
    """

    name = "holder-sweep"
    tail_pct = 90.0
    min_passes = 2

    def __init__(self, seed: int):
        doc = load("holder.json")
        self.seed = seed
        self.heavy = [tuple(p) for p in doc["heavy"]]
        self.light = [tuple(p) for p in doc["light"]]
        self.expected = doc["expected"]

    def ops(self, k: int) -> list:
        light = list(self.light)
        _rng(self.seed, k).shuffle(light)
        half = len(light) // 2
        return light[:half] + [self.heavy[k % len(self.heavy)]] + light[half:]

    def run(self, op):
        return decompose_mod.holder_cross_validate(*op)

    def check(self, op, result):
        want = self.expected[f"{op[0]},{op[1]}"]
        if not result["match"]:
            return f"{op}: presentation and system types differ"
        if result["presentation_types"] != want["types"] or result["system_types"] != want["types"]:
            return f"{op}: types {result['presentation_types']}, expected {want['types']}"
        return None

    def units(self, op, result):
        return self.expected[f"{op[0]},{op[1]}"]["systems"], 1


# cli-requests -------------------------------------------------------------------


class CliRequests(Workload):
    """A stream of small single-object CLI calls drawn from committed pools.

    Each pass takes `take` requests from every stratum, drawn and ordered by
    the seed: 4 per subcommand, split evenly between the size bands of
    `morphisms` and `decompose` (see make_inputs.py).  Every request builds
    fresh groups and starts with a cold product cache.
    """

    name = "cli-requests"
    tail_pct = 98.0
    # 20 requests a pass: 26 passes leave 10 samples beyond p98.
    min_passes = 26

    def __init__(self, seed: int):
        doc = load("cli.json")
        self.seed = seed
        self.strata = doc["strata"]
        systems_dir = INPUTS / "systems"
        self.requests = {}
        for stratum in self.strata.values():
            for req in stratum["requests"]:
                argv = [f"@{systems_dir / a[1:]}" if a.startswith("@") else a for a in req["argv"]]
                self.requests[req["id"]] = dict(req, argv=argv)
                for a in argv:
                    if a.startswith("@"):
                        load(f"systems/{Path(a).name}")

    def ops(self, k: int) -> list:
        rng = _rng(self.seed, k)
        ids = []
        for stratum in self.strata.values():
            pool = [r["id"] for r in stratum["requests"]]
            ids += rng.sample(pool, min(stratum["take"], len(pool)))
        rng.shuffle(ids)
        return ids

    def run(self, op):
        return run_cli(self.requests[op]["argv"])

    def check(self, op, result):
        req = self.requests[op]
        code, out = result
        if code != 0:
            return f"{op}: exit code {code}"
        if digest(out) != req["digest"]:
            return f"{op}: stdout digest differs"
        if req.get("hom_oracle"):
            # |Hom(product A, product B)| recomputed independently of the library's own check.
            doc = json.loads(out)
            sa = products.build_product(systems.system_from_doc(doc["system_a"]))
            sb = products.build_product(systems.system_from_doc(doc["system_b"]))
            homs = len(groups.enumerate_homomorphisms(sa.group, sb.group))
            if doc["count"] != homs:
                return f"{op}: {doc['count']} morphisms, |Hom| = {homs}"
        return None

    def units(self, op, result):
        return self.requests[op].get("systems", 0), int(self.requests[op].get("pair", False))


WORKLOADS = {w.name: w for w in (EnumerateBulk, ClassifyWitness, HolderSweep, CliRequests)}
