"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see per-criterion lines.
"""

import itertools
import random
import subprocess
import sys
import time

import numpy as np

from crossedprod.errors import AxiomViolationError
from crossedprod.groups import (
    Subgroup,
    alternating_group,
    are_isomorphic,
    automorphism_group,
    cyclic_group,
    dihedral_group,
    enumerate_homomorphisms,
    is_homomorphism,
    make_group,
    presentation_group,
    quaternion_group,
    quotient,
    subgroup_as_group,
    symmetric_group,
)
from crossedprod.classify import (
    classify,
    enumerate_crossed_systems,
    enumerate_raw_systems,
    functor_check,
    system_from_raw,
)
from crossedprod.decompose import decompose, decompose_abelian, holder_cross_validate, is_simple
from crossedprod.morphisms import (
    PairFromX,
    PairIntoX,
    enumerate_morphisms,
    universal_map_in,
    universal_map_out,
)
from crossedprod.products import (
    abelian_by_criterion,
    build_product,
    cached_product,
    center_pairs,
    product_table_np,
)
from crossedprod.systems import (
    cocycle,
    trivial_action,
    validate_crossed_system,
    weak_action,
)

C1 = cyclic_group(1)
C2 = cyclic_group(2)
C3 = cyclic_group(3)
C4 = cyclic_group(4)
C5 = cyclic_group(5)
C6 = cyclic_group(6)
C8 = cyclic_group(8)
K4 = make_group("product(cyclic:2,cyclic:2)")
S3 = symmetric_group(3)
D8 = dihedral_group(8)
Q8 = quaternion_group()


def report(num, elapsed, detail):
    print(f"ACCEPTANCE {num} PASS ({elapsed:.2f}s): {detail}")


def inversion_action(actor, space):
    ident = tuple(range(space.order))
    inv = tuple(space.inv(x) for x in space.elements())
    return weak_action(actor, space, [ident if g == 0 else inv for g in actor.elements()])


def test_criterion_1_associativity_iff_axioms():
    """Random action/cocycle tables: pair table associative exactly when accepted."""
    started = time.perf_counter()
    rng = random.Random(20080214)
    pool = [C2, C3, C4, K4]
    samples = 10_000
    disagreements = 0
    np_tables = {g: np.array(g.table, dtype=np.int64) for g in pool}
    for _ in range(samples):
        h = rng.choice(pool)
        g = rng.choice(pool)
        auts = automorphism_group(h)
        perms = [rng.choice(auts).map for _ in range(g.order)]
        f_rows = [[rng.randrange(h.order) for _ in range(g.order)] for _ in range(g.order)]
        table = product_table_np(
            np_tables[h], np_tables[g],
            np.array(perms, dtype=np.int64), np.array(f_rows, dtype=np.int64),
        )
        associative = bool(np.array_equal(table[table, :], table[:, table]))
        try:
            validate_crossed_system(h, g, weak_action(g, h, perms), cocycle(g, h, f_rows))
            accepted = True
        except AxiomViolationError:
            accepted = False
        if associative != accepted:
            disagreements += 1
    elapsed = time.perf_counter() - started
    assert disagreements == 0
    assert elapsed < 60.0
    report(1, elapsed, f"{samples} random tables, 0 disagreements")


def test_criterion_2_paper_examples_reproduce():
    started = time.perf_counter()
    tw = validate_crossed_system(
        C2, C2, trivial_action(C2, C2), cocycle(C2, C2, [[0, 0], [0, 1]])
    )
    assert are_isomorphic(build_product(tw).group, C4) is not None
    # the quaternion system: inversion action, cocycle valued at the unique
    # order-2 element of C4 (forced by the cocycle law)
    q_sys = validate_crossed_system(
        C4, C2, inversion_action(C2, C4), cocycle(C2, C4, [[0, 0], [0, 2]])
    )
    assert are_isomorphic(build_product(q_sys).group, Q8) is not None
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(2, elapsed, "twisted C2xC2 gives C4; inversion system on C4 gives Q8")


def test_criterion_3_enumeration_exactness():
    started = time.perf_counter()
    # independent oracle over the free cells: raw pair-table associativity scan
    oracle = []
    for faa in range(2):
        f = [[0, 0], [0, faa]]
        table = [[0] * 4 for _ in range(4)]
        for h1 in range(2):
            for g1 in range(2):
                for h2 in range(2):
                    for g2 in range(2):
                        hv = (h1 + h2 + f[g1][g2]) % 2
                        table[h1 + 2 * g1][h2 + 2 * g2] = hv + 2 * ((g1 + g2) % 2)
        ok = all(
            table[table[x][y]][z] == table[x][table[y][z]]
            for x in range(4) for y in range(4) for z in range(4)
        )
        if ok:
            oracle.append((faa, table))
    assert len(oracle) == 2
    systems = enumerate_crossed_systems(C2, C2)
    assert len(systems) == len(oracle) == 2
    types = set()
    for (_, table) in oracle:
        g = make_group({"order": 4, "table": table, "renumber": True})
        for name, ref in (("C4", C4), ("C2xC2", K4)):
            if are_isomorphic(g, ref) is not None:
                types.add(name)
    assert types == {"C4", "C2xC2"}
    built = {
        name
        for sys in systems
        for (name, ref) in (("C4", C4), ("C2xC2", K4))
        if are_isomorphic(build_product(sys).group, ref) is not None
    }
    assert built == types
    # one system whenever the quotient side is trivial
    for h in (C2, C3, C4, C5, C6, C8, K4, S3, D8, Q8):
        assert len(enumerate_crossed_systems(h, C1)) == 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(3, elapsed, "|Crossed(C2,C2)| = 2 with types {C4, C2xC2}; trivial side unique")


def _second_cohomology_class_count(g_grp, h_grp):
    """Brute-force H^2 for abelian coefficients with the trivial action.

    Normalized 2-cocycles under the classical identity (symmetry not assumed),
    modulo coboundaries of normalized 1-cochains.
    """
    m, n = g_grp.order, h_grp.order
    cells = [(a, b) for a in range(1, m) for b in range(1, m)]
    cocycles = set()
    for combo in itertools.product(range(n), repeat=len(cells)):
        f = [[0] * m for _ in range(m)]
        for ((a, b), v) in zip(cells, combo):
            f[a][b] = v
        ok = all(
            h_grp.mul(f[g1][g2], f[g_grp.mul(g1, g2)][g3])
            == h_grp.mul(f[g2][g3], f[g1][g_grp.mul(g2, g3)])
            for g1 in range(m) for g2 in range(m) for g3 in range(m)
        )
        if ok:
            cocycles.add(tuple(tuple(row) for row in f))
    classes = 0
    seen = set()
    for f in sorted(cocycles):
        if f in seen:
            continue
        classes += 1
        for r in itertools.product(range(n), repeat=m - 1):
            rr = (0,) + r
            shifted = tuple(
                tuple(
                    h_grp.mul(
                        f[a][b],
                        h_grp.mul(h_grp.mul(rr[a], rr[b]), h_grp.inv(rr[g_grp.mul(a, b)])),
                    )
                    for b in range(m)
                )
                for a in range(m)
            )
            seen.add(shifted)
    return classes


def test_criterion_4_classification_counts_and_refinement():
    started = time.perf_counter()
    for relation in ("eq1", "eq2", "iso"):
        assert classify(C2, C2, relation).class_count() == 2
    assert _second_cohomology_class_count(C2, C2) == 2
    assert classify(C2, C2, "eq1").class_count() == 2
    catalog = [C1, C2, C3, C4, C5, C6, C8, K4, S3, D8, Q8]
    checked = 0
    for h in catalog:
        for g in catalog:
            if h.order * g.order > 16:
                continue
            out = functor_check(h, g)
            assert out["eq1_refines_eq2"], (h.name, g.name)
            assert out["eq2_refines_iso"], (h.name, g.name)
            checked += 1
    elapsed = time.perf_counter() - started
    report(4, elapsed, f"2/2/2 classes on (C2,C2), H^2 oracle = 2, refinement on {checked} pairs")


def test_criterion_5_morphism_bijection():
    started = time.perf_counter()
    c2c2 = enumerate_crossed_systems(C2, C2)
    c4c2 = enumerate_crossed_systems(C4, C2)
    c2c4 = enumerate_crossed_systems(C2, C4)
    pairs = [(a, b) for a in c2c2 for b in c2c2]          # 4, incl. 2 identity pairs
    pairs += [(a, b) for a in c4c2[:3] for b in c4c2[:3]]  # 9 more
    pairs += [(c4c2[4], c4c2[5]), (c4c2[5], c4c2[5]), (c2c4[0], c2c4[1])]
    assert len(pairs) >= 10
    from crossedprod.morphisms import induced_map

    identity_pairs = 0
    for (sa, sb) in pairs:
        prod_a = cached_product(sa).group
        prod_b = cached_product(sb).group
        assert prod_a.order <= 16 and prod_b.order <= 16
        quads = enumerate_morphisms(sa, sb)
        homs = enumerate_homomorphisms(prod_a, prod_b)
        # genuine bijection: the induced maps are exactly the homomorphisms
        induced = {induced_map(sa, sb, q) for q in quads}
        assert len(induced) == len(quads) == len(homs)
        assert induced == {hom.map for hom in homs}
        if sa == sb:
            identity_pairs += 1
    assert identity_pairs >= 2
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(5, elapsed, f"{len(pairs)} system pairs, quadruple count = homomorphism count")


def test_criterion_6_center_and_abelianness_formulas():
    started = time.perf_counter()
    catalog = [C1, C2, C3, C4, C5, C6, C8, K4, S3, D8, Q8]
    systems_checked = 0
    disagreements = 0
    for h in catalog:
        for g in catalog:
            if h.order * g.order > 32:
                continue
            hm = np.array(h.table, dtype=np.int64)
            gm = np.array(g.table, dtype=np.int64)
            aut_perms = [np.array(a.map, dtype=np.int64) for a in automorphism_group(h)]
            n = h.order
            records = []
            enumerate_raw_systems(h, g, lambda a, fb: records.append((a, fb)))
            for (alpha, fb) in records:
                act = np.stack([aut_perms[a] for a in alpha])
                f_arr = np.frombuffer(fb, dtype=np.uint8).astype(np.int64).reshape(g.order, g.order)
                table = product_table_np(hm, gm, act, f_arr)
                # direct scans on the raw table: the centre is the rows that commute with every column
                commutes = table == table.T
                direct_center = {(idx % n, idx // n) for idx in np.flatnonzero(commutes.all(axis=1)).tolist()}
                direct_abelian = bool(commutes.all())
                sys_obj = system_from_raw(h, g, alpha, fb)
                if center_pairs(sys_obj) != direct_center:
                    disagreements += 1
                if abelian_by_criterion(sys_obj) != direct_abelian:
                    disagreements += 1
                systems_checked += 1
    elapsed = time.perf_counter() - started
    assert disagreements == 0
    report(6, elapsed, f"{systems_checked} products up to order 32, 0 disagreements")


DECOMPOSE_CATALOG = (
    [f"cyclic:{n}" for n in range(2, 25)]
    + [f"dihedral:{n}" for n in range(6, 25, 2)]
    + ["quaternion:8", "symmetric:3", "symmetric:4",
       "product(cyclic:2,cyclic:2)", "product(cyclic:2,cyclic:4)",
       "product(cyclic:2,cyclic:6)", "product(cyclic:2,cyclic:8)",
       "product(cyclic:2,cyclic:10)", "product(cyclic:2,cyclic:12)",
       "product(cyclic:3,cyclic:3)", "product(cyclic:4,cyclic:4)",
       "product(cyclic:3,cyclic:6)", "product(cyclic:4,cyclic:6)",
       "product(cyclic:2,product(cyclic:2,cyclic:2))",
       "product(cyclic:2,product(cyclic:2,cyclic:4))",
       "product(cyclic:2,product(cyclic:2,product(cyclic:2,cyclic:2)))",
       "product(cyclic:2,symmetric:3)", "product(cyclic:2,quaternion:8)",
       "product(cyclic:3,symmetric:3)", "product(cyclic:2,dihedral:8)"]
)


DECOMPOSE_EXTRAS = [
    alternating_group(4),
    presentation_group(3, 4, 0, 2, "Dic3"),
    presentation_group(8, 2, 0, 5, "M16"),
    presentation_group(8, 2, 0, 3, "SD16"),
    presentation_group(8, 2, 4, 7, "Q16"),
    presentation_group(5, 4, 0, 2, "F20"),
    presentation_group(7, 3, 0, 2, "F21"),
    presentation_group(3, 8, 0, 2, "C3:C8"),
]


def test_criterion_7_decomposition_soundness():
    started = time.perf_counter()
    groups = [make_group(spec) for spec in DECOMPOSE_CATALOG] + DECOMPOSE_EXTRAS
    assert all(g.order <= 24 for g in groups)

    def walk(node):
        count = 1
        if node.is_leaf:
            assert is_simple(node.group)
            return count
        prod = build_product(node.system)
        rebuilt = prod.group
        theta = node.theta.map
        assert node.theta.is_bijective()
        assert is_homomorphism(rebuilt, node.group, theta)
        assert are_isomorphic(rebuilt, node.group) is not None
        # theta is compatible with the inclusion of the normal part and the
        # projection onto the quotient, both rebuilt from theta's image of H
        image = Subgroup(node.group, tuple(sorted(theta[x] for x in prod.include_h.map)))
        sub, incl = subgroup_as_group(image)
        q, proj = quotient(node.group, image)
        assert sub == node.system.h == node.left.group
        assert q == node.system.g == node.right.group
        assert all(theta[prod.include_h.map[x]] == incl.map[x] for x in sub.elements())
        assert all(proj.map[theta[idx]] == prod.project_g.map[idx] for idx in rebuilt.elements())
        return count + walk(node.left) + walk(node.right)

    nodes = 0
    for g in groups:
        tree = decompose(g)
        nodes += walk(tree)
        assert all(is_simple(leaf) for leaf in tree.leaves())
        if g.is_abelian:
            atree = decompose_abelian(g)

            def abelian_walk(node):
                if node.is_leaf:
                    orders = node.group.order
                    assert is_simple(node.group) and node.group.is_abelian
                    return
                assert node.system.action.is_trivial()
                abelian_walk(node.left)
                abelian_walk(node.right)

            abelian_walk(atree)
            expected = 1
            for p in atree.leaf_orders():
                expected *= p
            assert expected == g.order
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(7, elapsed, f"{len(groups)} catalog groups, {nodes} verified tree nodes")


def test_criterion_8_holder_cross_validation():
    started = time.perf_counter()
    for (n, m, expected) in [(3, 2, ["C6", "S3"]), (2, 2, ["C2xC2", "C4"])]:
        rep = holder_cross_validate(n, m)
        assert rep["match"] and sorted(rep["presentation_types"]) == expected
    checked = 0
    for n in range(1, 37):
        for m in range(1, 37):
            if n * m <= 36:
                rep = holder_cross_validate(n, m)
                assert rep["match"], (n, m)
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(8, elapsed, f"{checked} (n, m) pairs cross-validated")


def _enumerate_pairs_into(sys, x):
    """All (u, v) making (X, (u, v)) a valid receiving pair, by direct search."""
    xm = x.table
    m = sys.g.order
    out = []
    for u in enumerate_homomorphisms(sys.h, x):
        um = u.map
        candidates = [[0]]
        feasible = True
        for g in range(1, m):
            cands = [
                xi
                for xi in x.elements()
                if all(xm[xi][um[h]] == xm[um[sys.act(g, h)]][xi] for h in sys.h.elements())
            ]
            if not cands:
                feasible = False
                break
            candidates.append(cands)
        if not feasible:
            continue
        for combo in itertools.product(*candidates):
            v = tuple(combo)
            ok = all(
                xm[v[g1]][v[g2]] == xm[um[sys.f(g1, g2)]][v[sys.g.mul(g1, g2)]]
                for g1 in range(m)
                for g2 in range(m)
            )
            if ok:
                out.append((u, v))
    return out


def _enumerate_pairs_from(sys, x):
    """All (u, v) making (X, (u, v)) a valid emitting pair, by direct search."""
    hm = sys.h.table
    out = []
    for v in enumerate_homomorphisms(x, sys.g):
        vm = v.map
        size = x.order
        for combo in itertools.product(range(sys.h.order), repeat=size - 1):
            u = (0,) + combo
            ok = all(
                u[x.mul(a, b)]
                == hm[hm[u[a]][sys.act(vm[a], u[b])]][sys.f(vm[a], vm[b])]
                for a in range(size)
                for b in range(size)
            )
            if ok:
                out.append((u, v))
    return out


def test_criterion_9_universal_properties():
    started = time.perf_counter()
    systems = (
        enumerate_crossed_systems(C2, C2)
        + enumerate_crossed_systems(C3, C2)
        + enumerate_crossed_systems(C4, C2)
        + enumerate_crossed_systems(S3, C2)
    )
    systems = [s for s in systems if s.h.order * s.g.order <= 12]
    receivers = [C1, C2, C3, C4, K4, S3]
    pair_count = 0
    for sys in systems:
        prod = cached_product(sys)
        for x in receivers:
            hom_cache = None
            for (u, v) in _enumerate_pairs_into(sys, x):
                w = universal_map_out(sys, PairIntoX(u, v))
                if hom_cache is None:
                    hom_cache = enumerate_homomorphisms(prod.group, x)
                matches = [
                    cand
                    for cand in hom_cache
                    if all(cand.map[prod.include_h.map[h]] == u.map[h] for h in sys.h.elements())
                    and all(cand.map[prod.encode(0, g)] == v[g] for g in sys.g.elements())
                ]
                assert len(matches) == 1 and matches[0].map == w.map
                pair_count += 1
            if x.order > 6:
                continue  # emitting-pair search is |H|^|X|; keep sources small
            hom_cache = None
            for (u, v) in _enumerate_pairs_from(sys, x):
                w = universal_map_in(sys, PairFromX(u, v))
                if hom_cache is None:
                    hom_cache = enumerate_homomorphisms(x, prod.group)
                matches = [
                    cand
                    for cand in hom_cache
                    if all(
                        prod.decode(cand.map[a]) == (u[a], v.map[a])
                        for a in x.elements()
                    )
                ]
                assert len(matches) == 1 and matches[0].map == w.map
                pair_count += 1
    elapsed = time.perf_counter() - started
    report(9, elapsed, f"{pair_count} universal pairs, each with exactly one mediating map")


def test_criterion_10_determinism_across_workers():
    started = time.perf_counter()
    outputs = {}
    for relation in ("eq1", "eq2", "iso"):
        for workers in ("1", "8"):
            proc = subprocess.run(
                [sys.executable, "-m", "crossedprod.cli", "classify",
                 "--h", "cyclic:4", "--g", "cyclic:2",
                 "--relation", relation, "--workers", workers],
                capture_output=True,
            )
            assert proc.returncode == 0
            outputs.setdefault(relation, set()).add(proc.stdout)
    for relation, outs in outputs.items():
        assert len(outs) == 1, f"non-deterministic output for {relation}"
    elapsed = time.perf_counter() - started
    report(10, elapsed, "byte-identical classify reports for workers 1 and 8")
