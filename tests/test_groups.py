import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

from crossedprod import groups as groups_mod
from crossedprod.errors import (
    CapExceededError,
    InvalidDescriptorError,
    InvalidTableError,
    NotNormalError,
)
from crossedprod.groups import (
    _generator_plan,
    _isomorphisms,
    alternating_group,
    are_isomorphic,
    automorphism_group,
    center,
    check_table,
    closure,
    cyclic_group,
    dihedral_group,
    direct_product,
    enumerate_homomorphisms,
    generating_sequence,
    homomorphism_maps,
    identify_group,
    inner_automorphisms,
    inverse,
    is_homomorphism,
    isomorphic,
    make_group,
    multiply,
    normal_subgroups,
    presentation_group,
    quaternion_group,
    quotient,
    subgroup_as_group,
    symmetric_group,
    table_group,
)

CATALOG = [
    cyclic_group(1),
    cyclic_group(2),
    cyclic_group(3),
    cyclic_group(4),
    cyclic_group(5),
    cyclic_group(6),
    cyclic_group(8),
    cyclic_group(12),
    make_group("product(cyclic:2,cyclic:2)"),
    make_group("product(cyclic:2,cyclic:4)"),
    make_group("product(cyclic:2,product(cyclic:2,cyclic:2))"),
    symmetric_group(3),
    symmetric_group(4),
    dihedral_group(8),
    dihedral_group(10),
    dihedral_group(12),
    quaternion_group(),
    alternating_group(4),
    make_group("product(cyclic:8,cyclic:8)"),
    dihedral_group(64),
]


def brute_identity_latin_assoc(g):
    n = g.order
    t = g.table
    for x in range(n):
        assert t[0][x] == x and t[x][0] == x
    for x in range(n):
        assert sorted(t[x]) == list(range(n))
        assert sorted(t[y][x] for y in range(n)) == list(range(n))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                assert t[t[x][y]][z] == t[x][t[y][z]]


@pytest.mark.parametrize("g", CATALOG, ids=lambda g: g.name)
def test_constructed_groups_satisfy_invariants(g):
    brute_identity_latin_assoc(g)
    # every element has an inverse
    for x in g.elements():
        assert g.mul(x, g.inv(x)) == 0


def test_trivial_and_cyclic_basics():
    c1 = make_group("cyclic:1")
    assert c1.order == 1
    c4 = make_group("cyclic:4")
    assert c4.element_order(1) == 4
    assert multiply(c4, 1, 2) == 3
    assert inverse(c4, 1) == 3
    c5 = cyclic_group(5)
    assert inverse(c5, 2) == 3
    c2 = cyclic_group(2)
    assert multiply(c2, 1, 1) == 0


def test_quaternion_order_profile():
    q8 = make_group("quaternion:8")
    # brute-force inspection of the table
    orders = []
    for x in q8.elements():
        k, acc = 1, x
        while acc != 0:
            acc = q8.mul(acc, x)
            k += 1
        orders.append(k)
    assert sorted(orders) == [1, 2, 4, 4, 4, 4, 4, 4]


def test_quaternion_ij_is_k_class():
    q8 = quaternion_group()
    i, j = 1, 4  # a and b in the two-generator table
    k = q8.mul(i, j)
    assert q8.element_order(k) == 4
    assert k not in {i, q8.inv(i), j, q8.inv(j)}


def test_center_examples():
    for g in (cyclic_group(6), make_group("product(cyclic:2,cyclic:2)")):
        assert center(g).elements == tuple(g.elements())
    assert center(symmetric_group(3)).elements == (0,)
    zq = center(quaternion_group())
    assert zq.order == 2
    # independent scan
    q8 = quaternion_group()
    brute = tuple(
        x for x in q8.elements() if all(q8.mul(x, y) == q8.mul(y, x) for y in q8.elements())
    )
    assert zq.elements == brute


def test_normal_subgroups_examples():
    for p in (2, 3, 5, 7):
        assert len(normal_subgroups(cyclic_group(p))) == 2
    s3 = symmetric_group(3)
    ns = normal_subgroups(s3)
    assert len(ns) == 3
    assert [s.order for s in ns] == [1, 3, 6]
    k4 = make_group("product(cyclic:2,cyclic:2)")
    assert len(normal_subgroups(k4)) == 5
    # deterministic order: by size then element tuple
    sizes = [s.order for s in normal_subgroups(k4)]
    assert sizes == sorted(sizes)


def test_normal_subgroups_are_normal_and_closed():
    for g in (symmetric_group(3), quaternion_group(), dihedral_group(8)):
        for s in normal_subgroups(g):
            members = set(s.elements)
            assert 0 in members
            for a in members:
                assert g.inv(a) in members
                for b in members:
                    assert g.mul(a, b) in members
            assert s.is_normal()


def test_quotient_examples():
    s3 = symmetric_group(3)
    a3 = normal_subgroups(s3)[1]
    q, proj = quotient(s3, a3)
    assert q.order == 2
    assert proj.is_surjective()
    assert set(proj.kernel_elements()) == set(a3.elements)
    # trivial and full quotients
    triv = normal_subgroups(s3)[0]
    q1, _ = quotient(s3, triv)
    assert are_isomorphic(q1, s3) is not None
    qfull, _ = quotient(s3, normal_subgroups(s3)[-1])
    assert qfull.order == 1
    # non-normal subgroup is rejected
    from crossedprod.groups import Subgroup

    flip = Subgroup(s3, (0, 1))
    assert not flip.is_normal()
    with pytest.raises(NotNormalError):
        quotient(s3, flip)


def test_automorphism_groups():
    assert len(automorphism_group(cyclic_group(2))) == 1
    assert len(automorphism_group(cyclic_group(4))) == 2
    assert len(automorphism_group(make_group("product(cyclic:2,cyclic:2)"))) == 6
    assert len(automorphism_group(symmetric_group(3))) == 6
    assert len(automorphism_group(quaternion_group())) == 24


@pytest.mark.parametrize("g", [cyclic_group(6), make_group("product(cyclic:2,cyclic:2)"),
                               symmetric_group(3), dihedral_group(8)], ids=lambda g: g.name)
def test_automorphisms_closed_under_composition_and_inverse(g):
    auts = automorphism_group(g)
    perms = {a.map for a in auts}
    for a in auts:
        assert a.inverse_automorphism().map in perms
        for b in auts:
            assert tuple(a.map[b.map[x]] for x in g.elements()) in perms
    # cached and deterministic
    assert [a.map for a in automorphism_group(g)] == sorted(perms)


def test_inverse_automorphism_is_computed_once_and_inverts():
    for a in automorphism_group(dihedral_group(8)):
        inv = a.inverse_automorphism()
        assert a.inverse_automorphism() is inv
        assert all(inv.map[a.map[x]] == x for x in range(len(a.map)))
        # the kept inverse is not a field: equality and hashing are unchanged
        fresh = type(a)(a.source, a.target, a.map)
        assert a == fresh and hash(a) == hash(fresh)


def test_are_isomorphic_examples():
    c4 = cyclic_group(4)
    k4 = make_group("product(cyclic:2,cyclic:2)")
    w = are_isomorphic(c4, c4)
    assert w is not None and w.map == (0, 1, 2, 3)
    assert are_isomorphic(c4, k4) is None
    # witness really is an isomorphism
    d8 = dihedral_group(8)
    d8b = presentation_group(4, 2, 0, 3, "alt")
    w = are_isomorphic(d8, d8b)
    assert w is not None
    assert is_homomorphism(d8, d8b, w.map) and w.is_bijective()


def test_are_isomorphic_is_an_equivalence_on_samples():
    rng = random.Random(7)
    groups = [cyclic_group(4), make_group("product(cyclic:2,cyclic:2)"),
              symmetric_group(3), cyclic_group(6), dihedral_group(8),
              quaternion_group(), presentation_group(4, 2, 2, 3, "q"), cyclic_group(8)]
    for g in groups:
        assert are_isomorphic(g, g) is not None
    for _ in range(30):
        a, b, c = rng.choice(groups), rng.choice(groups), rng.choice(groups)
        ab = are_isomorphic(a, b) is not None
        ba = are_isomorphic(b, a) is not None
        assert ab == ba
        if ab and are_isomorphic(b, c) is not None:
            assert are_isomorphic(a, c) is not None



# `isomorphic` decides by order, equal tables, abelianness and, for abelian
# groups, the order profile before it searches; the witness search
# `are_isomorphic` is its oracle on every pair of equal order

ISO_DESCRIPTORS = [
    # abelian groups of one order but different type
    "cyclic:8", "product(cyclic:4,cyclic:2)", "product(cyclic:2,product(cyclic:2,cyclic:2))",
    "cyclic:16", "product(cyclic:4,cyclic:4)", "product(cyclic:8,cyclic:2)",
    "product(cyclic:4,product(cyclic:2,cyclic:2))",
    # one type on different tables
    "product(cyclic:3,cyclic:4)", "product(cyclic:2,cyclic:3)",
    "product(symmetric:3,cyclic:2)", "product(cyclic:2,symmetric:3)",
    # non-abelian groups of order 16, Q8xC2 among them
    "dihedral:16", "product(quaternion:8,cyclic:2)", "product(dihedral:8,cyclic:2)",
    "product(symmetric:3,cyclic:4)", "dihedral:24", "dihedral:32",
]


def _renumbered(grp, seed):
    """grp on a random permutation of its labels, the identity included,
    read back through `table_group(..., renumber=True)`."""
    perm = list(range(grp.order))
    random.Random(seed).shuffle(perm)
    table = [[0] * grp.order for _ in range(grp.order)]
    for x in range(grp.order):
        for y in range(grp.order):
            table[perm[x]][perm[y]] = perm[grp.table[x][y]]
    return table_group(table, name=f"{grp.name}~{seed}", renumber=True)


def _assert_iso_decisions_match_the_search(groups) -> tuple[int, int]:
    """Check `isomorphic` and `are_isomorphic` on every pair of equal order
    against the unfiltered witness search; (pairs, isomorphic pairs).

    Isomorphic groups must share their fingerprint, so a field that is not an
    invariant fails here."""
    by_order: dict = {}
    for grp in groups:
        by_order.setdefault(grp.order, []).append(grp)
    pairs = hits = 0
    for same in by_order.values():
        for a, b in itertools.combinations_with_replacement(same, 2):
            want = next(_isomorphisms(a, b), None) is not None
            if want:
                assert a.fingerprint() == b.fingerprint(), (a.name, b.name)
            assert (are_isomorphic(a, b) is not None) == want, (a.name, b.name)
            assert isomorphic(a, b) == isomorphic(b, a) == want, (a.name, b.name)
            pairs += 1
            hits += want
    return pairs, hits


def test_iso_decision_oracle_catalog():
    groups = [g for g in CATALOG if g.order <= 32] + [make_group(d) for d in ISO_DESCRIPTORS]
    pairs, hits = _assert_iso_decisions_match_the_search(groups)
    assert hits < pairs
    for descs in (ISO_DESCRIPTORS[:3], ISO_DESCRIPTORS[3:6]):
        for a, b in itertools.combinations([make_group(d) for d in descs], 2):
            assert not isomorphic(a, b) and a.is_abelian and b.is_abelian
    assert isomorphic(make_group("product(cyclic:3,cyclic:4)"), cyclic_group(12))
    assert isomorphic(make_group("product(symmetric:3,cyclic:2)"), dihedral_group(12))


def test_iso_decision_oracle_presentations():
    groups = _presentation_groups()
    pairs, hits = _assert_iso_decisions_match_the_search(groups)
    assert len(groups) == 1193 and 0 < hits < pairs
    # non-abelian pairs that tie on order profile, centre and class sizes:
    # the number of distinct squares tells them apart
    for a, b, squares in (
        (presentation_group(4, 4, 0, 3, "C4:C4"), make_group("product(quaternion:8,cyclic:2)"), (3, 2)),
        (presentation_group(4, 8, 0, 3, "P4.8.0.3"), presentation_group(8, 4, 0, 5, "P8.4.0.5"), (6, 8)),
        (presentation_group(8, 4, 0, 3, "P8.4.0.3"), presentation_group(8, 4, 0, 7, "P8.4.0.7"), (6, 5)),
    ):
        assert not a.is_abelian and not b.is_abelian
        assert a.fingerprint()[:4] == b.fingerprint()[:4]
        assert (a.fingerprint()[4], b.fingerprint()[4]) == squares
        assert are_isomorphic(a, b) is None and not isomorphic(a, b)
    # a pair of order 64 whose whole fingerprints tie: the search has the last word
    a = direct_product(cyclic_group(2), presentation_group(8, 4, 0, 5, "P8.4.0.5"))
    b = direct_product(cyclic_group(4), presentation_group(4, 4, 2, 3, "P4.4.2.3"))
    assert not a.is_abelian and not b.is_abelian
    assert a.fingerprint() == b.fingerprint() and a.fingerprint()[4] == 8
    assert next(_isomorphisms(a, b), None) is None
    assert are_isomorphic(a, b) is None and not isomorphic(a, b)


def test_iso_decision_oracle_relabelled():
    base = [g for g in CATALOG if g.order <= 32] + [make_group(d) for d in ISO_DESCRIPTORS]
    base += [g for g in _presentation_groups() if g.order in (8, 12, 16)]
    copies = [_renumbered(g, seed) for seed, g in enumerate(base)]
    for g, copy in zip(base, copies):
        assert copy.table != g.table or g.order < 8
        assert isomorphic(g, copy)
    _assert_iso_decisions_match_the_search(base + copies)

def test_enumerate_homomorphisms_counts():
    c2, c4 = cyclic_group(2), cyclic_group(4)
    k4 = make_group("product(cyclic:2,cyclic:2)")
    s3 = symmetric_group(3)
    assert len(enumerate_homomorphisms(c2, c2)) == 2
    assert len(enumerate_homomorphisms(c4, c2)) == 2
    assert len(enumerate_homomorphisms(k4, c2)) == 4
    assert len(enumerate_homomorphisms(k4, k4)) == 16
    assert len(enumerate_homomorphisms(c4, k4)) == 4
    assert len(enumerate_homomorphisms(k4, c4)) == 4
    assert len(enumerate_homomorphisms(s3, c2)) == 2
    assert len(enumerate_homomorphisms(s3, s3)) == 10
    for hom in enumerate_homomorphisms(s3, s3):
        assert is_homomorphism(s3, s3, hom.map)


def test_generating_sequence_generates():
    for g in (cyclic_group(12), symmetric_group(4), quaternion_group()):
        gens = generating_sequence(g)
        assert len(closure(g, gens)) == g.order


def test_make_group_descriptors():
    assert make_group("cyclic:6").order == 6
    assert make_group("dihedral:12").order == 12
    assert make_group("symmetric:4").order == 24
    nested = make_group("product(cyclic:2,product(cyclic:3,cyclic:2))")
    assert nested.order == 12
    with pytest.raises(InvalidDescriptorError):
        make_group("symmetric:6")
    with pytest.raises(InvalidDescriptorError):
        make_group("frobnicate:5")
    with pytest.raises(InvalidDescriptorError):
        make_group("quaternion:16")
    with pytest.raises(CapExceededError):
        make_group("cyclic:300")
    with pytest.raises(CapExceededError):
        make_group("cyclic:20", max_order=10)


@pytest.mark.parametrize("spec", [
    "cyclic:1", "cyclic:7", "dihedral:2", "dihedral:4", "dihedral:18", "quaternion:8",
    "symmetric:1", "symmetric:2", "symmetric:3", "symmetric:4", "symmetric:5",
    "product(cyclic:3,dihedral:6)", "product(quaternion:8,product(cyclic:2,symmetric:3))",
])
def test_descriptor_groups_are_group_tables(spec):
    # make_group does not re-validate what the constructors build
    g = make_group(spec)
    check_table(g.table)
    assert g.descriptor == spec


def test_group_cap_applies_before_any_table_is_built(monkeypatch):
    from crossedprod import groups

    def unreachable(*args, **kwargs):
        raise AssertionError("a constructor ran for a group over the cap")

    for name in ("cyclic_group", "dihedral_group", "symmetric_group", "direct_product",
                 "table_group"):
        monkeypatch.setattr(groups, name, unreachable)
    for spec in ("cyclic:100000", "product(cyclic:200,cyclic:200)", "dihedral:1000",
                 "product(cyclic:2,product(cyclic:300,cyclic:1))"):
        with pytest.raises(CapExceededError):
            make_group(spec)
    with pytest.raises(CapExceededError):
        make_group("symmetric:5", max_order=100)
    with pytest.raises(CapExceededError):
        make_group("product(cyclic:8,cyclic:8)", max_order=32)
    with pytest.raises(CapExceededError):
        make_group({"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}, max_order=2)


def test_make_group_from_table_document():
    c3 = cyclic_group(3)
    doc = {"order": 3, "table": [list(r) for r in c3.table]}
    g = make_group(doc)
    assert g.table == c3.table
    # identity not at 0 needs the renumber flag
    perm = [1, 0, 2]  # relabeling that moves the identity to slot 1
    shifted = [
        [perm[c3.table[perm[x]][perm[y]]] for y in range(3)]
        for x in range(3)
    ]
    with pytest.raises(InvalidTableError):
        make_group({"order": 3, "table": shifted})
    g2 = make_group({"order": 3, "table": shifted, "renumber": True})
    assert are_isomorphic(g2, c3) is not None


def test_invalid_table_reports_first_failure():
    with pytest.raises(InvalidTableError) as err:
        check_table(((0, 1), (1, 1)))
    assert "permutation" in str(err.value)
    # associativity failure with a witness triple: a Latin square built from a
    # non-associative quasigroup
    t = (
        (0, 1, 2, 3, 4),
        (1, 0, 3, 4, 2),
        (2, 4, 0, 1, 3),
        (3, 2, 4, 0, 1),
        (4, 3, 1, 2, 0),
    )
    with pytest.raises(InvalidTableError) as err:
        check_table(t)
    assert err.value.reason == "not associative"
    x, y, z = err.value.witness
    assert t[t[x][y]][z] != t[x][t[y][z]]


def test_table_group_renumber():
    q8 = quaternion_group()
    perm = list(range(8))
    perm[0], perm[5] = 5, 0
    scrambled = [
        [perm[q8.table[perm[x]][perm[y]]] for y in range(8)]
        for x in range(8)
    ]
    g = table_group(scrambled, renumber=True)
    assert are_isomorphic(g, q8) is not None


@pytest.mark.parametrize("table, reason", [
    ([[0], [1, 0]], "ragged row"),
    ([[1, 0, 7], [0, 1, 2], [7, 2, 0]], "entry out of range"),
    ([[0, -1], [1, 0]], "entry out of range"),
    ([], "empty table"),
])
def test_table_group_renumber_checks_shape_first(table, reason):
    with pytest.raises(InvalidTableError) as err:
        table_group(table, renumber=True)
    assert err.value.reason == reason


def test_subgroup_as_group_inclusion():
    s3 = symmetric_group(3)
    a3 = normal_subgroups(s3)[1]
    grp, incl = subgroup_as_group(a3)
    assert grp.order == 3
    assert is_homomorphism(grp, s3, incl.map)
    assert set(incl.map) == set(a3.elements)


def test_identify_group_names():
    assert identify_group(cyclic_group(1)) == "C1"
    assert identify_group(cyclic_group(4)) == "C4"
    assert identify_group(make_group("product(cyclic:2,cyclic:2)")) == "C2xC2"
    assert identify_group(make_group("product(cyclic:4,cyclic:2)")) == "C4xC2"
    assert identify_group(symmetric_group(3)) == "S3"
    assert identify_group(dihedral_group(8)) == "D8"
    assert identify_group(quaternion_group()) == "Q8"
    assert identify_group(alternating_group(4)) == "A4"
    assert identify_group(symmetric_group(4)) == "S4"
    assert identify_group(direct_product(cyclic_group(3), cyclic_group(4))) == "C12"


def _partitions(n):
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def _abelian_types(order):
    """Every abelian type of the given order as invariant factors, largest first."""
    per_prime = []
    n, p = order, 2
    while n > 1:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            per_prime.append([tuple(p**k for k in part) for part in _partitions(e)])
        p += 1
    types = set()
    for combo in itertools.product(*per_prime):
        width = max(len(c) for c in combo)
        types.add(tuple(
            math.prod(c[col] for c in combo if col < len(c)) for col in range(width)
        ))
    return sorted(types, reverse=True)


def _abelian_product(factors):
    grp = cyclic_group(factors[0])
    for f in factors[1:]:
        grp = direct_product(grp, cyclic_group(f))
    return grp


def _abelian_name_by_search(g):
    # reference: the first abelian type of g's order isomorphic to g
    for factors in _abelian_types(g.order):
        if are_isomorphic(g, _abelian_product(factors)) is not None:
            return "x".join(f"C{f}" for f in factors)
    return None


def test_abelian_names_from_order_counts_match_isomorphism_search():
    # every abelian type of order below 65, each against the factors it was
    # built from and against the isomorphism-search reference
    rng = random.Random(11)
    searched = 0
    for order in range(2, 65):
        for factors in _abelian_types(order):
            grp = _abelian_product(factors)
            perm = [0] + rng.sample(range(1, order), order - 1)
            table = [[0] * order for _ in range(order)]
            for x in range(order):
                for y in range(order):
                    table[perm[x]][perm[y]] = perm[grp.table[x][y]]
            relabelled = table_group(table)
            name = identify_group(relabelled)
            assert name == "x".join(f"C{f}" for f in factors)
            assert name == _abelian_name_by_search(relabelled)
            searched += 1
    assert searched == 116


def test_presentation_groups_are_group_tables():
    # presentation_group builds its tables without validation; every
    # consistent (n, m, i, j) with n*m <= 36 must still give a group table
    checked = 0
    for n in range(1, 37):
        for m in range(1, 37 // n + 1):
            for i in range(n):
                for j in range(n):
                    if (i * (j - 1)) % n == 0 and pow(j, m, n) == 1 % n:
                        check_table(presentation_group(n, m, i, j, "P").table)
                        checked += 1
    assert checked == 1194


def _relabelled(grp, seed):
    rng = random.Random(seed)
    order = grp.order
    perm = [0] + rng.sample(range(1, order), order - 1)
    table = [[0] * order for _ in range(order)]
    for x in range(order):
        for y in range(order):
            table[perm[x]][perm[y]] = perm[grp.table[x][y]]
    return table_group(table)


# reference search: every product pair of the partial domain is closed and
# checked at each node, independently of the library's generator plan and of
# `backtrack`


def _pairwise_closure(g, elems):
    # reference: adjoin all products of pairs until nothing new appears
    known = {0, *elems}
    while True:
        new = {g.mul(a, b) for a in known for b in known} - known
        if not new:
            return tuple(sorted(known))
        known |= new


def _greedy_generators(g):
    gens, closed = [], {0}
    for x in g.elements():
        if x not in closed:
            gens.append(x)
            closed = set(_pairwise_closure(g, gens))
    return gens


def _extend_by_all_pairs(src, dst, base, x, y):
    # the partial map `base` (closed under products) extended by x -> y and
    # closed again, checking multiplicativity on every pair; None on conflict
    if x in base:
        return base if base[x] == y else None
    mapping = dict(base)
    known = list(mapping)
    queue = [(x, k) for k in known] + [(k, x) for k in known] + [(x, x)]
    mapping[x] = y
    known.append(x)
    while queue:
        a, b = queue.pop()
        c = src.mul(a, b)
        d = dst.mul(mapping[a], mapping[b])
        cur = mapping.get(c)
        if cur is None:
            for k in known:
                queue.append((c, k))
                queue.append((k, c))
            queue.append((c, c))
            mapping[c] = d
            known.append(c)
        elif cur != d:
            return None
    return mapping


def _all_pairs_images(src, dst, images_of, injective=False):
    # reference: the value tables of the homomorphisms src -> dst, in search
    # order (generator by generator, candidates in `images_of` order)
    gens = _greedy_generators(src)

    def search(k, mapping):
        if k == len(gens):
            yield tuple(mapping[x] for x in src.elements())
            return
        for y in images_of(gens[k]):
            ext = _extend_by_all_pairs(src, dst, mapping, gens[k], y)
            if ext is not None and (not injective or len(set(ext.values())) == len(ext)):
                yield from search(k + 1, ext)

    yield from search(0, {0: 0})


def _by_order(g1, g2):
    by_order = {}
    for x in g2.elements():
        by_order.setdefault(g2.element_order(x), []).append(x)
    return lambda gen: by_order.get(g1.element_order(gen), ())


def _reference_isomorphisms(g1, g2):
    if g1.order != g2.order:
        return iter(())
    return _all_pairs_images(g1, g2, _by_order(g1, g2), injective=True)


def _reference_homomorphisms(src, dst):
    def images_of(gen):
        return [y for y in dst.elements() if src.element_order(gen) % dst.element_order(y) == 0]

    return sorted(_all_pairs_images(src, dst, images_of))


def _unpruned_isomorphisms(g1, g2):
    # reference: every homomorphism of the all-pairs search, kept when bijective
    for m in _all_pairs_images(g1, g2, _by_order(g1, g2)):
        if len(set(m)) == g1.order:
            yield m


SEARCH_GROUPS = CATALOG[:18]


@pytest.mark.parametrize("grp", SEARCH_GROUPS, ids=lambda g: g.name)
def test_generator_plan_search_matches_the_all_pairs_reference(grp):
    relabelled = _relabelled(grp, grp.order)
    for src in (grp, relabelled):
        for dst in (grp, relabelled):
            assert list(_isomorphisms(src, dst)) == list(_reference_isomorphisms(src, dst))
        assert [a.map for a in automorphism_group(src)] == sorted(_reference_isomorphisms(src, src))
        found = are_isomorphic(src, grp)
        assert found.map == next(_reference_isomorphisms(src, grp))


def test_homomorphisms_match_the_all_pairs_reference():
    groups = SEARCH_GROUPS + [_relabelled(g, 3) for g in SEARCH_GROUPS[8:]]
    for src in groups:
        for dst in groups:
            maps = homomorphism_maps(src, dst)
            assert maps == _reference_homomorphisms(src, dst), (src.name, dst.name)
            homs = enumerate_homomorphisms(src, dst)
            assert [h.map for h in homs] == maps
            assert all(type(h) is groups_mod.Homomorphism and (h.source, h.target) == (src, dst) for h in homs)


@pytest.mark.parametrize("grp", CATALOG, ids=lambda g: g.name)
def test_generator_plan_lists_each_generator_edge_once(grp):
    for g in (grp, _relabelled(grp, 1)):
        gens, levels = _generator_plan(g)
        assert list(gens) == _greedy_generators(g) and len(levels) == len(gens)
        listed = set()
        prev = {0}
        for k, steps in enumerate(levels):
            sub = set(_pairwise_closure(g, gens[: k + 1]))
            reached = set(prev)
            for (x, j, y, new) in steps:
                assert (x, j) not in listed and x in reached
                assert y == g.mul(x, gens[j]) and new == (y not in reached)
                listed.add((x, j))
                reached.add(y)
            assert listed == {(x, j) for x in sub for j in range(k + 1)}
            assert {y for (_, _, y, new) in steps if new} == sub - prev
            prev = sub
        assert prev == set(g.elements())
        # a fresh list each call: a caller's edit does not reach the cache
        seq = generating_sequence(g)
        seq.append(-1)
        assert generating_sequence(g) == list(gens)


def test_closure_matches_the_pairwise_reference_on_random_subsets():
    rng = random.Random(13)
    checked = 0
    for grp in CATALOG:
        for g in (grp, _relabelled(grp, 2)):
            for size in (0, 1, 1, 2, 2, 3):
                elems = [rng.randrange(g.order) for _ in range(size)]
                assert closure(g, elems) == _pairwise_closure(g, elems)
                checked += 1
    assert checked == 240


def test_closure_oracle_generator_skipping_equals_pairwise_closure():
    # every conjugacy class, and random generator lists of up to 2 |G|
    # elements with repeats, so that most of them are already inside the
    # subgroup built so far and are skipped; also the identity alone and
    # all of G, forwards and backwards
    rng = random.Random(29)
    base = CATALOG + [symmetric_group(5), alternating_group(5)]
    checked = 0
    for grp in base:
        for g in (grp, _relabelled(grp, 5)):
            lists = [list(cls) for cls in g.conjugacy_classes()]
            lists += [[0], list(g.elements()), list(reversed(g.elements()))]
            for _ in range(6):
                size = rng.randrange(2 * g.order + 1)
                lists.append([rng.randrange(g.order) for _ in range(size)])
            for elems in lists:
                assert closure(g, elems) == _pairwise_closure(g, elems), (g.name, elems)
                assert closure(g, iter(elems)) == closure(g, tuple(reversed(elems)))
                # numpy integers in, Python ints out
                got = closure(g, np.array(elems, dtype=np.intp))
                assert got == _pairwise_closure(g, elems) and _all_python_ints([got])
                checked += 1
    assert checked == 772


def _normal_subgroups_by_pairwise_closure(g):
    # reference: unions of conjugacy classes closed with the pairwise closure
    found = {(0,)}
    frontier = [(0,)]
    while frontier:
        base = frontier.pop()
        for cls in g.conjugacy_classes():
            if cls[0] not in base:
                new = _pairwise_closure(g, base + cls)
                if new not in found:
                    found.add(new)
                    frontier.append(new)
    return sorted(found, key=lambda e: (len(e), e))


@pytest.mark.parametrize("grp", CATALOG[:18], ids=lambda g: g.name)
def test_normal_subgroups_match_the_pairwise_closure_reference(grp):
    for g in (grp, _relabelled(grp, 4)):
        assert [s.elements for s in normal_subgroups(g)] == _normal_subgroups_by_pairwise_closure(g)


def _normal_subgroups_by_class_closures(g):
    # reference: every union of a subgroup with a further class, closed again
    # by `closure` from all of its elements
    found = {(0,)}
    frontier = [(0,)]
    while frontier:
        base = frontier.pop()
        base_set = set(base)
        for cls in g.conjugacy_classes():
            if cls[0] in base_set:
                continue
            new = closure(g, base + cls)
            if new not in found:
                found.add(new)
                frontier.append(new)
    return sorted(found, key=lambda e: (len(e), e))


def _lattice_groups():
    specs = [f"cyclic:{n}" for n in range(1, 25)]
    specs += [f"dihedral:{n}" for n in range(6, 65, 2)]
    specs += [
        "product(cyclic:2,product(cyclic:2,cyclic:2))", "product(cyclic:2,cyclic:4)",
        "product(cyclic:4,cyclic:4)", "quaternion:8", "product(quaternion:8,cyclic:2)",
        "symmetric:3", "symmetric:4", "symmetric:5", "product(cyclic:2,symmetric:4)",
        "product(symmetric:3,dihedral:8)",
    ]
    return [make_group(s) for s in specs] + [alternating_group(4), alternating_group(5)]


def test_lattice_oracle_normal_subgroups_and_simplicity():
    from crossedprod.decompose import is_simple

    for g in _lattice_groups():
        want = _normal_subgroups_by_class_closures(g)
        assert [s.elements for s in normal_subgroups(g)] == want, g.name
        # the second call reads the lattice cached on the group
        assert [s.elements for s in normal_subgroups(g)] == want, g.name
        assert is_simple(g) == (g.order > 1 and len(want) == 2), g.name


def test_lattice_oracle_joins_each_closure_once(monkeypatch):
    # each normal subgroup N is joined once with each distinct class closure
    # not inside it, and with nothing else
    joins = []
    real = groups_mod._product_set

    def counted(g, a, b):
        joins.append((a, b))
        return real(g, a, b)

    monkeypatch.setattr(groups_mod, "_product_set", counted)
    for g in _lattice_groups():
        g = table_group(g.table)  # a fresh cache
        closures = {_pairwise_closure(g, cls) for cls in g.conjugacy_classes()[1:]}
        lattice = _normal_subgroups_by_class_closures(g)
        joins.clear()
        normal_subgroups(g)
        want = sorted(
            (n, m) for n in lattice for m in closures if not set(m) <= set(n)
        )
        assert sorted(joins) == want, g.name


def _is_normal_exhaustively(sub):
    # reference: x s x^-1 in N for every x of the parent and every s of N
    g = sub.parent
    members = set(sub.elements)
    return all(g.conj(x, s) in members for x in g.elements() for s in sub.elements)


def _is_homomorphism_exhaustively(source, target, mapping):
    # reference: phi(x y) = phi(x) phi(y) on every pair
    if len(mapping) != source.order or mapping[0] != 0:
        return False
    ts, tt = source.table, target.table
    for x in source.elements():
        mx = mapping[x]
        for y in source.elements():
            if mapping[ts[x][y]] != tt[mx][mapping[y]]:
                return False
    return True


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the exception type is part of the outcome
        return type(exc)


def test_generator_check_oracle_is_normal_on_every_subgroup():
    from crossedprod.groups import Subgroup

    rng = random.Random(29)
    checked = normal = 0
    for grp in (symmetric_group(4), dihedral_group(8), quaternion_group(), alternating_group(4)):
        for g in (grp, _relabelled(grp, 8)):
            # every subgroup of these four groups has two generators
            subs = {closure(g, (a, b)) for a in g.elements() for b in g.elements()}
            # the generator argument holds for any subset, closed or not
            subs |= {
                tuple(sorted({0, *rng.sample(range(1, g.order), k)}))
                for k in (1, 2, 3) for _ in range(20)
            }
            for elems in sorted(subs):
                sub = Subgroup(g, elems)
                assert sub.is_normal() == _is_normal_exhaustively(sub), (g.name, elems)
                checked += 1
                normal += sub.is_normal()
    assert checked > 400 and 0 < normal < checked


def test_generator_check_oracle_is_homomorphism_on_every_small_map():
    c4 = cyclic_group(4)
    k4 = make_group("product(cyclic:2,cyclic:2)")
    s3 = symmetric_group(3)
    homs = 0
    for (src, dst) in ((c4, c4), (k4, s3)):
        for mapping in itertools.product(range(dst.order), repeat=src.order):
            got = is_homomorphism(src, dst, mapping)
            assert got == _is_homomorphism_exhaustively(src, dst, mapping), mapping
            homs += got
    # |Hom(C4, C4)| = 4 and |Hom(C2^2, S3)| = 10
    assert homs == 14


def test_generator_check_oracle_is_homomorphism_on_perturbed_maps():
    rng = random.Random(31)
    checked = 0
    small = [grp for grp in CATALOG if grp.order <= 12]
    for src in small:
        for dst in small:
            homs = enumerate_homomorphisms(src, dst)
            for hom in rng.sample(homs, min(3, len(homs))):
                base = list(hom.map)
                variants = [base, base[:-1], base + [0]]
                for _ in range(4):
                    bent = list(base)
                    bent[rng.randrange(src.order)] = rng.randrange(dst.order)
                    variants.append(bent)
                for bad in (dst.order, dst.order + 3, -1, -dst.order - 1):
                    bent = list(base)
                    bent[rng.randrange(src.order)] = bad
                    variants.append(bent)
                for mapping in variants:
                    assert _outcome(is_homomorphism, src, dst, mapping) == _outcome(
                        _is_homomorphism_exhaustively, src, dst, mapping
                    ), (src.name, dst.name, mapping)
                    checked += 1
    assert checked > 1000


@pytest.mark.parametrize("grp", CATALOG, ids=lambda g: g.name)
def test_centre_and_abelianness_match_the_direct_scans(grp):
    for g in (grp, _relabelled(grp, 6)):
        pairs = [(x, y) for x in g.elements() for y in g.elements()]
        assert center(g).elements == tuple(
            x for x in g.elements() if all(g.mul(x, y) == g.mul(y, x) for y in g.elements())
        )
        assert g.is_abelian == all(g.mul(x, y) == g.mul(y, x) for (x, y) in pairs)


def _presentation_table_by_loops(n, m, i, j):
    # reference: the exponent-pair product formula, entry by entry
    jinv = pow(j, m - 1, n) if n > 1 else 0
    jq = [pow(jinv, q, n) if n > 1 else 0 for q in range(m)]
    table = [[0] * (n * m) for _ in range(n * m)]
    for p in range(n):
        for q in range(m):
            for r in range(n):
                for s in range(m):
                    t = (p + r * jq[q]) % n
                    u = q + s
                    if u >= m:
                        u -= m
                        t = (t + i) % n
                    table[p + n * q][r + n * s] = t + n * u
    return tuple(tuple(row) for row in table)


def test_presentation_tables_match_the_loop_formula():
    checked = 0
    for n in range(1, 65):
        for m in range(1, 64 // n + 1):
            for i in range(n):
                for j in range(n):
                    if (i * (j - 1)) % n == 0 and pow(j, m, n) == 1 % n:
                        grp = presentation_group(n, m, i, j, "P")
                        assert grp.table == _presentation_table_by_loops(n, m, i, j)
                        checked += 1
    assert checked > 1194


def test_isomorphism_pruning_keeps_the_list_and_its_order():
    groups = [
        make_group("product(cyclic:2,cyclic:2)"),
        cyclic_group(6),
        symmetric_group(3),
        dihedral_group(8),
        quaternion_group(),
        make_group("product(cyclic:2,product(cyclic:2,cyclic:2))"),
        make_group("product(cyclic:3,cyclic:3)"),
        make_group("product(cyclic:2,cyclic:4)"),
        alternating_group(4),
        dihedral_group(12),
    ]
    for k, grp in enumerate(groups):
        for src in (grp, _relabelled(grp, k)):
            assert list(_isomorphisms(src, grp)) == list(_unpruned_isomorphisms(src, grp))


def test_isomorphism_pruning_on_a_relabelled_elementary_abelian_group():
    # |Aut(C2^5)| is about 10^7, so only the first isomorphism is compared;
    # the unpruned reference takes seconds to reach it
    c2_5 = make_group(
        "product(cyclic:2,product(cyclic:2,product(cyclic:2,product(cyclic:2,cyclic:2))))"
    )
    relabelled = _relabelled(c2_5, 5)
    first = next(_isomorphisms(relabelled, c2_5))
    assert first == next(_unpruned_isomorphisms(relabelled, c2_5))
    assert is_homomorphism(relabelled, c2_5, first) and len(set(first)) == 32


def _classes_by_conjugation(g):
    # reference: the generic orbit loop, with no abelian shortcut
    seen, out = set(), []
    for x in g.elements():
        if x not in seen:
            orbit = tuple(sorted({g.conj(y, x) for y in g.elements()}))
            seen.update(orbit)
            out.append(orbit)
    return tuple(out)


@pytest.mark.parametrize("spec", [
    "cyclic:1", "cyclic:6", "product(cyclic:2,cyclic:4)",
    "product(cyclic:2,product(cyclic:2,cyclic:2))",
    "symmetric:3", "dihedral:8", "quaternion:8", "symmetric:4",
])
def test_conjugacy_classes_match_the_orbit_loop(spec):
    g = make_group(spec)
    assert g.conjugacy_classes() == _classes_by_conjugation(g)
    relabelled = _relabelled(g, 5)
    assert relabelled.conjugacy_classes() == _classes_by_conjugation(relabelled)


@pytest.mark.parametrize("grp", CATALOG[:18], ids=lambda g: g.name)
def test_inner_automorphism_table_and_cached_centre(grp):
    inner = inner_automorphisms(grp)
    by_conjugation = {}
    for c in grp.elements():
        perm = tuple(grp.conj(c, x) for x in grp.elements())
        by_conjugation.setdefault(perm, []).append(c)
    assert inner == {perm: tuple(cs) for perm, cs in by_conjugation.items()}
    assert inner[tuple(grp.elements())] == center(grp).elements
    assert len(inner) * center(grp).order == grp.order
    assert set(inner) <= {a.map for a in automorphism_group(grp)}
    assert inner_automorphisms(grp) is inner
    assert center(grp).elements == tuple(
        x for x in grp.elements() if all(grp.mul(x, y) == grp.mul(y, x) for y in grp.elements())
    )


@pytest.mark.parametrize("grp", CATALOG, ids=lambda g: g.name)
def test_conjugation_table_classes_match_the_orbit_loop_on_the_catalog(grp):
    # each group is fresh, so its classes are read off the conjugation table
    for g in (table_group(grp.table), _relabelled(grp, 7), _relabelled(grp, 8)):
        assert g.conjugacy_classes() == _classes_by_conjugation(g)


# names given before the candidates were cached, for each group and one
# relabelling of it
RECORDED_NAMES = {
    "cyclic:1": "C1", "cyclic:2": "C2", "cyclic:6": "C6", "cyclic:12": "C12",
    "product(cyclic:2,cyclic:4)": "C4xC2", "symmetric:3": "S3", "symmetric:4": "S4",
    "dihedral:8": "D8", "dihedral:10": "D10", "dihedral:12": "D12", "dihedral:16": "D16",
    "dihedral:24": "D24", "quaternion:8": "Q8", "product(cyclic:8,cyclic:8)": "C8xC8",
    "dihedral:64": "D64", "product(cyclic:2,symmetric:3)": "D12",
    "product(cyclic:3,symmetric:3)": "S3xC3", "product(cyclic:2,quaternion:8)": "Q8xC2",
    "product(cyclic:2,dihedral:8)": "D8xC2", "product(cyclic:4,symmetric:3)": "S3xC4",
    "product(cyclic:2,dihedral:12)": "D12xC2",
    "product(symmetric:3,symmetric:3)": "G36(2^15,3^8,6^12)",
    "product(cyclic:3,quaternion:8)": "Q8xC3",
    "product(cyclic:2,symmetric:4)": "G48(2^19,3^8,4^12,6^8)",
    "product(cyclic:4,quaternion:8)": "Q8xC4",
    "product(quaternion:8,symmetric:3)": "G48(2^7,3^2,4^24,6^2,12^12)",
}


def test_identify_group_names_are_unchanged_with_cached_candidates():
    groups = [(name, make_group(spec)) for spec, name in RECORDED_NAMES.items()]
    groups += [("A4", alternating_group(4)), ("A4xC2", direct_product(alternating_group(4), cyclic_group(2))),
               ("G21(3^14,7^6)", presentation_group(7, 3, 0, 2, "P")),
               ("Dic3", presentation_group(3, 4, 0, 2, "P"))]
    for _ in range(2):  # the second round runs on the cached candidates
        for name, grp in groups:
            assert identify_group(grp) == name
            assert identify_group(_relabelled(grp, 3)) == name
    for order in (6, 8, 12, 16, 24, 48):
        assert groups_mod._named_candidates(order) is groups_mod._named_candidates(order)


def test_named_candidates_of_each_order_are_pairwise_non_isomorphic():
    for order in range(1, 65):
        cands = groups_mod._named_candidates(order)
        for i, (name, cand) in enumerate(cands):
            for other_name, other in cands[i + 1:]:
                assert are_isomorphic(cand, other) is None, (order, name, other_name)
    # the copies that used to be listed are gone, the first of each type kept
    assert [n for n, _ in groups_mod._named_candidates(6)] == ["S3"]
    assert [n for n, _ in groups_mod._named_candidates(12)] == ["A4", "D12", "Dic3"]


# names recorded while the isomorphic candidate copies were still listed: the
# catalog, and per pair of the `classify` digests in test_cli.py, how often
# each name occurs among the products of the eq1 class representatives
CATALOG_NAMES = [
    "C1", "C2", "C3", "C4", "C5", "C6", "C8", "C12", "C2xC2", "C4xC2", "C2xC2xC2",
    "S3", "S4", "D8", "D10", "D12", "Q8", "A4", "C8xC8", "D64",
]
DIGEST_PAIR_NAMES = {
    ("cyclic:2", "dihedral:8"): {
        "D16": 1, "D8xC2": 1, "Dic4": 1, "G16(2^3,4^12)": 1, "G16(2^5,4^6,8^4)": 2, "G16(2^7,4^8)": 2,
    },
    ("cyclic:2", "quaternion:8"): {"G16(2^3,4^12)": 3, "Q8xC2": 1},
    ("cyclic:3", "symmetric:3"): {"D18": 2, "G18(2^9,3^8)": 1, "S3xC3": 1},
    ("cyclic:4", "cyclic:4"): {
        "C16": 2, "C4xC4": 1, "C8xC2": 1, "G16(2^3,4^12)": 1, "G16(2^3,4^4,8^8)": 1,
    },
    ("dihedral:8", "cyclic:2"): {"D16": 1, "D8xC2": 1, "G16(2^5,4^6,8^4)": 1, "G16(2^7,4^8)": 1},
    ("product(cyclic:2,cyclic:2)", "product(cyclic:2,cyclic:2)"): {
        "C2xC2xC2xC2": 1, "C4xC2xC2": 9, "C4xC4": 6, "D8xC2": 18, "G16(2^3,4^12)": 18,
        "G16(2^7,4^8)": 27, "Q8xC2": 3,
    },
    ("quaternion:8", "cyclic:2"): {"Dic4": 3, "G16(2^5,4^6,8^4)": 3, "G16(2^7,4^8)": 1, "Q8xC2": 1},
}


def test_identify_group_names_are_unchanged_without_isomorphic_candidates():
    from crossedprod.classify import classify, enumerate_crossed_systems
    from crossedprod.products import build_product

    assert [identify_group(g) for g in CATALOG] == CATALOG_NAMES
    assert [identify_group(_relabelled(g, 3)) for g in CATALOG] == CATALOG_NAMES
    for (hs, gs), expected in DIGEST_PAIR_NAMES.items():
        h, g = make_group(hs), make_group(gs)
        systems = enumerate_crossed_systems(h, g)
        reps = classify(h, g, "eq1").representatives
        names = Counter(identify_group(build_product(systems[i]).group) for i in reps)
        assert names == Counter(expected), (hs, gs)


# the naming that the commutation-count fingerprint and the candidate-side
# search replaced, kept as their oracle: the fingerprint read off the
# conjugacy classes and the centre, without the square count, and every
# search started from the group being named


def _class_table_fingerprint(g):
    return (
        g.order,
        tuple(sorted(g.element_orders)),
        len(center(g).elements),
        tuple(sorted(len(c) for c in g.conjugacy_classes())),
    )


def _isomorphic_from_the_group(g, cand) -> bool:
    if g.order != cand.order:
        return False
    if g == cand:
        return True
    if g.is_abelian != cand.is_abelian:
        return False
    if g.is_abelian:
        return sorted(g.element_orders) == sorted(cand.element_orders)
    if _class_table_fingerprint(g) != _class_table_fingerprint(cand):
        return False
    return next(_isomorphisms(g, cand), None) is not None


def _identify_by_class_tables(g) -> str:
    if g.order == 1:
        return "C1"
    name = groups_mod._abelian_invariant_name(g)
    if name is not None:
        return name
    for cand_name, cand in groups_mod._named_candidates(g.order):
        if _isomorphic_from_the_group(g, cand):
            return cand_name
    counts = sorted(Counter(g.element_orders).items())
    return f"G{g.order}({','.join(f'{k}^{v}' for k, v in counts if k > 1)})"


def test_naming_oracle_class_tables_and_group_side_search():
    from crossedprod.classify import classify
    from crossedprod.products import build_product
    from test_acceptance import DECOMPOSE_CATALOG, DECOMPOSE_EXTRAS

    groups = CATALOG + [make_group(s) for s in DECOMPOSE_CATALOG] + DECOMPOSE_EXTRAS
    groups += _presentation_groups()
    for (hs, gs) in DIGEST_PAIR_NAMES:
        h, g = make_group(hs), make_group(gs)
        report = classify(h, g, "eq2")
        products = [build_product(report.systems[i]).group for i in report.representatives]
        assert report.product_iso_types == [_identify_by_class_tables(p) for p in products], (hs, gs)
        groups += products
    assert len(groups) > 1193 + len(DECOMPOSE_CATALOG)
    for grp in groups:
        assert grp.fingerprint()[:4] == _class_table_fingerprint(grp), grp.name
        assert identify_group(grp) == _identify_by_class_tables(grp), grp.name


# the per-entry table intake, the multiply-until-1 order loop, the nested-loop
# completion triples and the direct product's entry loop, which the array
# paths replaced, kept as their oracles


def _intake_by_entries(table):
    return tuple(tuple(map(int, row)) for row in table)


def _orders_by_multiplication(table):
    out = []
    for x in range(len(table)):
        k, acc = 1, x
        while acc != 0:
            acc = table[acc][x]
            k += 1
        out.append(k)
    return tuple(out)


def _triples_by_loops(table):
    out = [[] for _ in range(len(table))]
    for a in range(len(table)):
        for b in range(len(table)):
            ab = table[a][b]
            out[max(a, b, ab)].append((a, b, ab))
    return out


def _direct_product_by_loops(a, b):
    nb = b.order
    return tuple(
        tuple(a.table[x1][x2] * nb + b.table[y1][y2] for x2 in a.elements() for y2 in b.elements())
        for x1 in a.elements()
        for y1 in b.elements()
    )


def _presentation_groups():
    """Every consistent presentation group with n*m <= 36."""
    return [
        presentation_group(n, m, i, j, f"P{n}.{m}.{i}.{j}")
        for n in range(1, 37)
        for m in range(1, 36 // n + 1)
        for i in range(n)
        for j in range(n)
        if (i * (j - 1)) % n == 0 and pow(j, m, n) == 1 % n
    ]


def _table_forms(table):
    """One table as an int64, int32 and (if it fits) uint8 array, nested lists,
    nested tuples and rows of numpy integers."""
    arr = np.array(table, dtype=np.int64)
    forms = [arr, arr.astype(np.int32), [list(row) for row in table], table, list(arr)]
    if len(table) < 256:
        forms.append(arr.astype(np.uint8))
    return forms


def _all_python_ints(table):
    return set(map(type, itertools.chain.from_iterable(table))) == {int}


def test_table_types_match_the_intake_oracle():
    for grp in CATALOG + _presentation_groups():
        want = _intake_by_entries(grp.table)
        built = [groups_mod.FiniteGroup("T", form, validate=False) for form in _table_forms(grp.table)]
        for other in built:
            assert other.table == want and other == grp and hash(other) == hash(grp)
            assert _all_python_ints(other.table)
    # the validating path takes arrays too, and still rejects a bad table
    assert groups_mod.FiniteGroup("C3", np.array(cyclic_group(3).table)).order == 3
    with pytest.raises(InvalidTableError):
        groups_mod.FiniteGroup("bad", np.array([[0, 1], [1, 1]]))


def test_constructor_tables_match_the_intake_oracle():
    for n in range(1, 40):
        assert cyclic_group(n).table == tuple(
            tuple((i + j) % n for j in range(n)) for i in range(n)
        )
    for order in range(2, 40, 2):
        d = dihedral_group(order)
        k = order // 2
        assert (d.name, d.descriptor) == (f"D{order}", f"dihedral:{order}")
        assert d.table == _presentation_table_by_loops(k, 2, 0, (k - 1) % k if k > 1 else 0)
    q = quaternion_group()
    assert (q.name, q.descriptor) == ("Q8", "quaternion:8")
    assert q.table == _presentation_table_by_loops(4, 2, 2, 3)
    for a in CATALOG[:12]:
        for b in CATALOG[:6]:
            prod = direct_product(a, b)
            assert prod.table == _direct_product_by_loops(a, b) and _all_python_ints(prod.table)
    for grp in CATALOG + _presentation_groups()[::7]:
        assert _all_python_ints(grp.table)


def _permutation_table_by_loops(n, even_only):
    """S_n (or A_n) on its sorted permutations, p q = p after q, by loops."""

    def parity(p):
        return sum(1 for a in range(n) for b in range(a + 1, n) if p[a] > p[b]) % 2

    perms = sorted(p for p in itertools.permutations(range(n)) if not even_only or parity(p) == 0)
    pos = {p: i for i, p in enumerate(perms)}
    return tuple(tuple(pos[tuple(p[q[i]] for i in range(n))] for q in perms) for p in perms)


def test_permutation_tables_match_the_intake_oracle():
    for n in range(1, 6):
        s, a = symmetric_group(n), alternating_group(n)
        assert (s.name, s.descriptor, a.name, a.descriptor) == (f"S{n}", f"symmetric:{n}", f"A{n}", None)
        assert s.table == _permutation_table_by_loops(n, False) and _all_python_ints(s.table)
        assert a.table == _permutation_table_by_loops(n, True) and _all_python_ints(a.table)


def test_element_orders_and_triples_match_the_intake_oracle():
    presented = _presentation_groups()
    assert len(presented) == 1193
    for k, grp in enumerate(CATALOG + presented):
        for g in (grp, _relabelled(grp, k)) if grp.order <= 36 else (grp,):
            orders = g.element_orders
            assert orders == _orders_by_multiplication(g.table)
            assert g.elements_by_order() == {
                o: tuple(x for x in g.elements() if orders[x] == o) for o in set(orders)
            }
            assert groups_mod._completion_triples(g) == _triples_by_loops(g.table)


def _array_cache_groups():
    """One group from every constructor, by name."""
    from crossedprod.products import build_product
    from crossedprod.systems import trivial_action, trivial_cocycle, validate_crossed_system

    s4 = symmetric_group(4)
    klein = normal_subgroups(s4)[1]
    c4, c2 = cyclic_group(4), cyclic_group(2)
    p = (1, 0, 2)   # C3 with its identity at index 1
    relabelled = [[p[(p[x] + p[y]) % 3] for y in range(3)] for x in range(3)]
    return {
        "cyclic": cyclic_group(6),
        "presentation": presentation_group(4, 2, 2, 3, "P4.2.2.3"),
        "dihedral": dihedral_group(10),
        "quaternion": quaternion_group(),
        "symmetric": s4,
        "alternating": alternating_group(4),
        "direct product": direct_product(symmetric_group(3), c2),
        "table": table_group(relabelled, renumber=True),
        "subgroup": subgroup_as_group(klein)[0],
        "quotient": quotient(s4, klein)[0],
        "crossed product": build_product(
            validate_crossed_system(c4, c2, trivial_action(c2, c4), trivial_cocycle(c2, c4))
        ).group,
    }


@pytest.mark.parametrize("kind", list(_array_cache_groups()))
def test_array_cache_matches_the_tuples_and_is_read_only(kind):
    grp = _array_cache_groups()[kind]
    for arr, want in ((grp.table_array, grp.table), (grp.inverse_array, grp.inverse_table)):
        assert arr.dtype == np.intp and arr.tolist() == np.array(want).tolist()
        with pytest.raises(ValueError):
            arr[0] = 1
    assert grp.table_array is grp.table_array and grp.inverse_array is grp.inverse_array
    # a renamed group shares its parent's array, built or not
    renamed = grp._renamed("R")
    assert renamed.table_array is grp.table_array and renamed == grp
    fresh = table_group(grp.table)
    assert fresh._renamed("R").table_array is fresh.table_array


# the dict and loop bodies of `subgroup_as_group` and `quotient`, and the
# (k, k, n) gather of `_permutation_table`, which the array re-indexing and
# the code matmul replaced, kept as their oracles


def _subgroup_as_group_by_dict(sub):
    parent = sub.parent
    elems = sub.elements
    pos = {v: i for i, v in enumerate(elems)}
    table = [[pos[parent.table[a][b]] for b in elems] for a in elems]
    grp = groups_mod.FiniteGroup(f"{parent.name}<{len(elems)}>", table, validate=False)
    return grp, groups_mod.Homomorphism(grp, parent, elems)


def _quotient_by_coset_scan(g, n):
    members = set(n.elements)
    coset_of = [-1] * g.order
    reps = []
    for x in g.elements():
        if coset_of[x] >= 0:
            continue
        idx = len(reps)
        reps.append(x)
        for s in members:
            coset_of[g.mul(x, s)] = idx
    table = [[coset_of[g.mul(a, b)] for b in reps] for a in reps]
    q = groups_mod.FiniteGroup(f"{g.name}/{len(members)}", table, validate=False)
    return q, groups_mod.Homomorphism(g, q, tuple(coset_of))


def _permutation_table_by_gather(perms):
    k, n = perms.shape
    weights = n ** np.arange(n - 1, -1, -1)
    rank = np.zeros(n ** n, dtype=np.intp)
    rank[perms @ weights] = np.arange(k)
    products = perms[np.arange(k)[:, None, None], perms[None, :, :]]  # [p, q, i] = p[q[i]]
    return rank[products @ weights]


def _assert_same_group_and_map(got, want):
    (grp, hom), (ref, ref_hom) = got, want
    assert (grp.name, grp.order, grp.table) == (ref.name, ref.order, ref.table)
    assert _all_python_ints(grp.table)
    assert grp.table_array.dtype == np.intp and np.array_equal(grp.table_array, ref.table_array)
    assert (hom.source, hom.target, hom.map) == (ref_hom.source, ref_hom.target, ref_hom.map)
    assert type(hom.map) is tuple and set(map(type, hom.map)) == {int}


def test_reindex_oracle_subgroups_and_quotients_match_the_dict_loops():
    groups = _lattice_groups() + [symmetric_group(n) for n in (1, 2)]
    groups += [alternating_group(n) for n in (1, 2, 3)]
    checked = 0
    for g in groups:
        for n in normal_subgroups(g):
            sub, quo = subgroup_as_group(n), quotient(g, n)
            # each new group holds the re-indexed array, not a rebuild of it
            assert sub[0]._array is not None and quo[0]._array is not None
            _assert_same_group_and_map(sub, _subgroup_as_group_by_dict(n))
            _assert_same_group_and_map(quo, _quotient_by_coset_scan(g, n))
            checked += 1
    assert checked == 380


def test_permutation_table_oracle_matmul_equals_the_gather():
    for n in range(1, 6):
        perms = groups_mod._permutations(n)
        a, b = np.triu_indices(n, 1)
        even = perms[(perms[:, a] > perms[:, b]).sum(axis=1) % 2 == 0]
        for rows, grp in ((perms, symmetric_group(n)), (even, alternating_group(n))):
            table = groups_mod._permutation_table(rows)
            want = _permutation_table_by_gather(rows)
            assert table.dtype == want.dtype == np.intp
            assert np.array_equal(table, want) and grp.table == tuple(map(tuple, want.tolist()))


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
def test_array_cache_is_a_copy_of_the_intake_array(dtype):
    want = cyclic_group(5)
    intake = np.array(want.table, dtype=dtype)
    grp = groups_mod.FiniteGroup("C5", intake, validate=False)
    intake[:] = 0
    assert intake.flags.writeable
    assert grp.table == want.table and np.array_equal(grp.table_array, want.table_array)
