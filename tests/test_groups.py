import itertools
import math
import random

import pytest

from crossedprod.errors import (
    CapExceededError,
    InvalidDescriptorError,
    InvalidTableError,
    NotNormalError,
)
from crossedprod.groups import (
    _generator_images,
    _isomorphisms,
    alternating_group,
    are_isomorphic,
    automorphism_group,
    center,
    check_table,
    cyclic_group,
    dihedral_group,
    direct_product,
    enumerate_homomorphisms,
    generating_sequence,
    identify_group,
    inner_automorphisms,
    inverse,
    is_homomorphism,
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
        from crossedprod.groups import closure

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


def _unpruned_isomorphisms(g1, g2):
    # reference: every homomorphism from the generator-image search, kept
    # when bijective
    by_order = {}
    for x in g2.elements():
        by_order.setdefault(g2.element_order(x), []).append(x)
    for m in _generator_images(g1, g2, lambda gen: by_order.get(g1.element_order(gen), ())):
        if len(set(m)) == g1.order:
            yield m


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
