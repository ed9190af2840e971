import importlib
import math

import pytest

from crossedprod.errors import (
    CapExceededError,
    InternalInvariantError,
    InvalidDescriptorError,
    NotAbelianError,
    SectionInvalidError,
)
from crossedprod.groups import (
    Homomorphism,
    are_isomorphic,
    cyclic_group,
    dihedral_group,
    identify_group,
    is_homomorphism,
    isomorphic,
    make_group,
    normal_subgroups,
    presentation_group,
    quaternion_group,
    quotient,
    subgroup_as_group,
    symmetric_group,
)
from crossedprod.classify import are_equivalent_1, are_equivalent_2
from crossedprod.decompose import (
    Section,
    decompose,
    decompose_abelian,
    default_section,
    extension,
    extract_crossed_system,
    holder_cross_validate,
    holder_enumerate,
    is_simple,
    validate_section,
)
from crossedprod.products import build_product, build_semidirect
from crossedprod.systems import trivial_action, trivial_cocycle, validate_crossed_system, weak_action

C2 = cyclic_group(2)
C4 = cyclic_group(4)


def canonical_extension(prod):
    return extension(prod.group, prod.include_h, prod.project_g)


def test_extension_validation():
    s3 = symmetric_group(3)
    a3 = normal_subgroups(s3)[1]
    sub, incl = subgroup_as_group(a3)
    q, proj = quotient(s3, a3)
    ext = extension(s3, incl, proj)
    assert ext.h_image.elements == a3.elements
    # a non-exact pair is rejected: projection onto the wrong quotient
    with pytest.raises(SectionInvalidError):
        extension(s3, incl, Homomorphism(s3, q, (0, 0, 0, 0, 0, 0)))


def test_default_section_minimal_preimages():
    s3 = symmetric_group(3)
    a3 = normal_subgroups(s3)[1]
    _, incl = subgroup_as_group(a3)
    q, proj = quotient(s3, a3)
    ext = extension(s3, incl, proj)
    sec = default_section(ext)
    assert sec.table[0] == 0
    for qi in q.elements():
        preimages = [x for x in s3.elements() if proj.map[x] == qi]
        assert sec.table[qi] == min(preimages)
    validate_section(ext, sec)
    with pytest.raises(SectionInvalidError):
        validate_section(ext, Section(table=(1, sec.table[1])))


def test_default_section_of_direct_product_extension():
    c3 = cyclic_group(3)
    sys = validate_crossed_system(
        c3, C2, trivial_action(C2, c3), trivial_cocycle(C2, c3)
    )
    prod = build_product(sys)
    ext = canonical_extension(prod)
    sec = default_section(ext)
    assert sec.table == tuple(prod.encode(0, g) for g in C2.elements())


def test_extract_split_extension_has_trivial_cocycle():
    inv = tuple(cyclic_group(3).inv(x) for x in range(3))
    act = weak_action(C2, cyclic_group(3), [tuple(range(3)), inv])
    prod = build_semidirect(cyclic_group(3), C2, act)
    ext = canonical_extension(prod)
    sys, theta = extract_crossed_system(ext, default_section(ext))
    assert all(v == 0 for row in sys.cocycle.table for v in row)
    assert theta.is_bijective()


def test_extract_c4_over_c2_is_twisted():
    sub, incl = subgroup_as_group(normal_subgroups(C4)[1])  # {0, 2}
    q, proj = quotient(C4, normal_subgroups(C4)[1])
    ext = extension(C4, incl, proj)
    sec = default_section(ext)
    assert sec.table == (0, 1)
    sys, theta = extract_crossed_system(ext, sec)
    assert sys.normalized
    assert sys.action.is_trivial()
    assert sys.cocycle.table[1][1] == 1  # f(a, a) is the nontrivial element
    assert are_isomorphic(build_product(sys).group, C4) is not None


def test_extract_quaternion_matches_standard_system():
    q8 = quaternion_group()
    best = [s for s in normal_subgroups(q8) if s.order == 4][0]
    sub, incl = subgroup_as_group(best)
    q, proj = quotient(q8, best)
    ext = extension(q8, incl, proj)
    sys, theta = extract_crossed_system(ext, default_section(ext))
    # same underlying tables as the reference system, so equivalence applies
    assert sub.table == C4.table and q.table == C2.table
    inv = tuple(C4.inv(x) for x in C4.elements())
    from crossedprod.systems import cocycle

    reference = validate_crossed_system(
        C4, C2, weak_action(C2, C4, [tuple(range(4)), inv]),
        cocycle(C2, C4, [[0, 0], [0, 2]]),
    )
    assert are_equivalent_2(sys, reference) is not None


def test_theta_respects_projection_and_inclusion():
    s3 = symmetric_group(3)
    a3 = normal_subgroups(s3)[1]
    sub, incl = subgroup_as_group(a3)
    q, proj = quotient(s3, a3)
    ext = extension(s3, incl, proj)
    sys, theta = extract_crossed_system(ext, default_section(ext))
    prod = build_product(sys)
    for idx in prod.group.elements():
        assert proj.map[theta.map[idx]] == prod.project_g.map[idx]
    for h in sub.elements():
        assert theta.map[prod.include_h.map[h]] == incl.map[h]


def test_theta_is_a_compatible_isomorphism_for_every_normal_subgroup():
    # Schreier's theorem, checked directly: for every proper normal subgroup
    # and two different sections, theta is an isomorphism onto E that
    # restricts to the inclusion and lifts the projection
    checked = 0
    for spec in ("dihedral:8", "quaternion:8", "symmetric:4", "dihedral:12",
                 "product(cyclic:2,cyclic:4)", "cyclic:12"):
        e = make_group(spec)
        for n in normal_subgroups(e):
            if not 1 < n.order < e.order:
                continue
            sub, incl = subgroup_as_group(n)
            q, proj = quotient(e, n)
            ext = extension(e, incl, proj)
            last = [0] * q.order
            for x in e.elements():
                if proj.map[x]:
                    last[proj.map[x]] = x
            for sec in (default_section(ext), Section(tuple(last))):
                sys, theta = extract_crossed_system(ext, sec)
                prod = build_product(sys)
                assert sys.normalized
                assert theta.source == prod.group and theta.target == e
                assert is_homomorphism(prod.group, e, theta.map)
                assert theta.is_bijective()
                for h in sub.elements():
                    assert theta.map[prod.include_h.map[h]] == incl.map[h]
                for idx in prod.group.elements():
                    assert proj.map[theta.map[idx]] == prod.project_g.map[idx]
                checked += 1
    assert checked > 20


def test_section_independence_up_to_equivalence_1():
    sub, incl = subgroup_as_group(normal_subgroups(C4)[1])
    q, proj = quotient(C4, normal_subgroups(C4)[1])
    ext = extension(C4, incl, proj)
    sys1, _ = extract_crossed_system(ext, Section(table=(0, 1)))
    sys2, _ = extract_crossed_system(ext, Section(table=(0, 3)))
    assert are_equivalent_1(sys1, sys2) is not None
    # and on a product extension with several candidate sections
    c2xc4 = make_group("product(cyclic:2,cyclic:4)")
    ns = [s for s in normal_subgroups(c2xc4) if s.order == 4]
    sub2, incl2 = subgroup_as_group(ns[0])
    q2, proj2 = quotient(c2xc4, ns[0])
    ext2 = extension(c2xc4, incl2, proj2)
    secs = []
    for x in c2xc4.elements():
        if proj2.map[x] == 1:
            secs.append(Section(table=(0, x)))
    extracted = [extract_crossed_system(ext2, s)[0] for s in secs]
    for other in extracted[1:]:
        assert are_equivalent_1(extracted[0], other) is not None


def test_is_simple():
    assert is_simple(cyclic_group(5))
    assert is_simple(cyclic_group(2))
    assert not is_simple(C4)
    assert not is_simple(symmetric_group(3))
    assert not is_simple(cyclic_group(1))


def test_decompose_prime_cyclic_is_leaf():
    tree = decompose(cyclic_group(7))
    assert tree.is_leaf
    assert tree.leaf_orders() == (7,)


def test_decompose_c4():
    tree = decompose(C4)
    assert not tree.is_leaf
    assert tree.leaf_orders() == (2, 2)
    assert any(v != 0 for row in tree.system.cocycle.table for v in row)
    assert tree.theta.is_bijective()


def test_decompose_quaternion():
    tree = decompose(quaternion_group())
    assert tree.leaf_orders() == (2, 2, 2)
    # the normal part is the C4 subgroup, itself a twisted product
    assert tree.left.group.order == 4
    assert not tree.left.is_leaf
    assert tree.right.is_leaf


def test_decompose_rebuild_soundness():
    for spec in ("cyclic:12", "symmetric:4", "dihedral:12", "quaternion:8",
                 "product(cyclic:2,cyclic:6)"):
        tree = decompose(make_group(spec))

        def walk(node):
            if node.is_leaf:
                assert node.group.order == 1 or is_simple(node.group)
                return
            rebuilt = build_product(node.system).group
            assert node.theta.is_bijective()
            assert are_isomorphic(rebuilt, node.group) is not None
            assert are_isomorphic(node.system.h, node.left.group) is not None
            assert are_isomorphic(node.system.g, node.right.group) is not None
            walk(node.left)
            walk(node.right)

        walk(tree)


def test_decompose_abelian_examples():
    tree = decompose_abelian(C4)
    assert tree.leaf_orders() == (2, 2)
    k4 = make_group("product(cyclic:2,cyclic:2)")
    tree = decompose_abelian(k4)
    assert all(v == 0 for row in tree.system.cocycle.table for v in row)
    tree = decompose_abelian(cyclic_group(12))
    assert tree.leaf_orders() == (2, 2, 3)
    with pytest.raises(NotAbelianError):
        decompose_abelian(symmetric_group(3))


def test_decompose_choice_is_maximal_normal_subgroup():
    s4 = symmetric_group(4)
    tree = decompose(s4)
    # maximal proper normal subgroup of S4 is A4
    assert tree.left.group.order == 12
    assert tree.right.group.order == 2


def test_holder_enumerate_3_2():
    pairs = holder_enumerate(3, 2)
    assert [(i, j) for (i, j, _) in pairs] == [(0, 1), (0, 2), (1, 1), (2, 1)]
    names = sorted(identify_group(grp) for (_, _, grp) in pairs)
    assert names == ["C6", "C6", "C6", "S3"]
    deduped = holder_enumerate(3, 2, dedupe=True)
    assert sorted(identify_group(g) for (_, _, g) in deduped) == ["C6", "S3"]


def test_holder_enumerate_degenerate_n1():
    for m in (1, 2, 5):
        pairs = holder_enumerate(1, m)
        assert len(pairs) == 1
        (i, j, grp) = pairs[0]
        assert (i, j) == (0, 0)
        assert are_isomorphic(grp, cyclic_group(m)) is not None



@pytest.mark.parametrize("n", (1, 2, 6, 36))
def test_holder_enumerate_m1_shares_one_table(n):
    # for m = 1, b = a^i never carries: every pair presents C_n on one table,
    # shared by groups that keep their own names and caches
    pairs = holder_enumerate(n, 1)
    expected = [(0, 0)] if n == 1 else [(i, 1) for i in range(n)]
    assert [(i, j) for (i, j, _) in pairs] == expected
    assert [grp.name for (_, _, grp) in pairs] == [f"P{n}.1.{i}.{j}" for (i, j) in expected]
    groups = [grp for (_, _, grp) in pairs]
    assert all(grp.table == cyclic_group(n).table for grp in groups)
    assert all(hash(grp) == hash(groups[0]) and grp.descriptor is None for grp in groups)
    assert len({id(grp) for grp in groups}) == len(groups)
    assert len({id(grp._cache) for grp in groups}) == len(groups)
    groups[0]._cache["raw_action"] = ("G", (0,), None)
    assert all("raw_action" not in grp._cache for grp in groups[1:])
    assert [(i, j) for (i, j, _) in holder_enumerate(n, 1, dedupe=True)] == expected[:1]

def test_holder_enumerate_4_2_contains_d8_and_q8():
    pairs = holder_enumerate(4, 2)
    by_ij = {(i, j): grp for (i, j, grp) in pairs}
    assert are_isomorphic(by_ij[(0, 3)], dihedral_group(8)) is not None
    assert are_isomorphic(by_ij[(2, 3)], quaternion_group()) is not None


def test_holder_cap():
    with pytest.raises(CapExceededError):
        holder_enumerate(10, 10)
    for n, m in ((0, 2), (3, 0)):
        with pytest.raises(InvalidDescriptorError):
            holder_enumerate(n, m)


def test_holder_cross_validate_spot_values():
    rep = holder_cross_validate(2, 2)
    assert rep["match"] and sorted(rep["presentation_types"]) == ["C2xC2", "C4"]
    rep = holder_cross_validate(3, 2)
    assert rep["match"] and sorted(rep["presentation_types"]) == ["C6", "S3"]
    rep = holder_cross_validate(1, 5)
    assert rep["match"] and rep["presentation_types"] == ["C5"]
    rep = holder_cross_validate(4, 2)
    assert rep["match"]
    assert sorted(rep["system_types"]) == ["C4xC2", "C8", "D8", "Q8"]



# sha256 prefix of the JSON list of `holder_cross_validate(n, m)` reports, over
# every (n, m) with n m <= 36 in row order, recorded while every type test
# ran the witness search
HOLDER_REPORTS_DIGEST = "a682a56cfd406cd165eb4444d60469b4"


def test_holder_cross_validate_reports_match_the_recorded_digest():
    import hashlib
    import json

    reports = [
        holder_cross_validate(n, m) for n in range(1, 37) for m in range(1, 37) if n * m <= 36
    ]
    assert len(reports) == 140 and all(rep["match"] for rep in reports)
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()[:32]
    assert digest == HOLDER_REPORTS_DIGEST


# the same over every (n, m) with n m <= 64
HOLDER_REPORTS_DIGEST_64 = "653b5cbc2b77506b3b1da8beb87db36f"
HOLDER_PAIRS_64 = [(n, m) for n in range(1, 65) for m in range(1, 65) if n * m <= 64]


def _holder_pairs_by_scan(n, m):
    return [
        (i, j)
        for i in range(n)
        for j in range(n)
        if (i * (j - 1)) % n == 0 and pow(j, m, n) == 1 % n
    ]


def test_holder_cross_validate_reports_match_the_recorded_digest_64():
    import hashlib
    import json

    reports = [holder_cross_validate(n, m) for (n, m) in HOLDER_PAIRS_64]
    assert len(reports) == 280 and all(rep["match"] for rep in reports)
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()[:32]
    assert digest == HOLDER_REPORTS_DIGEST_64


def test_holder_orbit_oracle_every_pair_is_its_orbit_firsts_type():
    # oracle: every pair is built and typed on its own
    for (n, m) in HOLDER_PAIRS_64:
        pairs = holder_enumerate(n, m)
        assert [(i, j) for (i, j, _) in pairs] == _holder_pairs_by_scan(n, m)
        first = {}
        for (i, j, grp) in pairs:
            s_j = sum(j**t for t in range(m))
            key = (j, math.gcd(i, math.gcd(s_j, n)))
            first.setdefault(key, grp)
            assert are_isomorphic(first[key], grp) is not None, (n, m, i, j)
        reps = []
        for (_, _, grp) in pairs:
            if not any(isomorphic(r, grp) for r in reps):
                reps.append(grp)
        rep = holder_cross_validate(n, m)
        assert rep["presentation_pair_count"] == len(pairs)
        assert rep["presentation_types"] == sorted(identify_group(t) for t in reps)
        kept = holder_enumerate(n, m, dedupe=True)
        assert [grp.name for (_, _, grp) in kept] == [grp.name for grp in reps]


def test_holder_builds_one_presentation_table_per_orbit(monkeypatch):
    # the package exports the function `decompose`, which hides the module
    decompose_mod = importlib.import_module("crossedprod.decompose")
    built = []

    def counted(n, m, i, j, name):
        built.append((n, m, i, j))
        return presentation_group(n, m, i, j, name)

    monkeypatch.setattr(decompose_mod, "presentation_group", counted)
    holder_cross_validate(4, 2)
    assert built == [(4, 2, 0, 1), (4, 2, 0, 3), (4, 2, 1, 1), (4, 2, 2, 3)]
    built.clear()
    for (n, m) in HOLDER_PAIRS_64:
        holder_cross_validate(n, m)
    assert len(built) == len(set(built)) == 571
    built.clear()
    holder_enumerate(4, 2, dedupe=True)
    assert len(built) == 4


def test_holder_type_mismatch_is_internal_invariant_error(monkeypatch):
    # the presentation side of (4, 2) yields C2xC2xC2 where Q8 belongs: the
    # type counts agree, and the mismatch is one type the systems never give
    decompose_mod = importlib.import_module("crossedprod.decompose")
    real = decompose_mod.holder_enumerate
    wrong = make_group("product(cyclic:2,product(cyclic:2,cyclic:2))")

    def swapped(n, m, **kw):
        return [(i, j, wrong if (i, j) == (2, 3) else grp) for (i, j, grp) in real(n, m, **kw)]

    monkeypatch.setattr(decompose_mod, "holder_enumerate", swapped)
    with pytest.raises(InternalInvariantError):
        holder_cross_validate(4, 2)
