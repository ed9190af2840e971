import numpy as np
import pytest

from crossedprod import products
from crossedprod.errors import (
    ActionNotHomomorphismError,
    CocycleConditionError,
    CocycleNotCentralError,
    InternalInvariantError,
)
from crossedprod.groups import (
    are_isomorphic,
    center,
    check_table,
    cyclic_group,
    dihedral_group,
    direct_product,
    is_homomorphism,
    make_group,
    quaternion_group,
    symmetric_group,
)
from crossedprod.classify import enumerate_crossed_systems
from crossedprod.products import (
    abelian_by_criterion,
    build_product,
    build_semidirect,
    build_twisted,
    center_pairs,
    centralizer_of_h,
    centralizer_pairs,
    is_abelian_product,
    product_center,
    product_table_np,
)
from crossedprod.systems import (
    cocycle,
    invariant_subgroup,
    is_symmetric,
    trivial_action,
    trivial_cocycle,
    validate_crossed_system,
    weak_action,
)

C2 = cyclic_group(2)
C3 = cyclic_group(3)
C4 = cyclic_group(4)


def inversion_action(actor, space):
    ident = tuple(range(space.order))
    inv = tuple(space.inv(x) for x in space.elements())
    return weak_action(actor, space, [ident if g == 0 else inv for g in actor.elements()])


def q8_system():
    return validate_crossed_system(
        C4, C2, inversion_action(C2, C4), cocycle(C2, C4, [[0, 0], [0, 2]])
    )


# non-normalized samples: constant cocycles with the trivial action
NON_NORMALIZED = [
    validate_crossed_system(h, C2, trivial_action(C2, h), cocycle(C2, h, [[c, c], [c, c]]))
    for h in (C2, C3, C4)
    for c in range(1, h.order)
]


def test_trivial_system_builds_direct_product():
    for (h, g) in [(C2, C3), (C4, C2), (symmetric_group(3), C2)]:
        sys = validate_crossed_system(h, g, trivial_action(g, h), trivial_cocycle(g, h))
        prod = build_product(sys)
        assert are_isomorphic(prod.group, direct_product(h, g)) is not None


def test_twisted_c2_c2_gives_c4():
    sys = validate_crossed_system(
        C2, C2, trivial_action(C2, C2), cocycle(C2, C2, [[0, 0], [0, 1]])
    )
    assert are_isomorphic(build_product(sys).group, C4) is not None


def test_q8_product():
    prod = build_product(q8_system())
    assert are_isomorphic(prod.group, quaternion_group()) is not None


def test_unit_and_inverse_formula():
    systems = list(enumerate_crossed_systems(C4, C2))
    # plus a non-normalized sample: constant cocycle on (C2, C2)
    systems.append(
        validate_crossed_system(
            C2, C2, trivial_action(C2, C2), cocycle(C2, C2, [[1, 1], [1, 1]])
        )
    )
    for sys in systems:
        prod = build_product(sys)
        h_grp, g_grp = sys.h, sys.g
        f11inv = h_grp.inv(sys.f(0, 0))
        assert prod.decode(0) == (f11inv, 0)
        for idx in prod.group.elements():
            h, g = prod.decode(idx)
            ginv = g_grp.inv(g)
            hpart = h_grp.mul(
                h_grp.mul(f11inv, h_grp.inv(sys.f(ginv, g))),
                sys.act(ginv, h_grp.inv(h)),
            )
            assert prod.group.inv(idx) == prod.encode(hpart, ginv)


def test_exactness_of_canonical_extension():
    # build_product checks nothing itself: the product table must be a group
    # table and 1 -> H -> product -> G -> 1 exact for every valid system
    k4 = make_group("product(cyclic:2,cyclic:2)")
    systems = []
    for (h, g) in [(C4, C2), (C2, C4), (k4, C2), (symmetric_group(3), C2), (C3, C3)]:
        systems += enumerate_crossed_systems(h, g)
    systems += NON_NORMALIZED
    for sys in systems:
        prod = build_product(sys)
        check_table(prod.group.table)
        assert is_homomorphism(sys.h, prod.group, prod.include_h.map)
        assert is_homomorphism(prod.group, sys.g, prod.project_g.map)
        assert prod.include_h.is_injective()
        assert prod.project_g.is_surjective()
        assert set(prod.include_h.map) == set(prod.project_g.kernel_elements())


def test_generator_identity_for_normalized_products():
    for sys in enumerate_crossed_systems(C4, C2):
        prod = build_product(sys)
        for h in sys.h.elements():
            for g in sys.g.elements():
                left = prod.group.mul(prod.encode(h, 0), prod.encode(0, g))
                assert left == prod.encode(h, g)


def test_build_semidirect_examples():
    # trivial action gives the direct product
    prod = build_semidirect(C3, C2, trivial_action(C2, C3))
    assert are_isomorphic(prod.group, cyclic_group(6)) is not None
    # inversion on C3 gives S3
    prod = build_semidirect(C3, C2, inversion_action(C2, C3))
    assert are_isomorphic(prod.group, symmetric_group(3)) is not None
    # inversion on C4 gives the dihedral group of order 8
    prod = build_semidirect(C4, C2, inversion_action(C2, C4))
    assert are_isomorphic(prod.group, dihedral_group(8)) is not None


def test_build_semidirect_rejects_non_homomorphism():
    c4_actor = cyclic_group(4)
    ident = tuple(range(3))
    inv = (0, 2, 1)
    # order-2 automorphism placed at a generator of C4 is not multiplicative
    act = weak_action(c4_actor, C3, [ident, inv, ident, ident])
    with pytest.raises(ActionNotHomomorphismError):
        build_semidirect(C3, c4_actor, act)


def test_build_twisted_examples():
    prod = build_twisted(C2, C2, trivial_cocycle(C2, C2))
    assert are_isomorphic(prod.group, make_group("product(cyclic:2,cyclic:2)")) is not None
    prod = build_twisted(C2, C2, cocycle(C2, C2, [[0, 0], [0, 1]]))
    assert are_isomorphic(prod.group, C4) is not None
    # central order-2 value on (C4, C2): abelian order 8, type settled by oracle
    prod = build_twisted(C4, C2, cocycle(C2, C4, [[0, 0], [0, 2]]))
    candidates = {
        "C8": cyclic_group(8),
        "C4xC2": make_group("product(cyclic:4,cyclic:2)"),
        "C2xC2xC2": make_group("product(cyclic:2,product(cyclic:2,cyclic:2))"),
    }
    matches = [name for name, g in candidates.items() if are_isomorphic(prod.group, g)]
    assert matches == ["C4xC2"]


def test_build_twisted_rejects_bad_cocycles():
    s3 = symmetric_group(3)
    with pytest.raises(CocycleNotCentralError):
        build_twisted(s3, C2, cocycle(C2, s3, [[0, 0], [0, 1]]))
    c3 = cyclic_group(3)
    with pytest.raises(CocycleConditionError):
        build_twisted(C2, c3, cocycle(c3, C2, [[0, 0, 0], [0, 1, 0], [0, 0, 0]]))


def test_product_center_examples():
    # direct product of abelian groups: center is everything
    triv = validate_crossed_system(C4, C2, trivial_action(C2, C4), trivial_cocycle(C2, C4))
    prod = build_product(triv)
    assert product_center(prod).elements == tuple(prod.group.elements())
    # quaternion product: center is {(1,1), (b^2,1)}
    prod = build_product(q8_system())
    zc = product_center(prod)
    assert zc.order == 2
    assert set(zc.elements) == {prod.encode(0, 0), prod.encode(2, 0)}


def test_twisted_center_matches_corollary():
    # Z(twisted product) = {(h,g) in Z(H) x Z(G) : f(-,g) = f(g,-)}
    for sys in enumerate_crossed_systems(C4, C2):
        if not sys.action.is_trivial():
            continue
        prod = build_product(sys)
        zh = set(center(sys.h).elements)
        zg = set(center(sys.g).elements)
        expected = {
            (h, g)
            for h in sys.h.elements()
            for g in sys.g.elements()
            if h in zh and g in zg
            and all(sys.f(x, g) == sys.f(g, x) for x in sys.g.elements())
        }
        assert center_pairs(sys) == expected
        assert set(product_center(prod).elements) == {prod.encode(h, g) for (h, g) in expected}


def test_symmetric_cocycle_center_corollary():
    # with a symmetric cocycle: center = {(h,g) in H^G x Z(G) : g |> h' = h^-1 h' h}
    for h_grp, g_grp in [(C4, C2), (make_group("product(cyclic:2,cyclic:2)"), C2)]:
        for sys in enumerate_crossed_systems(h_grp, g_grp):
            if not is_symmetric(sys.cocycle):
                continue
            fixed = set(invariant_subgroup(sys).elements)
            zg = set(center(g_grp).elements)
            expected = set()
            for h in h_grp.elements():
                hi = h_grp.inv(h)
                for g in g_grp.elements():
                    if h in fixed and g in zg and all(
                        sys.act(g, x) == h_grp.mul(h_grp.mul(hi, x), h)
                        for x in h_grp.elements()
                    ):
                        expected.add((h, g))
            assert center_pairs(sys) == expected


def test_abelianness_criterion():
    triv = validate_crossed_system(C4, C2, trivial_action(C2, C4), trivial_cocycle(C2, C4))
    assert is_abelian_product(triv)
    assert not is_abelian_product(q8_system())
    tw = validate_crossed_system(
        C2, C2, trivial_action(C2, C2), cocycle(C2, C2, [[0, 0], [0, 1]])
    )
    assert is_abelian_product(tw)
    for sys in enumerate_crossed_systems(C4, C2):
        assert build_product(sys).group.is_abelian == abelian_by_criterion(sys)


def test_centralizer_of_h():
    # trivial action on abelian H: everything centralizes
    triv = validate_crossed_system(C4, C2, trivial_action(C2, C4), trivial_cocycle(C2, C4))
    prod = build_product(triv)
    assert centralizer_of_h(prod).order == 8
    # quaternion product: only the H-fiber
    prod = build_product(q8_system())
    cz = centralizer_of_h(prod)
    assert cz.order == 4
    assert set(cz.elements) == {prod.encode(h, 0) for h in C4.elements()}
    # semidirect S3 = C3 x| C2: centralizer is C3 x {1}
    prod = build_semidirect(C3, C2, inversion_action(C2, C3))
    cz = centralizer_of_h(prod)
    assert cz.order == 3
    assert set(cz.elements) == {prod.encode(h, 0) for h in C3.elements()}


def test_centralizer_abelian_under_symmetric_cocycle():
    # abelian H and G with a symmetric cocycle force an abelian centralizer
    for (h_grp, g_grp) in [(C4, C2), (C2, C4)]:
        for sys in enumerate_crossed_systems(h_grp, g_grp):
            if not is_symmetric(sys.cocycle):
                continue
            prod = build_product(sys)
            cz = centralizer_of_h(prod).elements
            assert all(
                prod.group.mul(a, b) == prod.group.mul(b, a)
                for a in cz for b in cz
            )


def test_structure_disagreements_are_internal_invariant_errors(monkeypatch):
    # the pair-condition results are cross-checked by explicit checks that
    # also run under python -O
    prod = build_product(q8_system())
    monkeypatch.setattr(products, "center_pairs", lambda sys: frozenset())
    with pytest.raises(InternalInvariantError):
        product_center(prod)
    monkeypatch.setattr(products, "abelian_by_criterion", lambda sys: True)
    with pytest.raises(InternalInvariantError):
        is_abelian_product(q8_system())
    monkeypatch.setattr(products, "centralizer_pairs", lambda sys: frozenset())
    with pytest.raises(InternalInvariantError):
        centralizer_of_h(prod)


def test_vectorized_table_matches_scalar():
    # element by element against (h1, g1)(h2, g2) = (h1 (g1 |> h2) f(g1, g2), g1 g2)
    systems = enumerate_crossed_systems(C4, C2) + enumerate_crossed_systems(C2, C3)
    systems += enumerate_crossed_systems(symmetric_group(3), C2) + NON_NORMALIZED
    for sys in systems:
        h, g = sys.h, sys.g
        n = h.order
        hm = np.array(sys.h.table, dtype=np.int64)
        gm = np.array(sys.g.table, dtype=np.int64)
        act = np.array([list(p) for p in sys.action.perms], dtype=np.int64)
        f = np.array([list(r) for r in sys.cocycle.table], dtype=np.int64)
        table = product_table_np(hm, gm, act, f)
        prod = build_product(sys)
        for h1 in h.elements():
            for g1 in g.elements():
                for h2 in h.elements():
                    for g2 in g.elements():
                        hp = h.mul(h.mul(h1, sys.act(g1, h2)), sys.f(g1, g2))
                        gp = g.mul(g1, g2)
                        assert table[h1 + n * g1, h2 + n * g2] == hp + n * gp
                        a, b = prod.encode(h1, g1), prod.encode(h2, g2)
                        assert prod.decode(prod.group.mul(a, b)) == (hp, gp)


def test_sampled_associativity_equivalence():
    # small-sample version of the axioms-vs-associativity equivalence
    import random
    from crossedprod.errors import AxiomViolationError
    from crossedprod.groups import automorphism_group

    rng = random.Random(11)
    pool = [C2, C3, C4, make_group("product(cyclic:2,cyclic:2)")]
    for _ in range(400):
        h = rng.choice(pool)
        g = rng.choice(pool)
        auts = automorphism_group(h)
        perms = [rng.choice(auts).map for _ in range(g.order)]
        f_rows = [[rng.randrange(h.order) for _ in range(g.order)] for _ in range(g.order)]
        hm = np.array(h.table, dtype=np.int64)
        gm = np.array(g.table, dtype=np.int64)
        table = product_table_np(hm, gm, np.array(perms), np.array(f_rows))
        associative = bool(np.array_equal(table[table, :], table[:, table]))
        try:
            validate_crossed_system(
                h, g, weak_action(g, h, perms), cocycle(g, h, f_rows)
            )
            accepted = True
        except AxiomViolationError:
            accepted = False
        assert associative == accepted


def _product_table_2d(hm, gm, act, f):
    # reference: the kernel's former formula, index grids rebuilt per call
    n, m = hm.shape[0], gm.shape[0]
    idx = np.arange(n * m)
    h1, g1 = (idx % n)[:, None], (idx // n)[:, None]
    h2, g2 = (idx % n)[None, :], (idx // n)[None, :]
    return hm[hm[h1, act[g1, h2]], f[g1, g2]] + n * gm[g1, g2]


def test_table_kernel_matches_the_2d_formula():
    rng = np.random.default_rng(6)
    groups_ = [C2, C3, C4, symmetric_group(3), make_group("product(cyclic:4,cyclic:4)"),
               make_group("product(cyclic:2,dihedral:8)")]
    shapes = [(C4, C2), (C2, C4), (symmetric_group(3), C3), (C3, symmetric_group(3))]
    shapes += [(groups_[4], C4), (C4, groups_[4]), (groups_[5], C2), (C2, groups_[5])]
    for h, g in shapes:
        hm, gm = np.array(h.table), np.array(g.table)
        # arbitrary action and cocycle entries: the kernel is pure indexing
        act = rng.integers(0, h.order, (g.order, h.order))
        f = rng.integers(0, h.order, (g.order, g.order))
        for dtype in (np.int64, np.int32, np.uint8):
            args = [a.astype(dtype) for a in (hm, gm, act, f)]
            got, want = product_table_np(*args), _product_table_2d(*args)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
    assert groups_[4].order == 16 and groups_[5].order == 16
    for plan in (products._table_plan(16, 4), products._table_plan(3, 6)):
        for arr in plan:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1


def test_table_kernel_index_arithmetic_does_not_wrap_on_uint8():
    # |H| = 17, |G| = 15: every entry of the product table fits a byte, but
    # positions in H's flattened table reach 16 * 17 + 16, which does not
    h, g = cyclic_group(17), cyclic_group(15)
    rng = np.random.default_rng(17)
    args = (
        np.array(h.table, dtype=np.uint8), np.array(g.table, dtype=np.uint8),
        rng.integers(0, 17, (15, 17)).astype(np.uint8), rng.integers(0, 17, (15, 15)).astype(np.uint8),
    )
    got = product_table_np(*args)
    assert got.dtype == np.uint8
    assert np.array_equal(got, _product_table_2d(*(a.astype(np.int64) for a in args)))


def _center_pairs_scan(sys):
    # reference: the former per-system scan of Z(G) and every conjugation of H
    h_grp, g_grp = sys.h, sys.g
    hm, hinv = h_grp.table, h_grp.inverse_table
    act, f = sys.action.perms, sys.cocycle.table
    zg = {x for x in g_grp.elements() if all(g_grp.mul(x, y) == g_grp.mul(y, x) for y in g_grp.elements())}
    out = set()
    for g in zg:
        for h in h_grp.elements():
            if any(act[g][x] != hm[hm[hinv[h]][x]][h] for x in h_grp.elements()):
                continue
            if all(hm[act[gp][h]][f[gp][g]] == hm[h][f[g][gp]] for gp in g_grp.elements()):
                out.add((h, g))
    return frozenset(out)


def _centralizer_pairs_scan(sys):
    h_grp = sys.h
    hm, hinv = h_grp.table, h_grp.inverse_table
    return frozenset(
        (h, g)
        for g in sys.g.elements()
        for h in h_grp.elements()
        if all(sys.act(g, x) == hm[hm[hinv[h]][x]][h] for x in h_grp.elements())
    )


@pytest.mark.parametrize("hs,gs", [
    ("symmetric:3", "cyclic:2"), ("quaternion:8", "cyclic:2"), ("dihedral:8", "cyclic:2"),
    ("cyclic:4", "product(cyclic:2,cyclic:2)"),
])
def test_centre_lookups_match_the_scans(hs, gs):
    systems = enumerate_crossed_systems(make_group(hs), make_group(gs))
    assert systems
    for sys in systems:
        assert center_pairs(sys) == _center_pairs_scan(sys)
        assert centralizer_pairs(sys) == _centralizer_pairs_scan(sys)
