import itertools
import random

import pytest

from crossedprod import morphisms
from crossedprod.errors import (
    InternalInvariantError,
    PairInvariantViolationError,
    QuadrupleConditionError,
)
from crossedprod.groups import (
    Homomorphism,
    _completion_triples,
    backtrack,
    cyclic_group,
    enumerate_homomorphisms,
    homomorphism,
    is_homomorphism,
    make_group,
    symmetric_group,
)
from crossedprod.classify import enumerate_crossed_systems
from crossedprod.morphisms import (
    MorphismQuadruple,
    PairFromX,
    PairIntoX,
    enumerate_morphisms,
    enumerate_stabilizing_isos,
    find_retraction_pair,
    find_section_pair,
    find_splitting,
    induced_map,
    lift_through_inclusion,
    lift_through_projection,
    morphism_maps,
    specialize_crossed_vs_direct,
    specialize_semidirect_vs_twisted,
    stabilizes_ends,
    universal_map_in,
    universal_map_out,
    verify_quadruple,
)
from crossedprod.products import cached_product
from crossedprod.systems import (
    cocycle,
    trivial_action,
    trivial_cocycle,
    validate_crossed_system,
    weak_action,
)

C2 = cyclic_group(2)
C3 = cyclic_group(3)
C4 = cyclic_group(4)
K4 = make_group("product(cyclic:2,cyclic:2)")


def inversion_action(actor, space):
    ident = tuple(range(space.order))
    inv = tuple(space.inv(x) for x in space.elements())
    return weak_action(actor, space, [ident if g == 0 else inv for g in actor.elements()])


def trivial_system(h, g):
    return validate_crossed_system(h, g, trivial_action(g, h), trivial_cocycle(g, h))


def q8_system():
    return validate_crossed_system(
        C4, C2, inversion_action(C2, C4), cocycle(C2, C4, [[0, 0], [0, 2]])
    )


def twisted_c4_system():
    return validate_crossed_system(
        C2, C2, trivial_action(C2, C2), cocycle(C2, C2, [[0, 0], [0, 1]])
    )


# universal properties ---------------------------------------------------------


def test_universal_map_out_identity_case():
    sys = q8_system()
    prod = cached_product(sys)
    u = Homomorphism(sys.h, prod.group, prod.include_h.map)
    v = tuple(prod.encode(0, g) for g in sys.g.elements())
    w = universal_map_out(sys, PairIntoX(u, v))
    assert w.map == tuple(prod.group.elements())


def test_universal_map_out_projection_case():
    sys = trivial_system(C4, C2)
    prod = cached_product(sys)
    u = homomorphism(C4, C4, tuple(C4.elements()))
    v = (0, 0)
    w = universal_map_out(sys, PairIntoX(u, v))
    assert all(w.map[prod.encode(h, g)] == h for h in C4.elements() for g in C2.elements())


def test_universal_map_out_through_quotient():
    sys = q8_system()
    u = homomorphism(C4, C2, (0, 0, 0, 0))
    v = (0, 1)
    w = universal_map_out(sys, PairIntoX(u, v))
    prod = cached_product(sys)
    assert all(w.map[idx] == prod.project_g.map[idx] for idx in prod.group.elements())


def test_universal_map_out_rejects_bad_pair():
    sys = twisted_c4_system()
    u = homomorphism(C2, C2, (0, 1))
    v = (0, 1)  # v(a)v(a) = 0 but u(f(a,a)) = 1: incompatible
    with pytest.raises(PairInvariantViolationError):
        universal_map_out(sys, PairIntoX(u, v))


def test_universal_map_in_identity_case():
    sys = q8_system()
    prod = cached_product(sys)
    u = tuple(prod.decode(idx)[0] for idx in prod.group.elements())
    v = Homomorphism(prod.group, sys.g, prod.project_g.map)
    w = universal_map_in(sys, PairFromX(u, v))
    assert w.map == tuple(prod.group.elements())


def test_universal_map_in_trivial_source():
    sys = q8_system()
    c1 = cyclic_group(1)
    w = universal_map_in(sys, PairFromX((0,), homomorphism(c1, C2, (0,))))
    assert w.map == (0,)


def test_universal_map_in_inclusion_case():
    sys = trivial_system(C4, C2)
    u = tuple(C4.elements())
    v = homomorphism(C4, C2, (0, 0, 0, 0))
    w = universal_map_in(sys, PairFromX(u, v))
    prod = cached_product(sys)
    assert all(w.map[h] == prod.encode(h, 0) for h in C4.elements())


def test_universal_map_in_rejects_bad_pair():
    sys = twisted_c4_system()
    u = (0, 0, 1, 0)  # not twisted-multiplicative for v = projection mod 2
    v = homomorphism(C4, C2, (0, 1, 0, 1))
    with pytest.raises(PairInvariantViolationError):
        universal_map_in(sys, PairFromX(u, v))


# quadruples ---------------------------------------------------------------------


def test_enumerate_morphisms_counts_match_hom_oracle():
    triv = trivial_system(C2, C2)
    tw = twisted_c4_system()
    assert len(enumerate_morphisms(triv, triv)) == 16
    assert len(enumerate_morphisms(tw, triv)) == 4
    assert len(enumerate_morphisms(triv, tw)) == 4
    assert len(enumerate_morphisms(tw, tw)) == 4


def test_enumerate_morphisms_trivial_factors():
    c1 = cyclic_group(1)
    one_h = trivial_system(c1, C2)   # product is C2
    one_g = trivial_system(C2, c1)   # product is C2
    assert len(enumerate_morphisms(one_h, one_h)) == 2
    assert len(enumerate_morphisms(one_g, one_g)) == 2
    both = trivial_system(c1, c1)
    assert len(enumerate_morphisms(both, both)) == 1


def test_trivial_quadruple_is_always_present():
    tw = twisted_c4_system()
    triv = trivial_system(C2, C2)
    quads = enumerate_morphisms(tw, triv)
    keys = {q.key() for q in quads}
    assert ((0, 0), (0, 0), (0, 0), (0, 0)) in keys


def test_quadruples_round_trip_through_verify():
    sysA = q8_system()
    for sysB in enumerate_crossed_systems(C4, C2):
        for q in enumerate_morphisms(sysA, sysB):
            w = verify_quadruple(sysA, sysB, q)
            assert is_homomorphism(w.source, w.target, w.map)


def test_verify_quadruple_identity():
    sys = q8_system()
    ident = MorphismQuadruple(
        u=tuple(C4.elements()),
        r=(0, 0),
        v=tuple(C2.elements()),
        s=homomorphism(C4, C2, (0, 0, 0, 0)),
    )
    w = verify_quadruple(sys, sys, ident)
    assert w.map == tuple(cached_product(sys).group.elements())
    assert stabilizes_ends(ident, 4, 2)


def test_verify_quadruple_reports_condition_index():
    triv = trivial_system(C4, C2)
    bad = MorphismQuadruple(
        u=(0, 1, 0, 0),  # not multiplicative: u(1+1) != u(1)+u(1)
        r=(0, 0),
        v=tuple(C2.elements()),
        s=homomorphism(C4, C2, (0, 0, 0, 0)),
    )
    with pytest.raises(QuadrupleConditionError) as err:
        verify_quadruple(triv, triv, bad)
    assert err.value.index == 3


def test_morphism_count_oracle_over_system_pairs():
    systems = enumerate_crossed_systems(C4, C2)
    pairs = [(a, b) for a in systems[:3] for b in systems[:3]]
    for (sa, sb) in pairs:
        quads = enumerate_morphisms(sa, sb)
        homs = enumerate_homomorphisms(cached_product(sa).group, cached_product(sb).group)
        assert len(quads) == len(homs)


def _morphisms_by_conditions(sysA, sysB):
    # reference: the five-condition search over (H, G) data only; s over
    # Hom(H, G), then v, u, r as one position list, each condition instance
    # checked as soon as its arguments are known
    h_grp, g_grp = sysA.h, sysA.g
    n, m = h_grp.order, g_grp.order
    hm, gm = h_grp.table, g_grp.table
    actA, actB = sysA.action.perms, sysB.action.perms
    fA, fB = sysA.cocycle.table, sysB.cocycle.table
    g_triples = _completion_triples(g_grp)
    h_triples = _completion_triples(h_grp)
    domains = [(0,)] + [range(m)] * (m - 1) + [(0,)] + [range(n)] * (n - 1)
    domains += [(0,)] + [range(n)] * (m - 1)
    results = []

    for s_hom in enumerate_homomorphisms(h_grp, g_grp):
        s = s_hom.map
        v = [0] * m
        u = [0] * n
        r = [0] * m

        def cond2_ok(g):
            vg = v[g]
            return all(gm[vg][s[h]] == gm[s[actA[g][h]]][vg] for h in range(n))

        def cond1_ok(g):
            return all(
                gm[v[g1]][v[g2]] == gm[s[fA[g1][g2]]][v[g12]] for (g1, g2, g12) in g_triples[g]
            )

        def cond3_ok(h):
            return all(
                u[h12] == hm[hm[u[h1]][actB[s[h1]][u[h2]]]][fB[s[h1]][s[h2]]]
                for (h1, h2, h12) in h_triples[h]
            )

        def cond4_ok(g):
            rg, vg = r[g], v[g]
            for h in range(n):
                gh = actA[g][h]
                lhs = hm[hm[u[gh]][actB[s[gh]][rg]]][fB[s[gh]][vg]]
                rhs = hm[hm[rg][actB[vg][u[h]]]][fB[vg][s[h]]]
                if lhs != rhs:
                    return False
            return True

        def cond5_ok(g):
            for (g1, g2, g12) in g_triples[g]:
                fa = fA[g1][g2]
                lhs = hm[hm[r[g1]][actB[v[g1]][r[g2]]]][fB[v[g1]][v[g2]]]
                rhs = hm[hm[u[fa]][actB[s[fa]][r[g12]]]][fB[s[fa]][v[g12]]]
                if lhs != rhs:
                    return False
            return True

        def accept(k, vals):
            if k < m:
                v[k] = vals[k]
                return cond2_ok(k) and cond1_ok(k)
            if k < m + n:
                u[k - m] = vals[k]
                return cond3_ok(k - m)
            g = k - m - n
            r[g] = vals[k]
            return cond4_ok(g) and cond5_ok(g)

        for vals in backtrack(domains, accept):
            results.append((vals[m:m + n], vals[m + n:], vals[:m], s))

    return sorted(results)


def _assert_morphisms_match_the_conditions(sa, sb):
    quads = enumerate_morphisms(sa, sb)
    assert [q.key() for q in quads] == _morphisms_by_conditions(sa, sb)
    prod_a, prod_b = cached_product(sa).group, cached_product(sb).group
    for q in quads:
        assert q.s.source == sa.h and q.s.target == sa.g
        assert is_homomorphism(prod_a, prod_b, induced_map(sa, sb, q))


S3 = symmetric_group(3)

# (H, G) whose every ordered pair of systems is checked, and (H, G) checked
# on sampled pairs of systems
EVERY_PAIR_GROUPS = [(C2, C2), (C4, C2), (C2, C4), (K4, C2), (C2, K4), (C3, C2), (C2, S3)]
SAMPLED_PAIR_GROUPS = [(S3, C3), (C3, S3), (cyclic_group(6), C4), (S3, C4)]


def _every_system_pair(h, g):
    systems = enumerate_crossed_systems(h, g)
    return [(sa, sb) for sa in systems for sb in systems]


def _sampled_system_pairs(h, g):
    systems = enumerate_crossed_systems(h, g)
    rng = random.Random(17)
    pairs = [(systems[0], systems[-1]), (systems[-1], systems[0])]
    return pairs + [(rng.choice(systems), rng.choice(systems)) for _ in range(10)]


@pytest.mark.parametrize("h, g", EVERY_PAIR_GROUPS, ids=lambda grp: grp.name)
def test_morphism_oracle_every_system_pair(h, g):
    for (sa, sb) in _every_system_pair(h, g):
        _assert_morphisms_match_the_conditions(sa, sb)


@pytest.mark.parametrize("h, g", SAMPLED_PAIR_GROUPS, ids=lambda grp: grp.name)
def test_morphism_oracle_sampled_system_pairs(h, g):
    for (sa, sb) in _sampled_system_pairs(h, g):
        _assert_morphisms_match_the_conditions(sa, sb)


def _assert_maps_are_induced(sa, sb):
    # the psi read off Hom(E_A, E_B) is the map each quadruple induces
    for q, psi in morphism_maps(sa, sb):
        assert psi == induced_map(sa, sb, q)


@pytest.mark.parametrize("h, g", EVERY_PAIR_GROUPS, ids=lambda grp: grp.name)
def test_psi_oracle_every_system_pair(h, g):
    for (sa, sb) in _every_system_pair(h, g):
        _assert_maps_are_induced(sa, sb)


@pytest.mark.parametrize("h, g", SAMPLED_PAIR_GROUPS, ids=lambda grp: grp.name)
def test_psi_oracle_sampled_system_pairs(h, g):
    for (sa, sb) in _sampled_system_pairs(h, g):
        _assert_maps_are_induced(sa, sb)


# stabilizing isomorphisms --------------------------------------------------------


def test_stabilizing_isos_contain_unit_witness():
    sys = q8_system()
    rs = enumerate_stabilizing_isos(sys, sys)
    assert (0, 0) in rs


def test_stabilizing_isos_empty_for_non_isomorphic_products():
    assert enumerate_stabilizing_isos(trivial_system(C2, C2), twisted_c4_system()) == []


def test_stabilizing_isos_found_for_coboundary_shift():
    from crossedprod.classify import shift_system

    base = trivial_system(C2, C4)
    shifted = shift_system(base, (0, 1, 0, 1))
    rs = enumerate_stabilizing_isos(base, shifted)
    assert rs, "coboundary-shifted system must be stabilizing-isomorphic"


def test_stabilizing_isos_induce_isomorphisms():
    # each witness r must induce the isomorphism (h, g) -> (h r(g), g)
    checked = 0
    for (h, g) in [(C4, C2), (C2, C4), (K4, C2), (C3, C3)]:
        systems = enumerate_crossed_systems(h, g)
        for sysA in systems:
            for sysB in systems:
                prodA, prodB = cached_product(sysA), cached_product(sysB)
                for r in enumerate_stabilizing_isos(sysA, sysB):
                    psi = tuple(
                        prodB.encode(h.mul(hh, r[gg]), gg) for (hh, gg) in prodA.pair_of_index
                    )
                    assert is_homomorphism(prodA.group, prodB.group, psi)
                    assert len(set(psi)) == prodA.group.order
                    checked += 1
    assert checked > 50


def test_stabilizing_matches_quadruple_flag():
    sysA = q8_system()
    for sysB in enumerate_crossed_systems(C4, C2):
        via_r = set(enumerate_stabilizing_isos(sysA, sysB))
        via_quads = {
            q.r
            for q in enumerate_morphisms(sysA, sysB)
            if stabilizes_ends(q, 4, 2)
        }
        assert via_r == via_quads


# splittings and lifts -------------------------------------------------------------


def test_find_splitting_trivial_system():
    assert find_splitting(trivial_system(C4, C2)) == (0, 0)


def test_find_splitting_absent_for_q8():
    assert find_splitting(q8_system()) is None


@pytest.mark.parametrize(
    "h_spec, g_spec",
    [
        ("cyclic:2", "cyclic:2"),
        ("cyclic:4", "cyclic:2"),
        ("cyclic:2", "cyclic:3"),
        ("product(cyclic:2,cyclic:2)", "cyclic:2"),
        ("symmetric:3", "cyclic:2"),
    ],
)
def test_find_splitting_is_least_brute_force_splitting(h_spec, g_spec):
    h, g = make_group(h_spec), make_group(g_spec)
    hm = h.table

    def splits(sys, v):
        return all(
            sys.act(x, y) == hm[hm[v[x]][y]][h.inv(v[x])]
            for x in g.elements()
            for y in h.elements()
        ) and all(
            sys.f(a, b) == hm[hm[v[a]][v[b]]][h.inv(v[g.mul(a, b)])]
            for a in g.elements()
            for b in g.elements()
        )

    found = 0
    for sys in enumerate_crossed_systems(h, g):
        maps = itertools.product(h.elements(), repeat=g.order)
        want = next((v for v in maps if splits(sys, v)), None)
        assert find_splitting(sys) == want
        found += want is not None
    assert found > 0


def test_find_splitting_inner_action_instance():
    # action by conjugation with a 3-cycle sigma, cocycle its coboundary
    s3 = symmetric_group(3)
    sigma = next(x for x in s3.elements() if s3.element_order(x) == 3)
    conj = tuple(s3.mul(s3.mul(sigma, x), s3.inv(sigma)) for x in s3.elements())
    act = weak_action(C2, s3, [tuple(range(6)), conj])
    fval = s3.mul(sigma, sigma)
    sys = validate_crossed_system(s3, C2, act, cocycle(C2, s3, [[0, 0], [0, fval]]))
    v = find_splitting(sys)
    assert v is not None
    for g in C2.elements():
        for x in s3.elements():
            assert sys.act(g, x) == s3.mul(s3.mul(v[g], x), s3.inv(v[g]))
        for g2 in C2.elements():
            assert sys.f(g, g2) == s3.mul(
                s3.mul(v[g], v[g2]), s3.inv(v[C2.mul(g, g2)])
            )


def test_lift_through_inclusion_into_product():
    sys = q8_system()
    prod = cached_product(sys)
    u = Homomorphism(C4, prod.group, prod.include_h.map)
    got = lift_through_inclusion(sys, prod.group, u)
    assert got is not None
    v, w = got
    assert w.map[prod.encode(0, 1)] == v[1]


def test_lift_through_inclusion_unsatisfiable():
    # identity on H cannot extend when the cocycle value has no square root
    sys = twisted_c4_system()
    u = homomorphism(C2, C2, (0, 1))
    assert lift_through_inclusion(sys, C2, u) is None


def test_lift_through_projection_identity():
    sys = q8_system()
    prod = cached_product(sys)
    v = Homomorphism(prod.group, C2, prod.project_g.map)
    got = lift_through_projection(sys, prod.group, v)
    assert got is not None
    u, w = got
    assert w.map == tuple(prod.group.elements()) or is_homomorphism(prod.group, prod.group, w.map)


def test_lift_through_projection_split_case():
    # semidirect products always lift the identity of G with u = 1
    s3_sys = validate_crossed_system(
        C3, C2, inversion_action(C2, C3), trivial_cocycle(C2, C3)
    )
    got = lift_through_projection(s3_sys, C2, homomorphism(C2, C2, (0, 1)))
    assert got is not None
    u, _ = got
    assert u == (0, 0)


def test_lift_through_projection_non_split_case():
    assert lift_through_projection(q8_system(), C2, homomorphism(C2, C2, (0, 1))) is None


# specializations -------------------------------------------------------------------


def test_specialize_trivial_everything():
    quads = specialize_semidirect_vs_twisted(
        C2, C2, trivial_action(C2, C2), trivial_cocycle(C2, C2)
    )
    assert len(quads) == 16  # |Hom(C2xC2, C2xC2)|


def test_specialize_semidirect_to_twisted_agreement():
    quads = specialize_semidirect_vs_twisted(
        C3, C2, inversion_action(C2, C3), trivial_cocycle(C2, C3)
    )
    # morphisms S3 -> C6 factor through the abelianization C2: |Hom(C2, C6)| = 2
    assert len(quads) == 2


def test_specialize_crossed_vs_direct_q8():
    quads = specialize_crossed_vs_direct(q8_system())
    # Q8 -> C4 x C2 factors through Q8/[Q8,Q8] = K4 onto the 2-torsion K4:
    # |Hom(K4, K4)| = 16
    assert len(quads) == 16
    for q in quads:
        psi = induced_map(q8_system(), trivial_system(C4, C2), q)
        assert len(set(psi)) < 8  # never an isomorphism


def test_specialize_disagreement_is_an_internal_invariant_error(monkeypatch):
    # the agreement check is an explicit check, so it also runs under python -O
    real = morphisms.enumerate_morphisms
    monkeypatch.setattr(morphisms, "enumerate_morphisms", lambda a, b: real(a, b)[1:])
    with pytest.raises(InternalInvariantError):
        specialize_crossed_vs_direct(q8_system())
    with pytest.raises(InternalInvariantError):
        specialize_semidirect_vs_twisted(C2, C2, trivial_action(C2, C2), trivial_cocycle(C2, C2))


# bijectivity characterizations -------------------------------------------------------


def test_retraction_pair_characterizes_bijectivity():
    sys = twisted_c4_system()
    prod = cached_product(sys)
    # bijective w: the identity pair on the product itself
    u = Homomorphism(C2, prod.group, prod.include_h.map)
    v = tuple(prod.encode(0, g) for g in C2.elements())
    w = universal_map_out(sys, PairIntoX(u, v))
    assert w.is_bijective()
    assert find_retraction_pair(sys, prod.group, u, v, w) is not None
    # non-bijective w: collapse everything
    c1 = cyclic_group(1)
    u0 = homomorphism(C2, c1, (0, 0))
    v0 = (0, 0)
    w0 = universal_map_out(sys, PairIntoX(u0, v0))
    assert not w0.is_bijective()
    assert find_retraction_pair(sys, c1, u0, v0, w0) is None


def test_section_pair_characterizes_bijectivity():
    sys = twisted_c4_system()
    prod = cached_product(sys)
    u = tuple(prod.decode(idx)[0] for idx in prod.group.elements())
    v = Homomorphism(prod.group, C2, prod.project_g.map)
    psi = universal_map_in(sys, PairFromX(u, v))
    assert psi.is_bijective()
    assert find_section_pair(sys, prod.group, u, v) is not None
    # map from a strictly smaller group cannot be bijective
    c1 = cyclic_group(1)
    u_small = (0,)
    v_small = homomorphism(c1, C2, (0,))
    psi_small = universal_map_in(sys, PairFromX(u_small, v_small))
    assert not psi_small.is_bijective()
    assert find_section_pair(sys, c1, u_small, v_small) is None


def test_bijectivity_iff_retraction_pair_sweep():
    import itertools

    systems = enumerate_crossed_systems(C2, C2) + enumerate_crossed_systems(C4, C2)[:3]
    receivers = [cyclic_group(1), C2, C3, C4, K4]
    checked = 0
    for sys in systems:
        prod = cached_product(sys)
        m = sys.g.order
        for x in receivers:
            for u in enumerate_homomorphisms(sys.h, x):
                for combo in itertools.product(x.elements(), repeat=m - 1):
                    v = (0,) + combo
                    try:
                        w = universal_map_out(sys, PairIntoX(u, v))
                    except PairInvariantViolationError:
                        continue
                    pair = find_retraction_pair(sys, x, u, v, w)
                    assert w.is_bijective() == (pair is not None)
                    checked += 1
    assert checked > 20


def test_bijectivity_iff_section_pair_sweep():
    import itertools

    systems = enumerate_crossed_systems(C2, C2) + enumerate_crossed_systems(C4, C2)[:2]
    sources = [cyclic_group(1), C2, C4, K4]
    checked = 0
    for sys in systems:
        for x in sources:
            for v in enumerate_homomorphisms(x, sys.g):
                for combo in itertools.product(sys.h.elements(), repeat=x.order - 1):
                    u = (0,) + combo
                    try:
                        psi = universal_map_in(sys, PairFromX(u, v))
                    except PairInvariantViolationError:
                        continue
                    pair = find_section_pair(sys, x, u, v)
                    assert psi.is_bijective() == (pair is not None)
                    if pair is not None:
                        r_hom, s = pair
                        xm = x.table
                        assert all(
                            xm[r_hom.map[u[a]]][s[v.map[a]]] == a for a in x.elements()
                        )
                    checked += 1
    assert checked > 20


def test_uniqueness_of_universal_maps_at_desk_scale():
    sys = twisted_c4_system()
    prod = cached_product(sys)
    for x in (C2, C4, K4):
        for u in enumerate_homomorphisms(C2, x):
            # all v maps completing u to a valid pair, by direct search
            m = C2.order
            for v1 in x.elements():
                v = (0, v1)
                try:
                    w = universal_map_out(sys, PairIntoX(u, v))
                except PairInvariantViolationError:
                    continue
                matches = [
                    cand
                    for cand in enumerate_homomorphisms(prod.group, x)
                    if all(cand.map[prod.include_h.map[h]] == u.map[h] for h in C2.elements())
                    and all(cand.map[prod.encode(0, g)] == v[g] for g in C2.elements())
                ]
                assert len(matches) == 1 and matches[0].map == w.map
