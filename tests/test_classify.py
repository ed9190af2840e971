import random

import pytest

from crossedprod.errors import CapExceededError
from crossedprod.groups import (
    are_isomorphic,
    automorphism_group,
    cyclic_group,
    dihedral_group,
    identify_group,
    make_group,
    quaternion_group,
    symmetric_group,
)
from crossedprod.classify import (
    are_equivalent_1,
    are_equivalent_2,
    classify,
    coboundary_orbit_keys,
    compose_equivalence1,
    compose_equivalence2,
    enumerate_crossed_systems,
    functor_check,
    invert_equivalence1,
    invert_equivalence2,
    iter_orbit_representatives,
    shift_system,
    system_from_raw,
    verify_equivalence1_witness,
    verify_equivalence2_witness,
)
from crossedprod.products import build_product
from crossedprod.systems import (
    cocycle,
    trivial_action,
    trivial_cocycle,
    validate_crossed_system,
)

C2 = cyclic_group(2)
C3 = cyclic_group(3)
C4 = cyclic_group(4)
K4 = make_group("product(cyclic:2,cyclic:2)")
S3 = symmetric_group(3)
Q8 = quaternion_group()
D8 = dihedral_group(8)


def trivial_system(h, g):
    return validate_crossed_system(h, g, trivial_action(g, h), trivial_cocycle(g, h))


def twisted_c4_system():
    return validate_crossed_system(
        C2, C2, trivial_action(C2, C2), cocycle(C2, C2, [[0, 0], [0, 1]])
    )


def test_enumerate_c2_c2_exactly_two():
    systems = enumerate_crossed_systems(C2, C2)
    assert len(systems) == 2
    assert systems[0].cocycle.table == ((0, 0), (0, 0))
    assert systems[1].cocycle.table == ((0, 0), (0, 1))
    for sys in systems:
        assert sys.action.is_trivial()  # Aut(C2) is trivial


def test_enumerate_trivial_quotient_side():
    c1 = cyclic_group(1)
    for h in (C2, C4, K4, symmetric_group(3), quaternion_group()):
        assert len(enumerate_crossed_systems(h, c1)) == 1


def test_enumerate_contains_q8_system():
    inv = tuple(C4.inv(x) for x in C4.elements())
    found = [
        sys
        for sys in enumerate_crossed_systems(C4, C2)
        if sys.action.perms[1] == inv and sys.cocycle.table[1][1] == 2
    ]
    assert len(found) == 1
    assert are_isomorphic(build_product(found[0]).group, quaternion_group()) is not None


def test_enumeration_is_sorted_and_deterministic():
    a = enumerate_crossed_systems(C4, C2)
    b = enumerate_crossed_systems(C4, C2)
    encs = [s.encoding() for s in a]
    assert encs == sorted(encs)
    assert [s.encoding() for s in b] == encs


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        enumerate_crossed_systems(C4, C4, max_pair_order=8)
    assert enumerate_crossed_systems(C4, C4, max_pair_order=16)


def test_are_equivalent_1_reflexive_unit_witness():
    sys = twisted_c4_system()
    w = are_equivalent_1(sys, sys)
    assert w is not None and w.r == (0, 0)


def test_are_equivalent_1_distinguishes_c4_from_k4():
    assert are_equivalent_1(trivial_system(C2, C2), twisted_c4_system()) is None


def test_are_equivalent_1_finds_coboundary_witness():
    base = trivial_system(C2, C4)
    shifted = shift_system(base, (0, 1, 1, 0))
    w = are_equivalent_1(base, shifted)
    assert w is not None
    assert verify_equivalence1_witness(base, shifted, w.r)


def test_shift_system_soundness():
    rng = random.Random(3)
    systems = enumerate_crossed_systems(C4, C2) + enumerate_crossed_systems(C2, C4)
    for _ in range(25):
        sys = rng.choice(systems)
        m = sys.g.order
        r = tuple([0] + [rng.randrange(sys.h.order) for _ in range(m - 1)])
        shifted = shift_system(sys, r)  # validates internally
        assert verify_equivalence1_witness(sys, shifted, r)
        assert are_isomorphic(
            build_product(sys).group, build_product(shifted).group
        ) is not None


def test_equivalence1_symmetry_and_transitivity_via_witness_algebra():
    systems = enumerate_crossed_systems(C2, C4)
    h = C2
    for a in systems:
        for b in systems:
            w = are_equivalent_1(a, b)
            if w is None:
                continue
            back = invert_equivalence1(w, h)
            assert verify_equivalence1_witness(b, a, back.r)
            for c in systems:
                w2 = are_equivalent_1(b, c)
                if w2 is None:
                    continue
                comp = compose_equivalence1(w, w2, h)
                assert verify_equivalence1_witness(a, c, comp.r)


def test_are_equivalent_2_reflexive():
    sys = twisted_c4_system()
    w = are_equivalent_2(sys, sys)
    assert w is not None
    assert w.eta.map == (0, 1) and w.gamma.map == (0, 1) and w.t == (0, 0)


def test_are_equivalent_2_distinguishes_c4_from_k4():
    assert are_equivalent_2(trivial_system(C2, C2), twisted_c4_system()) is None


def test_are_equivalent_2_direct_product_remark():
    # trivial source: a witness exists iff some (eta, t) satisfies the reduced laws
    base = trivial_system(C4, C2)
    hm = C4.table
    hinv = C4.inverse_table
    for other in enumerate_crossed_systems(C4, C2):
        found = are_equivalent_2(base, other) is not None
        reduced = False
        for eta in automorphism_group(C4):
            em = eta.map
            einv = eta.inverse_automorphism().map
            for t1 in C4.elements():
                t = (0, t1)
                act_ok = all(
                    other.act(g, h) == em[hm[hm[t[g]][einv[h]]][hinv[t[g]]]]
                    for g in C2.elements()
                    for h in C4.elements()
                )
                coc_ok = all(
                    other.f(g1, g2)
                    == em[hm[hm[t[g1]][t[g2]]][hinv[t[C2.mul(g1, g2)]]]]
                    for g1 in C2.elements()
                    for g2 in C2.elements()
                )
                if act_ok and coc_ok:
                    reduced = True
        assert found == reduced


def test_equivalence2_symmetry_and_transitivity_via_witness_algebra():
    systems = enumerate_crossed_systems(C4, C2)
    for a in systems:
        for b in systems:
            w = are_equivalent_2(a, b)
            if w is None:
                continue
            back = invert_equivalence2(w, C4)
            assert verify_equivalence2_witness(b, a, back)
            for c in systems:
                w2 = are_equivalent_2(b, c)
                if w2 is None:
                    continue
                comp = compose_equivalence2(w, w2, C4)
                assert verify_equivalence2_witness(a, c, comp)


def test_classify_c2_c2_counts():
    for relation in ("eq1", "eq2", "iso"):
        rep = classify(C2, C2, relation)
        assert rep.class_count() == 2
        assert sorted(rep.product_iso_types) == ["C2xC2", "C4"]


def test_classify_c4_c2_counts():
    counts = {}
    for relation in ("eq1", "eq2", "iso"):
        rep = classify(C4, C2, relation)
        counts[relation] = rep.class_count()
        # partition covers all systems exactly once
        members = sorted(i for cls in rep.classes for i in cls)
        assert members == list(range(len(rep.systems)))
    assert counts == {"eq1": 4, "eq2": 4, "iso": 4}
    rep = classify(C4, C2, "iso")
    assert sorted(rep.product_iso_types) == ["C4xC2", "C8", "D8", "Q8"]


def test_classify_trivial_quotient_single_class():
    c1 = cyclic_group(1)
    for relation in ("eq1", "eq2", "iso"):
        assert classify(C4, c1, relation).class_count() == 1


def test_class_representatives_are_lex_minimal():
    rep = classify(C4, C2, "iso")
    encodings = [s.encoding() for s in rep.systems]
    for ci, members in enumerate(rep.classes):
        rep_idx = rep.representatives[ci]
        assert rep_idx == members[0]
        assert encodings[rep_idx] == min(encodings[i] for i in members)


def test_classify_worker_counts_agree():
    base = classify(C4, C2, "eq1", workers=1)
    par = classify(C4, C2, "eq1", workers=4)
    assert base.classes == par.classes
    assert base.representatives == par.representatives
    assert base.product_iso_types == par.product_iso_types


def test_functor_check_refinement():
    for (h, g) in [(C2, C2), (C4, C2), (C2, C4), (K4, C2), (C3, C2)]:
        out = functor_check(h, g)
        assert out["eq1_refines_eq2"] and out["eq2_refines_iso"]
        assert out["eq1_classes"] >= out["eq2_classes"] >= out["iso_classes"]


def test_eq2_strictly_coarser_than_eq1_on_c3_c3():
    # the two cohomologically distinct systems with product C9 merge under
    # end automorphisms but not under end-stabilizing maps
    out = functor_check(C3, C3)
    assert out["system_count"] == 9
    assert out["eq1_classes"] == 3
    assert out["eq2_classes"] == 2
    assert out["iso_classes"] == 2
    rep = classify(C3, C3, "eq1")
    assert sorted(rep.product_iso_types) == ["C3xC3", "C9", "C9"]


def test_equivalence2_search_complete_with_nontrivial_gamma():
    import itertools

    from crossedprod.classify import Equivalence2Witness

    systems = enumerate_crossed_systems(C2, C4)
    for a in systems:
        for b in systems:
            brute = False
            for eta in automorphism_group(C2):
                for gamma in automorphism_group(C4):
                    for combo in itertools.product(range(2), repeat=3):
                        w = Equivalence2Witness(eta, gamma, (0,) + combo)
                        if verify_equivalence2_witness(a, b, w):
                            brute = True
            assert brute == (are_equivalent_2(a, b) is not None)


def test_equivalence2_witnesses_verify():
    # every witness the search returns must pass the independent verifier
    found = 0
    for (h, g) in [(C4, C2), (C2, C4), (K4, C2), (C3, C3)]:
        systems = enumerate_crossed_systems(h, g)
        for a in systems:
            for b in systems:
                w = are_equivalent_2(a, b)
                if w is not None:
                    assert verify_equivalence2_witness(a, b, w)
                    found += 1
    assert found > 50


def test_shift_system_rejects_non_normalized():
    c1 = cyclic_group(1)
    sys = validate_crossed_system(C2, c1, trivial_action(c1, C2), cocycle(c1, C2, [[1]]))
    with pytest.raises(ValueError, match="normalized"):
        shift_system(sys, (0,))


def test_functor_check_trivial_quotient():
    out = functor_check(C4, cyclic_group(1))
    assert (out["eq1_classes"], out["eq2_classes"], out["iso_classes"]) == (1, 1, 1)


def test_equivalence1_search_is_complete():
    # brute force over every map r agrees with the backtracking search
    import itertools

    systems = enumerate_crossed_systems(C2, C4)
    h = C2
    for a in systems:
        for b in systems:
            brute = any(
                verify_equivalence1_witness(a, b, (0,) + combo)
                for combo in itertools.product(range(h.order), repeat=3)
            )
            assert brute == (are_equivalent_1(a, b) is not None)


def test_equivalence2_search_is_complete():
    import itertools

    systems = enumerate_crossed_systems(C4, C2)
    from crossedprod.classify import Equivalence2Witness

    for a in systems:
        for b in systems:
            brute = False
            for eta in automorphism_group(C4):
                for gamma in automorphism_group(C2):
                    for t1 in range(4):
                        w = Equivalence2Witness(eta, gamma, (0, t1))
                        if verify_equivalence2_witness(a, b, w):
                            brute = True
            assert brute == (are_equivalent_2(a, b) is not None)


def test_orbit_representatives_cover_everything():
    # expanding each representative by all shifts recovers the full system
    # list; (C3, C4) includes systems with a nontrivial action
    for (h, g) in [(C2, C4), (C4, C3), (C3, C3), (C3, C4)]:
        all_encodings = {s.encoding() for s in enumerate_crossed_systems(h, g)}
        covered = set()
        reps = list(iter_orbit_representatives(h, g))
        for (alpha, fb) in reps:
            rep_sys = system_from_raw(h, g, alpha, fb)
            m = h.order ** (g.order - 1)
            import itertools

            for combo in itertools.product(range(h.order), repeat=g.order - 1):
                shifted = shift_system(rep_sys, (0,) + combo)
                covered.add(shifted.encoding())
        assert covered == all_encodings


def _flat(rows):
    return bytes(v for row in rows for v in row)


def test_orbit_keys_match_shift_system():
    import itertools

    cases = enumerate_crossed_systems(C4, C3)[:6]
    # include systems acting nontrivially (inversion of C3 through C4)
    cases += [s for s in enumerate_crossed_systems(C3, C4) if not s.action.is_trivial()][:4]
    # non-abelian H: shifts move the action too
    for (h, g) in [(S3, C2), (Q8, C2), (D8, C2), (S3, C3)]:
        cases += enumerate_crossed_systems(h, g)[::7]
    for sys in cases:
        h, g = sys.h, sys.g
        actions, cocycles = coboundary_orbit_keys(h, g, sys.action.perms, _flat(sys.cocycle.table))
        expected = set()
        for combo in itertools.product(range(h.order), repeat=g.order - 1):
            shifted = shift_system(sys, (0,) + combo)
            if h.is_abelian:
                assert shifted.action.perms == sys.action.perms  # abelian H fixes the action
            expected.add(_flat(shifted.action.perms) + _flat(shifted.cocycle.table))
        assert {a.tobytes() + f.tobytes() for a, f in zip(actions, cocycles)} == expected


def test_orbit_keys_satisfy_equivalence2_witnesses():
    from crossedprod.classify import Equivalence2Witness

    checked = 0
    # (C3, C4) and (C2, K4) add nontrivial gammas (of order 3 on K4) and maps t
    # with several values
    for (h, g) in [(C4, C2), (S3, C2), (C3, C4), (C2, K4)]:
        systems = enumerate_crossed_systems(h, g)
        by_key = {_flat(s.action.perms) + _flat(s.cocycle.table): s for s in systems}
        for sys in systems:
            for eta in automorphism_group(h):
                for gamma in automorphism_group(g):
                    if eta.map == tuple(h.elements()) and gamma.map == tuple(g.elements()):
                        continue
                    actions, cocycles = coboundary_orbit_keys(
                        h, g, sys.action.perms, _flat(sys.cocycle.table), eta, gamma
                    )
                    n = h.order
                    for k, (a, f) in enumerate(zip(actions, cocycles)):
                        target = by_key[a.tobytes() + f.tobytes()]
                        t = tuple((k // n ** (gi - 1)) % n if gi else 0 for gi in g.elements())
                        w = Equivalence2Witness(eta, gamma, t)
                        assert verify_equivalence2_witness(sys, target, w)
                        checked += 1
    assert checked == 3760


def _pairwise_classes(h, g, relation):
    """Reference partition: match each system against the class representatives in order."""
    systems = enumerate_crossed_systems(h, g)
    if relation == "iso":
        groups = [build_product(s).group for s in systems]

        def matches(rep_idx, cand_idx):
            return are_isomorphic(groups[rep_idx], groups[cand_idx]) is not None

    elif relation == "eq1":

        def matches(rep_idx, cand_idx):
            return are_equivalent_1(systems[rep_idx], systems[cand_idx]) is not None

    else:

        def matches(rep_idx, cand_idx):
            return are_equivalent_2(systems[rep_idx], systems[cand_idx]) is not None

    reps = []
    members = []
    for idx in range(len(systems)):
        hit = next((pos for pos, rj in enumerate(reps) if matches(rj, idx)), None)
        if hit is None:
            reps.append(idx)
            members.append([idx])
        else:
            members[hit].append(idx)
    types = [identify_group(build_product(systems[r]).group) for r in reps]
    return [tuple(ms) for ms in members], reps, types


def test_orbit_classification_matches_pairwise_search():
    # Orbit marking makes eq1 refine eq2 and eq2 refine iso by construction, so
    # criterion 4's refinement checks cannot fail; this comparison with the
    # pairwise witness search is their independent check.
    pairs = [(Q8, C2), (D8, C2), (S3, C2), (C3, C4), (C4, C2), (C3, C3), (K4, C2), (C2, K4)]
    coarser = 0
    for (h, g) in pairs:
        counts = {}
        for relation in ("eq1", "eq2", "iso"):
            rep = classify(h, g, relation)
            classes, reps, types = _pairwise_classes(h, g, relation)
            assert rep.classes == classes, (h.name, g.name, relation)
            assert rep.representatives == reps
            assert rep.product_iso_types == types
            counts[relation] = len(classes)
        coarser += counts["eq2"] < counts["eq1"]
    assert coarser >= 1  # (C3, C3) at least
