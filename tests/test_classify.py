import random

import pytest

from crossedprod.errors import CapExceededError
from crossedprod.groups import (
    are_isomorphic,
    automorphism_group,
    cyclic_group,
    dihedral_group,
    generating_sequence,
    identify_group,
    make_group,
    quaternion_group,
    symmetric_group,
)
from crossedprod.classify import (
    _aut_tables,
    _gauge_shifts,
    _gauge_tree,
    _outer_actions,
    are_equivalent_1,
    are_equivalent_2,
    classify,
    coboundary_orbit_keys,
    compose_equivalence1,
    compose_equivalence2,
    enumerate_crossed_systems,
    enumerate_raw_systems,
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


# gauge-slice orbit representatives ---------------------------------------------

C5 = cyclic_group(5)
C2_3 = make_group("product(cyclic:2,product(cyclic:2,cyclic:2))")

# cyclic and non-cyclic G, non-trivial actions, non-cyclic abelian H
SLICE_PAIRS = [
    (K4, K4),
    (C2, D8),
    (C3, Q8),
    (C2_3, C2),
    (C4, K4),
    (C3, C4),
    (C5, C4),
    (C4, C3),
    (C3, S3),
    (C2, C2_3),
]


def _raw_systems(h, g, pinned=()):
    out = []
    enumerate_raw_systems(h, g, lambda a, fb: out.append((a, fb)), _pinned=pinned)
    return out


def _full_eq1_orbit(h, g, alpha, f_bytes):
    """The whole eq1 orbit of one system: every shift t with t(1) = 1."""
    act_rows = [automorphism_group(h)[a].map for a in alpha]
    _, cocycles = coboundary_orbit_keys(h, g, act_rows, f_bytes)
    return {(alpha, row.tobytes()) for row in cocycles}


def _full_z2_orbit_index(h, g):
    """Reference: every system of Z^2 by the engine, each mapped to the index
    of its eq1 orbit by marking whole orbits in engine order."""
    orbit_of = {}
    count = 0
    for (alpha, fb) in _raw_systems(h, g):
        if (alpha, fb) in orbit_of:
            continue
        for key in _full_eq1_orbit(h, g, alpha, fb):
            orbit_of[key] = count
        count += 1
    return orbit_of, count


def _tree_cells(g):
    _, edges = _gauge_tree(g)
    return [(p, s) for (_, p, s) in edges]


def test_slice_representatives_hit_each_eq1_orbit_once():
    for (h, g) in SLICE_PAIRS:
        orbit_of, count = _full_z2_orbit_index(h, g)
        reps = list(iter_orbit_representatives(h, g))
        hit = sorted(orbit_of[rep] for rep in reps)
        assert hit == list(range(count)), (h.name, g.name)


def test_slice_representatives_are_unit_on_tree_cells():
    for (h, g) in SLICE_PAIRS:
        m = g.order
        cells = _tree_cells(g)
        assert len(cells) == m - 1 - len(generating_sequence(g))
        for (_, fb) in iter_orbit_representatives(h, g):
            assert all(fb[p * m + s] == 0 for (p, s) in cells)


def test_gauge_tree_spans_g_breadth_first():
    for g in (C4, K4, S3, D8, Q8, C2_3, cyclic_group(18)):
        gens, edges = _gauge_tree(g)
        assert gens == generating_sequence(g)
        depth = {0: 0, **{s: 1 for s in gens}}
        for (x, p, s) in edges:
            assert p != 0 and s in gens and g.mul(p, s) == x and x not in depth
            depth[x] = depth[p] + 1
        assert sorted(depth) == list(g.elements())
        assert [depth[x] for (x, _, _) in edges] == sorted(depth[x] for (x, _, _) in edges)


def test_engine_pins_exactly_the_named_cells():
    # pinned cells filter the full enumeration, in the same order
    for (h, g) in SLICE_PAIRS + [(S3, C2), (Q8, C2)]:
        m = g.order
        cells = _tree_cells(g)
        full = _raw_systems(h, g)
        want = [(a, fb) for (a, fb) in full if all(fb[p * m + s] == 0 for (p, s) in cells)]
        assert _raw_systems(h, g, cells) == want


def test_gauge_shifts_keep_the_slice():
    for (h, g) in SLICE_PAIRS:
        m = g.order
        gens, edges = _gauge_tree(g)
        cells = [p * m + s for (_, p, s) in edges]
        slice_systems = set(_raw_systems(h, g, [(p, s) for (_, p, s) in edges]))
        for (alpha, fb) in slice_systems:
            act_rows = [automorphism_group(h)[a].map for a in alpha]
            t_rows = _gauge_shifts(h, act_rows, gens, edges)
            assert t_rows.shape == (h.order ** len(gens), m) and not t_rows[:, 0].any()
            _, cocycles = coboundary_orbit_keys(h, g, act_rows, fb, t_rows=t_rows)
            assert not cocycles[:, cells].any()
            assert {(alpha, row.tobytes()) for row in cocycles} <= slice_systems


# (H, G, systems, sha256 prefix of the emitted (alpha, cocycle) byte stream),
# recorded from the engine before cells could be pinned
ENGINE_DIGESTS = [
    ("cyclic:2", "cyclic:4", 8, "bf719263628de9686475081491ecaae6"),
    ("cyclic:4", "cyclic:3", 16, "bd9084390cf01eacafa31ab27d223848"),
    ("cyclic:3", "cyclic:4", 36, "cb6f2b06d5e66b41d5cc8bba53e059fd"),
    ("cyclic:2", "dihedral:8", 256, "574405b0d5c80f95f8e364f619a5de38"),
    ("product(cyclic:2,cyclic:2)", "product(cyclic:2,cyclic:2)", 544, "e1adb50e253e0eff2cff4f427d3acaa7"),
    ("cyclic:3", "quaternion:8", 4374, "005ce9a25bb11cdd9079aeee2f306cff"),
    ("symmetric:3", "cyclic:2", 6, "e3fb8c19c9d53e2e2841be159562d26b"),
    ("quaternion:8", "cyclic:2", 32, "393982b5d6d12f6ef7e68c3462d5093d"),
    ("cyclic:2", "symmetric:3", 32, "53f9860cbeff02238e02bf5216df87f3"),
    ("cyclic:5", "cyclic:4", 200, "402765b88d3cd68081c8d493fcd1c355"),
    # non-abelian H whose actions are pruned in Out(H); recorded on the
    # engine that scanned every action tuple's cell domains
    ("quaternion:8", "cyclic:4", 2048, "81b8142957fa7263df07e4b6308ba619"),
    ("dihedral:8", "cyclic:4", 1024, "787b65c110795dc45560230160049204"),
    ("symmetric:3", "cyclic:4", 216, "2c450887fb7c6e6f3c611406a8aa3da1"),
    ("symmetric:3", "cyclic:3", 36, "0af2550c445f888092ffd105ff7a8d13"),
    ("quaternion:8", "product(cyclic:2,cyclic:2)", 10240, "74df26f51e785d794ab2f6878f28a312"),
]


@pytest.mark.parametrize("hs,gs,count,digest", ENGINE_DIGESTS)
def test_engine_without_pinned_cells_emits_the_recorded_stream(hs, gs, count, digest):
    import hashlib

    stream = hashlib.sha256()
    emitted = _raw_systems(make_group(hs), make_group(gs))
    for (alpha, fb) in emitted:
        stream.update(bytes(alpha))
        stream.update(fb)
    assert len(emitted) == count
    assert stream.hexdigest()[:32] == digest


def _scanned_domain(h, a1, a2, a12):
    # reference: every c in H with a1(a2(x)) = c a12(x) c^-1, by |H|^2 checks
    hm, hinv = h.table, h.inverse_table
    return tuple(
        c for c in h.elements()
        if all(a1[a2[x]] == hm[hm[c][a12[x]]][hinv[c]] for x in h.elements())
    )


@pytest.mark.parametrize("hs,gs", [
    ("symmetric:3", "cyclic:2"), ("symmetric:3", "cyclic:3"), ("dihedral:8", "cyclic:2"),
    ("quaternion:8", "cyclic:2"), ("dihedral:8", "cyclic:3"),
])
def test_outer_actions_are_the_tuples_with_non_empty_scanned_domains(hs, gs):
    import itertools

    h, g = make_group(hs), make_group(gs)
    perms = [a.map for a in automorphism_group(h)]
    comp, aut_inv, _, conj_of = _aut_tables(h)
    cells = [(g1, g2) for g1 in range(1, g.order) for g2 in range(1, g.order)]
    expected = []
    for rest in itertools.product(range(len(perms)), repeat=g.order - 1):
        alpha = (0,) + rest
        domains = [
            _scanned_domain(h, perms[alpha[g1]], perms[alpha[g2]], perms[alpha[g.mul(g1, g2)]])
            for (g1, g2) in cells
        ]
        if all(domains):
            expected.append(alpha)
            for (g1, g2), dom in zip(cells, domains):
                inner = comp[comp[alpha[g1]][alpha[g2]]][aut_inv[alpha[g.mul(g1, g2)]]]
                assert conj_of[inner] == dom
    assert list(_outer_actions(h, g)) == expected
    emitted = {alpha for (alpha, _) in _raw_systems(h, g)}
    assert emitted <= set(expected)


def test_system_from_raw_accepts_bytes_and_integer_sequences():
    import numpy as np

    for (h, g) in [(Q8, C2), (C4, K4), (S3, C3)]:
        for (alpha, fb) in _raw_systems(h, g)[:20]:
            want = system_from_raw(h, g, alpha, list(fb))
            for f_flat in (fb, bytearray(fb), np.frombuffer(fb, dtype=np.uint8)):
                got = system_from_raw(h, g, alpha, f_flat)
                assert got == want
                assert all(type(v) is int for row in got.cocycle.table for v in row)
