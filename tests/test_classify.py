import heapq
import importlib
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from crossedprod.errors import CapExceededError, InternalInvariantError
from crossedprod.groups import (
    Subgroup,
    _completion_triples,
    alternating_group,
    are_isomorphic,
    automorphism_group,
    backtrack,
    cyclic_group,
    dihedral_group,
    generating_sequence,
    identify_group,
    inner_automorphisms,
    make_group,
    quaternion_group,
    quotient,
    symmetric_group,
    table_group,
)
from crossedprod.classify import (
    DEFAULT_PAIR_CAP,
    _abelian_coordinates,
    _algebraic_systems,
    _all_shifts,
    _aut_arrays,
    _aut_perms,
    _aut_tables,
    _byte_tables,
    _CHUNK,
    _engine,
    _engine_schedule,
    _MAX_AUTS,
    _gauge_shifts,
    _gauge_slice_classes,
    _gauge_tree,
    _key_row_product,
    _key_view,
    _lift_products,
    _lifted_systems,
    _linear_slice_classes,
    _lookup,
    _mul,
    _outer_homomorphisms,
    _reports,
    _system_block,
    _system_blocks,
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
    relabel_system,
    shift_system,
    system_from_raw,
    verify_equivalence1_witness,
    verify_equivalence2_witness,
)
from crossedprod.products import build_product
from crossedprod.systems import (
    Cocycle,
    CrossedSystem,
    WeakAction,
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


def _first_witness_by_objects(a, b):
    """Reference: `relabel_system` then `are_equivalent_1`, one (eta, gamma) at a time."""
    from crossedprod.classify import Equivalence2Witness

    h = a.h
    for eta in automorphism_group(h):
        for gamma in automorphism_group(a.g):
            w = are_equivalent_1(relabel_system(a, eta, gamma), b)
            if w is not None:
                einv = eta.inverse_automorphism().map
                return Equivalence2Witness(eta, gamma, tuple(einv[h.inv(v)] for v in w.r))
    return None


def test_are_equivalent_2_on_rows_returns_the_same_first_witness():
    # the all-pairs samples of test_equivalence2_witnesses_verify, plus a
    # non-abelian H
    compared = 0
    # non-abelian H; and (C2, K4), (K4, C2) for automorphisms of order 3, which
    # differ from their inverses
    for (h, g) in [(C4, C2), (C2, C4), (K4, C2), (C3, C3), (S3, C2), (C2, K4)]:
        systems = enumerate_crossed_systems(h, g)
        for a in systems:
            for b in systems:
                assert are_equivalent_2(a, b) == _first_witness_by_objects(a, b)
                compared += 1
    assert compared == 317 + 256


def test_shift_system_rejects_non_normalized():
    c1 = cyclic_group(1)
    sys = validate_crossed_system(C2, c1, trivial_action(c1, C2), cocycle(c1, C2, [[1]]))
    with pytest.raises(ValueError, match="normalized"):
        shift_system(sys, (0,))


def test_functor_check_equals_three_classify_calls():
    for (h, g) in [(C3, C3), (K4, C2), (S3, C2), (C2, C4)]:
        reports = [classify(h, g, relation) for relation in ("eq1", "eq2", "iso")]
        out = functor_check(h, g)
        assert out["system_count"] == len(reports[0].systems)
        assert [out[f"{r}_classes"] for r in ("eq1", "eq2", "iso")] == [r.class_count() for r in reports]
        assert out["eq1_refines_eq2"] and out["eq2_refines_iso"]
        chain = _reports(h, g, ("eq1", "eq2", "iso"), DEFAULT_PAIR_CAP).values()
        for rep, from_chain in zip(reports, chain):
            assert rep == from_chain


def _stray_system(h, g):
    """A valid system on (H, G) that the enumeration does not contain."""
    return validate_crossed_system(h, g, trivial_action(g, h), cocycle(g, h, [[1] * g.order] * g.order))


def _key_rows(sys):
    """The one-row `(actions, cocycles)` kernel output naming `sys`."""
    return (
        np.frombuffer(_flat(sys.action.perms), dtype=np.uint8)[None, :],
        np.frombuffer(_flat(sys.cocycle.table), dtype=np.uint8)[None, :],
    )


def test_internal_invariant_orbit_leaving_the_systems_raises(monkeypatch):
    # the kernels whose rows are looked up in the key block: relabellings
    # (eq2) and shifts (eq1 on non-abelian H); eq1 on abelian H reads tags
    # (test_internal_invariant_eq1_tags_*)
    classify_mod = importlib.import_module("crossedprod.classify")

    # a key past the last system's, and one before the first (not a system)
    for rows in (_key_rows(_stray_system(C2, C2)), (np.zeros((1, 4), np.uint8), np.zeros((1, 4), np.uint8))):
        monkeypatch.setattr(classify_mod, "_relabel_rows", lambda *args: rows)
        with pytest.raises(InternalInvariantError, match="left the systems"):
            classify(C2, C2, "eq2")
        monkeypatch.undo()
    for rows in (
        (np.full((1, 12), 5, np.uint8), np.full((1, 4), 5, np.uint8)),
        (np.zeros((1, 12), np.uint8), np.zeros((1, 4), np.uint8)),
    ):
        monkeypatch.setattr(classify_mod, "coboundary_orbit_keys", lambda *args: rows)
        with pytest.raises(InternalInvariantError, match="left the systems"):
            classify(S3, C2, "eq1")
        monkeypatch.undo()


def test_internal_invariant_orbit_meeting_another_class_raises(monkeypatch):
    classify_mod = importlib.import_module("crossedprod.classify")

    first = enumerate_crossed_systems(C2, C2)[0]
    # every eq1 class relabels onto the first system's class
    monkeypatch.setattr(classify_mod, "_relabel_rows", lambda *args: _key_rows(first))
    with pytest.raises(InternalInvariantError, match="met another class"):
        classify(C2, C2, "eq2")
    monkeypatch.undo()

    first = enumerate_crossed_systems(D8, C2)[0]
    orbit_keys = classify_mod.coboundary_orbit_keys

    def kernel(h, g, act_rows, f_flat, t_rows=None):
        # every orbit also names the first system
        actions, cocycles = orbit_keys(h, g, act_rows, f_flat, t_rows)
        first_action, first_cocycle = _key_rows(first)
        return np.concatenate([actions, first_action]), np.concatenate([cocycles, first_cocycle])

    assert classify(D8, C2, "eq1").class_count() > 1
    monkeypatch.setattr(classify_mod, "coboundary_orbit_keys", kernel)
    with pytest.raises(InternalInvariantError, match="met another class"):
        classify(D8, C2, "eq1")


def test_internal_invariant_eq1_tags_need_b2_sized_classes(monkeypatch):
    # eq1 on abelian H reads the classes off the tags of the Z^2 blocks, and
    # every class must hold |B^2| systems, |B^2| counted from T0 by the slice
    classify_mod = importlib.import_module("crossedprod.classify")
    cocycle_blocks = classify_mod._cocycle_blocks
    slices = classify_mod._gauge_slice_classes

    def two_row_delta_w(h, g, batch, w):
        # every map of W twice gives delta(W) every row twice
        return cocycle_blocks(h, g, batch, np.repeat(w, 2, axis=0))

    def doubled_orbit(h, g):
        for (*rest, orbit) in slices(h, g):
            yield (*rest, 2 * orbit)

    # G = C2 is generated by its one non-unit element, so W and delta(W) are
    # the unit alone: a two-row delta(W) puts twice |B^2| systems in the
    # blocks, and a doubled |B^2| half as many per class as counted.
    # (C2, C2): B^2 = 1; (C3, C2): B^2 = C3 for the trivial action and 1 for
    # the inversion
    for h, classes in ((C2, 2), (C3, 2)):
        assert classify(h, C2, "eq1").class_count() == classes
        for name, fault in (("_cocycle_blocks", two_row_delta_w), ("_gauge_slice_classes", doubled_orbit)):
            monkeypatch.setattr(classify_mod, name, fault)
            with pytest.raises(InternalInvariantError, match="does not hold"):
                classify(h, C2, "eq1")
            monkeypatch.undo()


def test_internal_invariant_eq1_tags_of_one_action(monkeypatch):
    # the first class of the k-th action's block gets its tags moved by
    # moves[k]: into another class of the action, past every class, or, on
    # (C4, C4), whose first two actions have 4 and 2 classes of 16 systems,
    # swapped between them, which keeps every count but mixes two actions
    classify_mod = importlib.import_module("crossedprod.classify")
    cocycle_blocks = classify_mod._cocycle_blocks
    for h, g, moves in ((C2, K4, [1]), (C3, C2, [4]), (C4, C4, [4, -4])):
        calls = iter(moves)

        def moved_tags(*args, calls=calls):
            for alpha, block, tags, orbit in cocycle_blocks(*args):
                yield alpha, block, np.where(tags == 0, next(calls, 0), tags), orbit

        monkeypatch.setattr(classify_mod, "_cocycle_blocks", moved_tags)
        with pytest.raises(InternalInvariantError, match="does not hold"):
            classify(h, g, "eq1")
        monkeypatch.undo()


def test_classify_builds_no_relabelled_systems(monkeypatch):
    # the block path relabels rows (`_relabel_rows`), never whole systems
    classify_mod = importlib.import_module("crossedprod.classify")

    def refuse(*args):
        raise AssertionError("relabel_system called")

    monkeypatch.setattr(classify_mod, "relabel_system", refuse)
    for relation in ("eq1", "eq2", "iso"):
        assert classify(S3, C2, relation).class_count() >= 1
    assert not hasattr(classify_mod, "_system_key")


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
    # brute force over every (eta, gamma, t); S3 and D8 give non-abelian H,
    # where the relabelled action must be matched by conjugation
    import itertools

    from crossedprod.classify import Equivalence2Witness

    for (h, g) in [(C4, C2), (S3, C2), (D8, C2)]:
        systems = enumerate_crossed_systems(h, g)
        witnesses = [
            Equivalence2Witness(eta, gamma, (0,) + combo)
            for eta in automorphism_group(h)
            for gamma in automorphism_group(g)
            for combo in itertools.product(range(h.order), repeat=g.order - 1)
        ]
        for a in systems:
            for b in systems:
                brute = any(verify_equivalence2_witness(a, b, w) for w in witnesses)
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
    # every eq2 witness is a relabelling then a shift: row k of the shift
    # orbit of relabel_system(sys, eta, gamma) is related to sys by
    # (eta, gamma, eta^-1 t_k)
    from crossedprod.classify import Equivalence2Witness

    checked = 0
    # (C3, C4) and (C2, K4) add nontrivial gammas (of order 3 on K4) and maps t
    # with several values
    for (h, g) in [(C4, C2), (S3, C2), (C3, C4), (C2, K4)]:
        systems = enumerate_crossed_systems(h, g)
        by_key = {_flat(s.action.perms) + _flat(s.cocycle.table): s for s in systems}
        n = h.order
        for sys in systems:
            for eta in automorphism_group(h):
                einv = eta.inverse_automorphism().map
                for gamma in automorphism_group(g):
                    if eta.map == tuple(h.elements()) and gamma.map == tuple(g.elements()):
                        continue
                    moved = relabel_system(sys, eta, gamma)
                    assert verify_equivalence2_witness(
                        sys, moved, Equivalence2Witness(eta, gamma, (0,) * g.order)
                    )
                    actions, cocycles = coboundary_orbit_keys(
                        h, g, moved.action.perms, _flat(moved.cocycle.table)
                    )
                    for k, (a, f) in enumerate(zip(actions, cocycles)):
                        target = by_key[a.tobytes() + f.tobytes()]
                        t = tuple((k // n ** (gi - 1)) % n if gi else 0 for gi in g.elements())
                        w = Equivalence2Witness(eta, gamma, tuple(einv[v] for v in t))
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


# the block classifier against the per-object oracle -----------------------------


def _system_key(sys):
    """The system's action rows then its row-major cocycle table, as one key."""
    return _flat(sys.action.perms) + _flat(sys.cocycle.table)


def _orbit_classes(count, orbit):
    """Partition range(count) into the orbits that `orbit(i)` lists, marking
    whole orbits in index order (classes in order of least member)."""
    class_of = [-1] * count
    classes = []
    for i in range(count):
        if class_of[i] >= 0:
            continue
        members = set(orbit(i))
        assert all(class_of[j] < 0 for j in members)
        for j in members:
            class_of[j] = len(classes)
        classes.append(tuple(sorted(members)))
    return classes


def _reports_by_objects(h, g):
    """Oracle: the eq1 -> eq2 -> iso chain built one system object at a time.

    Every system is a `CrossedSystem`, looked up by `_system_key` in a dict;
    eq1 marks shift orbits, eq2 joins the eq1 classes of `relabel_system` on
    each class's first member, and iso merges eq2 classes whose products are
    isomorphic.  Returns {relation: (classes, names)} and the systems.
    """
    systems = enumerate_crossed_systems(h, g)
    index = {_system_key(s): i for i, s in enumerate(systems)}

    def shifts(i):
        sys = systems[i]
        actions, cocycles = coboundary_orbit_keys(h, g, sys.action.perms, _flat(sys.cocycle.table))
        return {index[a.tobytes() + f.tobytes()] for a, f in zip(actions, cocycles)}

    eq1 = _orbit_classes(len(systems), shifts)
    eq1_of = {i: c for c, ms in enumerate(eq1) for i in ms}
    pairs = [(eta, gamma) for eta in automorphism_group(h) for gamma in automorphism_group(g)]

    def relabellings(c):
        sys = systems[eq1[c][0]]
        return {eq1_of[index[_system_key(relabel_system(sys, eta, gamma))]] for (eta, gamma) in pairs}

    joined = _orbit_classes(len(eq1), relabellings)
    eq2 = [tuple(sorted(i for c in cs for i in eq1[c])) for cs in joined]
    products = [build_product(systems[ms[0]]).group for ms in eq2]
    names = [identify_group(p) for p in products]
    eq2_of = {c: k for k, cs in enumerate(joined) for c in cs}
    merged = []
    for k, prod in enumerate(products):
        hit = next((ks for ks in merged if are_isomorphic(products[ks[0]], prod) is not None), None)
        if hit is None:
            merged.append([k])
        else:
            hit.append(k)
    chain = {
        "eq1": (eq1, [names[eq2_of[c]] for c in range(len(eq1))]),
        "eq2": (eq2, names),
        "iso": ([tuple(sorted(i for k in ks for i in eq2[k])) for ks in merged], [names[ks[0]] for ks in merged]),
    }
    return chain, systems


# every classify-witness pair of the benchmark (including (C2, D8), (C2, Q8)
# and (C3, S3), on the algebraic abelian-H path), plus larger non-abelian and
# abelian pairs
ORACLE_PAIRS = [
    ("product(cyclic:2,cyclic:2)", "product(cyclic:2,cyclic:2)"),
    ("cyclic:2", "dihedral:8"),
    ("cyclic:2", "quaternion:8"),
    ("cyclic:3", "symmetric:3"),
    ("cyclic:4", "cyclic:4"),
    ("quaternion:8", "cyclic:2"),
    ("dihedral:8", "cyclic:2"),
    ("quaternion:8", "cyclic:4"),
    ("symmetric:3", "cyclic:4"),
    ("product(cyclic:2,cyclic:2)", "cyclic:8"),
]


@pytest.mark.parametrize("hs,gs", ORACLE_PAIRS)
def test_block_classification_matches_the_object_oracle(hs, gs):
    h, g = make_group(hs), make_group(gs)
    chain, systems = _reports_by_objects(h, g)
    reports = _reports(h, g, ("eq1", "eq2", "iso"), DEFAULT_PAIR_CAP)
    for relation, (classes, names) in chain.items():
        rep = reports[relation]
        assert len(rep.systems) == len(systems)
        assert rep.classes == classes, relation
        assert rep.representatives == [ms[0] for ms in classes]
        assert rep.product_iso_types == names
    assert reports["eq1"].systems == systems


def test_key_row_products_are_the_built_products():
    # classify names each eq2 class on the product read off its key row; on
    # every criterion-6 catalog pair that is build_product's table, so the
    # unit swap it skips is the identity
    for h in _CATALOG:
        for g in _CATALOG:
            if h.order * g.order > 32:
                continue
            report = classify(h, g, "eq2")
            for i in report.representatives:
                built = build_product(report.systems[i]).group
                read = _key_row_product(h, g, report.systems._keys[i])
                assert read.table == built.table and read.name == built.name, (h.name, g.name, i)


def test_report_systems_are_a_lazy_sequence(monkeypatch):
    classify_mod = importlib.import_module("crossedprod.classify")
    for (h, g) in [(S3, C2), (C2, K4), (C4, cyclic_group(1))]:
        systems = enumerate_crossed_systems(h, g)
        built = []
        real = classify_mod.system_from_raw
        monkeypatch.setattr(classify_mod, "system_from_raw", lambda *a: built.append(a) or real(*a))
        lazy = classify(h, g, "eq1").systems
        built.clear()
        assert len(lazy) == len(systems) and not built  # len builds nothing
        assert lazy[0] == systems[0] and lazy[-1] == systems[-1] and len(built) == 2
        assert list(lazy) == systems
        assert lazy[1:4] == systems[1:4] and lazy[::-2] == systems[::-2]
        assert lazy == systems and systems == lazy and lazy == tuple(systems)
        assert lazy == classify(h, g, "eq2").systems
        assert lazy != systems[:-1]
        if len(systems) > 1:
            assert lazy != systems[::-1]
        with pytest.raises(IndexError):
            lazy[len(systems)]
        monkeypatch.undo()
    assert classify(S3, C2, "eq1").systems != classify(C2, K4, "eq1").systems
    # the same key block over another table of C4 names other systems
    lazy = classify(C4, C2, "eq1").systems
    swap = [0, 2, 1, 3]
    c4_swapped = table_group([[swap[C4.mul(swap[a], swap[b])] for b in range(4)] for a in range(4)])
    assert c4_swapped.table != C4.table
    assert lazy != classify_mod.SystemSequence(c4_swapped, C2, lazy._alphas, lazy._alpha_of, lazy._keys)


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


def _records(blocks):
    """A block stream as raw records (alpha, f_bytes), one per row."""
    return [(alpha, row.tobytes()) for (alpha, block) in blocks for row in block]


def _outer_actions(h, g):
    """Every action tuple with a non-empty domain on each cocycle cell, in
    lexicographic order: the lifts of each psi: G -> Out(H), merged."""
    return heapq.merge(*_lift_products(h, g))


def _pinned_engine(h, g, pinned=()):
    """`_engine(h, g)` with the unit forced on the `pinned` cells (g1, g2).

    Each pinned cell gets one more instance checked when it is assigned,
    f(g1, g2) f(1, 1) = id(f(1, 1)) f(1, 1), which holds exactly when the
    cell is the unit, so a branch dies as soon as a pinned cell is the unit
    no longer.  The schedule is patched only while the engine binds it.
    """
    classify_mod = importlib.import_module("crossedprod.classify")
    schedule = classify_mod._engine_schedule
    flat, derive_info, rest_info = schedule(g, h.is_abelian)
    cells = {g1 * g.order + g2 for (g1, g2) in pinned}
    rest_info = [rest + [(i, 0, 0, 0, 0)] if i in cells else rest for i, rest in zip(flat, rest_info)]
    classify_mod._engine_schedule = lambda *args: (flat, derive_info, rest_info)
    try:
        return _engine(h, g)
    finally:
        classify_mod._engine_schedule = schedule


def _search_systems(h, g, pinned=()):
    """The oracle of `_system_blocks`: the engine over every action, each
    non-empty block in the stream's order.  With `pinned` cells (g1, g2),
    only the systems with the unit on every pinned cell are kept."""
    leaf = _pinned_engine(h, g, pinned)
    for alpha in _outer_actions(h, g):
        block = leaf(alpha)
        if len(block):
            yield alpha, block


def _raw_systems(h, g, pinned=()):
    """The public stream, or with `pinned` cells the engine's pinned blocks."""
    if pinned:
        return _records(_search_systems(h, g, pinned))
    out = []
    enumerate_raw_systems(h, g, lambda a, fb: out.append((a, fb)))
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
        values = _all_shifts(h.order, len(gens) + 1)[:, 1:]
        for (alpha, fb) in slice_systems:
            act_rows = [automorphism_group(h)[a].map for a in alpha]
            t_rows = _gauge_shifts(h, np.array([act_rows], dtype=np.uint8), gens, edges)[0]
            assert t_rows.shape == (h.order ** len(gens), m) and not t_rows[:, 0].any()
            assert np.array_equal(t_rows[:, gens], values)
            _, cocycles = coboundary_orbit_keys(h, g, act_rows, fb, t_rows=t_rows)
            assert not cocycles[:, cells].any()
            assert {(alpha, row.tobytes()) for row in cocycles} <= slice_systems


# the closed form of cyclic G against the pinned engine ------------------------

# every abelian H of the oracle sweep; G runs over C_m with |H| m <= 64 and
# |H|^(m-1) <= 2^16, beyond which the engine side allocates too much
CYCLIC_SLICE_H = [cyclic_group(k) for k in (*range(1, 10), 12)] + [
    make_group(d)
    for d in (
        "product(cyclic:2,cyclic:2)",
        "product(cyclic:2,cyclic:4)",
        "product(cyclic:2,cyclic:6)",
        "product(cyclic:3,cyclic:3)",
        "product(cyclic:2,product(cyclic:2,cyclic:2))",
        "product(cyclic:4,cyclic:4)",
    )
]


def _no_engine(*args):
    raise AssertionError("the engine ran")


def _b2_by_definition(h, g, act_rows):
    """B^2 of one action over abelian H by definition: the distinct
    coboundaries of every map t: G -> H with t(1) = 1, the shifts of the
    unit cocycle (`coboundary_orbit_keys`), ascending as byte strings."""
    _, coboundaries = coboundary_orbit_keys(h, g, act_rows, bytes(g.order ** 2))
    return np.unique(coboundaries, axis=0)


def _engine_slice_classes(h, g):
    """The oracle of `_gauge_slice_classes`, by the engine, for any G.

    The engine pinned to the unit on the tree cells of `_gauge_tree(g)`
    (`_pinned_engine`) gives the gauge slice, one block per action, which
    meets each class f B^2 in the T0-orbit of any member.  A shift
    multiplies a cocycle by its coboundary, so that orbit is f times the
    coboundaries of every map of T0 (`_gauge_shifts`).  Within each block,
    in order, every row not yet tagged opens a class and tags its T0-orbit,
    looked up in the sorted block (`_lookup`).  The class size is |B^2|
    (`_b2_by_definition`).
    """
    perms = _aut_perms(h)
    hm = _byte_tables(h)[0]
    unit = bytes(g.order ** 2)
    gens, edges = _gauge_tree(g)
    leaf = _pinned_engine(h, g, [(p, s) for (_, p, s) in edges])
    for alpha in _outer_homomorphisms(h, g)[0]:
        block = leaf(alpha)
        if not len(block):
            continue
        act_rows = perms[list(alpha)]
        t_rows = _gauge_shifts(h, act_rows[None], gens, edges)[0]
        _, shifts = coboundary_orbit_keys(h, g, act_rows, unit, t_rows=t_rows)
        keys = _key_view(block)
        order = np.argsort(keys)
        sorted_keys = keys[order]
        tags = np.full(len(block), -1)
        classes = 0
        for i in range(len(block)):
            if tags[i] < 0:
                tags[order[_lookup(sorted_keys, hm[block[i], shifts])]] = classes
                classes += 1
        yield alpha, act_rows, block, tags, len(_b2_by_definition(h, g, act_rows))


def _assert_same_slices(closed, engine):
    assert len(closed) == len(engine) > 0
    for (alpha, act_rows, members, tags, orbit), theirs in zip(closed, engine):
        alpha_e, act_rows_e, members_e, tags_e, orbit_e = theirs
        assert alpha == alpha_e and np.array_equal(act_rows, act_rows_e)
        assert members.dtype == members_e.dtype == np.uint8 and members.flags.c_contiguous
        assert members.shape == members_e.shape and np.array_equal(members, members_e)
        assert np.array_equal(tags, tags_e)
        assert orbit == orbit_e


def _class_count(slices):
    """The number of classes f B^2 over every action of `_gauge_slice_classes`."""
    return sum(int(tags.max()) + 1 for (_, _, _, tags, _) in slices)


def _closed_slices(h, g, monkeypatch):
    """`_gauge_slice_classes` with the engine unreachable."""
    with monkeypatch.context() as mp:
        mp.setattr(importlib.import_module("crossedprod.classify"), "_engine", _no_engine)
        return list(_gauge_slice_classes(h, g))


@pytest.mark.parametrize("h", CYCLIC_SLICE_H, ids=lambda x: x.name)
def test_cyclic_slice_oracle_closed_form_equals_the_engine(h, monkeypatch):
    m = 2
    while h.order * m <= 64 and h.order ** (m - 1) <= 2 ** 16:
        g = cyclic_group(m)
        _assert_same_slices(_closed_slices(h, g, monkeypatch), list(_engine_slice_classes(h, g)))
        m += 1


def _relabelled(g, new_of):
    """g with element x renamed new_of[x] (new_of[0] = 0)."""
    old_of = {new: old for old, new in enumerate(new_of)}
    return table_group(
        [[new_of[g.mul(old_of[x], old_of[y])] for y in g.elements()] for x in g.elements()],
        name=f"{g.name}'",
    )


def test_cyclic_slice_oracle_relabelled_cyclic_g(monkeypatch):
    c6 = cyclic_group(6)
    # element 1 is old 5, a generator: the closed form reads discrete logs
    logs = _relabelled(c6, [0, 4, 5, 2, 3, 1])
    assert generating_sequence(logs) == [1]
    # element 1 is old 3, of order 2: two generators, so linear algebra runs
    fallback = _relabelled(c6, [0, 3, 2, 1, 4, 5])
    assert generating_sequence(fallback) == [1, 2]
    for h in (C2, C3, C4, K4, cyclic_group(7)):
        _assert_same_slices(_closed_slices(h, logs, monkeypatch), list(_engine_slice_classes(h, logs)))
        want = list(_engine_slice_classes(h, fallback))
        _assert_same_slices(list(_gauge_slice_classes(h, fallback)), want)
        assert _class_count(want) == _class_count(_gauge_slice_classes(h, c6))


# (yields, sha256 prefix) of iter_orbit_representatives over every (C_n, C_m)
# with n m <= 64, n then m ascending: repr(alpha) then f_bytes per yield,
# recorded on the pinned engine
CYCLIC_REPRESENTATIVES_DIGEST = (617, "b8f6b773f3b683b981e3fd77dc5fd39e")


def test_cyclic_slice_oracle_representatives_digest():
    import hashlib

    stream = hashlib.sha256()
    count = 0
    for n in range(1, 65):
        for m in range(1, 64 // n + 1):
            for (alpha, fb) in iter_orbit_representatives(cyclic_group(n), cyclic_group(m)):
                stream.update(repr(alpha).encode())
                stream.update(fb)
                count += 1
    assert (count, stream.hexdigest()[:32]) == CYCLIC_REPRESENTATIVES_DIGEST


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
    # heavy abelian H, whose Z^2 blocks are now built as the gauge slice
    # times delta(W); recorded on the backtracking engine
    ("cyclic:4", "quaternion:8", 40960, "065b58b176af5e609f431cfb4dd9f331"),
    ("product(cyclic:2,cyclic:2)", "quaternion:8", 90112, "11c2dfac6e63e04a1b64fba1959b8454"),
    ("cyclic:4", "dihedral:8", 81920, "b328d0db3a2ea1a38ca444d760f106ca"),
    ("product(cyclic:2,cyclic:2)", "dihedral:8", 188416, "9a7a034805c3c3d3c87f129edde3a46f"),
    ("cyclic:4", "cyclic:8", 24576, "2dbb2cbf00c04a2695ed88e8039ef09e"),
    ("product(cyclic:2,cyclic:2)", "cyclic:8", 40960, "0acb1e5d39139c0819e80df9c3998e8a"),
    ("cyclic:3", "dihedral:8", 4374, "3f866a4b9b8bbdc35ffc69a69130aba6"),
    # non-abelian H whose blocks are now shifted from one lift per outer
    # action; recorded on the engine over every action: Z(S3) = 1, and
    # Z(D8) = C2
    ("symmetric:3", "symmetric:3", 7776, "0eee58b45ceb21a2e1d62b7d1514fcbb"),
    ("dihedral:8", "product(cyclic:2,cyclic:2)", 4096, "e38e2dc149ab017305d4dd3c00aa1b11"),
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


# the lifts of each outer action against the engine over every action ------

# Abelian H has one lift per outer action, so its lifted stream is the engine
# over every action; the library solves every abelian pair by linear algebra
# (`_algebraic_systems`), and the bound of 128 maps t only caps what the
# engine oracle costs the abelian pairs here.  Non-abelian
# pairs with few lifts per outer action once ran that engine instead of
# shifting, measured on 2 CPUs, best of 7 interleaved runs of each whole
# stream, when every lift, the first too, was shifted and sorted: with 1-6
# lifts the engine was faster ((S3, C1), (D10, C1), (D8, C2), (Q8, C2),
# (S3, C2), (D12, C2), (S3xC2, C2): lift/engine time 1.1-4), except
# (Q8xC2, C2), 4 lifts, where lifting was 1.24x faster; with 8-18 lifts
# lifting was faster ((D16, C2), (D10, C2), (D14, C2), (D18, C2):
# 1.14-1.44x; (D8, C3), (Q8, C3), (S3, C3): 2.5-3.3x), and with 64 lifts
# about 12x.  The first lift's block now comes straight from the engine.
LIFT_PAIRS = [
    (h, g)
    for h in (C2, C3, C4, K4, S3, D8, Q8)
    for g in [cyclic_group(k) for k in (1, 2, 3, 4, 5, 6, 8)] + [K4, S3, D8, Q8]
    if h.order * g.order <= 32
    and not (h.is_abelian and h.order ** (g.order - 1) >= 128)
]


def _no_shift(*args):
    raise AssertionError("a lift was shifted")


@pytest.mark.parametrize("h,g", LIFT_PAIRS, ids=lambda x: x.name)
def test_lift_oracle_lifted_blocks_equal_the_engine_stream(h, g, monkeypatch):
    classify_mod = importlib.import_module("crossedprod.classify")
    # for abelian H every action is its outer action's one lift: none is shifted
    if h.is_abelian:
        monkeypatch.setattr(classify_mod, "_shift_lifts", _no_shift)
    engine = _records(_search_systems(h, g))
    with monkeypatch.context() as mp:
        if h.is_abelian:   # the block stream solves abelian H with no engine
            mp.setattr(classify_mod, "_engine", _no_engine)
        assert _records(_system_blocks(h, g, DEFAULT_PAIR_CAP)) == engine

    # the lifts run the engine once per outer action psi, for abelian H once
    # per action
    leaves = []
    make_engine = classify_mod._engine

    def counting_engine(*args):
        leaf = make_engine(*args)

        def counted(alpha):
            leaves.append(alpha)
            return leaf(alpha)

        return counted

    monkeypatch.setattr(classify_mod, "_engine", counting_engine)
    lifted = list(_lifted_systems(h, g))
    assert _records(lifted) == engine
    assert len(leaves) == len(_lift_products(h, g))
    if h.is_abelian:
        assert leaves == list(_outer_actions(h, g))
    for (_, block) in lifted:
        assert block.dtype == np.uint8 and block.flags.c_contiguous and len(block) > 0


@pytest.mark.parametrize("h,g", LIFT_PAIRS, ids=lambda x: x.name)
def test_lift_oracle_counts_per_outer_action(h, g):
    # each psi: G -> Out(H) has |Inn(H)|^(|G|-1) lifts, and every lift has as
    # many systems as the first (none when psi does not lift)
    outer = _aut_tables(h)[2]
    per_action = Counter(alpha for (alpha, _) in _records(_search_systems(h, g)))
    lifts_of = {}
    for alpha in _outer_actions(h, g):
        lifts_of.setdefault(tuple(outer[a] for a in alpha), []).append(alpha)
    assert len(lifts_of) == len(_lift_products(h, g))
    for psi, lifts in lifts_of.items():
        assert len(lifts) == len(inner_automorphisms(h)) ** (g.order - 1)
        assert len({per_action[alpha] for alpha in lifts}) == 1, psi
    assert sum(per_action.values()) == len(_system_block(h, g, DEFAULT_PAIR_CAP))


def test_lift_oracle_s3_c8_counts_six_to_the_seventh():
    # one outer action (Out(S3) = 1), 6^7 lifts, one system each (Z(S3) = 1)
    h, g = S3, cyclic_group(8)
    blocks = _system_blocks(h, g, DEFAULT_PAIR_CAP)
    assert sum(len(block) for (_, block) in blocks) == 279_936 == 6 ** 7


def test_internal_invariant_lift_outside_its_base_coset_raises(monkeypatch):
    classify_mod = importlib.import_module("crossedprod.classify")
    perms, shift = _aut_arrays(S3)
    # no automorphism is an inner shift of another
    monkeypatch.setattr(classify_mod, "_aut_arrays", lambda h: (perms, np.full_like(shift, -1)))
    with pytest.raises(InternalInvariantError, match="not an inner shift"):
        list(_lifted_systems(S3, C3))


# criterion 6's catalog: every abelian-H pair with |H||G| <= 32 and at most
# 4,374 systems, which leaves out the six pairs with 4^7 maps t (their
# 24,576-188,416 systems are ENGINE_DIGESTS rows)
_CATALOG = [cyclic_group(k) for k in (1, 2, 3, 4, 5, 6, 8)] + [K4, S3, D8, Q8]
ALGEBRAIC_PAIRS = [
    (h, g)
    for h in _CATALOG
    for g in _CATALOG
    if h.is_abelian and h.order * g.order <= 32 and h.order ** (g.order - 1) < 4 ** 7
]


@pytest.mark.parametrize("h,g", ALGEBRAIC_PAIRS, ids=lambda x: x.name)
def test_algebraic_blocks_equal_the_engine_stream(h, g):
    engine = list(_search_systems(h, g))
    built = list(_algebraic_systems(h, g))
    assert _records([(alpha, block) for (alpha, block, _, _) in built]) == _records(engine)

    per_action = Counter(alpha for (alpha, _) in _records(engine))
    blocks = list(_gauge_slice_classes(h, g))
    assert [alpha for (alpha, _, _, _, _) in blocks] == list(per_action)
    hm, inverse = _byte_tables(h)
    for (alpha, act_rows, members, slice_tags, orbit), (_, block, tags, orbit_b) in zip(blocks, built):
        b2 = _b2_by_definition(h, g, act_rows)
        assert len(b2) == orbit == orbit_b
        # the first member of each tag is its class's representative
        classes, firsts = np.unique(slice_tags, return_index=True)
        assert np.array_equal(classes, np.arange(len(classes))) and (np.diff(firsts) > 0).all()
        reps = members[firsts]
        assert per_action[alpha] == len(reps) * len(b2)
        # row i lies in the class of reps[tags[i]]: it differs from it by a coboundary
        assert np.array_equal(np.bincount(tags, minlength=len(reps)), [orbit] * len(reps))
        moved = hm[block, inverse[reps[tags]]]
        assert {row.tobytes() for row in moved} <= {row.tobytes() for row in b2}


@pytest.mark.parametrize("h,g", ALGEBRAIC_PAIRS, ids=lambda x: x.name)
def test_slice_oracle_z2_is_the_slice_times_delta_w(h, g):
    # W: the maps t with t(1) = 1 that are the unit on the generators.  Z^2
    # is the direct product of the gauge slice and delta(W), and B^2 is B0
    # delta(W), B0 the coboundaries of T0 (`_gauge_shifts`); every side is
    # computed here by definition, through `coboundary_orbit_keys`
    n, m = h.order, g.order
    unit = bytes(m * m)
    gens, edges = _gauge_tree(g)
    rest = [x for x in range(1, m) if x not in gens]
    w = np.zeros((n ** len(rest), m), dtype=np.intp)
    w[:, rest] = _all_shifts(n, len(rest) + 1)[:, 1:]
    per_action = Counter(alpha for (alpha, _) in _records(_search_systems(h, g)))
    hm = _byte_tables(h)[0]
    slices = list(_gauge_slice_classes(h, g))
    assert [alpha for (alpha, _, _, _, _) in slices] == list(per_action)
    for alpha, act_rows, members, _, _ in slices:
        _, delta_w = coboundary_orbit_keys(h, g, act_rows, unit, t_rows=w)
        _, b0 = coboundary_orbit_keys(h, g, act_rows, unit, t_rows=_gauge_shifts(h, act_rows[None], gens, edges)[0])
        assert len({row.tobytes() for row in delta_w}) == len(w)
        assert {row.tobytes() for row in members} & {row.tobytes() for row in delta_w} == {unit}
        assert len(members) * len(delta_w) == per_action[alpha]
        product = hm[b0[:, None], delta_w[None]].reshape(-1, m * m)
        assert np.array_equal(np.unique(product, axis=0), _b2_by_definition(h, g, act_rows))


# the uint8 gather and the memory of the block builders -----------------------

def test_mul_oracle_chunked_gather_equals_fancy_indexing():
    # `_mul` is hm[a, b]; a gather of more than `_CHUNK` cells takes into its
    # output chunk by chunk, so sizes below, at and above the chunk, broadcast
    # operands, uint8 and intp operands and empty arrays all meet fancy
    # indexing.  |H| = 256 puts the flat index at the top of uint16
    rng = np.random.default_rng(0)
    for h in (S3, cyclic_group(256)):
        hm = _byte_tables(h)[0]
        for size in (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3):
            for dtype in (np.uint8, np.intp):
                a, b = rng.integers(0, h.order, (2, size)).astype(dtype)
                for x, y in ((a, b), (a, b.astype(np.uint8)), (a[:, None], b[None, :3]), (a[None, :5], b[:, None])):
                    got = _mul(hm, x, y)
                    assert got.dtype == np.uint8 and np.array_equal(got, hm[x, y])
        # a broadcast onto more than a chunk from two small operands
        x = rng.integers(0, h.order, (_CHUNK // 64 + 1, 1, 8), dtype=np.uint8)
        y = rng.integers(0, h.order, (1, 64, 8), dtype=np.uint8)
        assert np.array_equal(_mul(hm, x, y), hm[x, y])
        empty = np.zeros((3, 0), dtype=np.uint8)
        assert _mul(hm, empty, empty[:1]).shape == (3, 0)


@pytest.mark.parametrize(
    "hs,gs,bound_mib",
    [("cyclic:2", "cyclic:16", 48), ("product(cyclic:2,cyclic:2)", "dihedral:8", 24)],
)
def test_system_blocks_peak_memory_is_bounded(hs, gs, bound_mib):
    # tracemalloc sees numpy's buffers.  Draining the blocks holds about 4.5
    # bytes per cell of the largest batch: its sort keys, delta(W), and one
    # action's uint16 index and lookup.  The largest blocks are 8 and 4 MiB,
    # so an intp copy of a whole index (8 bytes a cell) breaks the bounds
    h, g = make_group(hs), make_group(gs)
    _aut_tables(h)   # cached on h, like every table over Aut(H)
    tracemalloc.start()
    try:
        for _ in _system_blocks(h, g, DEFAULT_PAIR_CAP):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2 ** 20


# the linear slice against the pinned engine ----------------------------------

# every abelian-H pair of criterion 6's catalog with |G| > 1, and pairs whose
# pinned engine still finishes in seconds
LINEAR_SLICE_PAIRS = [
    (h, g) for h in _CATALOG for g in _CATALOG if h.is_abelian and g.order > 1 and h.order * g.order <= 32
] + [
    (C2, make_group(d))
    for d in (
        "product(cyclic:4,cyclic:4)",
        "product(product(cyclic:2,cyclic:2),product(cyclic:2,cyclic:2))",
        "product(cyclic:2,cyclic:8)",
    )
] + [(K4, C2_3), (C3, make_group("product(cyclic:3,cyclic:3)"))]


def _linear_slices(h, g, monkeypatch):
    """`_linear_slice_classes` (on any G, cyclic too) with the engine unreachable."""
    with monkeypatch.context() as mp:
        mp.setattr(importlib.import_module("crossedprod.classify"), "_engine", _no_engine)
        return list(_linear_slice_classes(h, g))


@pytest.mark.parametrize("h,g", LINEAR_SLICE_PAIRS, ids=lambda x: x.name)
def test_linear_slice_oracle_equals_the_pinned_engine(h, g, monkeypatch):
    _assert_same_slices(_linear_slices(h, g, monkeypatch), list(_engine_slice_classes(h, g)))


def test_linear_slice_oracle_relabelled_abelian_h(monkeypatch):
    # H's element order is not the order of any coordinates: the slice is
    # sorted by the labels, whatever the basis
    for base, new_of in (
        (make_group("product(cyclic:2,cyclic:4)"), [0, 5, 3, 7, 1, 6, 2, 4]),
        (cyclic_group(6), [0, 4, 1, 5, 3, 2]),
    ):
        h = _relabelled(base, new_of)
        basis, degrees, coords, _, _ = _abelian_coordinates(h)
        assert sorted(h.elements(), key=lambda x: tuple(coords[x])) != list(h.elements())
        assert [h.element_orders[e] for e in basis] == degrees.tolist()
        for g in (K4, S3, C4):
            if h.order * g.order <= 32:
                _assert_same_slices(_linear_slices(h, g, monkeypatch), list(_engine_slice_classes(h, g)))


@pytest.mark.parametrize("spec,count", [
    ("product(cyclic:2,cyclic:2)", 8),
    ("product(cyclic:2,cyclic:4)", 8),
    ("product(cyclic:2,cyclic:6)", 8),
    ("product(cyclic:4,cyclic:4)", 8),
    ("product(cyclic:2,cyclic:8)", 8),
    ("product(cyclic:2,cyclic:16)", 8),
    ("product(cyclic:4,cyclic:8)", 8),
    ("product(cyclic:2,product(cyclic:2,cyclic:2))", 2 ** 6),
    ("product(product(cyclic:2,cyclic:2),product(cyclic:2,cyclic:2))", 2 ** 10),
    ("product(cyclic:2,product(product(cyclic:2,cyclic:2),product(cyclic:2,cyclic:2)))", 2 ** 15),
    ("product(cyclic:2,product(cyclic:4,cyclic:4))", 2 ** 6),
])
def test_linear_slice_oracle_kunneth_counts_on_c2(spec, count):
    # Aut(C2) = 1, so the one action is trivial, and by Kunneth over F_2 a
    # product of k cyclic groups of even order has H^2(-, C2) = F_2^(k + k(k-1)/2)
    g = make_group(spec)
    assert len(generating_sequence(g)) > 1
    assert sum(1 for _ in iter_orbit_representatives(C2, g)) == count


def _eq1_by_orbits(h, g):
    """eq1 classes as `_reports` found them before the tags: each system not
    yet marked opens a class and marks its orbit, f B^2 for abelian H
    (`_b2_by_definition`, once per action) and every shift otherwise."""
    n, m = h.order, g.order
    keys = _system_block(h, g, DEFAULT_PAIR_CAP)._keys
    sorted_keys = _key_view(keys)
    width = m * n
    hm = _byte_tables(h)[0]
    class_of = np.full(len(keys), -1)
    count, b2_act = 0, None
    for i in range(len(keys)):
        if class_of[i] < 0:
            act, f = keys[i, :width], keys[i, width:]
            if h.is_abelian:
                if b2_act is None or not np.array_equal(b2_act, act):
                    b2_act, b2 = act, _b2_by_definition(h, g, act)
                cocycles = hm[f, b2]
                actions = np.broadcast_to(act, (len(cocycles), width))
            else:
                actions, cocycles = coboundary_orbit_keys(h, g, act, f.tobytes(), _all_shifts(n, m))
            members = _lookup(sorted_keys, np.concatenate([actions, cocycles], axis=1))
            assert (class_of[members] < 0).all()
            class_of[members] = count
            count += 1
    return [tuple(np.flatnonzero(class_of == c).tolist()) for c in range(count)]


@pytest.mark.parametrize("h,g", [
    (h, g) for h in _CATALOG for g in _CATALOG if h.is_abelian and h.order * g.order <= 32
], ids=lambda x: x.name)
def test_eq1_tags_oracle_equal_the_orbit_marking(h, g):
    assert classify(h, g, "eq1").classes == _eq1_by_orbits(h, g)


# the per-system path that the block stream replaced, kept as its oracle
def _visited_systems(h, g):
    """Raw records collected one per system through `visit`, then sorted."""
    raws = []
    enumerate_raw_systems(h, g, lambda a, fb: raws.append((a, fb)))
    raws.sort()
    return raws


NON_ABELIAN_ENGINE_PAIRS = [
    (make_group(hs), make_group(gs))
    for (hs, gs, _, _) in ENGINE_DIGESTS
    if not make_group(hs).is_abelian
]
STREAM_ORACLE_PAIRS = SLICE_PAIRS + NON_ABELIAN_ENGINE_PAIRS + [(C4, cyclic_group(1))]


@pytest.mark.parametrize("h,g", STREAM_ORACLE_PAIRS, ids=lambda x: x.name)
def test_system_block_matches_the_visit_oracle(h, g):
    raws = _visited_systems(h, g)
    perms = [a.map for a in automorphism_group(h)]
    want_keys = np.array(
        [[v for a in alpha for v in perms[a]] + list(fb) for (alpha, fb) in raws], dtype=np.uint8
    )
    block = _system_block(h, g, DEFAULT_PAIR_CAP)
    assert np.array_equal(block._keys, want_keys)
    assert [block._alphas[k] for k in block._alpha_of] == [alpha for (alpha, _) in raws]
    assert enumerate_crossed_systems(h, g) == [system_from_raw(h, g, a, fb) for (a, fb) in raws]


def test_block_stream_contract_and_visit_oracle():
    # an engine pair (non-abelian H) and algebraic pairs (abelian H), the
    # smallest ones too
    for (h, g) in [(Q8, C4), (C3, Q8), (C2, C2), (K4, C2)]:
        blocks = list(_system_blocks(h, g, DEFAULT_PAIR_CAP))
        alphas = [alpha for (alpha, _) in blocks]
        assert all(a < b for a, b in zip(alphas, alphas[1:]))
        for (alpha, block) in blocks:
            assert isinstance(alpha, tuple) and len(alpha) == g.order
            assert block.dtype == np.uint8 and block.flags.c_contiguous
            assert block.ndim == 2 and block.shape[1] == g.order ** 2 and len(block) > 0
        assert _records(blocks) == _raw_systems(h, g)
    # pinned, most of S3's actions keep no system: they yield no block
    cells = _tree_cells(C4)
    blocks = list(_search_systems(S3, C4, cells))
    assert len(blocks) < len(list(_outer_actions(S3, C4)))
    assert all(len(block) > 0 for (_, block) in blocks)
    assert _records(blocks) == [
        (a, fb) for (a, fb) in _raw_systems(S3, C4) if all(fb[p * 4 + s] == 0 for (p, s) in cells)
    ]


def test_every_enumerating_entry_point_enforces_the_cap():
    with pytest.raises(CapExceededError):
        classify(C4, C4, "eq1", max_pair_order=8)
    with pytest.raises(CapExceededError):
        enumerate_crossed_systems(C4, C4, max_pair_order=8)
    with pytest.raises(CapExceededError):
        list(iter_orbit_representatives(C4, C4, cap=8))
    with pytest.raises(CapExceededError):
        enumerate_raw_systems(C4, C4, lambda a, fb: None, cap=8)


def test_aut_cap_raises_before_any_automorphism_table():
    # |H||G| = 32 is inside the pair cap, but |Aut(C2^4)| = 20,160 would make
    # a composition table of 406 M entries
    h = make_group("product(product(cyclic:2,cyclic:2),product(cyclic:2,cyclic:2))")
    for call in (lambda: _aut_tables(h), lambda: enumerate_crossed_systems(h, C2)):
        with pytest.raises(CapExceededError, match="20160"):
            call()
    assert not {"aut_tables", "aut_perms"} & set(h._cache)


@pytest.mark.parametrize("spec", [
    "symmetric:3", "dihedral:8", "quaternion:8", "product(cyclic:2,product(cyclic:2,cyclic:2))",
    "product(quaternion:8,cyclic:2)",
])
def test_aut_cap_spares_the_tabulated_groups_and_composes_like_the_maps(spec):
    h = make_group(spec)
    perms = [a.map for a in automorphism_group(h)]
    assert len(perms) <= _MAX_AUTS
    index = {p: i for i, p in enumerate(perms)}
    aut, out, outer, conj_of = _aut_tables(h)
    assert aut.table == tuple(tuple(index[tuple(pi[x] for x in pj)] for pj in perms) for pi in perms)
    assert aut.inverse_table == tuple(index[a.inverse_automorphism().map] for a in automorphism_group(h))
    assert conj_of == [inner_automorphisms(h).get(p, ()) for p in perms]
    if h.is_abelian:
        assert out is aut and outer == tuple(range(len(perms)))


def _small_aut_tables(h, count):
    """The closed form of `(comp, aut_inv, outer, conj_of)` for an Aut(H) of
    `count` <= 2 elements, kept as an oracle.

    Inn(H) = H / Z(H) is a subgroup of Aut(H), so it is cyclic and H is
    abelian: Inn(H) = 1, every coset of it is one automorphism, and every c
    in H conjugates like the identity.  automorphism_group starts with the
    identity (the least value table), and a second automorphism is its own
    inverse.
    """
    comp = [[i ^ j for j in range(count)] for i in range(count)]
    return comp, list(range(count)), list(range(count)), [tuple(h.elements())] + [()] * (count - 1)


def _composed_aut_tables(h):
    """`(comp, aut_inv, outer, conj_of)` by composing the value tables in
    Python: comp[i][j] is the index of aut_i after aut_j, and outer[a] the
    least index in the coset of Inn(H) that holds aut_a."""
    perms = [a.map for a in automorphism_group(h)]
    index = {p: i for i, p in enumerate(perms)}
    comp = [[index[tuple(pi[x] for x in pj)] for pj in perms] for pi in perms]
    inner = inner_automorphisms(h)
    inn = [index[p] for p in inner]
    outer = [min(comp[c][a] for c in inn) for a in range(len(perms))]
    return comp, [row.index(0) for row in comp], outer, [inner.get(p, ()) for p in perms]


@pytest.mark.parametrize("spec", [
    *(f"cyclic:{k}" for k in (1, 2, 3, 4, 5, 6, 8)),
    "product(cyclic:2,cyclic:2)", "symmetric:3", "dihedral:8", "quaternion:8",
    "product(cyclic:2,product(cyclic:2,cyclic:2))", "product(cyclic:2,cyclic:4)",
])
def test_aut_tables_oracle_small_aut_equals_the_composed_tables(spec):
    # an Aut(H) of one or two elements is written down without composing (C1,
    # C2, C3, C4, C6), and the library's Aut(H) and Out(H) equal the Python
    # composition at every size, Out(H)'s cosets numbered by least index
    h = make_group(spec)
    comp, aut_inv, least, conj_of = _composed_aut_tables(h)
    if len(comp) <= 2:
        assert _small_aut_tables(h, len(comp)) == (comp, aut_inv, least, conj_of)
    aut, out, outer, lib_conj_of = _aut_tables(h)
    reps = sorted(set(least))
    assert aut.table == tuple(map(tuple, comp))
    assert aut.inverse_table == tuple(aut_inv)
    assert outer == tuple(reps.index(c) for c in least)
    assert out.table == tuple(tuple(reps.index(least[comp[a][b]]) for b in reps) for a in reps)
    assert lib_conj_of == conj_of


def _outer_homomorphisms_by_triples(h, g):
    """The action search before Out(H) was a group, kept as its oracle.

    Each coset of Inn(H) is labelled by its least automorphism index, and
    the psi: G -> Out(H) are searched over those labels by a backtrack over
    every element of G, checking each completion triple (x, y, xy) on the
    composition table of Aut(H).  Returns the psi as label tuples, in
    lexicographic order, and a dict from each label to its coset's indices.
    """
    comp = _aut_tables(h)[0].table
    index = {a.map: i for i, a in enumerate(automorphism_group(h))}
    inn = [index[p] for p in inner_automorphisms(h)]
    outer = [min(comp[c][a] for c in inn) for a in range(len(comp))]
    cosets = {}
    for a, label in enumerate(outer):
        cosets.setdefault(label, []).append(a)
    g_triples = _completion_triples(g)

    def accept(gi, psi):
        return all(outer[comp[psi[x]][psi[y]]] == psi[xy] for (x, y, xy) in g_triples[gi])

    return list(backtrack([(0,)] + [list(cosets)] * (g.order - 1), accept)), cosets


# every H of the catalog of test_groups.py against the G of the lift tests
# inside the pair cap, which includes (C2^3, D8) and (C2^3, Q8), and
# (Q8xC2, C4)
ACTION_SEARCH_G = [cyclic_group(k) for k in range(1, 9)] + [
    K4, S3, D8, Q8, make_group("product(cyclic:2,cyclic:4)"),
]
ACTION_SEARCH_PAIRS = [
    (h, [g for g in ACTION_SEARCH_G if h.order * g.order <= DEFAULT_PAIR_CAP])
    for h in [
        *(cyclic_group(k) for k in (1, 2, 3, 4, 5, 6, 8, 12)),
        K4, make_group("product(cyclic:2,cyclic:4)"), make_group("product(cyclic:2,product(cyclic:2,cyclic:2))"),
        S3, symmetric_group(4), D8, dihedral_group(10), dihedral_group(12), Q8, alternating_group(4),
        make_group("product(cyclic:8,cyclic:8)"), dihedral_group(64),
    ]
] + [(make_group("product(quaternion:8,cyclic:2)"), [C4])]


@pytest.mark.parametrize("h,gs", ACTION_SEARCH_PAIRS, ids=[h.name for (h, _) in ACTION_SEARCH_PAIRS])
def test_action_search_oracle_equals_the_completion_triple_backtrack(h, gs):
    if len(automorphism_group(h)) > _MAX_AUTS:   # Aut(C8xC8) has 1,536 elements
        with pytest.raises(CapExceededError):
            _aut_tables(h)
        return
    aut, out, outer, _ = _aut_tables(h)
    q, proj = quotient(aut, Subgroup(aut, tuple(sorted(
        i for i, a in enumerate(automorphism_group(h)) if a.map in inner_automorphisms(h)
    ))))
    assert out.table == q.table and outer == proj.map
    for g in gs:
        psis, cosets = _outer_homomorphisms(h, g)
        want_psis, want_cosets = _outer_homomorphisms_by_triples(h, g)
        assert [tuple(cosets[k][0] for k in psi) for psi in psis] == want_psis, g.name
        assert {coset[0]: coset for coset in cosets} == want_cosets, g.name


def test_byte_tables_refuse_values_over_a_byte():
    # C256's tables fit uint8, C257's would wrap
    assert _byte_tables(cyclic_group(256))[0].dtype == np.uint8
    with pytest.raises(CapExceededError):
        _byte_tables(cyclic_group(257))


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
    aut, _, _, conj_of = _aut_tables(h)
    comp, aut_inv = aut.table, aut.inverse_table
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


def _fresh_system(h, g, alpha, fb):
    # reference: a system built from scratch, sharing nothing with earlier calls
    auts = automorphism_group(h)
    m = g.order
    rows = tuple(tuple(fb[i * m:(i + 1) * m]) for i in range(m))
    action = WeakAction(g, h, tuple(auts[a] for a in alpha))
    return CrossedSystem(h, g, action, Cocycle(g, h, rows), normalized=True)


def test_system_from_raw_cuts_the_rows_of_bytes_and_integer_sequences():
    # the one-pass rows equal the m row slices of a fresh build, for the
    # engine's bytes and for integer sequences (numpy ones included)
    for (h, g) in [(C3, Q8), (Q8, C2), (C4, K4), (S3, C3), (S3, cyclic_group(1))]:
        for (alpha, fb) in _raw_systems(h, g)[:20]:
            want = _fresh_system(h, g, alpha, fb)
            as_array = np.frombuffer(fb, dtype=np.uint8)
            for f_flat in (
                fb, bytearray(fb), list(fb), tuple(fb), as_array, as_array.astype(np.int64)
            ):
                got = system_from_raw(h, g, alpha, f_flat)
                assert got == want
                assert got.cocycle.table == want.cocycle.table
                assert all(type(v) is int for row in got.cocycle.table for v in row)


def test_system_from_raw_reuses_one_action_and_matches_fresh_builds():
    # two pairs that share H, with G of the same order (so the trivial action
    # has the same alpha on both), and two alphas per pair, interleaved
    c4_again = cyclic_group(4)
    records = []
    for g in (C4, K4, c4_again):
        raws = _raw_systems(C4, g)
        alphas = sorted({a for a, _ in raws})[:2]
        assert len(alphas) == 2 and alphas[0] == (0, 0, 0, 0)
        records.append([(g, a, [fb for b, fb in raws if b == a][:2]) for a in alphas])
    (r00, r01), (r10, r11), (r20, r21) = records
    # each step keeps g and changes alpha, or keeps alpha and changes g (to
    # K4, or to an equal copy of C4), or repeats
    sequence = [r00, r00, r01, r00, r10, r11, r11, r10, r01, r00, r20, r21, r20, r00]
    previous = None
    for g, alpha, fbs in sequence:
        for fb in fbs:
            got = system_from_raw(C4, g, list(alpha), fb)
            want = _fresh_system(C4, g, alpha, fb)
            assert got == want and got.action == want.action
            assert got.action.actor is g and got.action.space is C4
            assert got.action.perms == want.action.perms
            assert got.action.center_plan == want.action.center_plan
            if previous is not None and previous[0] is g and previous[1] == alpha:
                assert got.action is previous[2]
            previous = (g, alpha, got.action)


# the Python schedule compile that `_engine_schedule` replaced, kept as its oracle


def _schedule_by_loops(g, abelian_h):
    m = g.order
    gm = g.table
    cells = [(g1, g2) for g2 in range(1, m) for g1 in range(1, m)]
    cell_pos = {c: k for k, c in enumerate(cells)}
    flat = [g1 * m + g2 for (g1, g2) in cells]
    third_args = generating_sequence(g) if abelian_h else list(range(1, m))
    cc_at = [[] for _ in cells]
    for g1 in range(1, m):
        for g2 in range(1, m):
            g12 = gm[g1][g2]
            for g3 in third_args:
                g23 = gm[g2][g3]
                involved = [(g1, g2), (g2, g3)]
                if g12 != 0:
                    involved.append((g12, g3))
                if g23 != 0:
                    involved.append((g1, g23))
                pos = max(cell_pos[c] for c in involved)
                cc_at[pos].append((g1 * m + g2, g12 * m + g3, g2 * m + g3, g1 * m + g23, g1))
    derive_info, rest_info = [], []
    for k, target in enumerate(flat):
        chosen, rest = None, []
        for inst in cc_at[k]:
            iA, iB, iC, iD, g1 = inst
            occurrences = (iA == target) + (iB == target) + (iC == target) + (iD == target)
            if chosen is None and occurrences == 1:
                mode = 0 if iA == target else 1 if iB == target else 2 if iC == target else 3
                chosen = (mode, iA, iB, iC, iD, g1)
            else:
                rest.append(inst)
        derive_info.append(chosen)
        rest_info.append(rest)
    return flat, derive_info, rest_info


SCHEDULE_GROUPS = [cyclic_group(k) for k in (2, 3, 4, 5, 6, 8, 9, 12, 18)] + [
    K4, S3, D8, Q8, C2_3, dihedral_group(12), make_group("product(cyclic:2,cyclic:4)"), symmetric_group(4)
]


@pytest.mark.parametrize("g", SCHEDULE_GROUPS, ids=lambda x: x.name)
def test_engine_schedule_matches_the_schedule_oracle(g):
    for abelian_h in (True, False):
        want = _schedule_by_loops(g, abelian_h)
        schedule = _engine_schedule(g, abelian_h)
        assert schedule == want
        assert _engine_schedule(g, abelian_h) is schedule


@pytest.mark.parametrize("h,g", [
    (C3, C4), (C2, D8), (K4, K4), (C4, S3), (C5, C4),
    (S3, C4), (S3, C3), (Q8, C2), (D8, C2), (S3, K4),
], ids=lambda x: x.name)
def test_engine_blocks_match_the_schedule_oracle(h, g, monkeypatch):
    # pinned (the gauge slice's tree cells) and unpinned passes, on the
    # library's schedule and on the oracle's
    classify_mod = importlib.import_module("crossedprod.classify")
    for pinned in ((), _tree_cells(g)):
        blocks = _records(_search_systems(h, g, pinned))
        with monkeypatch.context() as patch:
            patch.setattr(classify_mod, "_engine_schedule", _schedule_by_loops)
            assert _records(_search_systems(h, g, pinned)) == blocks
