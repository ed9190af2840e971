"""Enumeration of normalized crossed systems and their equivalence classifications.

The enumerator fixes the unit row and column of the cocycle and the unit
action entry (forced by normalization), then backtracks over the remaining
action entries (drawn from the cached automorphism list of H) and cocycle
cells, checking every axiom instance as soon as its last argument is
assigned.  By the first axiom an action is a homomorphism G -> Out(H), so
action tuples are pruned in Out(H) as they are built, and each cocycle cell's
domain, a coset of Z(H), is read from the Inn(H) table cached on H.  Cells
are filled column-major, which pins most cells immediately from earlier ones
and keeps the search tree close to the solution count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, InternalInvariantError
from .groups import (
    Automorphism,
    FiniteGroup,
    _completion_triples,
    are_isomorphic,
    automorphism_group,
    automorphism_index,
    backtrack,
    generating_sequence,
    identify_group,
    inner_automorphisms,
    is_homomorphism,
)
from .morphisms import iter_stabilizing_maps
from .products import build_product, cached_product
from .systems import Cocycle, CrossedSystem, WeakAction

DEFAULT_PAIR_CAP = 64

RELATIONS = ("eq1", "eq2", "iso")


# witnesses --------------------------------------------------------------------


@dataclass(frozen=True)
class Equivalence1Witness:
    """An end-stabilizing map r: G -> H relating two systems."""

    r: tuple[int, ...]


@dataclass(frozen=True)
class Equivalence2Witness:
    """A triple (eta, gamma, t) of end automorphisms plus a correcting map."""

    eta: Automorphism
    gamma: Automorphism
    t: tuple[int, ...]


# enumeration engine -----------------------------------------------------------


def _aut_tables(h: FiniteGroup):
    """`(comp, aut_inv, outer, conj_of)` over automorphism_group(h), cached on h.

    comp[i][j] is the index of (aut_i after aut_j) and aut_inv[i] that of
    aut_i's inverse.  outer[i] labels aut_i's coset of Inn(H) (its least
    index), so outer is the projection Aut(H) -> Out(H).  conj_of[i] is the
    ascending tuple of c in H whose conjugation x -> c x c^-1 is aut_i, empty
    unless aut_i is inner.
    """
    tables = h._cache.get("aut_tables")
    if tables is None:
        perms = [a.map for a in automorphism_group(h)]
        index = automorphism_index(h)
        comp = [
            [index[tuple(pi[pj[x]] for x in range(h.order))] for pj in perms]
            for pi in perms
        ]
        aut_inv = [row.index(0) for row in comp]
        inner = inner_automorphisms(h)
        inn = [index[p] for p in inner]
        outer = [min(comp[c][a] for c in inn) for a in range(len(perms))]
        conj_of = [inner.get(p, ()) for p in perms]
        tables = (comp, aut_inv, outer, conj_of)
        h._cache["aut_tables"] = tables
    return tables


def _outer_actions(h: FiniteGroup, g: FiniteGroup):
    """The action tuples of the crossed systems on (H, G), in lexicographic order.

    A tuple gives one index into automorphism_group(h) per element of G, the
    identity at 1.  The first axiom makes a(g1) a(g2) a(g1 g2)^-1 the
    conjugation by f(g1, g2), so exactly the tuples that are homomorphisms
    G -> Out(H) have a non-empty domain on every cocycle cell.  For abelian H,
    Out(H) = Aut(H) and these are the homomorphisms G -> Aut(H).
    """
    comp, _, outer, _ = _aut_tables(h)
    g_triples = _completion_triples(g.table)

    def accept(gi: int, al) -> bool:
        return all(outer[comp[al[x]][al[y]]] == outer[al[xy]] for (x, y, xy) in g_triples[gi])

    return backtrack([(0,)] + [range(len(comp))] * (g.order - 1), accept)


def enumerate_raw_systems(
    h: FiniteGroup, g: FiniteGroup, visit, *, cap: int = DEFAULT_PAIR_CAP, _pinned=()
) -> None:
    """Drive `visit(alpha_indices, f_bytes)` over every normalized crossed system.

    `alpha_indices` indexes into automorphism_group(h) per element of G;
    `f_bytes` is the cocycle table row-major.  Systems are emitted grouped by
    action assignment, actions in lexicographic index order.  Only the
    homomorphisms G -> Out(H) are tried (`_outer_actions`); the domain of
    cell (g1, g2) is the ascending tuple of c in H conjugating like
    a(g1) a(g2) a(g1 g2)^-1, one lookup in the cached Inn(H) table.

    `_pinned` names cocycle cells (g1, g2) held at the unit: their domain is
    `(0,)`, so only the systems with the unit on every pinned cell are emitted
    and a branch dies as soon as a pinned cell is derived non-zero.  With no
    pinned cells (the default) every system is emitted.

    Cocycle cells are filled column-major; for most cells some axiom instance
    pins the value, which is then computed directly instead of searched.  For
    abelian H (where the weak action is forced to be multiplicative) only
    instances whose third argument is a generator of G are scheduled: the rest
    follow by induction on the word length of the third argument.
    """
    n, m = h.order, g.order
    if n * m > cap:
        raise CapExceededError(f"|H|*|G| = {n * m} exceeds cap {cap}")
    if n >= 256:
        raise CapExceededError("engine packs cocycle values into bytes; |H| must be < 256")
    aut_perms = [a.map for a in automorphism_group(h)]
    hm = h.table
    hinv = h.inverse_table
    gm = g.table
    fvals = [0] * (m * m)
    alpha = [0] * m

    if m == 1:
        visit((0,), bytes(fvals))
        return

    abelian_h = h.is_abelian
    cells = [(g1, g2) for g2 in range(1, m) for g1 in range(1, m)]
    cell_pos = {c: k for k, c in enumerate(cells)}
    flat = [g1 * m + g2 for (g1, g2) in cells]
    K = len(cells)
    pinned_pos = [cell_pos[c] for c in _pinned]
    third_args = generating_sequence(g) if abelian_h else list(range(1, m))
    cc_at: list[list[tuple[int, int, int, int, int]]] = [[] for _ in range(K)]
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
                cc_at[pos].append(
                    (g1 * m + g2, g12 * m + g3, g2 * m + g3, g1 * m + g23, g1)
                )

    # split each cell's instances into one deriving instance (the cell occurs
    # exactly once in it) plus the remaining verification list
    derive_info: list[tuple[int, int, int, int, int, int] | None] = []
    rest_info: list[list[tuple[int, int, int, int, int]]] = []
    for k in range(K):
        target = flat[k]
        chosen = None
        rest: list[tuple[int, int, int, int, int]] = []
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

    # a cell's domain is the coset of Z(H) conjugating like a1 a2 a12^-1 (all
    # of H when H is abelian); a full domain needs no membership test (None),
    # which lets derived cells chain
    comp, aut_inv, _, conj_of = _aut_tables(h)
    domset_of = [None if len(d) == n else frozenset(d) for d in conj_of]

    CHAIN, DERIVE, FREE = 0, 1, 2

    def alpha_leaf() -> None:
        act = [aut_perms[a] for a in alpha]
        inner = [comp[comp[alpha[g1]][alpha[g2]]][aut_inv[alpha[gm[g1][g2]]]] for (g1, g2) in cells]
        domains = [conj_of[a] for a in inner]
        domsets = [domset_of[a] for a in inner]
        for k in pinned_pos:
            if 0 not in domains[k]:
                return
            domains[k] = (0,)
            domsets[k] = {0}
        act_inv: list[tuple[int, ...] | None] = [None] * m

        def derive_op(k: int):
            mode, iA, iB, iC, iD, g1 = derive_info[k]
            if mode == 2 and act_inv[g1] is None:
                inv_row = [0] * n
                for src, dst in enumerate(act[g1]):
                    inv_row[dst] = src
                act_inv[g1] = tuple(inv_row)
            return (flat[k], mode, iA, iB, iC, iD, act[g1], act_inv[g1])

        def bind(insts):
            return [(iA, iB, iC, iD, act[g1]) for (iA, iB, iC, iD, g1) in insts]

        # compile the cell schedule: maximal runs of always-succeeding derived
        # cells collapse into single chain steps with no choice point
        steps: list[tuple] = []
        k = 0
        while k < K:
            derivable = derive_info[k] is not None
            if derivable and not rest_info[k] and domsets[k] is None:
                ops = []
                while (
                    k < K
                    and derive_info[k] is not None
                    and not rest_info[k]
                    and domsets[k] is None
                ):
                    ops.append(derive_op(k))
                    k += 1
                steps.append((CHAIN, ops))
            elif derivable:
                steps.append((DERIVE, flat[k], derive_op(k), bind(rest_info[k]), domsets[k]))
                k += 1
            else:
                steps.append((FREE, flat[k], domains[k], len(domains[k]), bind(rest_info[k])))
                k += 1
        nsteps = len(steps)
        alpha_t = tuple(alpha)
        fv = fvals
        ptr = [0] * (nsteps + 1)
        k = 0
        while k >= 0:
            if k == nsteps:
                visit(alpha_t, bytes(fv))
                k -= 1
                continue
            step = steps[k]
            kind = step[0]
            if kind == CHAIN:
                if ptr[k] == 0:
                    ptr[k] = 1
                    for (i, mode, iA, iB, iC, iD, a1, a1inv) in step[1]:
                        if mode == 0:
                            fv[i] = hm[hm[a1[fv[iC]]][fv[iD]]][hinv[fv[iB]]]
                        elif mode == 1:
                            fv[i] = hm[hinv[fv[iA]]][hm[a1[fv[iC]]][fv[iD]]]
                        elif mode == 2:
                            fv[i] = a1inv[hm[hm[fv[iA]][fv[iB]]][hinv[fv[iD]]]]
                        else:
                            fv[i] = hm[hinv[a1[fv[iC]]]][hm[fv[iA]][fv[iB]]]
                    k += 1
                    if k < nsteps:
                        ptr[k] = 0
                    continue
                ptr[k] = 0
                k -= 1
                continue
            if kind == DERIVE:
                _, i, der, rests, dset = step
                if ptr[k] == 0:
                    ptr[k] = 1
                    (_, mode, iA, iB, iC, iD, a1, a1inv) = der
                    if mode == 0:
                        val = hm[hm[a1[fv[iC]]][fv[iD]]][hinv[fv[iB]]]
                    elif mode == 1:
                        val = hm[hinv[fv[iA]]][hm[a1[fv[iC]]][fv[iD]]]
                    elif mode == 2:
                        val = a1inv[hm[hm[fv[iA]][fv[iB]]][hinv[fv[iD]]]]
                    else:
                        val = hm[hinv[a1[fv[iC]]]][hm[fv[iA]][fv[iB]]]
                    if dset is None or val in dset:
                        fv[i] = val
                        good = True
                        for (jA, jB, jC, jD, b1) in rests:
                            if hm[fv[jA]][fv[jB]] != hm[b1[fv[jC]]][fv[jD]]:
                                good = False
                                break
                        if good:
                            k += 1
                            if k < nsteps:
                                ptr[k] = 0
                            continue
                ptr[k] = 0
                fv[i] = 0
                k -= 1
                continue
            _, i, dom, nd, checks = step
            p = ptr[k]
            advanced = False
            while p < nd:
                fv[i] = dom[p]
                p += 1
                good = True
                for (jA, jB, jC, jD, b1) in checks:
                    if hm[fv[jA]][fv[jB]] != hm[b1[fv[jC]]][fv[jD]]:
                        good = False
                        break
                if good:
                    ptr[k] = p
                    k += 1
                    if k < nsteps:
                        ptr[k] = 0
                    advanced = True
                    break
            if not advanced:
                ptr[k] = 0
                fv[i] = 0
                k -= 1

    for combo in _outer_actions(h, g):
        alpha[:] = combo
        alpha_leaf()


def system_from_raw(
    h: FiniteGroup, g: FiniteGroup, alpha_indices: tuple[int, ...], f_flat
) -> CrossedSystem:
    """Materialize an engine record; validity is guaranteed by construction.

    `f_flat` is the row-major cocycle table: the engine's bytes, whose row
    slices already hold ints, or any sequence of integers.
    """
    auts = automorphism_group(h)
    m = g.order
    action = WeakAction(g, h, tuple(auts[a] for a in alpha_indices))
    if isinstance(f_flat, (bytes, bytearray)):
        rows = tuple(tuple(f_flat[g1 * m:(g1 + 1) * m]) for g1 in range(m))
    else:
        rows = tuple(
            tuple(int(v) for v in f_flat[g1 * m:(g1 + 1) * m]) for g1 in range(m)
        )
    return CrossedSystem(h, g, action, Cocycle(g, h, rows), normalized=True)


def enumerate_crossed_systems(
    h: FiniteGroup, g: FiniteGroup, *, max_pair_order: int = DEFAULT_PAIR_CAP
) -> list[CrossedSystem]:
    """All normalized crossed systems on (H, G), sorted by encoding."""
    raws: list[tuple[tuple[int, ...], bytes]] = []
    enumerate_raw_systems(h, g, lambda a, fb: raws.append((a, fb)), cap=max_pair_order)
    raws.sort()
    return [system_from_raw(h, g, a, fb) for (a, fb) in raws]


# the end-stabilizing shift ----------------------------------------------------


def shift_system(sys: CrossedSystem, r) -> CrossedSystem:
    """The system related to `sys` by the end-stabilizing witness r (r(1) = 1).

    The shifted action conjugates each automorphism by r(g); the shifted
    cocycle follows the witness law, so are_equivalent_1 always relates the
    input and the output.  Requires a normalized system; the output is then
    normalized too.
    """
    if not sys.normalized:
        raise ValueError("requires a normalized system")
    r = tuple(int(v) for v in r)
    h, g = sys.h, sys.g
    if len(r) != g.order or r[0] != 0:
        raise ValueError("shift map must have length |G| and fix the unit")
    hm = h.table
    hinv = h.inverse_table
    gm = g.table
    act = sys.action.perms
    f = sys.cocycle.table
    new_perms = [
        tuple(hm[hm[hinv[r[gi]]][act[gi][x]]][r[gi]] for x in range(h.order))
        for gi in g.elements()
    ]
    new_f = [
        [
            hm[hm[hm[new_perms[g1][hinv[r[g2]]]][hinv[r[g1]]]][f[g1][g2]]][r[gm[g1][g2]]]
            for g2 in g.elements()
        ]
        for g1 in g.elements()
    ]
    from .systems import validate_crossed_system, weak_action, cocycle as make_cocycle

    return validate_crossed_system(
        h, g, weak_action(g, h, new_perms), make_cocycle(g, h, new_f)
    )


def coboundary_orbit_keys(
    h: FiniteGroup,
    g: FiniteGroup,
    act_rows,
    f_flat: bytes,
    eta: Automorphism | None = None,
    gamma: Automorphism | None = None,
    t_rows=None,
) -> tuple["np.ndarray", "np.ndarray"]:
    """Keys of every system that a witness (eta, gamma, t) relates to one system.

    By default row k stands for the map t: G -> H with t(1) = 1 whose value at
    element gi > 0 is digit gi - 1 of k in base |H|; `t_rows`, an integer
    array of shape (rows, |G|) with t(1) = 1 in column 0, gives the maps t to
    use instead, one per row.  Row k holds the system B with

        act_B(g)(x)  = eta(t(g) act(q)(eta^-1(x)) t(g)^-1),            q = gamma^-1(g)
        f_B(g1, g2) = eta(t(g1) act(q1)(t(g2)) f(q1, q2) t(g1 g2)^-1),  qi = gamma^-1(gi)

    which are the laws `_witness_laws_hold` checks.  eta and gamma default to
    the identity, which gives the end-stabilizing (eq1) orbit.  Returns
    `(actions, cocycles)`: uint8 arrays of shape (rows, |G||H|) and
    (rows, |G|^2), rows = |H|^(|G|-1) by default, whose rows are B's action
    rows and row-major cocycle table, duplicates included.  For abelian H the
    action does not depend on t, so `actions` is then a read-only broadcast of
    one row.
    """
    n, m = h.order, g.order
    hm = np.array(h.table, dtype=np.uint8)
    hinv = np.array(h.inverse_table, dtype=np.uint8)
    act = np.array(act_rows, dtype=np.uint8).reshape(m, n)
    gm = g.table
    einv = np.arange(n) if eta is None else np.array(eta.inverse_automorphism().map)
    ginv = list(range(m) if gamma is None else gamma.inverse_automorphism().map)
    if t_rows is None:
        count = n ** (m - 1)
        codes = np.arange(count, dtype=np.int64)
        t = np.zeros((count, m), dtype=np.int64)
        for gi in range(1, m):
            t[:, gi] = (codes // (n ** (gi - 1))) % n
    else:
        t = np.asarray(t_rows, dtype=np.int64)
        count = len(t)
    t_inv = hinv[t]
    em = None if eta is None else np.array(eta.map, dtype=np.uint8)

    def relabel(a):
        return a if em is None else em[a]

    moved = act[ginv][:, einv]
    if h.is_abelian:
        actions = np.broadcast_to(relabel(moved).reshape(1, m * n), (count, m * n))
    else:
        conj = hm[hm[t[:, :, None], moved[None, :, :]], t_inv[:, :, None]]
        actions = relabel(conj).reshape(count, m * n)
    f_arr = np.frombuffer(f_flat, dtype=np.uint8)
    cocycles = np.empty((count, m * m), dtype=np.uint8)
    for g1 in range(m):
        t1 = t[:, g1]
        q1 = ginv[g1]
        for g2 in range(m):
            q2 = ginv[g2]
            shifted = hm[hm[t1, act[q1][t[:, g2]]], f_arr[q1 * m + q2]]
            cocycles[:, g1 * m + g2] = hm[shifted, t_inv[:, gm[g1][g2]]]
    return actions, relabel(cocycles)


def _gauge_tree(g: FiniteGroup) -> tuple[list[int], list[tuple[int, int, int]]]:
    """A BFS spanning tree of G's Cayley graph over `generating_sequence(g)`.

    Returns `(gens, edges)`: the generators are the depth-1 elements, and
    every element x at depth >= 2 has one edge (x, p, s) with x = p s, p != 1
    at depth one less and s a generator, listed in BFS order.
    """
    gens = generating_sequence(g)
    gm = g.table
    seen = {0, *gens}
    order = list(gens)
    edges: list[tuple[int, int, int]] = []
    for p in order:  # grows while it is walked: breadth-first
        for s in gens:
            x = gm[p][s]
            if x not in seen:
                seen.add(x)
                order.append(x)
                edges.append((x, p, s))
    return gens, edges


def _gauge_shifts(h: FiniteGroup, act_rows, gens, edges) -> "np.ndarray":
    """The maps t of T0 as rows of shape (|H|^len(gens), |G|).

    T0 holds the maps t: G -> H with t(1) = 1, any values on the generators,
    and t(p s) = t(p) act(p)(t(s)) on every tree edge: exactly the shifts
    whose coboundary is the unit on every tree cell (p, s), so for abelian H
    they move a cocycle of the gauge slice only within the slice.
    """
    n = h.order
    hm = np.array(h.table, dtype=np.int64)
    act = np.array(act_rows, dtype=np.int64)
    count = n ** len(gens)
    codes = np.arange(count, dtype=np.int64)
    t = np.zeros((count, len(act_rows)), dtype=np.int64)
    for j, s in enumerate(gens):
        t[:, s] = (codes // (n ** j)) % n
    for (x, p, s) in edges:
        t[:, x] = hm[t[:, p], act[p][t[:, s]]]
    return t


def iter_orbit_representatives(h: FiniteGroup, g: FiniteGroup, *, cap: int = DEFAULT_PAIR_CAP):
    """Yield one raw system per stabilizing-equivalence orbit.

    For abelian H the action is a homomorphism G -> Aut(H), a shift keeps it,
    and an orbit is a cohomology class f B^2.  Only the gauge slice is
    enumerated: the cocycles with the unit on every tree cell (p, s) of a BFS
    spanning tree of G (`_gauge_tree`).  Every orbit meets it, since setting
    t(s) = 1 on the generators and t(p s) = t(p) p(t(s)) f(p, s) down the tree
    moves f into it, and meets it in the T0-orbit of any member
    (`_gauge_shifts`, |H|^#generators maps instead of |H|^(|G|-1)).  Each
    slice cocycle not yet marked is yielded and marks its T0-orbit, so the
    yield count is the class count.  For non-abelian H every system is yielded
    (correct, just without reduction).  Orbit members share their product's
    isomorphism type, which is what bulk consumers rely on.
    """
    systems: list[tuple[tuple[int, ...], bytes]] = []
    if not h.is_abelian:
        enumerate_raw_systems(h, g, lambda a, fb: systems.append((a, fb)), cap=cap)
        yield from systems
        return
    gens, edges = _gauge_tree(g)
    pinned = [(p, s) for (_, p, s) in edges]
    enumerate_raw_systems(h, g, lambda a, fb: systems.append((a, fb)), cap=cap, _pinned=pinned)
    auts = automorphism_group(h)
    reps: list[tuple[tuple[int, ...], bytes]] = []
    alpha: tuple[int, ...] | None = None
    seen: set[bytes] = set()
    for (alpha_indices, f_bytes) in systems:
        if alpha_indices != alpha:
            alpha, seen = alpha_indices, set()
            act_rows = [auts[a].map for a in alpha]
            t_rows = _gauge_shifts(h, act_rows, gens, edges)
        if f_bytes in seen:
            continue
        _, cocycles = coboundary_orbit_keys(h, g, act_rows, f_bytes, t_rows=t_rows)
        seen.update(row.tobytes() for row in cocycles)
        reps.append((alpha_indices, f_bytes))
    yield from reps


# pairwise equivalence ---------------------------------------------------------


def verify_equivalence1_witness(sysA: CrossedSystem, sysB: CrossedSystem, r) -> bool:
    """Check the two witness laws for r directly."""
    h, g = sysA.h, sysA.g
    hm = h.table
    hinv = h.inverse_table
    gm = g.table
    actA, actB = sysA.action.perms, sysB.action.perms
    fA, fB = sysA.cocycle.table, sysB.cocycle.table
    for gi in g.elements():
        ri = r[gi]
        if any(actB[gi][x] != hm[hm[hinv[ri]][actA[gi][x]]][ri] for x in h.elements()):
            return False
    for g1 in g.elements():
        for g2 in g.elements():
            want = hm[hm[hm[actB[g1][hinv[r[g2]]]][hinv[r[g1]]]][fA[g1][g2]]][r[gm[g1][g2]]]
            if fB[g1][g2] != want:
                return False
    return True


def are_equivalent_1(sysA: CrossedSystem, sysB: CrossedSystem) -> Equivalence1Witness | None:
    """First end-stabilizing witness in lexicographic order, if any."""
    r = next(iter_stabilizing_maps(sysA, sysB), None)
    return None if r is None else Equivalence1Witness(r)


def compose_equivalence1(w1: Equivalence1Witness, w2: Equivalence1Witness, h: FiniteGroup) -> Equivalence1Witness:
    """Witness for A ~ C from witnesses A ~ B and B ~ C (pointwise product)."""
    return Equivalence1Witness(
        tuple(h.mul(a, b) for a, b in zip(w1.r, w2.r))
    )


def invert_equivalence1(w: Equivalence1Witness, h: FiniteGroup) -> Equivalence1Witness:
    return Equivalence1Witness(tuple(h.inv(v) for v in w.r))


def _t_witness_map(sysA, sysB, eta: Automorphism, gamma: Automorphism):
    """Search for the correcting map t given end automorphisms (eta, gamma)."""
    h, g = sysA.h, sysA.g
    n, m = h.order, g.order
    hm = h.table
    hinv = h.inverse_table
    gm = g.table
    actA, actB = sysA.action.perms, sysB.action.perms
    fA, fB = sysA.cocycle.table, sysB.cocycle.table
    em, gmap = eta.map, gamma.map
    einv = eta.inverse_automorphism().map
    ginv = gamma.inverse_automorphism().map
    candidates: list[list[int]] = [[0]]
    for gi in range(1, m):
        gq = ginv[gi]
        cands = [
            c
            for c in range(n)
            if all(
                einv[actB[gi][em[x]]] == hm[hm[c][actA[gq][x]]][hinv[c]]
                for x in range(n)
            )
        ]
        if not cands:
            return None
        candidates.append(cands)
    triples = _completion_triples(gm)

    def accept(k: int, t) -> bool:
        for (g1, g2, g12) in triples[k]:
            q1, q2 = ginv[g1], ginv[g2]
            inner = hm[hm[hm[t[g1]][actA[q1][t[g2]]]][fA[q1][q2]]][hinv[t[g12]]]
            if fB[g1][g2] != em[inner]:
                return False
        return True

    return next(backtrack(candidates, accept), None)


def equivalence2_map(sysA, sysB, w: Equivalence2Witness) -> tuple[int, ...]:
    """Element map of psi(h, g) = (eta(h t(gamma(g))^-1), gamma(g)) on the products."""
    prodA, prodB = cached_product(sysA), cached_product(sysB)
    hm = sysA.h.table
    hinv = sysA.h.inverse_table
    em, gmap, t = w.eta.map, w.gamma.map, w.t
    out = []
    for idx in prodA.group.elements():
        h, g = prodA.decode(idx)
        out.append(prodB.encode(em[hm[h][hinv[t[gmap[g]]]]], gmap[g]))
    return tuple(out)


def verify_equivalence2_witness(sysA, sysB, w: Equivalence2Witness) -> bool:
    if _witness_laws_hold(sysA, sysB, w):
        psi = equivalence2_map(sysA, sysB, w)
        prodA, prodB = cached_product(sysA), cached_product(sysB)
        return (
            is_homomorphism(prodA.group, prodB.group, psi)
            and len(set(psi)) == prodA.group.order
        )
    return False


def _witness_laws_hold(sysA, sysB, w: Equivalence2Witness) -> bool:
    h, g = sysA.h, sysA.g
    hm = h.table
    hinv = h.inverse_table
    gm = g.table
    actA, actB = sysA.action.perms, sysB.action.perms
    fA, fB = sysA.cocycle.table, sysB.cocycle.table
    em, t = w.eta.map, w.t
    einv = w.eta.inverse_automorphism().map
    ginv = w.gamma.inverse_automorphism().map
    for gi in g.elements():
        q = ginv[gi]
        for x in h.elements():
            if actB[gi][x] != em[hm[hm[t[gi]][actA[q][einv[x]]]][hinv[t[gi]]]]:
                return False
    for g1 in g.elements():
        for g2 in g.elements():
            q1, q2 = ginv[g1], ginv[g2]
            inner = hm[hm[hm[t[g1]][actA[q1][t[g2]]]][fA[q1][q2]]][hinv[t[gm[g1][g2]]]]
            if fB[g1][g2] != em[inner]:
                return False
    return True


def are_equivalent_2(sysA: CrossedSystem, sysB: CrossedSystem) -> Equivalence2Witness | None:
    """Search Aut(H) x Aut(G), then backtrack over the correcting map t."""
    if sysA.h.table != sysB.h.table or sysA.g.table != sysB.g.table:
        raise ValueError("both systems must live on the same (H, G)")
    if not (sysA.normalized and sysB.normalized):
        raise ValueError("both systems must be normalized")
    for eta in automorphism_group(sysA.h):
        for gamma in automorphism_group(sysA.g):
            t = _t_witness_map(sysA, sysB, eta, gamma)
            if t is not None:
                return Equivalence2Witness(eta, gamma, t)
    return None


def compose_equivalence2(w1: Equivalence2Witness, w2: Equivalence2Witness, h: FiniteGroup) -> Equivalence2Witness:
    """Witness A ~ C from A ~ B and B ~ C."""
    eta = Automorphism(h, h, tuple(w2.eta.map[v] for v in w1.eta.map))
    g_grp = w1.gamma.source
    gamma = Automorphism(
        g_grp, g_grp, tuple(w2.gamma.map[v] for v in w1.gamma.map)
    )
    einv1 = w1.eta.inverse_automorphism().map
    ginv2 = w2.gamma.inverse_automorphism().map
    t = tuple(
        h.mul(einv1[w2.t[k]], w1.t[ginv2[k]]) for k in g_grp.elements()
    )
    return Equivalence2Witness(eta, gamma, t)


def invert_equivalence2(w: Equivalence2Witness, h: FiniteGroup) -> Equivalence2Witness:
    eta = w.eta.inverse_automorphism()
    gamma = w.gamma.inverse_automorphism()
    t = tuple(
        w.eta.map[h.inv(w.t[w.gamma.map[k]])] for k in w.gamma.source.elements()
    )
    return Equivalence2Witness(eta, gamma, t)


# classification ----------------------------------------------------------------


@dataclass
class ClassificationReport:
    relation: str
    systems: list[CrossedSystem]
    classes: list[tuple[int, ...]]
    representatives: list[int]
    product_iso_types: list[str]

    def class_count(self) -> int:
        return len(self.classes)

    def partition_of(self) -> dict[int, int]:
        """system index -> class index."""
        out = {}
        for ci, members in enumerate(self.classes):
            for idx in members:
                out[idx] = ci
        return out


def _system_key(sys: CrossedSystem) -> bytes:
    """The system's action rows then its row-major cocycle table, as one key."""
    rows = sys.action.perms + sys.cocycle.table
    return bytes(v for row in rows for v in row)


def _orbit_classes(systems: list[CrossedSystem], index: dict[bytes, int], pairs) -> list[tuple[int, ...]]:
    """Partition sorted `systems` into orbits of the witnesses (eta, gamma, t).

    `pairs` lists the (eta, gamma) to use, t ranging over every map with
    t(1) = 1; `index` maps each system's key to its position.  Each unmarked
    system in turn opens a class and marks its whole orbit, so classes come in
    order of their least member, which is their representative.
    """
    h, g = systems[0].h, systems[0].g
    class_of = [-1] * len(systems)
    classes: list[list[int]] = []
    for i, sys in enumerate(systems):
        if class_of[i] >= 0:
            continue
        ci = len(classes)
        members: list[int] = []
        f_flat = bytes(v for row in sys.cocycle.table for v in row)
        for eta, gamma in pairs:
            actions, cocycles = coboundary_orbit_keys(h, g, sys.action.perms, f_flat, eta, gamma)
            keys = np.concatenate([actions, cocycles], axis=1)
            for key in {row.tobytes() for row in keys}:
                j = index.get(key)
                if j is None or class_of[j] not in (-1, ci):
                    raise InternalInvariantError("a witness orbit left the systems or met another class")
                if class_of[j] < 0:
                    class_of[j] = ci
                    members.append(j)
        classes.append(members)
    return [tuple(sorted(ms)) for ms in classes]


def classify(
    h: FiniteGroup,
    g: FiniteGroup,
    relation: str,
    *,
    workers: int = 1,
    max_pair_order: int = DEFAULT_PAIR_CAP,
) -> ClassificationReport:
    """Partition Crossed(H, G) under eq1, eq2, or product isomorphism.

    eq1 and eq2 classes are orbits: of the maps t: G -> H with t(1) = 1 for
    eq1, and of those together with Aut(H) x Aut(G) for eq2.  Walking the
    sorted systems, each system not yet in a class opens one and marks its
    whole orbit (`coboundary_orbit_keys`), so classes come in order of their
    least member, which is their lexicographically minimal representative.
    iso merges eq2 classes in order, testing `are_isomorphic` on the products
    of class representatives only: an eq2 witness induces a product
    isomorphism (`equivalence2_map`).  Product types are named once per eq2
    class, which holds one product type, and reused for the eq1 classes
    inside it.  `workers` is accepted for compatibility and ignored.
    """
    if relation not in RELATIONS:
        raise ValueError(f"relation must be one of {RELATIONS}")
    systems = enumerate_crossed_systems(h, g, max_pair_order=max_pair_order)
    index = {_system_key(s): i for i, s in enumerate(systems)}
    eq2 = _orbit_classes(
        systems, index, [(eta, gamma) for eta in automorphism_group(h) for gamma in automorphism_group(g)]
    )
    products = [build_product(systems[ms[0]]).group for ms in eq2]
    names = [identify_group(p) for p in products]
    if relation == "eq1":
        eq2_of = {i: k for k, ms in enumerate(eq2) for i in ms}
        classes = _orbit_classes(systems, index, [(None, None)])
        types = [names[eq2_of[ms[0]]] for ms in classes]
    elif relation == "eq2":
        classes, types = eq2, names
    else:
        merged: list[list[int]] = []
        for k, prod in enumerate(products):
            hit = next(
                (
                    ks
                    for ks in merged
                    if names[ks[0]] == names[k] and are_isomorphic(products[ks[0]], prod) is not None
                ),
                None,
            )
            if hit is None:
                merged.append([k])
            else:
                hit.append(k)
        classes = [tuple(sorted(i for k in ks for i in eq2[k])) for ks in merged]
        types = [names[ks[0]] for ks in merged]
    return ClassificationReport(
        relation=relation,
        systems=systems,
        classes=classes,
        representatives=[ms[0] for ms in classes],
        product_iso_types=types,
    )


def _refines(fine: ClassificationReport, coarse: ClassificationReport) -> bool:
    coarse_of = coarse.partition_of()
    for members in fine.classes:
        targets = {coarse_of[i] for i in members}
        if len(targets) != 1:
            return False
    return True


def functor_check(
    h: FiniteGroup, g: FiniteGroup, *, max_pair_order: int = DEFAULT_PAIR_CAP
) -> dict:
    """Verify the refinement chain eq1 -> eq2 -> iso on one pair."""
    rep1 = classify(h, g, "eq1", max_pair_order=max_pair_order)
    rep2 = classify(h, g, "eq2", max_pair_order=max_pair_order)
    rep3 = classify(h, g, "iso", max_pair_order=max_pair_order)
    out = {
        "system_count": len(rep1.systems),
        "eq1_classes": rep1.class_count(),
        "eq2_classes": rep2.class_count(),
        "iso_classes": rep3.class_count(),
        "eq1_refines_eq2": _refines(rep1, rep2),
        "eq2_refines_iso": _refines(rep2, rep3),
    }
    return out
