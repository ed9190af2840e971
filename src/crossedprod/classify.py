"""Enumeration of normalized crossed systems and their equivalence classifications.

The backtracking engine (`_engine`) fixes the unit row and column of the
cocycle and the unit action entry (forced by normalization), then
backtracks over the cocycle cells of one action, checking every axiom
instance as soon as its last argument is assigned.  By the first axiom an
action is a homomorphism G -> Out(H) lifted to Aut(H), so the actions tried
are the lifts (`_lift_products`) of `homomorphism_maps(G, Out(H))`
(`_outer_homomorphisms`), and each cocycle cell's domain, a coset of Z(H),
is read from the Inn(H) table cached on H.  Cells are filled
column-major, which pins most cells immediately from earlier ones and keeps
the engine's search tree close to the solution count.

The block stream has one path per kind of H, whatever the pair's size.
For non-abelian H the systems over one outer action psi: G -> Out(H) are
one orbit under shifts (the source paper's Schreier-type theorem).  The
engine runs on the first lift of each psi only, and every other lift's
block is that block shifted by the t with lift = c_t lift0, in numpy
(`_lifted_systems`).  Abelian H runs no engine.  Its abelian mode (the
generator-only schedule and its CHAIN steps) stays as the input of the
gauge slice's equations (`_slice_plan`) and as the tests' oracle.

For abelian H the cocycles of one action form a group Z^2 under the
pointwise product, and each eq1 class is a coset f B^2 (H^2 = Z^2 / B^2).
Z^2 is the direct product of the gauge slice (the cocycles that are the
unit on a spanning tree of G) and delta(W), the coboundaries of the maps
t that are the unit on the generators.  So only the slice is enumerated,
each member tagged by its class, and each action's block is the slice
times delta(W), sorted into the engine's order, each row carrying its
member's tag (`_algebraic_systems`); B^2 itself is never built.  No search
runs: for cyclic G the slice and its classes have a closed form (carry
cocycles over H^psi, classes H^psi / N(H)); for any other G the slice is
the kernel of the cocycle equations, solved per prime over Z/p^a by a
Howell form (`_linear_slice_classes`).  `classify` reads eq1 off the tags,
and the block stream takes this path for every abelian pair with |G| > 1.

The array paths read each group's cached table arrays (`table_array`,
`inverse_array`), and the uint8 value gathers one uint8 copy of H's tables
(`_byte_tables`) and of Aut(H)'s value tables (`_aut_perms`).  Aut(H) and
Out(H) are groups on their tables (`_aut_tables`), refused, with
CapExceededError, for an H with more than `_MAX_AUTS` automorphisms.

Whichever path runs, the systems come as one block per action
(`_system_blocks`).  `_system_block` joins them into the one sorted key block
that `classify`, `enumerate_crossed_systems` and the CLI read;
`enumerate_raw_systems` is a per-system reader over the blocks.

Both equivalences rest on one law.  eq1 shifts a system by a map t: G -> H
(`shift_system`, `coboundary_orbit_keys`); eq2 relabels its ends by (eta,
gamma) in Aut(H) x Aut(G) (`relabel_system`) and then shifts.  So eq1 classes
are shift orbits, eq2 classes are unions of eq1 classes, iso classes are
unions of eq2 classes, and `are_equivalent_2` is `are_equivalent_1` on the
relabellings.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, InternalInvariantError
from .groups import (
    Automorphism,
    FiniteGroup,
    automorphism_group,
    automorphism_index,
    generating_sequence,
    homomorphism_maps,
    identify_group,
    inner_automorphisms,
    is_homomorphism,
    isomorphic,
)
from .morphisms import _require_same_groups, iter_stabilizing_maps, iter_stabilizing_rows
from .products import cached_product, product_table_np
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


def _byte_tables(h: FiniteGroup):
    """`(hm, hinv)`: H's product table and inverse row in uint8, cached on h,
    the operands of the uint8 value gathers."""
    tables = h._cache.get("byte_tables")
    if tables is None:
        if h.order > 256:
            raise CapExceededError("uint8 value gathers need |H| <= 256")
        tables = h.table_array.astype(np.uint8), h.inverse_array.astype(np.uint8)
        h._cache["byte_tables"] = tables
    return tables


def _aut_perms(x: FiniteGroup) -> "np.ndarray":
    """automorphism_group(x)'s value tables in uint8, one per row, cached on x.

    automorphism_group is sorted by value table, so the rows ascend as byte
    strings (`_key_view`).
    """
    perms = x._cache.get("aut_perms")
    if perms is None:
        perms = np.array([a.map for a in automorphism_group(x)], dtype=np.uint8)
        x._cache["aut_perms"] = perms
    return perms


# `_aut_tables` refuses H with more automorphisms than this: Aut(H) is held as
# a group on its |Aut(H)|^2 composition table, which the engine reads in
# Python.  The benchmark tabulates Aut(H) up to Aut(C2xC2xC2), of order 168,
# and the tests up to Aut(D64), of order 512.
_MAX_AUTS = 1024


def _aut_tables(h: FiniteGroup):
    """`(aut, out, outer, conj_of)`: Aut(H) and Out(H) as groups, cached on h.

    Element i of `aut` is automorphism_group(h)[i], and i j is aut_i after
    aut_j: the table is gathered in numpy, aut_i over every value table for a
    batch of rows i at a time, and ranked by one `np.searchsorted` in the
    ascending value tables.  `out` is Aut(H) / Inn(H), its cosets numbered in
    order of their least index as `quotient` numbers them, read off the same
    table, and `outer` the projection aut -> out as a value table; for
    abelian H, Inn(H) = 1, so `out` is `aut` and `outer` the identity.
    conj_of[i] is the ascending tuple of c in H whose conjugation
    x -> c x c^-1 is aut_i, empty unless aut_i is inner.  Over `_MAX_AUTS`
    automorphisms raise CapExceededError before any table is built.
    """
    tables = h._cache.get("aut_tables")
    if tables is None:
        auts = automorphism_group(h)
        count = len(auts)
        if count > _MAX_AUTS:
            raise CapExceededError(f"|Aut(H)| = {count} exceeds the automorphism table cap {_MAX_AUTS}")
        perms = _aut_perms(h)
        keys = _key_view(perms)
        step = max(1, (1 << 20) // perms.size)   # rows per gather: about 1 MB of compositions
        comp = np.concatenate([
            np.searchsorted(keys, _key_view(perms[i:i + step, perms].reshape(-1, h.order)))
            for i in range(0, count, step)
        ]).reshape(count, count)
        aut = FiniteGroup(f"Aut({h.name})", comp, validate=False)
        inner = inner_automorphisms(h)
        if h.is_abelian:
            out, outer = aut, tuple(range(count))
        else:
            # row c of comp[inn] is c_c aut_a over every a, so its column
            # minima are the least index of each automorphism's coset, and
            # the cosets' least members, numbered in order, are Out(H)
            index = automorphism_index(h)
            least = comp[[index[p] for p in inner]].min(axis=0)
            firsts = least == np.arange(count)
            proj = (np.cumsum(firsts) - 1)[least]
            reps = np.flatnonzero(firsts)
            out = FiniteGroup(f"Out({h.name})", proj[comp[reps][:, reps]], validate=False)
            outer = tuple(proj.tolist())
        tables = aut, out, outer, [inner.get(a.map, ()) for a in auts]
        h._cache["aut_tables"] = tables
    return tables


def _aut_arrays(h: FiniteGroup):
    """`(perms, shift)`: numpy tables over automorphism_group(h), cached on h.

    perms is `_aut_perms(h)`.  shift[i, j] is the first c in H with aut_i =
    c_c aut_j, c_c the conjugation x -> c x c^-1 (read off `_aut_tables`),
    and -1 when aut_i and aut_j lie in different cosets of Inn(H).
    """
    arrays = h._cache.get("aut_arrays")
    if arrays is None:
        aut, _, _, conj_of = _aut_tables(h)
        first = np.array([c[0] if c else -1 for c in conj_of], dtype=np.intp)
        arrays = (_aut_perms(h), first[aut.table_array[:, aut.inverse_array]])
        h._cache["aut_arrays"] = arrays
    return arrays


def _outer_homomorphisms(h: FiniteGroup, g: FiniteGroup):
    """`(psis, cosets)`: the homomorphisms psi: G -> Out(H), and Out(H)'s cosets.

    `psis` lists each psi as its value table into `out` of `_aut_tables`, in
    lexicographic order (`homomorphism_maps`), and `cosets[k]` the
    automorphism indices of coset k of Inn(H) in ascending order.  Cosets
    are numbered in order of their least index, so the order of the psis is
    that of their tuples of least indices.  For abelian H each psi is an
    action, its values automorphism indices.
    """
    _, out, outer, _ = _aut_tables(h)
    cosets: list[list[int]] = [[] for _ in range(out.order)]
    for a, k in enumerate(outer):
        cosets[k].append(a)
    return homomorphism_maps(g, out), cosets


def _lift_products(h: FiniteGroup, g: FiniteGroup) -> list:
    """One iterator per homomorphism psi: G -> Out(H), over its lifts in lexicographic order.

    The lifts of psi are the action tuples with the identity at 1 and any
    member of the coset psi(g) of Inn(H) at g != 1: the product of those
    cosets, each in ascending order (`_outer_homomorphisms`).
    """
    psis, cosets = _outer_homomorphisms(h, g)
    return [itertools.product((0,), *(cosets[label] for label in psi[1:])) for psi in psis]


def enumerate_raw_systems(
    h: FiniteGroup, g: FiniteGroup, visit, *, cap: int = DEFAULT_PAIR_CAP
) -> None:
    """Drive `visit(alpha_indices, f_bytes)` over every normalized crossed system.

    `alpha_indices` indexes into automorphism_group(h) per element of G;
    `f_bytes` is the cocycle table row-major.  Systems are emitted grouped by
    action assignment, actions in lexicographic index order (the lifts of the
    homomorphisms G -> Out(H), `_lift_products`), and within one action in
    lexicographic order of the cocycle read column-major (`g2` outer, `g1`
    inner).

    A per-system reader over the block stream `_system_blocks`, which the
    library's own consumers read directly.
    """
    for alpha, block in _system_blocks(h, g, cap):
        data, size = block.tobytes(), block.shape[1]
        for i in range(0, len(data), size):
            visit(alpha, data[i:i + size])


def _check_pair(h: FiniteGroup, g: FiniteGroup, cap: int) -> None:
    """Raise CapExceededError unless (H, G) may be enumerated under `cap`."""
    n, m = h.order, g.order
    if n * m > cap:
        raise CapExceededError(f"|H|*|G| = {n * m} exceeds cap {cap}")
    if n > 256:
        raise CapExceededError("engine packs cocycle values into bytes; |H| must be <= 256")


def _system_blocks(h: FiniteGroup, g: FiniteGroup, cap: int):
    """Every normalized crossed system on (H, G), one block per action.

    Yields `(alpha, block)` for each action with systems, in the order of
    `enumerate_raw_systems`: `block` is a C-contiguous uint8 array of shape
    (k, |G|^2), one row-major cocycle per row, rows in the stream's order.

    One path per kind of H.  For abelian H each block is Z^2, the gauge
    slice times delta(W), with no search (`_algebraic_systems`).
    Non-abelian H runs the engine on the first lift of each outer action and
    shifts its block onto the other lifts (`_lifted_systems`).  Both give
    the engine's blocks.  G = 1 has one action and one system.
    """
    _check_pair(h, g, cap)
    if g.order == 1:   # one action and one system: no automorphism tables
        return iter([((0,), np.zeros((1, 1), dtype=np.uint8))])
    if h.is_abelian:
        return ((alpha, block) for (alpha, block, _, _) in _algebraic_systems(h, g))
    return _lifted_systems(h, g)


def _engine(h: FiniteGroup, g: FiniteGroup):
    """`leaf(alpha)`: the engine's block of one action tuple, uint8 rows of
    shape (k, |G|^2) in the stream's order, k = 0 when no system has it.

    The domain of cell (g1, g2) is the ascending tuple of c in H conjugating
    like a(g1) a(g2) a(g1 g2)^-1, one lookup in the cached Inn(H) table.

    Cocycle cells are filled column-major; for most cells some axiom instance
    pins the value, which is then computed directly instead of searched.  For
    abelian H (where the weak action is forced to be multiplicative) only
    instances whose third argument is a generator of G are scheduled: the rest
    follow by induction on the word length of the third argument.  A cell that
    no instance pins is FREE and tries its domain in ascending order.  The
    schedule depends on G alone (and on whether H is abelian), so it is built
    once per G and cached on g (`_engine_schedule`); per action only its
    binding to the action's rows and cell domains runs.

    `_lifted_systems` runs it on the first lift of each outer action.
    """
    n, m = h.order, g.order
    auts = automorphism_group(h)
    hm = h.table
    hinv = h.inverse_table
    gm = g.table
    fvals = [0] * (m * m)

    flat, derive_info, rest_info = _engine_schedule(g, h.is_abelian)
    K = len(flat)
    cells = [divmod(i, m) for i in flat]

    # a cell's domain is the coset of Z(H) conjugating like a1 a2 a12^-1 (all
    # of H when H is abelian); a full domain needs no membership test (None),
    # which lets derived cells chain
    aut, _, _, conj_of = _aut_tables(h)
    comp, aut_inv = aut.table, aut.inverse_table
    domset_of = [None if len(d) == n else frozenset(d) for d in conj_of]

    CHAIN, DERIVE, FREE = 0, 1, 2

    def alpha_leaf(alpha) -> bytearray:
        rows = bytearray()
        act = [auts[a].map for a in alpha]
        inner = [comp[comp[alpha[g1]][alpha[g2]]][aut_inv[alpha[gm[g1][g2]]]] for (g1, g2) in cells]
        domains = [conj_of[a] for a in inner]
        domsets = [domset_of[a] for a in inner]
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
        fv = fvals
        ptr = [0] * (nsteps + 1)
        k = 0
        while k >= 0:
            if k == nsteps:
                rows.extend(fv)
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
        return rows

    return lambda alpha: np.frombuffer(alpha_leaf(alpha), dtype=np.uint8).reshape(-1, m * m)


def _engine_schedule(g: FiniteGroup, abelian_h: bool):
    """`(flat, derive_info, rest_info)`: the engine's cell schedule on G, cached on g.

    The cells (g1, g2) off the unit row and column are numbered column-major
    (g2 outer), cell k at flat position `flat[k]` = g1 |G| + g2.  An axiom
    instance (g1, g2, g3), none of them the unit, is

        f(g1, g2) f(g1 g2, g3) = g1(f(g2, g3)) f(g1, g2 g3)

    written `(iA, iB, iC, iD, g1)` with the flat positions of its four cells,
    and is listed at the highest-numbered cell it involves (a cell in the
    unit row or column holds the unit), in (g1, g2, g3) order.  For abelian
    H only the instances whose g3 is in `generating_sequence(g)` are listed.
    Of the instances listed at cell k, the first that holds cell k exactly
    once derives it: `derive_info[k]` is `(mode, iA, iB, iC, iD, g1)`, mode
    0-3 naming which of the four is cell k, or None if no instance derives
    it.  `rest_info[k]` lists the other instances, in order.
    """
    key = ("schedule", abelian_h)
    schedule = g._cache.get(key)
    if schedule is None:
        m = g.order
        third = generating_sequence(g) if abelian_h else list(range(1, m))
        gm = g.table
        number = [-1] * (m * m)   # cell number by flat position, -1 off the cells
        flat = []
        for g2 in range(1, m):
            for g1 in range(1, m):
                number[g1 * m + g2] = len(flat)
                flat.append(g1 * m + g2)
        listed = [[] for _ in flat]
        for g1 in range(1, m):
            row1, base1 = gm[g1], g1 * m
            for g2 in range(1, m):
                iA, b12, base2, row2 = base1 + g2, row1[g2] * m, g2 * m, gm[g2]
                for g3 in third:
                    iB, iC, iD = b12 + g3, base2 + g3, base1 + row2[g3]
                    listed[max(number[iA], number[iB], number[iC], number[iD])].append((iA, iB, iC, iD, g1))
        derive_info, rest_info = [], []
        for target, insts in zip(flat, listed):
            for k, inst in enumerate(insts):
                if inst[:4].count(target) == 1:
                    derive_info.append((inst.index(target), *inst))
                    rest_info.append(insts[:k] + insts[k + 1:])
                    break
            else:
                derive_info.append(None)
                rest_info.append(insts)
        schedule = (flat, derive_info, rest_info)
        g._cache[key] = schedule
    return schedule


def system_from_raw(
    h: FiniteGroup, g: FiniteGroup, alpha_indices: tuple[int, ...], f_flat
) -> CrossedSystem:
    """Materialize an engine record; validity is guaranteed by construction.

    `f_flat` is the row-major cocycle table: the engine's bytes, which
    already iterate as ints, or any sequence of integers.  One pass over it
    cuts the rows.

    The last call's `WeakAction` is kept on h, with g (by identity) and the
    alpha it was built for, and reused when both match.  Every stream emits
    the systems of one action together, so its systems share one action
    object and the facts cached on it (`perms`, `center_plan`).
    """
    alpha = tuple(alpha_indices)
    last = h._cache.get("raw_action")
    if last is not None and last[0] is g and last[1] == alpha:
        action = last[2]
    else:
        auts = automorphism_group(h)
        action = WeakAction(g, h, tuple(auts[a] for a in alpha))
        h._cache["raw_action"] = (g, alpha, action)
    values = f_flat if isinstance(f_flat, (bytes, bytearray)) else map(int, f_flat)
    rows = tuple(zip(*[iter(values)] * g.order))
    return CrossedSystem(h, g, action, Cocycle(g, h, rows), normalized=True)


def enumerate_crossed_systems(
    h: FiniteGroup, g: FiniteGroup, *, max_pair_order: int = DEFAULT_PAIR_CAP
) -> list[CrossedSystem]:
    """All normalized crossed systems on (H, G), sorted by encoding (`_system_block`)."""
    return list(_system_block(h, g, max_pair_order))


# shifts and relabellings -----------------------------------------------------


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


def relabel_system(sys: CrossedSystem, eta: Automorphism, gamma: Automorphism) -> CrossedSystem:
    """The system that the witness (eta, gamma, 1) relates to `sys`.

    It has act_B(g) = eta act(gamma^-1 g) eta^-1 and f_B(g1, g2) =
    eta(f(gamma^-1 g1, gamma^-1 g2)).  Relabelling both ends by automorphisms
    keeps both axioms and f(1, 1) = 1, so the output is valid, and normalized
    when `sys` is.  By `compose_equivalence2` a witness (eta, gamma, t) is this
    relabelling followed by the end-stabilizing shift by eta t
    (`coboundary_orbit_keys`), so every eq2 question reduces to eq1.
    """
    h, g = sys.h, sys.g
    em = eta.map
    einv = eta.inverse_automorphism().map
    ginv = gamma.inverse_automorphism().map
    act = sys.action.perms
    f = sys.cocycle.table
    perms = tuple(Automorphism(h, h, tuple(em[act[q][x]] for x in einv)) for q in ginv)
    rows = tuple(tuple(em[f[q1][q2]] for q2 in ginv) for q1 in ginv)
    return CrossedSystem(h, g, WeakAction(g, h, perms), Cocycle(g, h, rows), sys.normalized)


def _relabellings(h: FiniteGroup, g: FiniteGroup):
    """`(eta, eta_inv, gamma_inv)`: value tables of every (eta, gamma) in Aut(H) x Aut(G).

    Row p of each array, of shape (P, |H|), (P, |H|) and (P, |G|) with
    P = |Aut(H)| |Aut(G)|, is eta_p, eta_p^-1 and gamma_p^-1, with eta
    outer and gamma inner, both in `automorphism_group` order; eta is uint8
    (`_aut_perms`), the inverses intp.
    """
    eta, gamma = _aut_perms(h), _aut_perms(g)
    count = len(gamma)
    return (
        np.repeat(eta, count, axis=0),
        np.repeat(np.argsort(eta, axis=1), count, axis=0),
        np.tile(np.argsort(gamma, axis=1), (len(eta), 1)),
    )


def _relabel_rows(act, f, eta, eta_inv, gamma_inv) -> tuple["np.ndarray", "np.ndarray"]:
    """The rows of every relabelling of one system (`relabel_system`), one gather.

    `act` (|G|, |H|) and `f` (|G|, |G|) are the system's action rows and
    cocycle table; `eta`, `eta_inv`, `gamma_inv` are as `_relabellings`
    gives them.  Row p of the output is the system with

        act_B(g)(x)  = eta_p(act(gamma_p^-1 g)(eta_p^-1 x))
        f_B(g1, g2) = eta_p(f(gamma_p^-1 g1, gamma_p^-1 g2))

    Returns `(actions, cocycles)` of shape (P, |G||H|) and (P, |G|^2), in
    the dtype of `eta`.
    """
    count = len(eta)
    p = np.arange(count)[:, None, None]
    q = gamma_inv[:, :, None]
    actions = eta[p, act[q, eta_inv[:, None, :]]]
    cocycles = eta[p, f[q, gamma_inv[:, None, :]]]
    return actions.reshape(count, -1), cocycles.reshape(count, -1)


def coboundary_orbit_keys(
    h: FiniteGroup, g: FiniteGroup, act_rows, f_flat: bytes, t_rows=None
) -> tuple["np.ndarray", "np.ndarray"]:
    """Keys of every system that an end-stabilizing shift relates to one system.

    By default row k stands for the map t: G -> H with t(1) = 1 whose value at
    element gi > 0 is digit gi - 1 of k in base |H| (`_all_shifts`); `t_rows`,
    an integer array of shape (rows, |G|) with t(1) = 1 in column 0, gives the
    maps t to use instead, one per row.  Row k holds the system B with

        act_B(g)(x)  = t(g) act(g)(x) t(g)^-1
        f_B(g1, g2) = t(g1) act(g1)(t(g2)) f(g1, g2) t(g1 g2)^-1

    which is the eq1 witness r = t^-1 (`verify_equivalence1_witness`), so the
    rows list the whole eq1 orbit.  Returns `(actions, cocycles)`: uint8
    arrays of shape (rows, |G||H|) and (rows, |G|^2), rows = |H|^(|G|-1) by
    default, whose rows are B's action rows and row-major cocycle table,
    duplicates included, each computed in one broadcast gather over all rows.
    For abelian H the action does not depend on t, so `actions` is then a
    read-only broadcast of one row.
    """
    n, m = h.order, g.order
    hm, hinv = _byte_tables(h)
    act = np.asarray(act_rows, dtype=np.uint8).reshape(m, n)
    t = (_all_shifts(n, m) if t_rows is None else np.asarray(t_rows)).astype(np.uint8, copy=False)
    count = len(t)

    if h.is_abelian:
        actions = np.broadcast_to(act.reshape(1, m * n), (count, m * n))
    else:
        actions = _mul(hm, _mul(hm, t[:, :, None], act), hinv[t][:, :, None]).reshape(count, m * n)
    left, right = _shift_factors(h, g, act, np.arange(m), t)
    return actions, _mul(hm, _mul(hm, left, np.frombuffer(f_flat, dtype=np.uint8)), right)


def _shift_factors(h: FiniteGroup, g: FiniteGroup, perms, alpha, t) -> tuple["np.ndarray", "np.ndarray"]:
    """`(left, right)`: the shift by t sends a cocycle f to left f right.

    Row i of `t`, an integer array of shape (k, |G|), is a map t: G -> H with
    t(1) = 1.  The action is read off the uint8 value rows `perms`: act(g) is
    perms[alpha[g]] for every map when `alpha` has shape (|G|,), and
    perms[alpha[i, g]] for map i when it has shape (k, |G|).  Row i of both
    outputs, uint8 of shape (k, |G|^2), is read row-major over (g1, g2):

        left  = t(g1) act(g1)(t(g2))
        right = t(g1 g2)^-1
    """
    hm, hinv = _byte_tables(h)
    shape = (len(t), g.order ** 2)
    if alpha.ndim == 1:
        moved = perms[alpha].T[t].transpose(0, 2, 1)   # [i, g1, g2] = act(g1)(t(g2))
    else:
        moved = perms.ravel().take(alpha[:, :, None] * h.order + t[:, None, :])
    return _mul(hm, t[:, :, None], moved).reshape(shape), hinv[t][:, g.table_array].reshape(shape)


def _mul(hm: "np.ndarray", a, b) -> "np.ndarray":
    """hm[a, b] for H's uint8 product table `hm`, elementwise with
    broadcasting, as takes on the flat table.

    The flat index a |H| + b is formed in uint16 (a, b < |H| <= 256).  `take`
    copies its index to intp, 8 bytes a cell, so a gather of more than
    `_CHUNK` cells takes into its uint8 output one flat chunk of `_CHUNK`
    cells at a time, and only a chunk is ever copied.
    """
    flat = hm.ravel()
    index = np.add(a.astype(np.uint16) * len(hm), b, dtype=np.uint16, casting="unsafe")
    if index.size <= _CHUNK:
        return flat.take(index)
    out = np.empty(index.shape, dtype=np.uint8)
    cells, target = index.reshape(-1), out.reshape(-1)
    for start in range(0, len(cells), _CHUNK):
        flat.take(cells[start:start + _CHUNK], out=target[start:start + _CHUNK])
    return out


def _all_shifts(n: int, m: int) -> "np.ndarray":
    """Every map t: G -> H with t(1) = 1, one per uint8 row (|H| <= 256) of
    shape (|H|^(|G|-1), |G|).

    Row k has, at element gi > 0, digit gi - 1 of k in base |H|: the grid of
    `np.indices`, whose last axis varies fastest, read right to left.
    """
    t = np.zeros((n ** (m - 1), m), dtype=np.uint8)
    t[:, :0:-1] = np.indices((n,) * (m - 1), dtype=np.uint8).reshape(m - 1, n ** (m - 1)).T
    return t


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


def _gauge_shifts(h: FiniteGroup, acts, gens, edges) -> "np.ndarray":
    """The maps t of T0 under each of A actions, uint8 (A, |H|^len(gens), |G|).

    T0 holds the maps t: G -> H with t(1) = 1, any values on the generators,
    and t(p s) = t(p) act(p)(t(s)) on every tree edge (`_gauge_tree`):
    exactly the shifts whose coboundary is the unit on every tree cell
    (p, s), so for abelian H they move a cocycle of the gauge slice only
    within the slice.  `acts` holds the uint8 value rows (A, |G|, |H|) of
    the actions; map k takes digit j of k in base |H| on generator j
    (`_all_shifts`) under every action.
    """
    count, m, n = acts.shape
    hm = _byte_tables(h)[0]
    rows = acts.reshape(count, m * n)
    values = _all_shifts(n, len(gens) + 1)[:, 1:]
    t = np.zeros((count, len(values), m), dtype=np.uint8)
    t[:, :, gens] = values
    for (x, p, s) in edges:
        t[:, :, x] = _mul(hm, t[:, :, p], rows[np.arange(count)[:, None], p * n + t[:, :, s]])
    return t


def _gauge_slice_classes(h: FiniteGroup, g: FiniteGroup):
    """Yield `(alpha, act_rows, members, tags, orbit)` per action: the gauge
    slice, each member tagged by its class f B^2.

    For abelian H, the actions are the homomorphisms G -> Aut(H) in
    lexicographic order (`_outer_homomorphisms`), and `act_rows` their uint8
    value rows of shape (|G|, |H|), read off `_aut_perms`.  `members` holds
    the action's whole gauge slice, uint8 rows of shape (s, |G|^2), one
    row-major cocycle each, in the engine's order.  `tags[i]` is the index
    of member i's class in order of first appearance, so the first member
    of each tag is its class's least slice member.  B0, the coboundaries of
    T0 (`_gauge_shifts`), lies in the slice, and each class meets it in a
    coset f B0.  `orbit` is |B^2| of the action, the size of every class:
    B^2 is the image of the |H|^(|G|-1) maps t, and its kernel Z^1 lies in
    T0, so |B^2| = |H|^(|G|-1-#generators) |B0|.  Cyclic G (one generator)
    reads the classes off in closed form (`_cyclic_slice_classes`); any
    other G solves the cocycle equations by linear algebra
    (`_linear_slice_classes`).
    """
    # The closed form stays for cyclic G: with the Howell form on cyclic G
    # too, the `holder-sweep` benchmark's `wall_s` went 0.082 -> 0.176 s and
    # its `request_p50_ms` 0.42 -> 1.05 ms (6 of 6 alternating pairs of runs).
    gens = generating_sequence(g)
    if len(gens) == 1:
        return _cyclic_slice_classes(h, g, gens[0])
    return _linear_slice_classes(h, g)


def _cyclic_slice_classes(h: FiniteGroup, g: FiniteGroup, b: int):
    """`_gauge_slice_classes` for G = <b>, in closed form.

    The gauge tree's cells are (b^k, b) for 0 < k < |G| - 1.  A normalized
    cocycle that is the unit on them is the carry cocycle
    f_c(b^x, b^y) = c^[x + y >= |G|] (0 <= x, y < |G|), and f_c is a cocycle
    exactly when c is in H^psi, the elements fixed by psi = act(b).  The
    engine's order reads the first carry cell first, so the slice is f_c for
    c in H^psi ascending.  A map t of T0 with t(b) = s has coboundary f_N(s),
    N(s) = s psi(s) ... psi^(|G|-1)(s), so the classes are the cosets of
    N(H) in H^psi (H^2 = H^psi / N(H), K. S. Brown, Cohomology of Groups,
    III.1 and IV.6): each c not yet tagged opens a class and tags c N(H).
    """
    n, m = h.order, g.order
    hm, gm = h.table, g.table
    alphas = _outer_homomorphisms(h, g)[0]   # first: it refuses an H over `_MAX_AUTS`
    log = [0] * m
    x = b
    for k in range(1, m):
        log[x] = k
        x = gm[x][b]
    logs = np.array(log)
    carry = (logs[:, None] + logs >= m).ravel().astype(np.uint8)
    acts = _aut_perms(h)[np.array(alphas, dtype=np.intp).reshape(-1, m)]
    for alpha, act_rows, psi in zip(alphas, acts, acts[:, b].tolist()):
        norms = set()
        for s in range(n):
            acc = y = s
            for _ in range(m - 1):
                y = psi[y]
                acc = hm[acc][y]
            norms.add(acc)
        tag_of = [-1] * n
        fixed, tags, classes = [], [], 0
        for c in range(n):
            if psi[c] == c:
                if tag_of[c] < 0:
                    for v in norms:
                        tag_of[hm[c][v]] = classes
                    classes += 1
                fixed.append(c)
                tags.append(tag_of[c])
        members = np.array(fixed, dtype=np.uint8)[:, None] * carry
        yield alpha, act_rows, members, np.array(tags), n ** (m - 2) * len(norms)


def _abelian_coordinates(h: FiniteGroup):
    """`(basis, degrees, coords, label_of, primes)`: abelian H as a sum of
    cyclic groups of prime-power order, cached on h.

    H is the direct sum of the <e_i>, `basis` = [e_i] (uint8), and
    `degrees[i]` = |e_i|.  For each prime p the e_i of H's p-part are chosen
    greedily: the least element of largest order whose cyclic group meets the
    span of the earlier ones trivially (its subgroup of order p lies outside
    the span).  Such an element generates a direct summand of a complement,
    so the greedy choice always ends in a basis.  `coords[x]` holds x's
    coordinates, x = sum c_i e_i with 0 <= c_i < degrees[i], and
    `label_of` = (labels, strides) maps them back: x = labels[sum c_i
    strides[i]].  `primes` lists `(p, q, idx)` per prime: the positions idx
    of its coordinates and q = p^a the largest degree among them.
    """
    cached = h._cache.get("abelian_coordinates")
    if cached is None:
        n, hm = h.order, h.table
        orders = h.element_orders
        basis, primes = [], []
        rest, p = n, 2
        while rest > 1:
            if rest % p:
                p += 1
                continue
            part = 1
            while rest % p == 0:
                rest, part = rest // p, part * p
            members = [x for x in range(n) if part % orders[x] == 0]   # H's p-part
            start, span = len(basis), {0}
            while len(span) < part:
                e = max(
                    (x for x in members if h.power(x, orders[x] // p) not in span),
                    key=lambda x: (orders[x], -x),
                )
                basis.append(e)
                span = {hm[y][z] for y in span for z in _powers(h, e)}
            primes.append((p, max(orders[e] for e in basis[start:]), np.arange(start, len(basis))))
        label_of = [0]
        for e in basis:
            label_of = [hm[x][z] for x in label_of for z in _powers(h, e)]
        degrees = np.array([orders[e] for e in basis], dtype=np.intp)
        strides = n // np.cumprod(degrees)   # the product of the later degrees
        coords = np.empty((n, len(basis)), dtype=np.intp)
        coords[label_of] = np.arange(n)[:, None] // strides % degrees
        labels = (np.array(label_of, dtype=np.uint8), strides)
        cached = (np.array(basis, dtype=np.uint8), degrees, coords, labels, primes)
        h._cache["abelian_coordinates"] = cached
    return cached


def _powers(h: FiniteGroup, e: int) -> list[int]:
    """e^0, e^1, ..., e^(|e| - 1)."""
    out = [0]
    for _ in range(h.element_orders[e] - 1):
        out.append(h.table[out[-1]][e])
    return out


def _slice_plan(g: FiniteGroup):
    """`(free, levels, checks)`: the gauge slice's cocycle equations on G, cached on g.

    Read off the engine's schedule for abelian H (`_engine_schedule`), whose
    instances (g1, g2, g3) have a generator as g3, with the unit on the tree
    cells of `_gauge_tree(g)`.  `free` holds the flat positions of the cells
    that no instance derives and that are off the tree, in cell order: the
    slice's unknowns.  Every other cell off the unit row and column is
    derived, a function of earlier cells.  `levels` groups the derived cells
    by depth (one deeper than the deepest derived cell they read), so one
    level is filled at once (`_slice_fill`): per level `(cells, quad, g1,
    after)`, the cells' flat positions, the flat positions (4, L) of the
    deriving instance's cells A, B, C, D, its g1, and 3 g1 + kind, kind the
    map that turns the instance's residual into the cell (0: inverse, 1:
    g1^-1, 2: itself).  `checks` is `(quad, g1)` of every other instance,
    each of which must hold; a derived tree cell adds the instance on
    (cell, 1, 1, 1) with g1 = 1, which holds exactly when the cell is the
    unit.
    """
    plan = g._cache.get("slice_plan")
    if plan is None:
        m = g.order
        flat, derive_info, rest_info = _engine_schedule(g, True)
        tree = {p * m + s for (_, p, s) in _gauge_tree(g)[1]}
        free, checks, by_depth = [], [], []
        depth = [0] * (m * m)
        for i, derive, rest in zip(flat, derive_info, rest_info):
            checks += rest
            if derive is None:
                if i not in tree:
                    free.append(i)
                continue
            mode, iA, iB, iC, iD, g1 = derive
            d = depth[i] = 1 + max(depth[iA], depth[iB], depth[iC], depth[iD])   # depth[i] is still 0
            if d > len(by_depth):
                by_depth.append([])
            by_depth[d - 1].append((i, iA, iB, iC, iD, g1, 3 * g1 + (mode >= 2) + (mode == 3)))
            if i in tree:
                checks.append((i, 0, 0, 0, 0))
        levels = [
            (level[:, 0], level[:, 1:5].T, level[:, 5], level[:, 6])
            for level in (np.array(cells, dtype=np.intp) for cells in by_depth)
        ]
        checks = np.array(checks, dtype=np.intp).reshape(-1, 5)
        plan = (np.array(free, dtype=np.intp), levels, (checks[:, :4].T, checks[:, 4]))
        g._cache["slice_plan"] = plan
    return plan


def _slice_fill(h: FiniteGroup, acts, which, levels, rows) -> "np.ndarray":
    """uint8 `rows` (k, |G|^2), the unit off the free cells, with every
    derived cell of `_slice_plan` filled in, level by level (in place).

    Row j is read under the action `acts[which[j]]` (`acts`: uint8 value
    rows (A, |G|, |H|)).  A derived cell is the one unknown of its instance
    f(g1, g2) f(g1 g2, g3) = g1(f(g2, g3)) f(g1, g2 g3); with the cell still
    at the unit, the instance's residual A B (g1(C) D)^-1 (`_residual`) is
    the cell's inverse (modes 0, 1), g1 of the cell (mode 2) or the cell
    (mode 3), read off one table per (action, g1) of those three maps.
    """
    count, m, n = acts.shape
    after = np.empty((count, m, 3, n), dtype=np.uint8)
    after[:, :, 0] = _byte_tables(h)[1]
    after[:, :, 1] = np.argsort(acts, axis=2)
    after[:, :, 2] = np.arange(n)
    after = after.ravel()
    base = which[:, None] * (m * n)
    for (i, quad, g1, table) in levels:
        value = _residual(h, acts, base + g1 * n, rows[:, quad])
        rows[:, i] = after.take(3 * base + table * n + value)
    return rows


def _residual(h: FiniteGroup, acts, at, quads) -> "np.ndarray":
    """A B (g1(C) D)^-1 of instances on uint8 `quads` (k, 4, E), their cells
    (A, B, C, D) gathered from k rows; the unit where an instance holds.
    `at` (k, E) is the offset of g1's value row of each row's action in
    `acts.ravel()` (`_slice_fill`)."""
    hm, hinv = _byte_tables(h)
    a, b, c, d = quads.transpose(1, 0, 2)
    return hm[hm[a, b], hinv[hm[acts.ravel().take(at + c), d]]]


def _howell_kernels(mats: "np.ndarray", p: int, q: int) -> list:
    """Per matrix M of `mats` (A, k, E), the generators of {c : c M = 0 (mod q)},
    q = p^a, one per row of an intp array (r, k).

    Each [M | 1] is brought to Howell form over Z/q (Storjohann and Mulders,
    *Fast algorithms for linear algebra modulo N*, ESA 1998), all A at once.
    Z/q is a chain ring, so a pivot is the entry of least p-valuation in the
    first column with an entry left, scaled to a power p^v, and clears the
    rest of its column.  Unless q is prime, the pivot row times p^(a - v),
    which vanishes on the pivot column, joins the rows still to be reduced.
    Then the rows that are zero on M's columns span every row of the module
    that is, so their right-hand parts span the kernel.
    """
    count, rows, width = mats.shape
    work = np.zeros((count, rows, width + rows), dtype=np.int64)
    work[:, :, :width] = mats % q
    work[:, :, width:] = np.eye(rows, dtype=np.int64)
    # per entry x of Z/q: its p-valuation v (q at 0, which no pivot takes), p^v,
    # and the inverse of the unit x / p^v
    valuation = [q] + [next(v for v in range(q) if x % p ** (v + 1)) for x in range(1, q)]
    step = np.array([1] + [p ** v for v in valuation[1:]])
    unit_inverse = np.array([pow(x // int(step[x]), -1, q) if x else 1 for x in range(q)])
    valuation = np.array(valuation)
    every = np.arange(count)
    r = 0
    while True:
        rest = work[:, r:]
        live = rest[:, :, :width].any(axis=1)
        if not live.any():
            break
        column = rest[every, :, live.argmax(axis=1)]   # an exhausted matrix reads zeros: no change
        i = valuation[column].argmin(axis=1)
        entry = column[every, i]
        pivot = rest[every, i] * unit_inverse[entry][:, None] % q
        if q > p:   # the pivot is p^v, and its column holds multiples of p^v
            column //= step[entry][:, None]
        rest -= column[:, :, None] * pivot[:, None]
        rest %= q
        rest[every, i] = rest[:, 0]   # the pivot's own row is now zero
        rest[:, 0] = pivot
        if q > p:
            work = np.concatenate([work, (pivot * (q // step[entry])[:, None] % q)[:, None]], axis=1)
        r += 1
    kept = ~work[:, :, :width].any(axis=2) & work[:, :, width:].any(axis=2)
    return [block[mask, width:] for block, mask in zip(work, kept)]


def _closure(hm: "np.ndarray", group: "np.ndarray", generators) -> "np.ndarray":
    """The group that the uint8 rows `generators` generate over `group`.

    `group` (uint8 rows, the unit first) is a subgroup of the pointwise
    product over H's uint8 table `hm`.  Each generator c adjoins the cosets
    group c^k up to the first power of c already in the group, so memory
    follows the result.  Each coset group c^k, k > 0, lies outside the group
    before it and holds whole cosets of the first `group`, in runs: member i
    lies in coset i // len(group) of the first group.
    """
    for c in generators:
        cosets = [group]
        step = hm[group, c]
        while not (group == step[0]).all(axis=1).any():
            cosets.append(step)
            step = hm[step, c]
        if len(cosets) > 1:
            group = np.concatenate(cosets)
    return group


def _linear_slice_classes(h: FiniteGroup, g: FiniteGroup):
    """`_gauge_slice_classes` for any G, by linear algebra over Z/p^a.

    H is a sum of cyclic groups Z/p^a (`_abelian_coordinates`), a cocycle a
    vector over them, and the gauge slice the solutions of the cocycle
    equations with the unit on the tree cells (`_slice_plan`).  The slice is
    the direct sum of its parts in H's p-parts, each solved on its own.  A
    slice cocycle is fixed by its free cells, each derived cell being a
    function of earlier cells, and every equation is linear in them:
    filling the derived cells of each basis vector (e_i of the p-part on
    one free cell) gives every equation's value on it (`_slice_fill`,
    `_residual`), and the kernel of those values (`_howell_kernels`) gives
    the slice's generators.  A kernel vector c stands for the slice cocycle
    sum c_j (basis vector j), read off the filled basis vectors in
    coordinates.  H = 1 has no p-part: its slice is the unit cocycle.  The
    T0-orbit of a slice cocycle f is f B0, B0 the coboundaries of the maps
    of T0 (`_gauge_shifts`, `_shift_factors`), and the slice is built over
    B0 (`_closure`), so each run of |B0| members is a class.  The slice is
    sorted by the cocycle read column-major, which is the engine's order,
    and its classes numbered in order of first appearance.  Every action is
    filled, solved and shifted in the same arrays; only the closure runs per
    action.
    """
    n, m = h.order, g.order
    hm = _byte_tables(h)[0]
    basis, degrees, coords, (labels, strides), primes = _abelian_coordinates(h)
    gens, edges = _gauge_tree(g)
    alphas = _outer_homomorphisms(h, g)[0]
    alpha_rows = np.array(alphas, dtype=np.intp)
    acts = _aut_perms(h)[alpha_rows]
    count = len(alphas)
    generators = [[] for _ in alphas]   # per action, per prime: the slice's generators
    for (p, q, idx) in primes:
        free, levels, (quad, g1) = _slice_plan(g)   # in the loop: H = 1 builds no plan
        k, r = len(free), len(idx)
        # row (a k + v) r + i: e_i of the p-part on free cell v, the unit elsewhere, under action a
        seeds = np.zeros((count, k, r, m * m), dtype=np.uint8)
        seeds[:, np.arange(k)[:, None], np.arange(r), free[:, None]] = basis[idx]
        which = np.repeat(np.arange(count), k * r)
        filled = _slice_fill(h, acts, which, levels, seeds.reshape(-1, m * m))
        values = coords[_residual(h, acts, (which[:, None] * m + g1) * n, filled[:, quad])][..., idx]
        mats = (values * (q // degrees[idx])).reshape(count, k * r, len(g1) * r)   # equation e, coordinate j at e r + j
        filled = coords[filled][..., idx].reshape(count, k * r, m * m * r)
        for a, kernel in enumerate(_howell_kernels(mats, p, q)):
            digits = (kernel @ filled[a]).reshape(len(kernel), m * m, r) % degrees[idx]
            generators[a].append(labels[digits @ strides[idx]])
    t = _gauge_shifts(h, acts, gens, edges)
    left, right = _shift_factors(h, g, _aut_perms(h), np.repeat(alpha_rows, t.shape[1], axis=0), t.reshape(-1, m))
    shifts = _mul(hm, left, right).reshape(count, -1, m * m)   # the coboundary of each map of T0
    for a in range(count):
        b0 = np.unique(_key_view(shifts[a])).view(np.uint8).reshape(-1, m * m)   # ascending: the unit first
        members = _closure(hm, b0, itertools.chain.from_iterable(generators[a]))
        order = _column_order(members[None], m)[0]
        orbit = n ** (m - 1 - len(gens)) * len(b0)
        yield alphas[a], acts[a], members[order], _by_first_appearance(order // len(b0)), orbit


def _by_first_appearance(labels: "np.ndarray") -> "np.ndarray":
    """Integer `labels` renumbered 0, 1, ... in order of first appearance."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def _cocycle_blocks(h: FiniteGroup, g: FiniteGroup, batch, w):
    """Yield `(alpha, block, tags, orbit)` per action of `batch`, the
    `_gauge_slice_classes` items of some actions: Z^2 of each, in the
    engine's order.

    Z^2 is the direct product of the gauge slice and delta(W), W the maps t
    with t(1) = 1 that are the unit on the generators, one per row of `w`: a
    shift by a map of W moves any cocycle into the slice, and only the unit
    map of W has its coboundary there (both down the gauge tree).  So each
    block is one table lookup with no duplicates, the action's slice against
    its own delta(W) (delta(W) taken under every action at once), and each
    row, in its member's class since delta(W) lies in B^2, carries its tag.
    The rows are sorted by action, then by the cocycle read column-major, the
    engine's cell schedule: every derived cell is a function of earlier
    cells, so two systems first differ on a FREE cell, whose domain the
    engine tries in ascending order.  Each lookup is copied into the sort
    keys as it is made and the blocks are read back off the sorted keys, so
    the batch never holds its rows beside its keys; delta(W) is built about
    `_CHUNK` cells at a time.
    """
    if not batch:
        return
    m = g.order
    hm, hinv = _byte_tables(h)
    alphas, acts, members, tags, orbits = zip(*batch)
    d = len(w)
    # t(g1) act(g1)(t(g2)) t(g1 g2)^-1 for each t of W, cells column-major
    # (t, g2, g1): the outer factors are the same under every action, the
    # middle one is act[g1, t(g2)]
    stacked = np.stack(acts)
    delta_w = np.empty((len(batch), d, m, m), dtype=np.uint8)
    step = max(1, _CHUNK // (m * m))
    for lo in range(0, d, step):
        part = w[lo:lo + step]
        outer = _mul(hm, part[:, None, :], hinv[part][:, g.table_array.T])
        delta_w[:, lo:lo + step] = _mul(hm, outer, stacked[:, :, part].transpose(0, 2, 3, 1))
    counts = [len(x) for x in members]
    # the sort key: the action's number (two bytes, big-endian: a batch holds at
    # most `_BATCH` actions), then the cells column-major
    keys = np.empty((sum(counts) * d, 2 + m * m), dtype=np.uint8)
    keys[:, :2] = np.repeat(np.arange(len(batch), dtype=">u2"), np.multiply(counts, d))[:, None].view(np.uint8)
    cells = keys[:, 2:].reshape(-1, d, m, m)   # [member, t, g2, g1]
    # the slice members, cells column-major
    columns = np.ascontiguousarray(np.concatenate(members).reshape(-1, m, m).transpose(0, 2, 1))[:, None]
    if cells.size <= _CHUNK:   # one lookup: a batch of small blocks would pay a gather per action
        cells[...] = _mul(hm, columns, delta_w[np.repeat(np.arange(len(batch)), counts)])
    else:
        start = 0
        for count, delta in zip(counts, delta_w):
            cells[start:start + count] = _mul(hm, columns[start:start + count], delta)
            start += count
    order = np.argsort(keys.view(f"V{2 + m * m}").ravel())
    block = keys.take(order, axis=0)[:, 2:].reshape(-1, m, m).transpose(0, 2, 1).reshape(-1, m * m)
    row_tags = np.concatenate(tags)[order // d]
    start = 0
    for alpha, count, orbit in zip(alphas, counts, orbits):
        end = start + count * d
        yield alpha, block[start:end], row_tags[start:end], orbit
        start = end


def _column_order(blocks: "np.ndarray", m: int) -> "np.ndarray":
    """The order that sorts each block of uint8 `blocks` (b, k, |G|^2) by the
    cocycle read column-major: one void-dtype argsort along the rows."""
    b, k, width = blocks.shape
    # the slice members, cells column-major
    columns = np.ascontiguousarray(blocks.reshape(b, k, m, m).transpose(0, 1, 3, 2))
    return np.argsort(columns.reshape(b, k, width).view(f"V{width}").reshape(b, k), axis=1)


# The block paths build about this many systems at once (`_algebraic_systems`
# multiplies slices by delta(W), `_lifted_systems` shifts blocks), so their
# memory follows one batch, never the stream
_BATCH = 4096
# The uint8 gathers work on about this many cells at a time: `_mul` takes a
# larger gather in flat chunks of this size, so its intp index copy stays one
# chunk, and `_cocycle_blocks` builds delta(W) in pieces of this size
_CHUNK = 1 << 16


def _algebraic_systems(h: FiniteGroup, g: FiniteGroup):
    """Yield `(alpha, block, tags, orbit)` for abelian H, one Z^2 block per action.

    The gauge slice gives each action's slice, tagged by class, and |B^2|
    (`_gauge_slice_classes`); `_cocycle_blocks` multiplies the slices of a
    batch of actions, about `_BATCH` systems, by delta(W) and sorts each
    block into the engine's order, so the blocks are the engine's.
    `tags[i]` numbers row i's eq1 class within the action, and each class
    holds `orbit` rows.  W, the maps that are the unit on the generators, is
    the same for every action: its rows take every value off the generators
    (`_all_shifts`).
    """
    n, m = h.order, g.order
    gens = generating_sequence(g)
    rest = [x for x in range(1, m) if x not in gens]
    w = np.zeros((n ** len(rest), m), dtype=np.uint8)
    w[:, rest] = _all_shifts(n, len(rest) + 1)[:, 1:]
    batch, size = [], 0
    for item in _gauge_slice_classes(h, g):
        batch.append(item)
        size += len(item[2]) * len(w)
        if size >= _BATCH:
            yield from _cocycle_blocks(h, g, batch, w)
            batch, size = [], 0
    yield from _cocycle_blocks(h, g, batch, w)


def _lifted_systems(h: FiniteGroup, g: FiniteGroup):
    """`_system_blocks` by the engine on one lift per outer action.

    The systems over one outer action psi: G -> Out(H) are one orbit under
    shifts (the source paper's Schreier-type theorem; Brown, Cohomology of
    Groups, IV.6).  The first lift alpha0 of each psi in lexicographic order
    (`_lift_products`) gets its block from the engine (`_engine`), every
    base block first, and is yielded as it is.  Every other lift is
    alpha = c_t alpha0, t(g) the first c in H with alpha(g) alpha0(g)^-1 =
    c_t, and the shift by t,

        f(g1, g2) = t(g1) alpha0(g1)(t(g2)) f0(g1, g2) t(g1 g2)^-1

    (`_shift_factors`), maps the systems on alpha0 one to one onto those on
    alpha; a psi whose alpha0 has no system has none on any lift.  The lifts
    are walked in the stream's order and shifted in batches of blocks of one
    size (`_shift_lifts`), base blocks riding along in their places, so a
    small pair shifts all its lifts at once.  The library runs it for
    non-abelian H only.  For abelian H, the tests' oracle, Inn(H) = 1: every
    action is the one lift of its psi, the engine runs on each, and nothing
    is shifted.
    """
    leaf = _engine(h, g)
    products, bases = [], []   # per psi: its lifts, and (alpha0, the engine's block)
    for lifts in _lift_products(h, g):
        alpha0 = next(lifts)
        bases.append((alpha0, leaf(alpha0)))
        products.append(itertools.chain([alpha0], lifts))
    tagged = heapq.merge(*(zip(lifts, itertools.repeat(p)) for p, lifts in enumerate(products)))

    def emit(pending, lifts):
        shifted = _shift_lifts(h, g, lifts, bases) if lifts else iter(())
        for alpha, p in pending:
            yield (alpha, bases[p][1]) if alpha == bases[p][0] else next(shifted)

    pending, lifts, size = [], [], 0   # every pending lift in order, and those to shift
    for alpha, p in tagged:
        alpha0, block0 = bases[p]
        k = len(block0)
        if not k:
            continue
        if alpha != alpha0:
            if lifts and (k != size or len(lifts) * k >= _BATCH):
                yield from emit(pending, lifts)
                pending, lifts = [], []
            size = k
            lifts.append((alpha, p))
        pending.append((alpha, p))
    yield from emit(pending, lifts)


def _shift_lifts(h: FiniteGroup, g: FiniteGroup, pending, bases):
    """`(alpha, block)` per pending `(alpha, p)`, in order: the block of
    `bases[p]` = (alpha0, block0) shifted from alpha0 onto alpha
    (`_lifted_systems`) and sorted into the engine's order.  Every block0
    has the same number of rows.

    The shift factors of every lift take one `_shift_factors`, then both
    products over every row one gather each.
    """
    m = g.order
    perms, shift = _aut_arrays(h)
    alphas, tags = zip(*pending)
    used = {p: j for j, p in enumerate(dict.fromkeys(tags))}
    which = np.array([used[p] for p in tags], dtype=np.intp)
    alpha0 = np.array([bases[p][0] for p in used], dtype=np.intp)[which]
    block0 = np.stack([bases[p][1] for p in used])[which]
    t = shift[np.array(alphas, dtype=np.intp), alpha0]
    if (t < 0).any():
        raise InternalInvariantError("a lift is not an inner shift of its base")
    left, right = _shift_factors(h, g, perms, alpha0, t)
    hm = _byte_tables(h)[0]
    shifted = _mul(hm, _mul(hm, left[:, None], block0), right[:, None])
    if block0.shape[1] > 1:
        shifted = shifted[np.arange(len(shifted))[:, None], _column_order(shifted, m)]
    return zip(alphas, shifted)


def iter_orbit_representatives(h: FiniteGroup, g: FiniteGroup, *, cap: int = DEFAULT_PAIR_CAP):
    """Yield one raw system `(alpha, f_bytes)` per stabilizing-equivalence orbit.

    For abelian H the action is a homomorphism G -> Aut(H), a shift keeps it,
    and an orbit is a cohomology class f B^2.  Only the gauge slice is
    enumerated: the cocycles that are the unit on every tree cell (p, s) of a
    BFS spanning tree of G (`_gauge_tree`).  Every orbit meets it, since
    setting t(s) = 1 on the generators and t(p s) = t(p) p(t(s)) f(p, s) down
    the tree moves f into it, and meets it in the T0-orbit of any member
    (`_gauge_shifts`, |H|^#generators maps instead of |H|^(|G|-1)).  The
    least slice member of each T0-orbit, the first member of its tag, is
    yielded, orbits ascending (`_gauge_slice_classes`: in closed form for
    cyclic G, by linear algebra for any other G), so the yield count is the
    class count.  For non-abelian H, and for G = 1, where each orbit is one
    system, every system is yielded, from the block stream `_system_blocks`
    (the engine's block per outer action, shifted onto each of its lifts;
    correct, just without reduction).  Orbit members share their product's
    isomorphism type, which is what bulk consumers rely on.
    """
    if h.is_abelian and g.order > 1:
        _check_pair(h, g, cap)
        for alpha, _, members, tags, _ in _gauge_slice_classes(h, g):
            classes = 0
            for i, tag in enumerate(tags.tolist()):
                if tag == classes:   # the tags number the classes in order of first appearance
                    classes += 1
                    yield alpha, members[i].tobytes()
        return
    for alpha, rows in _system_blocks(h, g, cap):
        for row in rows:
            yield alpha, row.tobytes()


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
    """First (eta, gamma) in Aut(H) x Aut(G) order whose relabelling of A is eq1 to B.

    The relabellings of A are computed as rows in one gather (`_relabel_rows`)
    and each is searched against B's rows (`iter_stabilizing_rows`).  An eq1
    witness r from relabel_system(A, eta, gamma) to B is the shift by r^-1
    (`coboundary_orbit_keys`), so (eta, gamma, eta^-1 r^-1) relates A to B.
    """
    _require_same_groups(sysA, sysB)
    h, g = sysA.h, sysA.g
    n, m = h.order, g.order
    eta, eta_inv, gamma_inv = _relabellings(h, g)
    actions, cocycles = _relabel_rows(
        np.array(sysA.action.perms, dtype=np.intp),
        np.array(sysA.cocycle.table, dtype=np.intp),
        eta, eta_inv, gamma_inv,
    )
    actB, fB = sysB.action.perms, sysB.cocycle.table
    auts_g = automorphism_group(g)
    for p in range(len(eta)):
        actA = actions[p].reshape(m, n).tolist()
        fA = cocycles[p].reshape(m, m).tolist()
        r = next(iter_stabilizing_rows(h, g, actA, fA, actB, fB), None)
        if r is not None:
            einv = eta_inv[p].tolist()
            return Equivalence2Witness(
                automorphism_group(h)[p // len(auts_g)],
                auts_g[p % len(auts_g)],
                tuple(einv[h.inv(v)] for v in r),
            )
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


class SystemSequence(Sequence):
    """The sorted systems of one pair, read off a key block.

    Row i of `keys` (uint8) is system i's action rows then its row-major
    cocycle table, and `alphas[alpha_of[i]]` its automorphism indices.  A
    `CrossedSystem` is built (`system_from_raw`) only when indexed.  Supports
    `len`, iteration, indexing and slicing (a slice is a list), and equals any
    list or tuple of the same systems.
    """

    __hash__ = None

    def __init__(self, h: FiniteGroup, g: FiniteGroup, alphas, alpha_of, keys):
        self.h, self.g = h, g
        self._alphas, self._alpha_of, self._keys = alphas, alpha_of, keys

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = range(len(self))[i]   # IndexError outside, negative from the end
        width = self.g.order * self.h.order
        return system_from_raw(
            self.h, self.g, self._alphas[self._alpha_of[i]], self._keys[i, width:].tobytes()
        )

    def __eq__(self, other):
        if isinstance(other, SystemSequence):
            return (
                self.h.table == other.h.table
                and self.g.table == other.g.table
                and np.array_equal(self._keys, other._keys)
            )
        if isinstance(other, (list, tuple)):
            return len(other) == len(self) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"SystemSequence({self.h.name}, {self.g.name}, {len(self)} systems)"


@dataclass
class ClassificationReport:
    relation: str
    systems: Sequence[CrossedSystem]
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


def _system_block(h: FiniteGroup, g: FiniteGroup, cap: int) -> SystemSequence:
    """Every system on (H, G), sorted, as one key block (`SystemSequence`),
    from the block stream `_system_blocks` (`_key_block`)."""
    return _key_block(h, g, *zip(*_system_blocks(h, g, cap)))[0]


def _key_block(h: FiniteGroup, g: FiniteGroup, alphas, blocks) -> tuple[SystemSequence, "np.ndarray"]:
    """`(systems, order)`: the blocks of `alphas` as one sorted key block.

    Each action's rows are repeated over its block and joined with it, so a
    key is action rows then row-major cocycle.  automorphism_group is sorted
    by value table, so the order of the keys is the order of the raw records
    (alpha, f_bytes): one sort of the block as fixed-width byte strings gives
    the library's one order of the systems.  Sorted key i is row order[i] of
    the blocks joined.
    """
    n, m = h.order, g.order
    actions = _aut_perms(h)[np.array(alphas, dtype=np.intp)].reshape(len(alphas), m * n)
    alpha_of = np.repeat(np.arange(len(alphas)), [len(b) for b in blocks])
    keys = np.concatenate([actions[alpha_of], np.concatenate(blocks)], axis=1)
    order = np.argsort(_key_view(keys), kind="stable")
    return SystemSequence(h, g, list(alphas), alpha_of[order], keys[order]), order


def _key_view(rows: "np.ndarray") -> "np.ndarray":
    """uint8 rows of shape (k, w) as k fixed-width byte strings, compared as keys."""
    rows = np.ascontiguousarray(rows)
    return rows.view(f"V{rows.shape[1]}").ravel()


def _lookup(sorted_keys: "np.ndarray", rows: "np.ndarray") -> "np.ndarray":
    """Index in `sorted_keys` (`_key_view` of a sorted block) of each key row.

    The block holds the systems in order, so this is each row's system index.
    A row that names no system raises InternalInvariantError.
    """
    query = _key_view(rows)
    pos = np.searchsorted(sorted_keys, query)
    if (pos == len(sorted_keys)).any() or (sorted_keys[pos] != query).any():
        raise InternalInvariantError("an orbit left the systems")
    return pos


def _mark(class_of: "np.ndarray", members: "np.ndarray", label: int) -> None:
    """Give the unmarked `members` the class `label`; an orbit that meets
    another class raises InternalInvariantError."""
    if (class_of[members] >= 0).any():
        raise InternalInvariantError("an orbit met another class")
    class_of[members] = label


def _classes(labels: "np.ndarray", count: int) -> list[tuple[int, ...]]:
    """The classes of `labels` (values 0..count-1), class k the indices labelled k."""
    flat = np.argsort(labels, kind="stable").tolist()
    out, start = [], 0
    for size in np.bincount(labels, minlength=count).tolist():
        out.append(tuple(flat[start:start + size]))
        start += size
    return out


def _key_row_product(h: FiniteGroup, g: FiniteGroup, row: "np.ndarray") -> FiniteGroup:
    """The product group of the system with key `row`, read off the row.

    Its table is `build_product`'s: a normalized system has f(1, 1) = 1, so
    the packed unit is already index 0 and the unit swap is the identity.
    """
    n, m = h.order, g.order
    table = product_table_np(
        h.table_array, g.table_array, row[:m * n].reshape(m, n), row[m * n:].reshape(m, m)
    )
    return FiniteGroup(f"{h.name}#{g.name}", table, validate=False)


def _reports(h: FiniteGroup, g: FiniteGroup, relations, cap: int) -> dict[str, ClassificationReport]:
    """The reports for `relations` on (H, G), from one enumeration.

    The systems are one sorted key block (`_key_block`).  The chain
    eq1 -> eq2 -> iso is built in order, each relation labelling its classes
    in order of their least member:

    - eq1, abelian H with |G| > 1: the classes are the cosets f B^2, and
      `_algebraic_systems` builds each action's block as those cosets, with
      each row tagged by its class.  The tags are carried through the key
      block's sort and read off; every class must hold exactly |B^2| systems
      of one action (InternalInvariantError otherwise).
    - eq1, any other pair: each system not yet marked opens a class and
      marks its whole shift orbit, computed over all maps t in one gather
      (`coboundary_orbit_keys`) and found in the key block by one
      `np.searchsorted` (`_lookup`).
    - eq2: relabellings map eq1 classes onto eq1 classes, and an eq2 witness
      is a relabelling followed by a shift, so each eq1 class not yet joined
      joins the eq1 classes of the |Aut(H)|·|Aut(G)| relabellings of its
      representative, computed in one gather (`_relabel_rows`).
    - iso merges eq2 classes in order, testing `isomorphic` on the products
      of class representatives only: an eq2 witness induces a product
      isomorphism (`equivalence2_map`).

    Product types are named once per eq2 class, which holds one product type,
    on the product of the class's representative, read straight off its key
    row (`_key_row_product`): no `CrossedSystem` is built.
    """
    n, m = h.order, g.order
    width = m * n
    if h.is_abelian and m > 1:
        _check_pair(h, g, cap)
        alphas, blocks, tags, orbits = zip(*_algebraic_systems(h, g))
        systems, order = _key_block(h, g, alphas, blocks)
        counts = [len(block) // orbit for block, orbit in zip(blocks, orbits)]
        starts = np.cumsum([0] + counts[:-1])
        ids = np.concatenate([t + start for t, start in zip(tags, starts)])[order]
        count = sum(counts)
        if not (
            np.array_equal(np.bincount(ids, minlength=count), np.repeat(orbits, counts))
            and np.array_equal(np.repeat(np.arange(len(alphas)), counts)[ids], systems._alpha_of)
        ):
            raise InternalInvariantError("an eq1 class does not hold |B^2| systems of one action")
        eq1_of = _by_first_appearance(ids)
        keys = systems._keys
        sorted_keys = _key_view(keys)
    else:
        systems = _system_block(h, g, cap)
        keys = systems._keys
        sorted_keys = _key_view(keys)
        t = _all_shifts(n, m)
        eq1_of = np.full(len(keys), -1, dtype=np.intp)
        count = 0
        for i in range(len(keys)):
            if eq1_of[i] < 0:
                actions, cocycles = coboundary_orbit_keys(h, g, keys[i, :width], keys[i, width:].tobytes(), t)
                _mark(eq1_of, _lookup(sorted_keys, np.concatenate([actions, cocycles], axis=1)), count)
                count += 1
    eq1 = _classes(eq1_of, count)

    eta, eta_inv, gamma_inv = _relabellings(h, g)
    joined_of = np.full(len(eq1), -1, dtype=np.intp)
    joined = 0
    for c, members in enumerate(eq1):
        if joined_of[c] < 0:
            row = keys[members[0]]
            actions, cocycles = _relabel_rows(
                row[:width].reshape(m, n), row[width:].reshape(m, m), eta, eta_inv, gamma_inv
            )
            found = eq1_of[_lookup(sorted_keys, np.concatenate([actions, cocycles], axis=1))]
            _mark(joined_of, found, joined)
            joined += 1
    eq2_of = joined_of[eq1_of]
    eq2 = _classes(eq2_of, joined)
    products = [_key_row_product(h, g, keys[ms[0]]) for ms in eq2]
    names = [identify_group(p) for p in products]
    chain = {"eq1": (eq1, [names[k] for k in joined_of.tolist()]), "eq2": (eq2, names)}
    if "iso" in relations:
        merged: list[list[int]] = []
        for k, prod in enumerate(products):
            hit = next(
                (
                    ks
                    for ks in merged
                    if names[ks[0]] == names[k] and isomorphic(products[ks[0]], prod)
                ),
                None,
            )
            if hit is None:
                merged.append([k])
            else:
                hit.append(k)
        iso_of = np.empty(len(eq2), dtype=np.intp)
        for j, ks in enumerate(merged):
            iso_of[ks] = j
        chain["iso"] = (_classes(iso_of[eq2_of], len(merged)), [names[ks[0]] for ks in merged])
    return {
        rel: ClassificationReport(
            relation=rel,
            systems=systems,
            classes=chain[rel][0],
            representatives=[ms[0] for ms in chain[rel][0]],
            product_iso_types=chain[rel][1],
        )
        for rel in relations
    }


def classify(
    h: FiniteGroup,
    g: FiniteGroup,
    relation: str,
    *,
    max_pair_order: int = DEFAULT_PAIR_CAP,
) -> ClassificationReport:
    """Partition Crossed(H, G) under eq1, eq2, or product isomorphism.

    Classes come in order of their least member, which is their
    lexicographically minimal representative.  eq1 classes are the orbits of
    the maps t: G -> H with t(1) = 1, eq2 classes unions of eq1 classes and
    iso classes unions of eq2 classes (`_reports`), so each relation refines
    the next by construction.
    """
    if relation not in RELATIONS:
        raise ValueError(f"relation must be one of {RELATIONS}")
    return _reports(h, g, (relation,), max_pair_order)[relation]


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
    """Verify the refinement chain eq1 -> eq2 -> iso on one pair, from one enumeration."""
    rep1, rep2, rep3 = _reports(h, g, RELATIONS, max_pair_order).values()
    return {
        "system_count": len(rep1.systems),
        "eq1_classes": rep1.class_count(),
        "eq2_classes": rep2.class_count(),
        "iso_classes": rep3.class_count(),
        "eq1_refines_eq2": _refines(rep1, rep2),
        "eq2_refines_iso": _refines(rep2, rep3),
    }
