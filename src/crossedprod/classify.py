"""Enumeration of normalized crossed systems and their equivalence classifications.

The systems come as one block per action (`_system_blocks`): actions in
lexicographic order of their automorphism indices, and within one action
the cocycles in lexicographic order read column-major, the stream's order.
By the first axiom an action is a homomorphism psi: G -> Out(H) lifted to
Aut(H) (`_outer_homomorphisms`, `_lift_products`), and each cocycle cell
lies in one coset of Z(H), read from the Inn(H) table cached on H.

One path serves every H (`_tagged_blocks`).  Over the first lift alpha0 of
psi the systems are f0 Z^2(G, Z(H)), f0 any one of them and Z(H) a G-module
under alpha0, and their eq1 classes are H^2(G, Z(H)) (K. S. Brown,
Cohomology of Groups, IV.6).  f0 is the first member of each cell's coset,
corrected by a cochain into Z(H) that linear algebra finds; a psi with no
f0 has no system (`_central_actions`).  The systems over one psi are one
orbit under shifts (the source paper's Schreier-type theorem), so every
other lift's block is the first one shifted by the t with lift = c_t
alpha0, in numpy (`_lifted_systems`).  For abelian H, Z(H) = H, f0 = 1, and
every action is the one lift of its psi.

The cocycles of the module form a group Z^2 under the pointwise product,
and each eq1 class in it is a coset f B^2 (H^2 = Z^2 / B^2).  Z^2 is the
direct product of the gauge slice (the cocycles that are the unit on a
spanning tree of G) and delta(W), the coboundaries of the maps t that are
the unit on the generators.  So only the slice is enumerated, each member
tagged by its class, and each block is the slice times delta(W), carried
by f0 and sorted into the stream's order, each row carrying its member's
tag (`_central_blocks`); B^2 itself is never built.  No search runs: for
cyclic G the slice and its classes have a closed form (carry cocycles over
the fixed points, classes modulo the norms).  For any other G the slice is
the set of solutions of the cocycle equations in its free cells: a small
pair fills in every value of them and keeps the rows on which every
equation holds (`_enumerated_slice_classes`), and a larger one solves the
equations per prime over Z/p^a by a Howell form, the slices and classes of
a batch of actions built in the same arrays (`_linear_slice_classes`).
`classify` reads eq1 off the tags, and `iter_orbit_representatives` yields
f0 times the first slice member of each tag.

The array paths read each group's cached table arrays (`table_array`,
`inverse_array`), and the uint8 value gathers one uint8 copy of H's tables
(`_byte_tables`) and of Aut(H)'s value tables (`_aut_perms`).  Aut(H) and
Out(H) are groups on their tables (`_aut_tables`), refused, with
CapExceededError, for an H with more than `_MAX_AUTS` automorphisms.

`_system_block` joins the blocks into the one sorted key block that
`classify`, `enumerate_crossed_systems` and the CLI read;
`enumerate_raw_systems` is a per-system reader over the blocks.

Both equivalences rest on one law.  eq1 shifts a system by a map t: G -> H
(`shift_system`, `coboundary_orbit_keys`); eq2 relabels its ends by (eta,
gamma) in Aut(H) x Aut(G) (`relabel_system`) and then shifts.  So eq1 classes
are shift orbits, eq2 classes are unions of eq1 classes, iso classes are
unions of eq2 classes, and `are_equivalent_2` is `are_equivalent_1` on the
relabellings.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, InternalInvariantError
from .groups import (
    Automorphism,
    FiniteGroup,
    automorphism_group,
    automorphism_index,
    center,
    generating_sequence,
    homomorphism_maps,
    identify_group,
    inner_automorphisms,
    is_homomorphism,
    isomorphic,
    subgroup_as_group,
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


# enumeration -----------------------------------------------------------------


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
# a group on its |Aut(H)|^2 composition table, which every pair over H builds
# and gathers from (Out(H), and the cosets of Z(H) that hold the cocycle
# cells, `_aut_arrays`).  The benchmark tabulates Aut(H) up to
# Aut(C2xC2xC2), of order 168, and the tests up to Aut(D64), of order 512.
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
    return homomorphism_maps(g, _aut_tables(h)[1]), _inner_cosets(h)


def _inner_cosets(h: FiniteGroup) -> list[list[int]]:
    """The cosets of Inn(H) in Aut(H), numbered as `out` of `_aut_tables`
    numbers them, each as its ascending automorphism indices; cached on h."""
    cosets = h._cache.get("inner_cosets")
    if cosets is None:
        _, out, outer, _ = _aut_tables(h)
        cosets = h._cache["inner_cosets"] = [[] for _ in range(out.order)]
        for a, k in enumerate(outer):
            cosets[k].append(a)
    return cosets


def _lift_products(h: FiniteGroup, alphas) -> list:
    """One iterator per action alpha0 of `alphas`, over every lift of its
    outer action in lexicographic order.

    The lifts are the action tuples with the identity at 1 and any member
    of the coset of Inn(H) that holds alpha0(g) at g != 1: the product of
    those cosets, each in ascending order (`_inner_cosets`).
    """
    outer, cosets = _aut_tables(h)[2], _inner_cosets(h)
    return [itertools.product((0,), *(cosets[outer[a]] for a in alpha[1:])) for alpha in alphas]


def enumerate_raw_systems(
    h: FiniteGroup, g: FiniteGroup, visit, *, cap: int = DEFAULT_PAIR_CAP
) -> None:
    """Drive `visit(alpha_indices, f_bytes)` over every normalized crossed system.

    `alpha_indices` indexes into automorphism_group(h) per element of G;
    `f_bytes` is the cocycle table row-major.  Systems are emitted grouped by
    action assignment, actions in lexicographic index order (the lifts of the
    homomorphisms G -> Out(H) that carry systems, `_lift_products`), and
    within one action in lexicographic order of the cocycle read
    column-major (`g2` outer, `g1` inner).

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
        raise CapExceededError("the blocks pack cocycle values into bytes; |H| must be <= 256")


def _system_blocks(h: FiniteGroup, g: FiniteGroup, cap: int):
    """Every normalized crossed system on (H, G), one block per action.

    Yields `(alpha, block)` for each action with systems, in the order of
    `enumerate_raw_systems`: `block` is a C-contiguous uint8 array of shape
    (k, |G|^2), one row-major cocycle per row, rows in the stream's order.

    The `_tagged_blocks` items without their tags: the first lift of each
    outer action gets f0 Z^2(G, Z(H)) with no search, and the other lifts
    its shifts.  G = 1 has one action and one system.
    """
    _check_pair(h, g, cap)
    return map(operator.itemgetter(0, 1), _tagged_blocks(h, g))


def system_from_raw(
    h: FiniteGroup, g: FiniteGroup, alpha_indices: tuple[int, ...], f_flat
) -> CrossedSystem:
    """Materialize a raw record; validity is guaranteed by construction.

    `f_flat` is the row-major cocycle table: a block row's bytes, which
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
    """A BFS spanning tree of G's Cayley graph over `generating_sequence(g)`, cached on g.

    Returns `(gens, edges)`: the generators are the depth-1 elements, and
    every element x at depth >= 2 has one edge (x, p, s) with x = p s, p != 1
    at depth one less and s a generator, listed in BFS order.
    """
    tree = g._cache.get("gauge_tree")
    if tree is None:
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
        tree = g._cache["gauge_tree"] = (gens, edges)
    return tree


def _gauge_shifts(h: FiniteGroup, acts, gens, edges) -> "np.ndarray":
    """The maps t of T0 under each of A actions, uint8 (A, |H|^len(gens), |G|).

    T0 holds the maps t: G -> H with t(1) = 1, any values on the generators,
    and t(p s) = t(p) act(p)(t(s)) on every tree edge (`_gauge_tree`):
    exactly the shifts whose coboundary is the unit on every tree cell
    (p, s), so for abelian H they move a cocycle of the gauge slice only
    within the slice.  `acts` holds the uint8 value rows (A, |G|, |H|) of
    the actions; map k takes digit j of k in base |H| on generator j
    (`_all_shifts`) under every action.  The edges of one depth of the tree
    are filled at once.
    """
    count, m, n = acts.shape
    hm = _byte_tables(h)[0]
    rows = acts.reshape(count, m * n)
    values = _all_shifts(n, len(gens) + 1)[:, 1:]
    t = np.zeros((count, len(values), m), dtype=np.uint8)
    t[:, :, gens] = values
    depth = dict.fromkeys(gens, 1)
    levels: list[list[tuple[int, int, int]]] = []
    for (x, p, s) in edges:   # breadth-first: each depth in one run
        depth[x] = depth[p] + 1
        if depth[x] > len(levels) + 1:
            levels.append([])
        levels[-1].append((x, p, s))
    every = np.arange(count)[:, None, None]
    for level in levels:
        x, p, s = np.array(level).T
        t[:, :, x] = _mul(hm, t[:, :, p], rows[every, p * n + t[:, :, s]])
    return t


def _gauge_slice_classes(h: FiniteGroup, g: FiniteGroup, alphas, acts):
    """Yield `(alpha, act_rows, members, tags, orbit)` per action: the gauge
    slice, each member tagged by its class f B^2.

    H is abelian, the module of coefficients, and the actions are
    homomorphisms G -> Aut(H): `acts` holds their uint8 value rows
    (A, |G|, |H|), one `act_rows` each, and `alphas` names them, passed
    through in order (`_central_actions`).  `members` holds
    the action's whole gauge slice, uint8 rows of shape (s, |G|^2), one
    row-major cocycle each, in the stream's order.  `tags[i]` is the index
    of member i's class in order of first appearance, so the first member
    of each tag is its class's least slice member.  B0, the coboundaries of
    T0 (`_gauge_shifts`), lies in the slice, and each class meets it in a
    coset f B0.  `orbit` is |B^2| of the action, the size of every class:
    B^2 is the image of the |H|^(|G|-1) maps t, and its kernel Z^1 lies in
    T0, so |B^2| = |H|^(|G|-1-#generators) |B0|.  Cyclic G (one generator)
    reads the classes off in closed form (`_cyclic_slice_classes`).  On any
    other G, a pair whose residuals, one per check of `_slice_plan` for
    every value of its free cells under every action, fit one `_CHUNK` of
    cells is enumerated (`_enumerated_slice_classes`), and a larger one
    solves the cocycle equations by linear algebra
    (`_linear_slice_classes`): on fresh pairs the enumeration was the faster
    of the two up to about 1.5 chunks (CHANGES.md).
    """
    # The closed form stays for cyclic G: with the Howell form on cyclic G
    # too, the `holder-sweep` benchmark's `wall_s` went 0.082 -> 0.176 s and
    # its `request_p50_ms` 0.42 -> 1.05 ms (6 of 6 alternating pairs of runs).
    gens = generating_sequence(g)
    if len(gens) == 1:
        return _cyclic_slice_classes(h, g, gens[0], alphas, acts)
    if h.order > 1:
        free, _, (_, g1) = _slice_plan(g)
        if len(alphas) * h.order ** len(free) * len(g1) <= _CHUNK:
            return _enumerated_slice_classes(h, g, alphas, acts)
    return _linear_slice_classes(h, g, alphas, acts)


def _cyclic_slice_classes(h: FiniteGroup, g: FiniteGroup, b: int, alphas, acts):
    """`_gauge_slice_classes` for G = <b>, in closed form.

    The gauge tree's cells are (b^k, b) for 0 < k < |G| - 1.  A normalized
    cocycle that is the unit on them is the carry cocycle
    f_c(b^x, b^y) = c^[x + y >= |G|] (0 <= x, y < |G|), and f_c is a cocycle
    exactly when c is in H^psi, the elements fixed by psi = act(b).  The
    stream's order reads the first carry cell first, so the slice is f_c for
    c in H^psi ascending.  A map t of T0 with t(b) = s has coboundary f_N(s),
    N(s) = s psi(s) ... psi^(|G|-1)(s), so the classes are the cosets of
    N(H) in H^psi (H^2 = H^psi / N(H), K. S. Brown, Cohomology of Groups,
    III.1 and IV.6): each c not yet tagged opens a class and tags c N(H).
    """
    n, m = h.order, g.order
    hm, gm = h.table, g.table
    log = [0] * m
    x = b
    for k in range(1, m):
        log[x] = k
        x = gm[x][b]
    logs = np.array(log)
    carry = (logs[:, None] + logs >= m).ravel().astype(np.uint8)
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

    The equations are the cocycle axioms for abelian H, with the unit on the
    tree cells of `_gauge_tree(g)`; the tests read the same plan off the
    backtracking engine's schedule, their oracle of it.  The
    cells (g1, g2) off the unit row and column are numbered column-major,
    and an instance (g1, g2, g3), g3 a generator,
    f(g1, g2) f(g1 g2, g3) = g1(f(g2, g3)) f(g1, g2 g3), is listed at the
    highest-numbered of its four cells, in (g1, g2, g3) order; the first
    instance listed at a cell that holds the cell once derives it.  `free`
    holds the flat positions g1 |G| + g2 of the cells that no instance
    derives and that are off the tree, in cell order: the slice's unknowns.
    Every other cell off the unit row and column is derived, a function of
    earlier cells.  `levels` groups the derived cells by depth (one deeper
    than the deepest derived cell they read), so one level is filled at
    once (`_slice_fill`): per level `(cells, quad, g1, after)`, the cells'
    flat positions, the flat positions (4, L) of the deriving instance's
    cells A, B, C, D, its g1, and 3 g1 + kind, kind the map that turns the
    instance's residual into the cell (0: inverse, 1: g1^-1, 2: itself).
    `checks` is `(quad, g1)` of every other instance, each of which must
    hold, in the order they are listed; a derived tree cell adds, after its
    own, the instance on (cell, 1, 1, 1) with g1 = 1, which holds exactly
    when the cell is the unit.  The plan is a few Python loops over the
    |G|^2 |generators| instances: on fresh groups of order 4-8, which the
    benchmark's abelian pairs use, that cost 23-90 us against about 70-105
    us for the same work as numpy calls (on D16, 380 against 194 us).
    """
    plan = g._cache.get("slice_plan")
    if plan is None:
        m = g.order
        gm = g.table
        gens = generating_sequence(g)
        tree = {p * m + s for (_, p, s) in _gauge_tree(g)[1]}
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
                for g3 in gens:
                    iB, iC, iD = b12 + g3, base2 + g3, base1 + row2[g3]
                    listed[max(number[iA], number[iB], number[iC], number[iD])].append((iA, iB, iC, iD, g1))
        free, checks, by_depth = [], [], []
        depth = [0] * (m * m)
        for i, insts in zip(flat, listed):
            derive = None
            for inst in insts:
                # the cells A = (g1, g2) and C = (g2, g3) coincide at
                # g1 = g2 = g3; no other two cells of an instance do
                if derive is None and not inst[0] == inst[2] == i:
                    derive = inst
                else:
                    checks.extend(inst)
            if derive is None:
                if i not in tree:
                    free.append(i)
                continue
            iA, iB, iC, iD, g1 = derive
            kind = 0 if i in (iA, iB) else 1 if i == iC else 2
            d = depth[i] = 1 + max(depth[iA], depth[iB], depth[iC], depth[iD])   # depth[i] is still 0
            if d > len(by_depth):
                by_depth.append([])
            by_depth[d - 1].extend((i, iA, iB, iC, iD, g1, 3 * g1 + kind))
            if i in tree:
                checks.extend((i, 0, 0, 0, 0))
        levels = [
            (level[0], level[1:5], level[5], level[6])
            for level in (np.array(cells, dtype=np.intp).reshape(-1, 7).T for cells in by_depth)
        ]
        checks = np.array(checks, dtype=np.intp).reshape(-1, 5).T
        plan = (np.array(free, dtype=np.intp), levels, (checks[:4], checks[4]))
        g._cache["slice_plan"] = plan
    return plan


def _slice_fill(h: FiniteGroup, acts, which, levels, rows) -> "np.ndarray":
    """intp `rows` (k, |G|^2) of H's elements, the unit off the free cells,
    with every derived cell of `_slice_plan` filled in, level by level (in
    place).

    Row j is read under the action `acts[which[j]]` (`acts`: intp value
    rows (A, |G|, |H|)).  A derived cell is the one unknown of its instance
    f(g1, g2) f(g1 g2, g3) = g1(f(g2, g3)) f(g1, g2 g3); with the cell still
    at the unit, the instance's residual A B (g1(C) D)^-1 (`_residual`) is
    the cell's inverse (modes 0, 1), g1 of the cell (mode 2) or the cell
    (mode 3), read off one table per (action, g1) of those three maps.
    """
    if not levels:
        return rows
    count, m, n = acts.shape
    after = np.empty((count, m, 3, n), dtype=np.intp)
    after[:, :, 0] = h.inverse_array
    after[:, :, 1] = np.argsort(acts, axis=2)
    after[:, :, 2] = np.arange(n)
    after = after.ravel()
    base = which[:, None] * (m * n)
    base3 = 3 * base
    for (i, quad, g1, table) in levels:
        value = _residual(h, acts, base + g1 * n, rows[:, quad])
        value += base3
        value += table * n
        rows[:, i] = after.take(value)
    return rows


def _residual(h: FiniteGroup, acts, at, quads) -> "np.ndarray":
    """A B (g1(C) D)^-1 of instances on intp `quads` (k, 4, E), their cells
    (A, B, C, D) gathered from k rows; the unit where an instance holds.
    `at` (k, E) is the offset of g1's value row of each row's action in
    `acts.ravel()` (`_slice_fill`).  It is x y^-1 for x = A B and
    y = g1(C) D; each product and quotient is a take on a flat table at
    x |H| + y (`_flat_tables`), all in intp: fancy indexing by two
    small-integer arrays costs about twice as much per call."""
    n = h.order
    product, quotient = _flat_tables(h)
    a, b, c, d = quads.transpose(1, 0, 2)
    right = acts.ravel().take(at + c)
    right *= n
    right += d
    left = product.take(a * n + b)
    left *= n
    left += product.take(right)
    return quotient.take(left)


def _flat_tables(h: FiniteGroup):
    """`(product, quotient)`: x y and x y^-1 at x |H| + y, flat intp arrays
    cached on h, the tables of `_residual`."""
    tables = h._cache.get("flat_tables")
    if tables is None:
        t = h.table_array
        tables = h._cache["flat_tables"] = (t.ravel(), t[:, h.inverse_array].ravel())
    return tables


@functools.lru_cache(maxsize=None)
def _chain_ring(p: int, q: int):
    """`(valuation, step, unit_inverse, annihilator)` over Z/q, q = p^a, one
    entry per x in Z/q: its p-valuation v (q at 0, which no pivot takes),
    p^v, the inverse of the unit x / p^v, and p^(a - v) (1 at 0)."""
    valuation = [q] + [next(v for v in range(q) if x % p ** (v + 1)) for x in range(1, q)]
    step = [1] + [p ** v for v in valuation[1:]]
    unit_inverse = [pow(x // step[x], -1, q) if x else 1 for x in range(q)]
    annihilator = [q // s if x else 1 for x, s in enumerate(step)]
    return tuple(np.array(t) for t in (valuation, step, unit_inverse, annihilator))


def _kernel_bases(mats: "np.ndarray", p: int, q: int, moduli) -> tuple["np.ndarray", "np.ndarray"]:
    """`(kernel, orders)`: per matrix M of `mats` (A, k, E), the module
    {c : c M = 0 (mod q)}, q = p^a, with unique coordinates.

    Unknown i is taken mod moduli[i], a power of p dividing q, and row i of
    each M times moduli[i] must vanish mod q.  Every such c is
    sum_i x_i kernel[a, i] (mod moduli) for exactly one x with
    0 <= x_i < orders[a, i]; kernel is an intp array (A, R, k), and a row of
    order 1 takes no digit.  Each [M | D], D the diagonal of q / moduli, is
    reduced to Howell form over Z/q (Storjohann and Mulders, *Fast
    algorithms for linear algebra modulo N*, ESA 1998), all A at once, one
    pivot of each matrix per pass.  Z/q is a
    chain ring, so a pivot is the entry of least p-valuation in the first
    column with an entry left, scaled to a power p^v, and clears the rest of
    its column; its row leaves the rows still to be reduced and is replaced
    by itself times p^(a - v), which vanishes on the pivot column (the zero
    row when q is prime).  Over the field Z/p the rows that are zero on M's
    columns are a basis of the kernel, so the reduction stops there.  Unless
    q is prime it runs over the identity's columns too: the pivot rows that
    are zero on M then form a Howell basis of the kernel, its pivots p^v in
    increasing columns, and the coordinates x_i < p^(a - v) are unique.
    The right-hand part of a row of [M | D] zero on M is (q / moduli) c for
    a kernel member c, so dividing by q / moduli reads c, and c and
    c + moduli_i e_i, one member, have one right-hand part.
    """
    count, rows, width = mats.shape
    span = width if q == p else width + rows
    valuation, step, unit_inverse, annihilator = _chain_ring(p, q)
    work = np.zeros((count, rows, width + rows), dtype=np.intp)
    work[:, :, :width] = mats % q
    work[:, np.arange(rows), width + np.arange(rows)] = q // moduli
    every = np.arange(count)
    kernel, orders = [np.zeros((count, 0, rows), dtype=np.intp)], [np.zeros((count, 0), dtype=np.intp)]
    for _ in range(span):   # each pass takes one pivot column of each matrix, in increasing columns
        col = np.logical_or.reduce(work[:, :, :span], axis=1).argmax(axis=1)
        column = work[every, :, col]
        i = valuation[column].argmin(axis=1)
        entry = column[every, i]   # 0 once a matrix is reduced: then nothing changes
        if not np.count_nonzero(entry):
            break
        pivot = work[every, i] * unit_inverse[entry, None] % q
        if q > p:
            column //= step[entry, None]
            kernel.append(pivot[:, None, width:])
            orders.append(np.where(col >= width, annihilator[entry], 1)[:, None])
        work -= column[:, :, None] * pivot[:, None]
        work %= q
        work[every, i] = pivot * annihilator[entry, None] % q
    rest = work[:, :, width:]
    kernel[0], orders[0] = rest, np.where(np.logical_or.reduce(rest, axis=2), q, 1)
    if q == p:
        return rest, orders[0]
    return np.concatenate(kernel, axis=1) // (q // moduli), np.concatenate(orders, axis=1)


def _linear_slice_classes(h: FiniteGroup, g: FiniteGroup, alphas, acts):
    """`_gauge_slice_classes` for any G and the actions `alphas`, by linear
    algebra over Z/p^a (the path of the pairs too large to enumerate).

    H is a sum of cyclic groups Z/p^a (`_abelian_coordinates`), a cocycle a
    vector over them, and the gauge slice the solutions of the cocycle
    equations with the unit on the tree cells (`_slice_plan`).  The slice is
    the direct sum of its parts in H's p-parts, each solved on its own.  A
    slice cocycle is fixed by its free cells, each derived cell being a
    function of earlier cells, and every equation is linear in them:
    filling the derived cells of each basis vector (e_i of the p-part on
    one free cell) gives every equation's value on it (`_slice_fill`,
    `_residual`), and the kernel of those values (`_kernel_bases`) is the
    p-part of the slice, each member one sum of the kernel's rows with one
    digit per row.  Each kernel row, times the filled basis vectors in
    coordinates, is a slice cocycle; the rows of every p-part together give
    the whole slice, digit by digit.  H = 1 has no p-part and builds no
    plan: its slice is the unit cocycle.  Every action is filled and solved
    in the same arrays, and the members and classes of a batch of actions,
    about `_BATCH` members, are built at once (`_slice_batch`).
    """
    n, m = h.order, g.order
    basis, degrees, coords, _, primes = _abelian_coordinates(h)
    count = len(alphas)
    if not primes:   # H = 1: each slice is the unit cocycle alone, and B^2 = 1
        for alpha, act in zip(alphas, acts):
            yield alpha, act, np.zeros((1, m * m), dtype=np.uint8), np.zeros(1, dtype=np.intp), 1
        return
    free, levels, (quad, g1) = _slice_plan(g)
    cocycles, orders = [], []
    wide = acts.astype(np.intp)
    k = len(free)
    for (p, q, idx) in primes:
        r = len(idx)
        # row (a k + v) r + i: e_i of the p-part on free cell v, the unit elsewhere, under action a
        seeds = np.zeros((count, k, r, m * m), dtype=np.intp)
        seeds[:, np.arange(k)[:, None], np.arange(r), free[:, None]] = basis[idx]
        which = np.repeat(np.arange(count), k * r)
        filled = _slice_fill(h, wide, which, levels, seeds.reshape(-1, m * m))
        values = coords[_residual(h, wide, (which[:, None] * m + g1) * n, filled[:, quad])][..., idx]
        mats = (values * (q // degrees[idx])).reshape(count, k * r, len(g1) * r)   # equation e, coordinate j at e r + j
        kernel, order = _kernel_bases(mats, p, q, np.tile(degrees[idx], k))
        # each kernel row's cocycle, in H's coordinates: the p-parts' coordinates are disjoint
        rows = np.zeros((count, len(order[0]), m * m, len(basis)), dtype=np.intp)
        sums = kernel @ coords[filled][..., idx].reshape(count, k * r, m * m * r)
        rows[..., idx] = sums.reshape(rows.shape[:3] + (r,))
        cocycles.append(rows)
        orders.append(order)
    cocycle, order = (x[0] if len(x) == 1 else np.concatenate(x, axis=1) for x in (cocycles, orders))
    sizes = [math.prod(x) for x in order.tolist()]
    start = 0
    while start < count:
        end, total = start + 1, sizes[start]
        while end < count and total + sizes[end] <= _BATCH:
            total += sizes[end]
            end += 1
        batch = slice(start, end)
        yield from _slice_batch(h, g, alphas[batch], acts[batch], cocycle[batch], order[batch], free)
        start = end


def _enumerated_slice_classes(h: FiniteGroup, g: FiniteGroup, alphas, acts):
    """`_gauge_slice_classes` for any G and the actions `alphas`, by checking
    every value of the free cells.

    The slice of an action is the set of assignments of H's elements to
    the k free cells of `_slice_plan` whose filled-in cocycle
    (`_slice_fill`) passes every check (`_residual` the unit).  For abelian
    H the fill and the residuals are homomorphisms of the free cells'
    values, so the free cells are split in two halves, only the |H|^(k/2)
    assignments of each half (the unit on the other) are filled in, under
    every action at once, and the residuals of an assignment are the
    product of its halves' residuals, the unit where the second half's are
    the first's inverses: one comparison checks all |H|^k.  The
    assignments are numbered with the first free cell most significant, so
    each slice comes in the stream's order with no sort (two members first
    differ on a free cell), and a member's position is read off the number
    its free cells spell in base |H|: each member times the coboundary of
    every map of T0 (B0 on the free cells, `_free_coboundaries`) is found by
    one gather, the least position found is its class's first member,
    and the slice size over the class count is |B0|.  No coordinates of H,
    kernel or sort are needed, but the gather grows with |H|^k, so
    `_gauge_slice_classes` takes this path only on pairs whose |H|^k
    residuals of every check under every action fit one `_CHUNK` of cells.
    """
    n, m = h.order, g.order
    hm = _byte_tables(h)[0]
    free, levels, (quad, g1) = _slice_plan(g)
    count, k = len(alphas), len(free)
    # an assignment is the product of one assignment of each half of the
    # free cells, the unit on the other half; the fill and the checks are
    # homomorphisms of the free cells' values (H is abelian), so only the
    # halves are filled, and an assignment's residuals are its halves'
    # residuals multiplied
    k1 = k - k // 2
    first, second = n ** k1, n ** (k - k1)
    place = n ** np.arange(k - 1, -1, -1)
    seeds = np.zeros((count, first + second, m * m), dtype=np.intp)
    seeds[:, :first, free[:k1]] = np.arange(first)[:, None] // place[k - k1:] % n
    seeds[:, first:, free[k1:]] = np.arange(second)[:, None] // place[k1:] % n
    which = np.repeat(np.arange(count), first + second)
    wide = acts.astype(np.intp)
    filled = _slice_fill(h, wide, which, levels, seeds.reshape(-1, m * m))
    residual = _residual(h, wide, (which[:, None] * m + g1) * n, filled[:, quad]).reshape(count, first + second, -1)
    # two halves' residuals multiply to the unit where the second's are the first's inverses
    held = (h.inverse_array.take(residual[:, :first, None]) == residual[:, None, first:]).all(axis=3)
    action_of, i, j = held.nonzero()   # assignment i of the first half times j of the second
    number = (action_of * first + i) * second + j   # action a n^k + the digits the free cells spell
    halves = filled.reshape(count, first + second, m * m)
    rows = _flat_tables(h)[0].take(halves[action_of, i] * n + halves[action_of, first + j]).astype(np.uint8)
    total = len(number)
    position = np.full(count * n ** k, -1, dtype=np.intp)
    position[number] = np.arange(total)
    b0 = _free_coboundaries(h, g, acts, free)
    members = rows[:, free]
    least = np.empty(total, dtype=np.intp)
    step = max(1, _CHUNK // (max(k, 1) * b0.shape[1]))
    for lo in range(0, total, step):
        owner = action_of[lo:lo + step]
        found = position[owner[:, None] * n ** k + hm[members[lo:lo + step, None], b0[owner]] @ place]
        least[lo:lo + step] = found.min(axis=1)
    if least.min(initial=0) < 0:
        raise InternalInvariantError("a coboundary of T0 left the gauge slice")
    return _tagged_slices(h, g, alphas, acts, rows, action_of, least)


def _free_coboundaries(h: FiniteGroup, g: FiniteGroup, acts, free) -> "np.ndarray":
    """B0 on the `free` cells: uint8 (A, |T0|, k), the coboundary
    t(g1) g1(t(g2)) t(g1 g2)^-1 at each free cell (g1, g2) of every map t of
    T0 (`_gauge_shifts`) under each of the A actions `acts`."""
    hm, hinv = _byte_tables(h)
    t = _gauge_shifts(h, acts, *_gauge_tree(g))
    g1, g2 = np.divmod(free, g.order)
    moved = acts[np.arange(len(acts))[:, None, None], g1, t[:, :, g2]]
    return hm[hm[t[:, :, g1], moved], hinv[t[:, :, g.table_array[g1, g2]]]]


def _tagged_slices(h: FiniteGroup, g: FiniteGroup, alphas, acts, rows, action_of, least):
    """The `_gauge_slice_classes` items of a batch of actions, from their
    slice members `rows`, each action's in the stream's order, the member's
    action `action_of` and `least`, the position of its class's first
    member.  Numbering the first members in order gives the tags, in order
    of first appearance; the classes are the cosets of B0 in the slice, so
    |B0| is the slice's size over its class count."""
    count, total = len(alphas), len(rows)
    sizes = np.bincount(action_of, minlength=count)
    starts = np.cumsum(sizes) - sizes
    firsts = least == np.arange(total)
    seen = np.cumsum(firsts)
    tags = seen[least] - seen[starts][action_of]
    classes = np.bincount(action_of, weights=firsts, minlength=count).astype(np.intp)
    scale = h.order ** (g.order - 1 - len(generating_sequence(g)))
    return [
        (alpha, acts[a], rows[start:start + size], tags[start:start + size], scale * int(size // classes[a]))
        for a, (alpha, start, size) in enumerate(zip(alphas, starts.tolist(), sizes.tolist()))
    ]


def _slice_batch(h: FiniteGroup, g: FiniteGroup, alphas, acts, cocycle, order, free):
    """The `_gauge_slice_classes` items of a batch of actions, from the
    cocycles of their kernel rows in H's coordinates, `cocycle`
    (A, R, |G|^2, |basis|), and the rows' `order` (A, R).

    Member j of action a has digit i = (j - start_a) // (the product of the
    later orders) % order[a, i], and is sum_i digit_i cocycle[a, i].  Two
    slice members first differ on a free cell, each derived cell being a
    function of earlier cells, so one sort of every member by its action's
    number (two bytes, big-endian) then its `free` cells puts each slice in
    the stream's order.  B0, the coboundaries of the maps of T0
    (`_free_coboundaries`), lies in the slice, and a class is a coset f B0:
    each member times every distinct element of its action's B0 is looked
    up among the sorted members, and the least position found is its
    class's first member.  Numbering the first members in order gives the tags, in
    order of first appearance, and B0's own distinct positions give |B0|.
    The gathers work on about `_CHUNK` cells at a time.
    """
    m = g.order
    hm = _byte_tables(h)[0]
    _, degrees, _, (labels, strides), _ = _abelian_coordinates(h)
    count, k = len(order), len(free)
    sizes = order.prod(axis=1)
    starts = np.cumsum(sizes) - sizes
    action_of = np.repeat(np.arange(count), sizes)
    total = len(action_of)
    cocycle = cocycle.reshape(count, order.shape[1], m * m * len(degrees))
    if count == 1 and total * cocycle.shape[2] <= _CHUNK:   # one small slice: one product
        rows = _digit_sums(cocycle[0], order[0], h, m)
    elif count == 1:
        # one large slice: member j N_low + i is A_j B_i, A and B the sums
        # over the first and the last kernel rows, each about sqrt(|slice|)
        # of them (`_digit_sums`), joined by one product
        split, low = order.shape[1], 1
        while split and low * low < total:
            split -= 1
            low *= int(order[0, split])
        high, low = (_digit_sums(cocycle[0, part], order[0, part], h, m) for part in (slice(split), slice(split, None)))
        rows = _mul(hm, high[:, None], low[None]).reshape(total, m * m)
    else:
        # several small slices, about `_BATCH` members: each member's digits
        # times its own action's rows, one member per row of a product
        later = np.cumprod(order[:, ::-1], axis=1)[:, ::-1] // order
        digits = (np.arange(total) - starts[action_of])[:, None] // later[action_of] % order[action_of]
        rows = np.empty((total, m * m), dtype=np.uint8)
        step = max(1, _CHUNK // cocycle[0].size)
        for lo in range(0, total, step):
            cells = (digits[lo:lo + step, None] @ cocycle[action_of[lo:lo + step]])[:, 0]
            rows[lo:lo + step] = labels[cells.reshape(len(cells), m * m, len(degrees)) % degrees @ strides]
    keys = np.empty((total, 2 + k), dtype=np.uint8)
    keys[:, :2] = action_of.astype(">u2")[:, None].view(np.uint8)
    keys[:, 2:] = rows[:, free]
    order = np.argsort(_key_view(keys))
    keys, rows = keys[order], rows[order]
    sorted_keys = _key_view(keys)
    members = keys[:, 2:]

    # B0 on the free cells under each action, the coboundary of every map of
    # T0, found among the members; each action's distinct ones, padded with
    # its unit (its first member)
    coboundaries = _free_coboundaries(h, g, acts, free)
    b0 = np.empty(coboundaries.shape[:2] + (2 + k,), dtype=np.uint8)
    b0[:, :, :2] = keys[starts, None, :2]
    b0[:, :, 2:] = coboundaries
    distinct = np.zeros(total, dtype=bool)
    distinct[_lookup(sorted_keys, b0.reshape(-1, 2 + k))] = True
    b0 = distinct.nonzero()[0]
    owner = action_of[b0]
    b0_count = np.bincount(owner, minlength=count)
    padded = np.repeat(starts[:, None], b0_count.max(), axis=1)
    padded[owner, np.arange(len(b0)) - (np.cumsum(b0_count) - b0_count)[owner]] = b0
    least = np.empty(total, dtype=np.intp)
    step = max(1, _CHUNK // ((2 + k) * padded.shape[1]))
    for lo in range(0, total, step):
        query = np.repeat(keys[lo:lo + step, None], padded.shape[1], axis=1)
        query[:, :, 2:] = hm[members[lo:lo + step, None], members[padded[action_of[lo:lo + step]]]]
        least[lo:lo + step] = _lookup(sorted_keys, query.reshape(-1, 2 + k)).reshape(len(query), -1).min(axis=1)
    return _tagged_slices(h, g, alphas, acts, rows, action_of, least)


def _digit_sums(cocycle, order, h: FiniteGroup, m: int) -> "np.ndarray":
    """uint8 rows (prod(order), |G|^2): every sum_i x_i cocycle[i] with
    0 <= x_i < order[i], x read in mixed radix (the first row most
    significant), `cocycle` (R, |G|^2 |basis|) in H's coordinates
    (`_abelian_coordinates`), each sum as labels."""
    _, degrees, _, (labels, strides), _ = _abelian_coordinates(h)
    later = order[::-1].cumprod()[::-1] // order
    digits = np.arange(math.prod(order.tolist()))[:, None] // later % order
    return labels[(digits @ cocycle).reshape(len(digits), m * m, len(degrees)) % degrees @ strides]


def _by_first_appearance(labels: "np.ndarray") -> "np.ndarray":
    """Integer `labels` renumbered 0, 1, ... in order of first appearance."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def _cocycle_blocks(h: FiniteGroup, g: FiniteGroup, batch, w, carry=None):
    """Yield `(alpha, block, tags, orbit)` per action of `batch`, the
    `_gauge_slice_classes` items of some actions: Z^2 of each, in the
    stream's order, or with `carry` = (hm, embed, f0), H's uint8 table, the
    labels in H of h's elements and one uint8 row per action, each block
    carried into H as f0 Z^2.

    Z^2 is the direct product of the gauge slice and delta(W), W the maps t
    with t(1) = 1 that are the unit on the generators, one per row of `w`: a
    shift by a map of W moves any cocycle into the slice, and only the unit
    map of W has its coboundary there (both down the gauge tree).  So each
    block is one table lookup with no duplicates, the action's slice against
    its own delta(W) (delta(W) taken under every action at once), and each
    row, in its member's class since delta(W) lies in B^2, carries its tag.
    The rows are sorted by action, then by the cocycle read column-major, the
    stream's order.  Each lookup is copied into the sort
    keys as it is made and the blocks are read back off the sorted keys, so
    the batch never holds its rows beside its keys; delta(W) is built about
    `_CHUNK` cells at a time.  A carry multiplies the lookups by f0 before
    the sort.
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
    stacked = np.array(acts)
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
        cells[...] = _mul(hm, columns, np.repeat(delta_w, counts, axis=0))
    else:
        start = 0
        for count, delta in zip(counts, delta_w):
            cells[start:start + count] = _mul(hm, columns[start:start + count], delta)
            start += count
    if carry is not None:
        hm_h, embed, f0 = carry
        cells[...] = _mul(hm_h, np.repeat(f0.reshape(-1, 1, m, m).transpose(0, 1, 3, 2), counts, axis=0), embed[cells])
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


# The block paths build about this many systems at once (`_central_blocks`
# multiplies slices by delta(W), `_lifted_systems` shifts blocks), so their
# memory follows one batch, never the stream
_BATCH = 4096
# The uint8 gathers work on about this many cells at a time: `_mul` takes a
# larger gather in flat chunks of this size, so its intp index copy stays one
# chunk, and `_cocycle_blocks` builds delta(W) in pieces of this size
_CHUNK = 1 << 16


def _center_group(h: FiniteGroup):
    """`(z, embed, index)`: Z(H) as a group, cached on h.

    Element k of z is the k-th least central element of H, `embed[k]`
    (uint8, `subgroup_as_group`), and `index` (intp, |H|) maps each central
    element back to its label in z, -1 off the centre.
    """
    cached = h._cache.get("center_group")
    if cached is None:
        sub = center(h)
        embed = np.array(sub.elements, dtype=np.uint8)
        index = np.full(h.order, -1, dtype=np.intp)
        index[embed] = np.arange(len(embed))
        cached = h._cache["center_group"] = (subgroup_as_group(sub)[0], embed, index)
    return cached


def _central_actions(h: FiniteGroup, g: FiniteGroup):
    """`(z, embed, alphas, acts, f0)`: the first lift of every outer action
    with systems, and Z(H) as a G-module under it.

    The outer actions psi: G -> Out(H) come in lexicographic order
    (`_outer_homomorphisms`), and alpha0, the first lift of psi, takes the
    least automorphism index in each coset psi(g) (`_lift_products`).  Inner
    automorphisms fix Z(H) pointwise, so alpha0 on Z(H) is an action of G
    that depends on psi alone: `acts` holds its uint8 value rows
    (A, |G|, |Z(H)|) on z, Z(H) as a group (`_center_group`, `embed` its
    labels in H).  Two cocycles over alpha0 differ cell by cell by a central
    factor, and for a central z the product f0 z is a cocycle exactly when
    z is a cocycle of the module, so the systems on alpha0 are
    f0 Z^2(G, Z(H)) for any one of them, f0 (uint8 rows (A, |G|^2),
    `_first_cocycles`).  A psi with no f0 has no system and is left out.
    For abelian H, Z(H) = H, alpha0 is psi and f0 = 1: z is h, and `embed`
    and `f0` are None.
    """
    psis, cosets = _outer_homomorphisms(h, g)
    alphas = [tuple(cosets[k][0] for k in psi) for psi in psis]
    perms = _aut_perms(h)[np.array(alphas, dtype=np.intp)]
    if h.is_abelian:
        return h, None, alphas, perms, None
    z, embed, index = _center_group(h)
    acts = index[perms[:, :, embed]].astype(np.uint8)
    f0, held = _first_cocycles(h, g, alphas, perms, acts)
    keep = held.nonzero()[0]
    return z, embed, [alphas[a] for a in keep], acts[keep], f0[keep]


def _first_cocycles(h: FiniteGroup, g: FiniteGroup, alphas, perms, acts):
    """`(f0, held)`: a normalized cocycle over each non-abelian action alpha0
    of `alphas` (value rows `perms`, and `acts` on Z(H)), where one exists.

    Cell (g1, g2) of a cocycle over alpha0 lies in the coset of Z(H) that
    conjugates like alpha0(g1) alpha0(g2) alpha0(g1 g2)^-1, and f~ takes its
    first member (`_aut_arrays`).  An axiom instance (g1, g2, g3) has the
    residual f(g1, g2) f(g1 g2, g3) (g1(f(g2, g3)) f(g1, g2 g3))^-1
    (`_residual`), central because both sides conjugate alike, and f~ z, z
    central, has the residual res(f~) delta(z).  So f0 = f~ z for a z with
    delta(z) = res(f~)^-1 over Z(H) (`_central_corrections`), and `held[a]`
    is False when there is none.  The instances whose g3 is a generator
    (`generating_sequence`) are enough: in the product set H x G they are
    associativity with (1, g3) on the right, and the elements on the right
    of which associativity holds are closed under products and hold every
    (h, 1), by the first axiom, so they are all of H x G.
    """
    n, m = h.order, g.order
    count = len(alphas)
    a = np.array(alphas, dtype=np.intp)
    gm = g.table_array
    comp = _aut_tables(h)[0].table_array
    ftilde = _aut_arrays(h)[1][comp[a[:, :, None], a[:, None, :]], a[:, gm]].reshape(count, m * m)
    if ftilde.min() < 0:
        raise InternalInvariantError("a cocycle cell has no coset of Z(H)")
    f0 = ftilde.astype(np.uint8)
    held = np.ones(count, dtype=bool)
    z, embed, index = _center_group(h)
    if z.order == 1:   # every residual is central: f~ is the cocycle
        return f0, held
    gens = np.array(generating_sequence(g))
    e = np.arange((m - 1) ** 2 * len(gens))
    g1, g2, g3 = e // ((m - 1) * len(gens)) + 1, e // len(gens) % (m - 1) + 1, gens[e % len(gens)]
    quad = np.array([g1 * m + g2, gm[g1, g2] * m + g3, g2 * m + g3, g1 * m + gm[g2, g3]])
    wide = perms.astype(np.intp)
    at = (np.arange(count)[:, None] * m + g1) * n
    residual = index[_residual(h, wide, at, ftilde[:, quad])]
    if residual.min() < 0:
        raise InternalInvariantError("a residual is not central")
    need = residual.any(axis=1).nonzero()[0]
    if len(need):
        tree = [p * m + s for (_, p, s) in _gauge_tree(g)[1]]
        cells = np.setdiff1d(g1 * m + g2, tree)   # a solution exists iff one is the unit on the tree cells
        corrections, held[need] = _central_corrections(z, g, acts[need], residual[need], quad, g1, cells)
        f0[need[:, None], cells] = _byte_tables(h)[0][f0[need][:, cells], embed[corrections]]
        if (_residual(h, wide, at, f0[:, quad].astype(np.intp)).any(axis=1) & held).any():
            raise InternalInvariantError("a corrected cocycle fails an axiom instance")
    return f0, held


def _central_corrections(z: FiniteGroup, g: FiniteGroup, acts, residual, quad, g1, cells):
    """`(corrections, held)`: per action of `acts` (uint8 rows on the
    abelian group z), a z-valued cochain c on the `cells` with
    delta(c) = `residual`^-1 on the instances `quad`, `g1` (`_residual`),
    as labels (A, len(cells)), and whether one exists.

    delta is linear, so each p-part of z is solved on its own over Z/q,
    q = p^a (`_abelian_coordinates`): the residuals of every basis vector
    (e_i on one cell) are the rows of M, and the kernel of M with one more
    row, the residuals b themselves (`_kernel_bases`), holds (c, lambda)
    with c M + lambda b = 0.  A solution exists exactly when some kernel
    row has lambda a unit (the lambdas form an ideal of Z/q), and that row
    times lambda^-1 is one.
    """
    m, count, k = g.order, len(acts), len(cells)
    basis, degrees, coords, (labels, strides), primes = _abelian_coordinates(z)
    wide = acts.astype(np.intp)
    held = np.ones(count, dtype=bool)
    solution = np.zeros((count, k, len(basis)), dtype=np.intp)
    for (p, q, idx) in primes:
        r = len(idx)
        seeds = np.zeros((count, k, r, m * m), dtype=np.intp)
        seeds[:, np.arange(k)[:, None], np.arange(r), cells[:, None]] = basis[idx]
        which = np.repeat(np.arange(count), k * r)
        values = coords[_residual(z, wide, (which[:, None] * m + g1) * z.order, seeds.reshape(-1, m * m)[:, quad])]
        scale = q // degrees[idx]
        mats = np.concatenate([
            (values[..., idx] * scale).reshape(count, k * r, -1),
            (coords[residual][..., idx] * scale).reshape(count, 1, -1),
        ], axis=1)
        kernel, orders = _kernel_bases(mats, p, q, np.append(np.tile(degrees[idx], k), q))
        lam = kernel[:, :, -1]
        unit = (orders > 1) & (lam % p != 0)
        held &= unit.any(axis=1)
        row = kernel[np.arange(count), unit.argmax(axis=1)]
        inverse = _chain_ring(p, q)[2][row[:, -1] % q]
        solution[:, :, idx] = (row[:, :-1] * inverse[:, None]).reshape(count, k, r) % degrees[idx]
    return labels[solution @ strides], held


def _central_blocks(h: FiniteGroup, g: FiniteGroup):
    """Yield `(alpha0, block, tags, orbit)` per outer action with systems:
    the block of its first lift, f0 Z^2(G, Z(H)) (`_central_actions`), in
    the stream's order.

    Z^2 of the module is its gauge slice (`_gauge_slice_classes`) times
    delta(W) (`_cocycle_blocks`, which carries it into H, times f0, for
    non-abelian H), built about `_BATCH` systems at a time; W, the maps that
    are the unit on the generators, is the same for every action, its rows
    taking every value off the generators (`_all_shifts`).  The shifts that
    keep alpha0 are the maps into Z(H), which multiply by B^2(G, Z(H)), so
    each eq1 class meets the block in one class f B^2(G, Z(H)) of
    `orbit` = |B^2(G, Z(H))| rows.  `tags`
    number the classes across the pair: those of earlier outer actions
    first, then in order of first appearance in the slice.
    """
    z, embed, alphas, acts, f0 = _central_actions(h, g)
    n, m = z.order, g.order
    gens = generating_sequence(g)
    rest = [x for x in range(1, m) if x not in gens]
    w = np.zeros((n ** len(rest), m), dtype=np.uint8)
    w[:, rest] = _all_shifts(n, len(rest) + 1)[:, 1:]
    hm = _byte_tables(h)[0]
    done = classes = 0

    def blocks(batch):
        nonlocal done, classes
        carry = None if f0 is None else (hm, embed, f0[done:done + len(batch)])
        done += len(batch)
        for alpha, block, tags, orbit in _cocycle_blocks(z, g, batch, w, carry):
            yield alpha, block, tags + classes, orbit
            classes += len(block) // orbit

    batch, size = [], 0
    for item in _gauge_slice_classes(z, g, alphas, acts):
        batch.append(item)
        size += len(item[2]) * len(w)
        if size >= _BATCH:
            yield from blocks(batch)
            batch, size = [], 0
    yield from blocks(batch)


def _tagged_blocks(h: FiniteGroup, g: FiniteGroup):
    """Yield `(alpha, block, tags, orbit)` per action with systems, in the
    order of `enumerate_raw_systems`: the `_system_blocks` items, each row
    tagged by its eq1 class, numbered across the pair, and each class
    holding `orbit` rows of every block it meets.

    The first lift of each outer action gets its block from the centre
    (`_central_blocks`), and the other lifts by shifting it
    (`_lifted_systems`); for abelian H, Inn(H) = 1, so every action is the
    one lift of its outer action and the first blocks are the stream.  G = 1
    has one action and one system.
    """
    if g.order == 1:   # no automorphism tables
        return iter([((0,), np.zeros((1, 1), dtype=np.uint8), np.zeros(1, dtype=np.intp), 1)])
    bases = _central_blocks(h, g)
    return bases if h.is_abelian else _lifted_systems(h, g, list(bases))


def _lifted_systems(h: FiniteGroup, g: FiniteGroup, bases):
    """`_tagged_blocks` for non-abelian H, from `bases`, the
    `_central_blocks` items.

    The systems over one outer action psi: G -> Out(H) are one orbit under
    shifts (the source paper's Schreier-type theorem; Brown, Cohomology of
    Groups, IV.6).  Every lift alpha of psi other than the first, alpha0,
    is alpha = c_t alpha0, t(g) the first c in H with alpha(g) alpha0(g)^-1 =
    c_t, and the shift by t,

        f(g1, g2) = t(g1) alpha0(g1)(t(g2)) f0(g1, g2) t(g1 g2)^-1

    (`_shift_factors`), maps the systems on alpha0 one to one onto those on
    alpha, each into its own eq1 class, so every row keeps its tag; a psi
    with no base has no system on any lift.  The lifts (`_lift_products`)
    are walked in the stream's order and shifted in batches of blocks of
    one size (`_shift_lifts`), base blocks riding along in their places, so
    a small pair shifts all its lifts at once.
    """
    products = _lift_products(h, [alpha0 for (alpha0, _, _, _) in bases])
    tagged = heapq.merge(*(zip(lifts, itertools.repeat(p)) for p, lifts in enumerate(products)))

    def emit(pending, lifts):
        shifted = _shift_lifts(h, g, lifts, bases) if lifts else iter(())
        for alpha, p in pending:
            yield bases[p] if alpha == bases[p][0] else next(shifted)

    pending, lifts, size = [], [], 0   # every pending lift in order, and those to shift
    for alpha, p in tagged:
        k = len(bases[p][1])
        if alpha != bases[p][0]:
            if lifts and (k != size or len(lifts) * k >= _BATCH):
                yield from emit(pending, lifts)
                pending, lifts = [], []
            size = k
            lifts.append((alpha, p))
        pending.append((alpha, p))
    yield from emit(pending, lifts)


def _shift_lifts(h: FiniteGroup, g: FiniteGroup, pending, bases):
    """`(alpha, block, tags, orbit)` per pending `(alpha, p)`, in order: the
    block of `bases[p]` shifted from its alpha0 onto alpha
    (`_lifted_systems`) and sorted into the stream's order, its tags with
    it.  Every base block has the same number of rows.

    The shift factors of every lift take one `_shift_factors`, then both
    products over every row one gather each.
    """
    m = g.order
    perms, shift = _aut_arrays(h)
    alphas, owners = zip(*pending)
    used = {p: j for j, p in enumerate(dict.fromkeys(owners))}
    which = np.array([used[p] for p in owners], dtype=np.intp)
    alpha0 = np.array([bases[p][0] for p in used], dtype=np.intp)[which]
    block0 = np.stack([bases[p][1] for p in used])[which]
    tags = np.stack([bases[p][2] for p in used])[which]
    t = shift[np.array(alphas, dtype=np.intp), alpha0]
    if (t < 0).any():
        raise InternalInvariantError("a lift is not an inner shift of its base")
    left, right = _shift_factors(h, g, perms, alpha0, t)
    hm = _byte_tables(h)[0]
    shifted = _mul(hm, _mul(hm, left[:, None], block0), right[:, None])
    if block0.shape[1] > 1:
        every = np.arange(len(shifted))[:, None]
        order = _column_order(shifted, m)
        shifted, tags = shifted[every, order], tags[every, order]
    return zip(alphas, shifted, tags, [bases[p][3] for p in owners])


def iter_orbit_representatives(h: FiniteGroup, g: FiniteGroup, *, cap: int = DEFAULT_PAIR_CAP):
    """Yield one raw system `(alpha, f_bytes)` per stabilizing-equivalence orbit.

    Every orbit meets the first lift alpha0 of its outer action, in a class
    f0 z B^2(G, Z(H)) of the module Z(H) (`_central_actions`; for abelian H,
    Z(H) = H, f0 = 1 and the orbit is a class f B^2).  Only the module's
    gauge slice is enumerated: the cocycles that are the unit on every tree
    cell (p, s) of a BFS spanning tree of G (`_gauge_tree`).  Every class
    meets it, since setting t(s) = 1 on the generators and
    t(p s) = t(p) p(t(s)) z(p, s) down the tree moves z into it, and meets
    it in the T0-orbit of any member (`_gauge_shifts`, |Z(H)|^#generators
    maps instead of |Z(H)|^(|G|-1)).  f0 times the least slice member of
    each T0-orbit, the first member of its tag, is yielded, orbits
    ascending (`_gauge_slice_classes`: in closed form for cyclic G, by
    linear algebra for any other G), so the yield count is the class count.
    G = 1 has one system.  Orbit members share their product's isomorphism
    type, which is what bulk consumers rely on.
    """
    _check_pair(h, g, cap)
    if g.order == 1:
        yield (0,), bytes(1)
        return
    z, embed, alphas, acts, f0 = _central_actions(h, g)
    hm = _byte_tables(h)[0]
    for a, (alpha, _, members, tags, _) in enumerate(_gauge_slice_classes(z, g, alphas, acts)):
        classes = 0
        for i, tag in enumerate(tags.tolist()):
            if tag == classes:   # the tags number the classes in order of first appearance
                classes += 1
                yield alpha, (members[i] if f0 is None else hm[f0[a], embed[members[i]]]).tobytes()


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

    - eq1: each eq1 class meets the block of the first lift of its outer
      action in one coset f0 z B^2(G, Z(H)), and each other lift's block in
      that coset's shift, so `_tagged_blocks` tags every row by its class.
      The tags are carried through the key block's sort and read off; every
      class must hold exactly |B^2(G, Z(H))| systems of each block it meets,
      and each block's classes must be numbered consecutively
      (InternalInvariantError otherwise).
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
    _check_pair(h, g, cap)
    alphas, blocks, tags, orbits = zip(*_tagged_blocks(h, g))
    systems, order = _key_block(h, g, alphas, blocks)
    ids = np.concatenate(tags)
    count = int(ids.max()) + 1
    block_of = np.repeat(np.arange(len(blocks)), [len(block) for block in blocks])
    met, held = np.unique(block_of * count + ids, return_counts=True)
    block, label = np.divmod(met, count)
    if not (
        np.array_equal(held, np.array(orbits)[block])
        and (np.diff(label)[block[1:] == block[:-1]] == 1).all()
        and np.bincount(label, minlength=count).all()
    ):
        raise InternalInvariantError("an eq1 class does not hold |B^2(G, Z(H))| systems of each block it meets")
    eq1_of = _by_first_appearance(ids[order])
    keys = systems._keys
    sorted_keys = _key_view(keys)
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
