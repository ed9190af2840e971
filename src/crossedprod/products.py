"""The product group of a crossed system, and its structural features.

The product lives on pairs (h, g) with multiplication

    (h1, g1) * (h2, g2) = (h1 * (g1 |> h2) * f(g1, g2), g1 g2)

and unit (f(1,1)^-1, 1).  Pairs are packed as h + |H|*g and then renumbered
so the unit sits at index 0, keeping the global identity convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ActionNotHomomorphismError,
    CocycleConditionError,
    CocycleNotCentralError,
    InternalInvariantError,
)
from .groups import FiniteGroup, Homomorphism, Subgroup, center
from .systems import (
    Cocycle,
    CrossedSystem,
    WeakAction,
    is_symmetric,
    trivial_action,
    trivial_cocycle,
    validate_crossed_system,
)


@dataclass(frozen=True)
class CrossedProductGroup:
    """A built product with its pair coordinates and canonical extension maps."""

    system: CrossedSystem
    group: FiniteGroup
    index_of_pair: tuple[int, ...]      # (h, g) packed as h + |H|*g -> group index
    pair_of_index: tuple[tuple[int, int], ...]
    include_h: Homomorphism             # h -> (h*f(1,1)^-1, 1)
    project_g: Homomorphism             # (h, g) -> g

    def encode(self, h: int, g: int) -> int:
        return self.index_of_pair[h + self.system.h.order * g]

    def decode(self, idx: int) -> tuple[int, int]:
        return self.pair_of_index[idx]


def product_table_np(hm: np.ndarray, gm: np.ndarray, act: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Product table in packed (h + |H|*g) coordinates from the H and G tables,
    the action rows and the cocycle table; the package's one table kernel."""
    n = hm.shape[0]
    m = gm.shape[0]
    size = n * m
    idx = np.arange(size)
    h1 = (idx % n)[:, None]
    g1 = (idx // n)[:, None]
    h2 = (idx % n)[None, :]
    g2 = (idx // n)[None, :]
    moved = act[g1, h2]
    t = hm[hm[h1, moved], f[g1, g2]]
    return t + n * gm[g1, g2]


def build_product(sys: CrossedSystem) -> CrossedProductGroup:
    """Build the product group of a valid crossed system.

    Nothing is re-checked: the two axioms that validate_crossed_system checked
    make the pair table a group table and the canonical maps an exact sequence.
    """
    h, g = sys.h, sys.g
    n = h.order
    raw = product_table_np(
        np.array(h.table), np.array(g.table),
        np.array(sys.action.perms), np.array(sys.cocycle.table),
    )
    f11inv = h.inv(sys.f(0, 0))
    # swap the packed unit (f(1,1)^-1, 1) with index 0; the swap is an
    # involution, so it maps packed pairs to indices and back
    perm = np.arange(n * g.order)
    perm[[0, f11inv]] = f11inv, 0
    table = perm[raw[np.ix_(perm, perm)]]
    group = FiniteGroup(f"{h.name}#{g.name}", table.tolist(), validate=False)
    index_of_pair = tuple(perm.tolist())
    pair_of_index = tuple((k % n, k // n) for k in index_of_pair)
    include = Homomorphism(
        h, group, tuple(index_of_pair[h.mul(x, f11inv)] for x in h.elements())
    )
    project = Homomorphism(group, g, tuple(p[1] for p in pair_of_index))
    return CrossedProductGroup(
        system=sys,
        group=group,
        index_of_pair=index_of_pair,
        pair_of_index=pair_of_index,
        include_h=include,
        project_g=project,
    )


@lru_cache(maxsize=512)
def cached_product(sys: CrossedSystem) -> CrossedProductGroup:
    """Memoized build_product for modules that repeatedly touch the same system."""
    return build_product(sys)


def check_action_multiplicative(h: FiniteGroup, g: FiniteGroup, action: WeakAction) -> None:
    perms = action.perms
    for g1 in g.elements():
        p1 = perms[g1]
        for g2 in g.elements():
            p2 = perms[g2]
            p12 = perms[g.mul(g1, g2)]
            if any(p1[p2[x]] != p12[x] for x in h.elements()):
                raise ActionNotHomomorphismError(
                    f"action is not multiplicative at ({g1}, {g2})"
                )


def check_classical_central_cocycle(h: FiniteGroup, g: FiniteGroup, cyc: Cocycle) -> None:
    zh = set(center(h).elements)
    for g1 in g.elements():
        for g2 in g.elements():
            if cyc.table[g1][g2] not in zh:
                raise CocycleNotCentralError(
                    f"f({g1},{g2}) = {cyc.table[g1][g2]} is not central in H"
                )
    hm = h.table
    gm = g.table
    f = cyc.table
    for g1 in g.elements():
        for g2 in g.elements():
            g12 = gm[g1][g2]
            for g3 in g.elements():
                if hm[f[g1][g2]][f[g12][g3]] != hm[f[g2][g3]][f[g1][gm[g2][g3]]]:
                    raise CocycleConditionError(
                        f"2-cocycle identity fails at ({g1}, {g2}, {g3})"
                    )


def build_semidirect(h: FiniteGroup, g: FiniteGroup, action: WeakAction) -> CrossedProductGroup:
    """Product with trivial cocycle; the action must be multiplicative in g."""
    check_action_multiplicative(h, g, action)
    sys = validate_crossed_system(h, g, action, trivial_cocycle(g, h))
    return build_product(sys)


def build_twisted(h: FiniteGroup, g: FiniteGroup, cyc: Cocycle) -> CrossedProductGroup:
    """Product with trivial action; the cocycle must be central and classical.

    Central means every value lies in Z(H); classical means
    f(g1,g2) f(g1g2,g3) = f(g2,g3) f(g1,g2g3).
    """
    check_classical_central_cocycle(h, g, cyc)
    sys = validate_crossed_system(h, g, trivial_action(g, h), cyc)
    return build_product(sys)


# structure ------------------------------------------------------------------


def center_pairs(sys: CrossedSystem) -> frozenset[tuple[int, int]]:
    """Centre of the product computed from system data alone.

    (h, g) is central iff: conjugation by h on H equals the action of g,
    g is central in G, and (g' |> h) f(g', g) = h f(g, g') for every g'.
    Requires a normalized system.
    """
    h_grp, g_grp = sys.h, sys.g
    hm = h_grp.table
    hinv = h_grp.inverse_table
    act = sys.action.perms
    f = sys.cocycle.table
    zg = set(center(g_grp).elements)
    out = set()
    for g in g_grp.elements():
        if g not in zg:
            continue
        pg = act[g]
        for h in h_grp.elements():
            hi = hinv[h]
            if any(pg[x] != hm[hm[hi][x]][h] for x in h_grp.elements()):
                continue
            if all(
                hm[act[gp][h]][f[gp][g]] == hm[h][f[g][gp]]
                for gp in g_grp.elements()
            ):
                out.add((h, g))
    return frozenset(out)


def product_center(p: CrossedProductGroup) -> Subgroup:
    """Centre of the product via the pair conditions, cross-checked directly."""
    pairs = center_pairs(p.system)
    elems = tuple(sorted(p.encode(h, g) for (h, g) in pairs))
    if elems != center(p.group).elements:
        raise InternalInvariantError("pair-condition centre disagrees with table scan")
    return Subgroup(p.group, elems)


def abelian_by_criterion(sys: CrossedSystem) -> bool:
    """Abelianness from system data: H, G abelian, trivial action, symmetric cocycle."""
    return (
        sys.h.is_abelian
        and sys.g.is_abelian
        and sys.action.is_trivial()
        and is_symmetric(sys.cocycle)
    )


def is_abelian_product(sys: CrossedSystem) -> bool:
    """Whether the built product is abelian; checked against the criterion."""
    prod = build_product(sys)
    direct = prod.group.is_abelian
    if direct != abelian_by_criterion(sys):
        raise InternalInvariantError("abelianness criterion disagrees")
    return direct


def centralizer_pairs(sys: CrossedSystem) -> frozenset[tuple[int, int]]:
    """Pairs (h, g) whose action part conjugates H exactly like h^-1 . h."""
    h_grp = sys.h
    hm = h_grp.table
    hinv = h_grp.inverse_table
    act = sys.action.perms
    out = set()
    for g in sys.g.elements():
        pg = act[g]
        for h in h_grp.elements():
            hi = hinv[h]
            if all(pg[x] == hm[hm[hi][x]][h] for x in h_grp.elements()):
                out.add((h, g))
    return frozenset(out)


def centralizer_of_h(p: CrossedProductGroup) -> Subgroup:
    """Centralizer of the embedded copy of H inside the product."""
    from .groups import centralizer

    sys = p.system
    pairs = centralizer_pairs(sys)
    elems = tuple(sorted(p.encode(h, g) for (h, g) in pairs))
    direct = centralizer(p.group, p.include_h.map).elements
    if elems != direct:
        raise InternalInvariantError("centralizer pair conditions disagree with table scan")
    if sys.h.is_abelian:
        kernel = tuple(
            g for g in sys.g.elements()
            if sys.action.perms[g] == tuple(range(sys.h.order))
        )
        expected = tuple(sorted(
            p.encode(h, g) for h in sys.h.elements() for g in kernel
        ))
        if elems != expected:
            raise InternalInvariantError("centralizer is not H x Ker(action)")
    return Subgroup(p.group, elems)
