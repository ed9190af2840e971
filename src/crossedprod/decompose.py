"""Rebuilding systems from extensions, decomposition trees, and the
cyclic-by-cyclic presentation enumeration.

Any extension 1 -> H -> E -> G -> 1 with a unit-preserving section s yields a
normalized crossed system via

    action(g)(h) = s(g) h s(g)^-1        cocycle(g1, g2) = s(g1) s(g2) s(g1 g2)^-1

together with an isomorphism (h, g) -> i(h) s(g) from the rebuilt product
onto E.  Iterating over maximal normal subgroups decomposes any finite group
into a tree of simple leaves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CapExceededError,
    InternalInvariantError,
    InvalidDescriptorError,
    NotAbelianError,
    SectionInvalidError,
)
from .groups import (
    FiniteGroup,
    Homomorphism,
    Subgroup,
    are_isomorphic,
    automorphism_group,
    cyclic_group,
    identify_group,
    is_homomorphism,
    normal_subgroups,
    presentation_group,
    quotient,
    subgroup_as_group,
)
from .classify import DEFAULT_PAIR_CAP, iter_orbit_representatives
from .products import build_product, product_table_np
from .systems import CrossedSystem, cocycle, validate_crossed_system, weak_action


@dataclass(frozen=True)
class Extension:
    """An exact sequence 1 -> H -> E -> G -> 1 with the embedded image recorded."""

    e: FiniteGroup
    h_image: Subgroup
    i: Homomorphism
    pi: Homomorphism


def extension(e: FiniteGroup, i: Homomorphism, pi: Homomorphism) -> Extension:
    """Validate exactness and package the data."""
    if i.target != e or pi.source != e:
        raise SectionInvalidError("maps do not share the middle group")
    if not is_homomorphism(i.source, e, i.map) or not i.is_injective():
        raise SectionInvalidError("inclusion is not an injective homomorphism")
    if not is_homomorphism(e, pi.target, pi.map) or not pi.is_surjective():
        raise SectionInvalidError("projection is not a surjective homomorphism")
    if set(i.map) != set(pi.kernel_elements()):
        raise SectionInvalidError("image of the inclusion differs from the kernel")
    return Extension(e, Subgroup(e, tuple(sorted(i.map))), i, pi)


@dataclass(frozen=True)
class Section:
    """A set-theoretic right inverse of the projection with s(1) = 1."""

    table: tuple[int, ...]

    def __call__(self, g: int) -> int:
        return self.table[g]


def default_section(ext: Extension) -> Section:
    """Minimal-index preimage per quotient element; automatically unit-preserving."""
    g = ext.pi.target
    table = [-1] * g.order
    for x in ext.e.elements():
        q = ext.pi.map[x]
        if table[q] < 0:
            table[q] = x
    return Section(tuple(table))


def validate_section(ext: Extension, sec: Section) -> None:
    g = ext.pi.target
    if len(sec.table) != g.order:
        raise SectionInvalidError("section has wrong length")
    if sec.table[0] != 0:
        raise SectionInvalidError("section must send the unit to the unit")
    for q in g.elements():
        if ext.pi.map[sec.table[q]] != q:
            raise SectionInvalidError(f"section value at {q} is not a preimage")


def extract_crossed_system(ext: Extension, sec: Section) -> tuple[CrossedSystem, Homomorphism]:
    """Normalized crossed system of an extension, with the rebuild isomorphism.

    Returns (system, theta) where theta maps the built product group onto
    ext.e by (h, g) -> i(h) s(g).  Since s(1) = 1 the system is normalized,
    and by Schreier's theorem theta is an isomorphism compatible with the
    inclusion and the projection.
    """
    validate_section(ext, sec)
    h = ext.i.source
    g = ext.pi.target
    e = ext.e
    i_map = ext.i.map
    into_h = {v: k for k, v in enumerate(i_map)}
    s = sec.table
    perms = []
    for gi in g.elements():
        si, si_inv = s[gi], e.inv(s[gi])
        perms.append(
            tuple(into_h[e.mul(e.mul(si, i_map[x]), si_inv)] for x in h.elements())
        )
    f_rows = [
        [
            into_h[e.mul(e.mul(s[g1], s[g2]), e.inv(s[g.mul(g1, g2)]))]
            for g2 in g.elements()
        ]
        for g1 in g.elements()
    ]
    sys = validate_crossed_system(h, g, weak_action(g, h, perms), cocycle(g, h, f_rows))
    prod = build_product(sys)
    theta_map = tuple(e.mul(i_map[hh], s[gg]) for (hh, gg) in prod.pair_of_index)
    return sys, Homomorphism(prod.group, e, theta_map)


# decomposition trees -----------------------------------------------------------


@dataclass
class DecompositionTree:
    """A leaf (simple group) or a node carrying the system that rebuilds it."""

    group: FiniteGroup
    system: CrossedSystem | None = None
    theta: Homomorphism | None = None
    left: "DecompositionTree | None" = None   # normal part
    right: "DecompositionTree | None" = None  # quotient part

    @property
    def is_leaf(self) -> bool:
        return self.system is None

    def leaves(self) -> list[FiniteGroup]:
        if self.is_leaf:
            return [self.group]
        return self.left.leaves() + self.right.leaves()

    def leaf_orders(self) -> tuple[int, ...]:
        return tuple(sorted(g.order for g in self.leaves()))


def is_simple(g: FiniteGroup) -> bool:
    return g.order > 1 and len(normal_subgroups(g)) == 2


def decompose(e: FiniteGroup) -> DecompositionTree:
    """Split off a maximal proper normal subgroup and recurse on both parts.

    Every non-leaf node stores the crossed system over (normal part, quotient)
    plus the rebuild isomorphism from the product back onto the node's
    group.  Leaves are simple (the trivial group can only appear for order-1
    input).  The normal-subgroup choice is maximal order with lexicographic
    tie-break, so trees are deterministic.
    """
    candidates = [
        s for s in normal_subgroups(e) if 1 < s.order < e.order
    ]
    if not candidates:
        return DecompositionTree(group=e)
    best = sorted(candidates, key=lambda s: (-s.order, s.elements))[0]
    hsub, incl = subgroup_as_group(best)
    q, proj = quotient(e, best)
    ext = extension(e, incl, proj)
    sys, theta = extract_crossed_system(ext, default_section(ext))
    return DecompositionTree(
        group=e,
        system=sys,
        theta=theta,
        left=decompose(hsub),
        right=decompose(q),
    )


def decompose_abelian(e: FiniteGroup) -> DecompositionTree:
    """Decompose an abelian group; actions are trivial and leaves prime cyclic."""
    if not e.is_abelian:
        raise NotAbelianError(f"{e.name} is not abelian")
    return decompose(e)


# cyclic-by-cyclic enumeration ---------------------------------------------------


def holder_enumerate(
    n: int, m: int, *, dedupe: bool = False, cap: int = DEFAULT_PAIR_CAP
) -> list[tuple[int, int, FiniteGroup]]:
    """All (i, j) with i(j-1) = 0 and j^m = 1 mod n, with their presented groups.

    The group is generated by a, b subject to a^n = 1, b^m = a^i, b^-1 a b = a^j,
    materialized as a table on exponent pairs.  For n = 1 the relations
    degenerate and the single pair (0, 0) presents the cyclic group of order m.
    With dedupe=True only the first representative of each isomorphism class
    is kept.
    """
    if n < 1 or m < 1:
        raise InvalidDescriptorError("orders must be positive")
    if n * m > cap:
        raise CapExceededError(f"n*m = {n * m} exceeds cap {cap}")
    out: list[tuple[int, int, FiniteGroup]] = []
    for i in range(n):
        for j in range(n):
            if (i * (j - 1)) % n == 0 and pow(j, m, n) == 1 % n:
                grp = presentation_group(n, m, i, j, f"P{n}.{m}.{i}.{j}")
                out.append((i, j, grp))
    if dedupe:
        reps: list[FiniteGroup] = []
        kept = []
        for (i, j, grp) in out:
            if all(are_isomorphic(r, grp) is None for r in reps):
                reps.append(grp)
                kept.append((i, j, grp))
        out = kept
    return out


def _collect_type(reps: list[FiniteGroup], grp: FiniteGroup) -> None:
    for r in reps:
        if are_isomorphic(r, grp) is not None:
            return
    reps.append(grp)


def holder_cross_validate(n: int, m: int, *, cap: int = DEFAULT_PAIR_CAP) -> dict:
    """Compare isomorphism types from the presentation list and from full
    crossed-system enumeration over (Cn, Cm); the two sets must coincide.

    Orbits under end-stabilizing shifts share a product type, so only orbit
    representatives are typed on the enumeration side.
    """
    pres = holder_enumerate(n, m, cap=cap)
    pres_reps: list[FiniteGroup] = []
    for (_, _, grp) in pres:
        _collect_type(pres_reps, grp)

    h, g = cyclic_group(n), cyclic_group(m)
    hm = np.array(h.table, dtype=np.int64)
    gm = np.array(g.table, dtype=np.int64)
    aut_perms = [np.array(a.map, dtype=np.int64) for a in automorphism_group(h)]
    sys_reps: list[FiniteGroup] = []
    for (alpha_indices, f_bytes) in iter_orbit_representatives(h, g, cap=cap):
        act = np.stack([aut_perms[a] for a in alpha_indices])
        f_arr = np.frombuffer(f_bytes, dtype=np.uint8).astype(np.int64).reshape(m, m)
        table = product_table_np(hm, gm, act, f_arr)
        grp = FiniteGroup(f"C{n}#C{m}", [list(map(int, row)) for row in table], validate=False)
        _collect_type(sys_reps, grp)

    matched = len(pres_reps) == len(sys_reps) and all(
        any(are_isomorphic(p, s) is not None for s in sys_reps) for p in pres_reps
    )
    report = {
        "n": n,
        "m": m,
        "presentation_pair_count": len(pres),
        "presentation_types": sorted(identify_group(t) for t in pres_reps),
        "system_types": sorted(identify_group(t) for t in sys_reps),
        "match": matched,
    }
    if not matched:
        raise InternalInvariantError(f"type sets disagree for ({n}, {m}): {report}")
    return report
