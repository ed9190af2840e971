"""Crossed systems (H, G, action, cocycle): validation and normalization.

A crossed system pairs a weak action of G on H (a table of automorphisms,
not required to be multiplicative in g) with a twisted cocycle f: GxG -> H.
The two defining axioms are:

  action compatibility:  g1 |> (g2 |> h) == f(g1,g2) * ((g1 g2) |> h) * f(g1,g2)^-1
  cocycle law:           f(g1,g2) * f(g1 g2, g3) == (g1 |> f(g2,g3)) * f(g1, g2 g3)

A system is normalized when f(1,1) = 1, which forces f(1,g) = f(g,1) = 1 and
1 |> h = h.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import AxiomViolationError, InvalidDescriptorError, InvalidTableError
from .groups import (
    Automorphism,
    FiniteGroup,
    Subgroup,
    automorphism_index,
    center,
    identity_automorphism,
    inner_automorphisms,
    int_rows,
    is_homomorphism,
)


@dataclass(frozen=True)
class WeakAction:
    """One automorphism of `space` per element of `actor`.

    Facts that depend only on the action (`perms`, `is_trivial()`,
    `center_plan`) are computed on first use and kept on the object, like
    `Automorphism._inverse`; they are not dataclass fields, so equality and
    hashing are unchanged.  Systems streamed for one action share one object
    (`classify.system_from_raw`), so each fact is computed once per action.
    """

    actor: FiniteGroup
    space: FiniteGroup
    table: tuple[Automorphism, ...]

    @cached_property
    def perms(self) -> tuple[tuple[int, ...], ...]:
        return tuple(a.map for a in self.table)

    def act(self, g: int, h: int) -> int:
        return self.table[g].map[h]

    def is_trivial(self) -> bool:
        return self._trivial

    @cached_property
    def _trivial(self) -> bool:
        ident = tuple(range(self.space.order))
        return all(a.map == ident for a in self.table)

    @cached_property
    def center_plan(self) -> tuple[tuple[int, dict[tuple[int, ...], list[int]]], ...]:
        """`(g, keys)` for each g in Z(G), ascending, whose action is inner.

        keys maps (h^-1 (g' |> h))_{g' in G} to the h with h^-1 x h = g |> x
        that give it, so the h of the central pairs (h, g) of a system are one
        lookup of the tuple its cocycle gives (`products.center_pairs`).
        """
        hm = self.space.table
        hinv = self.space.inverse_table
        act = self.perms
        inner = inner_automorphisms(self.space)
        plan = []
        for g in center(self.actor).elements:
            cs = inner.get(act[g])
            if cs:
                keys: dict[tuple[int, ...], list[int]] = {}
                for c in cs:     # h = c^-1
                    h, row = hinv[c], hm[c]
                    keys.setdefault(tuple([row[a[h]] for a in act]), []).append(h)
                plan.append((g, keys))
        return tuple(plan)


def weak_action(actor: FiniteGroup, space: FiniteGroup, perms) -> WeakAction:
    """Build a WeakAction, verifying every entry is an automorphism of `space`."""
    rows = tuple(tuple(int(v) for v in p) for p in perms)
    if len(rows) != actor.order:
        raise InvalidTableError("action table length differs from |G|", (len(rows),))
    entries = []
    elements = list(space.elements())
    for g, p in enumerate(rows):
        if sorted(p) != elements or not is_homomorphism(space, space, p):
            raise InvalidTableError("action entry is not an automorphism", (g,))
        entries.append(Automorphism(space, space, p))
    return WeakAction(actor, space, tuple(entries))


def trivial_action(actor: FiniteGroup, space: FiniteGroup) -> WeakAction:
    ident = identity_automorphism(space)
    return WeakAction(actor, space, tuple(ident for _ in actor.elements()))


@dataclass(frozen=True)
class Cocycle:
    """A map GxG -> H stored densely as a |G| x |G| table of H-indices."""

    source: FiniteGroup
    target: FiniteGroup
    table: tuple[tuple[int, ...], ...]

    def value(self, g1: int, g2: int) -> int:
        return self.table[g1][g2]


def cocycle(source: FiniteGroup, target: FiniteGroup, table) -> Cocycle:
    rows = tuple(tuple(int(v) for v in row) for row in table)
    if len(rows) != source.order or any(len(r) != source.order for r in rows):
        raise InvalidTableError("cocycle table is not |G| x |G|", (len(rows),))
    for g1, row in enumerate(rows):
        for g2, v in enumerate(row):
            if not 0 <= v < target.order:
                raise InvalidTableError("cocycle value out of range", (g1, g2, v))
    return Cocycle(source, target, rows)


def trivial_cocycle(source: FiniteGroup, target: FiniteGroup) -> Cocycle:
    row = tuple(0 for _ in source.elements())
    return Cocycle(source, target, tuple(row for _ in source.elements()))


def is_symmetric(cocycle: Cocycle) -> bool:
    t = cocycle.table
    n = len(t)
    return all(t[a][b] == t[b][a] for a in range(n) for b in range(a + 1, n))


@dataclass(frozen=True)
class CrossedSystem:
    """A validated quadruple (H, G, action, cocycle)."""

    h: FiniteGroup
    g: FiniteGroup
    action: WeakAction
    cocycle: Cocycle
    normalized: bool

    def act(self, g: int, h: int) -> int:
        return self.action.table[g].map[h]

    def f(self, g1: int, g2: int) -> int:
        return self.cocycle.table[g1][g2]

    def encoding(self) -> tuple[int, ...]:
        """Automorphism indices in Aut(H) order, then the cocycle row-major."""
        idx = automorphism_index(self.h)
        alpha = tuple(idx[a.map] for a in self.action.table)
        flat = tuple(v for row in self.cocycle.table for v in row)
        return alpha + flat

    def __eq__(self, other):
        return (
            isinstance(other, CrossedSystem)
            and self.h.table == other.h.table
            and self.g.table == other.g.table
            and self.action.perms == other.action.perms
            and self.cocycle.table == other.cocycle.table
        )

    def __hash__(self):
        return hash((self.h.table, self.g.table, self.action.perms, self.cocycle.table))


def validate_crossed_system(
    h: FiniteGroup, g: FiniteGroup, action: WeakAction, cocycle: Cocycle
) -> CrossedSystem:
    """Check both axioms exhaustively; raise AxiomViolationError on the first failure.

    Action compatibility is scanned in O(|G|^2 |H|), the cocycle law in
    O(|G|^3); counterexamples are reported
    in ascending order so rejection is deterministic.
    """
    if action.space != h or action.actor != g:
        raise InvalidTableError("action is not on (H, G)", ())
    if cocycle.source != g or cocycle.target != h:
        raise InvalidTableError("cocycle is not G x G -> H", ())
    hm = h.table
    hinv = h.inverse_table
    gm = g.table
    act = action.perms
    f = cocycle.table
    m, n = g.order, h.order
    for g1 in range(m):
        a1 = act[g1]
        for g2 in range(m):
            a2 = act[g2]
            a12 = act[gm[g1][g2]]
            c = f[g1][g2]
            cinv = hinv[c]
            for x in range(n):
                if a1[a2[x]] != hm[hm[c][a12[x]]][cinv]:
                    raise AxiomViolationError("action-compatibility", (g1, g2, x))
    for g1 in range(m):
        a1 = act[g1]
        row1 = f[g1]
        for g2 in range(m):
            g12 = gm[g1][g2]
            f12 = row1[g2]
            for g3 in range(m):
                if hm[f12][f[g12][g3]] != hm[a1[f[g2][g3]]][row1[gm[g2][g3]]]:
                    raise AxiomViolationError("cocycle-law", (g1, g2, g3))
    return CrossedSystem(h, g, action, cocycle, normalized=f[0][0] == 0)


def derived_identities_check(sys: CrossedSystem) -> dict[str, bool]:
    """Evaluate the unit identities that follow from the axioms.

    For any valid system: f(g,1) = g |> f(1,1); 1 |> h is conjugation by
    f(1,1); f(1,g) = f(1,1).  Normalized systems additionally have
    f(1,g) = f(g,1) = 1 and 1 |> h = h.  A failure here signals a bug, not
    bad input.
    """
    h, g = sys.h, sys.g
    act = sys.action.perms
    f = sys.cocycle.table
    f11 = f[0][0]
    report = {
        "unit_row": all(f[x][0] == act[x][f11] for x in g.elements()),
        "unit_action_is_conjugation": all(
            act[0][y] == h.mul(h.mul(f11, y), h.inv(f11)) for y in h.elements()
        ),
        "unit_column": all(f[0][x] == f11 for x in g.elements()),
    }
    if sys.normalized:
        report["normalized_units"] = all(
            f[0][x] == 0 and f[x][0] == 0 for x in g.elements()
        ) and all(act[0][y] == y for y in h.elements())
    return report


def invariant_subgroup(sys: CrossedSystem) -> Subgroup:
    """Elements of H fixed by the action of every element of G."""
    act = sys.action.perms
    fixed = tuple(
        x for x in sys.h.elements() if all(p[x] == x for p in act)
    )
    return Subgroup(sys.h, fixed)


def normalize(sys: CrossedSystem) -> CrossedSystem:
    """An equivalent normalized system on the same (H, G).

    Builds the product group of the (possibly non-normalized) system and
    re-extracts along the section g -> (1_H, g), with the unit mapped to the
    product identity.  On normalized input this reproduces the system exactly;
    in general the product groups before and after are isomorphic.
    """
    if sys.normalized:
        return sys
    from .products import build_product
    from .decompose import Extension, Section, extract_crossed_system

    prod = build_product(sys)
    ext = Extension(
        e=prod.group,
        h_image=Subgroup(prod.group, tuple(sorted(prod.include_h.map))),
        i=prod.include_h,
        pi=prod.project_g,
    )
    sec = Section(table=tuple(
        0 if gg == 0 else prod.encode(0, gg) for gg in sys.g.elements()
    ))
    extracted, _ = extract_crossed_system(ext, sec)
    return extracted


# document round-trip ---------------------------------------------------------


def system_to_doc(sys: CrossedSystem) -> dict:
    from .groups import group_to_doc

    return {
        "h": group_to_doc(sys.h),
        "g": group_to_doc(sys.g),
        "alpha": [list(a.map) for a in sys.action.table],
        "f": [list(row) for row in sys.cocycle.table],
    }


def system_from_doc(doc: dict, *, max_order: int = 256) -> CrossedSystem:
    from .groups import make_group

    if not isinstance(doc, dict):
        raise InvalidDescriptorError("a system document must be a JSON object")
    h = make_group(doc["h"], max_order=max_order)
    g = make_group(doc["g"], max_order=max_order)
    action = weak_action(g, h, int_rows(doc["alpha"], "alpha"))
    cyc = cocycle(g, h, int_rows(doc["f"], "f"))
    return validate_crossed_system(h, g, action, cyc)
