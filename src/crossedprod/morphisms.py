"""Morphisms into, out of, and between crossed products.

Morphisms between two products over the same (H, G) correspond to quadruples
(u, r, v, s): u: H->H, r: G->H, v: G->G are bare maps and s: H->G is a
homomorphism, subject to five compatibility conditions.  Only s is assumed
multiplicative; u is constrained by condition 3 instead.  By that
correspondence the quadruples are read off Hom(E_A, E_B) of the two products,
found by `groups.homomorphism_maps`.  The other searches here are calls
of the shared kernel `groups.backtrack`: one candidate list per unknown value,
and an `accept` check that tests each condition instance as soon as its
arguments are assigned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InternalInvariantError,
    PairInvariantViolationError,
    QuadrupleConditionError,
)
from .groups import (
    FiniteGroup,
    Homomorphism,
    _completion_triples,
    backtrack,
    homomorphism_maps,
)
from .products import (
    cached_product,
    check_action_multiplicative,
    check_classical_central_cocycle,
)
from .systems import (
    Cocycle,
    CrossedSystem,
    WeakAction,
    trivial_action,
    trivial_cocycle,
    validate_crossed_system,
)


@dataclass(frozen=True)
class MorphismQuadruple:
    u: tuple[int, ...]
    r: tuple[int, ...]
    v: tuple[int, ...]
    s: Homomorphism

    def key(self) -> tuple:
        return (self.u, self.r, self.v, self.s.map)


@dataclass(frozen=True)
class PairIntoX:
    """(X, (u, v)) with u a homomorphism H -> X and v a bare map G -> X."""

    u: Homomorphism
    v: tuple[int, ...]


@dataclass(frozen=True)
class PairFromX:
    """(X, (u, v)) with u a bare map X -> H and v a homomorphism X -> G."""

    u: tuple[int, ...]
    v: Homomorphism


def _require_same_groups(sysA: CrossedSystem, sysB: CrossedSystem) -> None:
    if sysA.h.table != sysB.h.table or sysA.g.table != sysB.g.table:
        raise ValueError("both systems must live on the same (H, G)")
    if not (sysA.normalized and sysB.normalized):
        raise ValueError("both systems must be normalized")


# universal properties --------------------------------------------------------


def validate_pair_into(sys: CrossedSystem, pair: PairIntoX) -> None:
    """Check v(g1)v(g2) = u(f(g1,g2)) v(g1g2) and v(g)u(h) = u(g|>h)v(g)."""
    x = pair.u.target
    u, v = pair.u.map, pair.v
    xm = x.table
    gm = sys.g.table
    f = sys.cocycle.table
    act = sys.action.perms
    if len(v) != sys.g.order:
        raise PairInvariantViolationError("v has wrong length")
    for g1 in sys.g.elements():
        for g2 in sys.g.elements():
            if xm[v[g1]][v[g2]] != xm[u[f[g1][g2]]][v[gm[g1][g2]]]:
                raise PairInvariantViolationError(
                    f"cocycle compatibility fails at ({g1}, {g2})"
                )
    for g in sys.g.elements():
        for h in sys.h.elements():
            if xm[v[g]][u[h]] != xm[u[act[g][h]]][v[g]]:
                raise PairInvariantViolationError(
                    f"action compatibility fails at ({g}, {h})"
                )


def universal_map_out(sys: CrossedSystem, pair: PairIntoX) -> Homomorphism:
    """The unique homomorphism w out of the product with w(h, g) = u(h) v(g)."""
    if not sys.normalized:
        raise ValueError("requires a normalized system")
    validate_pair_into(sys, pair)
    prod = cached_product(sys)
    x = pair.u.target
    u, v = pair.u.map, pair.v
    xm = x.table
    wmap = [0] * prod.group.order
    for idx in prod.group.elements():
        h, g = prod.decode(idx)
        wmap[idx] = xm[u[h]][v[g]]
    return Homomorphism(prod.group, x, tuple(wmap))


def validate_pair_from(sys: CrossedSystem, pair: PairFromX) -> None:
    """Check u(xy) = u(x) (v(x) |> u(y)) f(v(x), v(y))."""
    x = pair.v.source
    u, v = pair.u, pair.v.map
    hm = sys.h.table
    f = sys.cocycle.table
    act = sys.action.perms
    if len(u) != x.order:
        raise PairInvariantViolationError("u has wrong length")
    for a in x.elements():
        for b in x.elements():
            expected = hm[hm[u[a]][act[v[a]][u[b]]]][f[v[a]][v[b]]]
            if u[x.mul(a, b)] != expected:
                raise PairInvariantViolationError(
                    f"twisted multiplicativity fails at ({a}, {b})"
                )


def universal_map_in(sys: CrossedSystem, pair: PairFromX) -> Homomorphism:
    """The unique homomorphism w into the product with w(x) = (u(x), v(x))."""
    if not sys.normalized:
        raise ValueError("requires a normalized system")
    validate_pair_from(sys, pair)
    prod = cached_product(sys)
    x = pair.v.source
    u, v = pair.u, pair.v.map
    return Homomorphism(x, prod.group, tuple(prod.encode(u[a], v[a]) for a in x.elements()))


# quadruples ------------------------------------------------------------------


def induced_map(sysA: CrossedSystem, sysB: CrossedSystem, q: MorphismQuadruple) -> tuple[int, ...]:
    """Element map of psi(h, g) = (u(h), s(h)) * (r(g), v(g)) in product coordinates."""
    prodA = cached_product(sysA)
    prodB = cached_product(sysB)
    hm = sysA.h.table
    gm = sysA.g.table
    actB = sysB.action.perms
    fB = sysB.cocycle.table
    u, r, v, s = q.u, q.r, q.v, q.s.map
    out = [0] * prodA.group.order
    for idx in prodA.group.elements():
        h, g = prodA.decode(idx)
        hpart = hm[hm[u[h]][actB[s[h]][r[g]]]][fB[s[h]][v[g]]]
        out[idx] = prodB.encode(hpart, gm[s[h]][v[g]])
    return tuple(out)


def verify_quadruple(
    sysA: CrossedSystem, sysB: CrossedSystem, q: MorphismQuadruple
) -> Homomorphism:
    """Check the five conditions; return the induced homomorphism of products.

    Raises QuadrupleConditionError carrying the index (1-5) of the first
    violated condition and a witnessing argument tuple.
    """
    _require_same_groups(sysA, sysB)
    h_grp, g_grp = sysA.h, sysA.g
    hm, gm = h_grp.table, g_grp.table
    actA, actB = sysA.action.perms, sysB.action.perms
    fA, fB = sysA.cocycle.table, sysB.cocycle.table
    u, r, v, s = q.u, q.r, q.v, q.s.map
    for g1 in g_grp.elements():
        for g2 in g_grp.elements():
            if gm[v[g1]][v[g2]] != gm[s[fA[g1][g2]]][v[gm[g1][g2]]]:
                raise QuadrupleConditionError(1, (g1, g2))
    for g in g_grp.elements():
        for h in h_grp.elements():
            if gm[v[g]][s[h]] != gm[s[actA[g][h]]][v[g]]:
                raise QuadrupleConditionError(2, (g, h))
    for h1 in h_grp.elements():
        for h2 in h_grp.elements():
            if u[hm[h1][h2]] != hm[hm[u[h1]][actB[s[h1]][u[h2]]]][fB[s[h1]][s[h2]]]:
                raise QuadrupleConditionError(3, (h1, h2))
    for g in g_grp.elements():
        for h in h_grp.elements():
            gh = actA[g][h]
            lhs = hm[hm[u[gh]][actB[s[gh]][r[g]]]][fB[s[gh]][v[g]]]
            rhs = hm[hm[r[g]][actB[v[g]][u[h]]]][fB[v[g]][s[h]]]
            if lhs != rhs:
                raise QuadrupleConditionError(4, (g, h))
    for g1 in g_grp.elements():
        for g2 in g_grp.elements():
            g12 = gm[g1][g2]
            fa = fA[g1][g2]
            lhs = hm[hm[r[g1]][actB[v[g1]][r[g2]]]][fB[v[g1]][v[g2]]]
            rhs = hm[hm[u[fa]][actB[s[fa]][r[g12]]]][fB[s[fa]][v[g12]]]
            if lhs != rhs:
                raise QuadrupleConditionError(5, (g1, g2))
    psi = induced_map(sysA, sysB, q)
    return Homomorphism(cached_product(sysA).group, cached_product(sysB).group, psi)


def stabilizes_ends(q: MorphismQuadruple, h_order: int, g_order: int) -> bool:
    """Whether the induced map fixes H and G pointwise on the ends."""
    return (
        q.u == tuple(range(h_order))
        and q.v == tuple(range(g_order))
        and all(val == 0 for val in q.s.map)
    )


def morphism_maps(
    sysA: CrossedSystem, sysB: CrossedSystem
) -> list[tuple[MorphismQuadruple, tuple[int, ...]]]:
    """All quadruples (u, r, v, s) between two normalized systems on one (H, G),
    each with the element map of the homomorphism psi it induces.

    Search order: by the paper's correspondence each quadruple induces a
    distinct homomorphism psi of the products, psi(h, g) = (u(h), s(h)) *
    (r(g), v(g)), and every homomorphism arises so.  So the quadruples are
    read off Hom(E_A, E_B), found by generator-image search: (u(h), s(h)) =
    psi(h, 1) and (r(g), v(g)) = psi(1, g) in pair coordinates, and psi's
    map is `induced_map` of its quadruple.  Results are sorted by the
    encoding of (u, r, v, s); the tests check them against the
    five-condition search and `induced_map`.
    """
    _require_same_groups(sysA, sysB)
    prodA, prodB = cached_product(sysA), cached_product(sysB)
    h_grp, g_grp = sysA.h, sysA.g
    h_at = [prodA.encode(h, 0) for h in h_grp.elements()]
    g_at = [prodA.encode(0, g) for g in g_grp.elements()]
    pair = prodB.pair_of_index
    results: list[tuple[MorphismQuadruple, tuple[int, ...]]] = []
    for psi in homomorphism_maps(prodA.group, prodB.group):
        us = [pair[psi[i]] for i in h_at]
        rv = [pair[psi[i]] for i in g_at]
        s = Homomorphism(h_grp, g_grp, tuple(p[1] for p in us))
        q = MorphismQuadruple(
            tuple(p[0] for p in us), tuple(p[0] for p in rv), tuple(p[1] for p in rv), s
        )
        results.append((q, psi))
    results.sort(key=lambda item: item[0].key())
    return results


def enumerate_morphisms(sysA: CrossedSystem, sysB: CrossedSystem) -> list[MorphismQuadruple]:
    """All quadruples (u, r, v, s) between two normalized systems on one
    (H, G), sorted by their encoding: `morphism_maps` without the maps."""
    return [q for q, _ in morphism_maps(sysA, sysB)]


# stabilizing isomorphisms ----------------------------------------------------


def iter_stabilizing_maps(sysA: CrossedSystem, sysB: CrossedSystem):
    """Yield maps r: G -> H with r(1) = 1 relating the two systems.

    Conditions: g |>' h = r(g)^-1 (g |> h) r(g) for all h, and
    f'(g1,g2) = (g1 |>' r(g2)^-1) r(g1)^-1 f(g1,g2) r(g1g2).
    Yields in lexicographic order of the value table.
    """
    _require_same_groups(sysA, sysB)
    yield from iter_stabilizing_rows(
        sysA.h, sysA.g,
        sysA.action.perms, sysA.cocycle.table,
        sysB.action.perms, sysB.cocycle.table,
    )


def iter_stabilizing_rows(h_grp: FiniteGroup, g_grp: FiniteGroup, actA, fA, actB, fB):
    """`iter_stabilizing_maps` on two systems given by their rows only.

    actA[g][x] and fA[g1][g2] (likewise B) are the action rows and cocycle
    table of two normalized systems on (h_grp, g_grp); nothing else is read.
    """
    n, m = h_grp.order, g_grp.order
    hm = h_grp.table
    hinv = h_grp.inverse_table
    gm = g_grp.table
    candidates: list[list[int]] = [[0]]
    for g in range(1, m):
        pa, pb = actA[g], actB[g]
        cands = [
            c
            for c in range(n)
            if all(pb[x] == hm[hm[hinv[c]][pa[x]]][c] for x in range(n))
        ]
        if not cands:
            return
        candidates.append(cands)
    g_triples = _completion_triples(g_grp)

    def accept(g: int, r) -> bool:
        for (g1, g2, g12) in g_triples[g]:
            want = hm[hm[hm[actB[g1][hinv[r[g2]]]][hinv[r[g1]]]][fA[g1][g2]]][r[g12]]
            if fB[g1][g2] != want:
                return False
        return True

    yield from backtrack(candidates, accept)


def enumerate_stabilizing_isos(sysA: CrossedSystem, sysB: CrossedSystem) -> list[tuple[int, ...]]:
    """All end-stabilizing isomorphism witnesses r, each inducing the
    isomorphism (h, g) -> (h r(g), g) of the products."""
    return list(iter_stabilizing_maps(sysA, sysB))


# splittings and lifts ---------------------------------------------------------


def _inclusion_lift(sys: CrossedSystem, x: FiniteGroup, um) -> tuple[int, ...] | None:
    """The least map v: G -> X completing u: H -> X (value table `um`) to a pair.

    Conditions: v(g) u(h) = u(g |> h) v(g) and v(g1) v(g2) = u(f(g1,g2)) v(g1g2).
    """
    xm = x.table
    act = sys.action.perms
    f = sys.cocycle.table
    candidates: list[list[int]] = [[0]]
    for g in range(1, sys.g.order):
        pg = act[g]
        cands = [
            xi
            for xi in x.elements()
            if all(xm[xi][um[h]] == xm[um[pg[h]]][xi] for h in sys.h.elements())
        ]
        if not cands:
            return None
        candidates.append(cands)
    g_triples = _completion_triples(sys.g)

    def accept(g: int, v) -> bool:
        for (g1, g2, g12) in g_triples[g]:
            if xm[v[g1]][v[g2]] != xm[um[f[g1][g2]]][v[g12]]:
                return False
        return True

    return next(backtrack(candidates, accept), None)


def find_splitting(sys: CrossedSystem) -> tuple[int, ...] | None:
    """A map v: G -> H splitting the inclusion of H, if one exists.

    Conditions: g |> h = v(g) h v(g)^-1 and f(g1,g2) = v(g1) v(g2) v(g1g2)^-1,
    i.e. v lifts the identity of H through the inclusion.
    """
    if not sys.normalized:
        raise ValueError("requires a normalized system")
    return _inclusion_lift(sys, sys.h, range(sys.h.order))


def lift_through_inclusion(
    sys: CrossedSystem, x: FiniteGroup, u: Homomorphism
) -> tuple[tuple[int, ...], Homomorphism] | None:
    """Extend a homomorphism u: H -> X to the whole product, if possible.

    Returns (v, w) where v: G -> X completes u to a valid pair and w is the
    induced map out of the product with w restricted to H equal to u.
    """
    if u.source != sys.h or u.target != x:
        raise ValueError("u must map H into X")
    found = _inclusion_lift(sys, x, u.map)
    if found is None:
        return None
    w = universal_map_out(sys, PairIntoX(u, found))
    return found, w


def lift_through_projection(
    sys: CrossedSystem, x: FiniteGroup, v: Homomorphism
) -> tuple[tuple[int, ...], Homomorphism] | None:
    """Lift a homomorphism v: X -> G through the projection, if possible.

    Returns (u, w) where u: X -> H satisfies the twisted multiplicativity law
    with v and w(x) = (u(x), v(x)).
    """
    if v.source != x or v.target != sys.g:
        raise ValueError("v must map X onto G data")
    n = sys.h.order
    hm = sys.h.table
    act = sys.action.perms
    f = sys.cocycle.table
    vm = v.map
    x_triples = _completion_triples(x)

    def accept(k: int, u) -> bool:
        for (a, b, ab) in x_triples[k]:
            if u[ab] != hm[hm[u[a]][act[vm[a]][u[b]]]][f[vm[a]][vm[b]]]:
                return False
        return True

    found = next(backtrack([(0,)] + [range(n)] * (x.order - 1), accept), None)
    if found is None:
        return None
    w = universal_map_in(sys, PairFromX(found, v))
    return found, w


# specializations ---------------------------------------------------------------


def specialize_semidirect_vs_twisted(
    h: FiniteGroup, g: FiniteGroup, action: WeakAction, cyc: Cocycle
) -> list[MorphismQuadruple]:
    """Morphisms from the semidirect product of `action` to the twisted product of `cyc`.

    The general five-condition enumeration must coincide with the reduced
    condition list (s, v homomorphisms; u, r maps with the four twisted laws);
    a disagreement raises InternalInvariantError, else the general result is
    returned.
    """
    check_action_multiplicative(h, g, action)
    check_classical_central_cocycle(h, g, cyc)
    sysA = validate_crossed_system(h, g, action, trivial_cocycle(g, h))
    sysB = validate_crossed_system(h, g, trivial_action(g, h), cyc)
    general = enumerate_morphisms(sysA, sysB)

    hm, gm = h.table, g.table
    act = action.perms
    f = cyc.table
    n, m = h.order, g.order
    h_triples = _completion_triples(h)
    g_triples = _completion_triples(g)
    reduced: set[tuple] = set()
    for s in homomorphism_maps(h, g):
        for v in homomorphism_maps(g, g):
            if any(
                gm[v[x]][s[y]] != gm[s[act[x][y]]][v[x]]
                for x in range(m)
                for y in range(n)
            ):
                continue
            u = [0] * n
            r = [0] * m

            def accept(k: int, vals) -> bool:
                if k < n:
                    u[k] = vals[k]
                    return all(
                        u[h12] == hm[hm[u[h1]][u[h2]]][f[s[h1]][s[h2]]]
                        for (h1, h2, h12) in h_triples[k]
                    )
                k -= n
                r[k] = vals[k + n]
                for (g1, g2, g12) in g_triples[k]:
                    if r[g12] != hm[hm[r[g1]][r[g2]]][f[v[g1]][v[g2]]]:
                        return False
                rk, vk = r[k], v[k]
                for y in range(n):
                    lhs = hm[hm[rk][u[y]]][f[vk][s[y]]]
                    rhs = hm[hm[u[act[k][y]]][rk]][f[s[act[k][y]]][vk]]
                    if lhs != rhs:
                        return False
                return True

            domains = [(0,)] + [range(n)] * (n - 1) + [(0,)] + [range(n)] * (m - 1)
            for vals in backtrack(domains, accept):
                reduced.add((vals[:n], vals[n:], v, s))

    if reduced != {q.key() for q in general}:
        raise InternalInvariantError("specialized conditions disagree")
    return general


def specialize_crossed_vs_direct(sys: CrossedSystem) -> list[MorphismQuadruple]:
    """Morphisms from a crossed product to the direct product on the same (H, G).

    Checks that the reduced condition list (s, u homomorphisms; r, v maps with
    the four direct-product laws) agrees with the general enumeration, raising
    InternalInvariantError otherwise.
    """
    h, g = sys.h, sys.g
    sysB = validate_crossed_system(h, g, trivial_action(g, h), trivial_cocycle(g, h))
    general = enumerate_morphisms(sys, sysB)

    hm, gm = h.table, g.table
    act = sys.action.perms
    f = sys.cocycle.table
    n, m = h.order, g.order
    g_triples = _completion_triples(g)
    reduced: set[tuple] = set()
    for s in homomorphism_maps(h, g):
        for u in homomorphism_maps(h, h):
            v = [0] * m
            r = [0] * m

            def accept(k: int, vals) -> bool:
                if k < m:
                    v[k] = vk = vals[k]
                    for (g1, g2, g12) in g_triples[k]:
                        if gm[v[g1]][v[g2]] != gm[s[f[g1][g2]]][v[g12]]:
                            return False
                    return all(
                        gm[vk][s[y]] == gm[s[act[k][y]]][vk] for y in range(n)
                    )
                k -= m
                r[k] = rk = vals[k + m]
                for (g1, g2, g12) in g_triples[k]:
                    if hm[r[g1]][r[g2]] != hm[u[f[g1][g2]]][r[g12]]:
                        return False
                return all(
                    hm[rk][u[y]] == hm[u[act[k][y]]][rk] for y in range(n)
                )

            domains = [(0,)] + [range(m)] * (m - 1) + [(0,)] + [range(n)] * (m - 1)
            for vals in backtrack(domains, accept):
                reduced.add((u, vals[m:], vals[:m], s))

    if reduced != {q.key() for q in general}:
        raise InternalInvariantError("specialized conditions disagree")
    return general


# bijectivity characterizations ------------------------------------------------


def find_retraction_pair(
    sys: CrossedSystem, x: FiniteGroup, u: Homomorphism, v: tuple[int, ...], w: Homomorphism
):
    """A pair (r, s) witnessing bijectivity of a map w out of the product.

    r: X -> G is a homomorphism retracting v, s: X -> H is a map retracting u,
    with s(ab) = s(a)(r(a) |> s(b)) f(r(a), r(b)), u(s(a)) v(r(a)) = a,
    r(u(h)) = 1 and s(v(g)) = 1.
    """
    hm = sys.h.table
    xm = x.table
    act = sys.action.perms
    f = sys.cocycle.table
    x_triples = _completion_triples(x)
    for r in homomorphism_maps(x, sys.g):
        if any(r[v[g]] != g for g in sys.g.elements()):
            continue
        if any(r[u.map[h]] != 0 for h in sys.h.elements()):
            continue
        pinned: dict[int, int] = {}
        conflict = False
        for h in sys.h.elements():
            a = u.map[h]
            if pinned.get(a, h) != h:
                conflict = True
                break
            pinned[a] = h
        if conflict:
            continue
        for g in sys.g.elements():
            a = v[g]
            if pinned.get(a, 0) != 0:
                conflict = True
                break
            pinned[a] = 0
        if conflict:
            continue

        def accept(k: int, s) -> bool:
            if k in pinned and s[k] != pinned[k]:
                return False
            for (a, b, ab) in x_triples[k]:
                if s[ab] != hm[hm[s[a]][act[r[a]][s[b]]]][f[r[a]][r[b]]]:
                    return False
                if xm[u.map[s[ab]]][v[r[ab]]] != ab:
                    return False
            return True

        domains = [(0,)] + [sys.h.elements()] * (x.order - 1)
        found = next(backtrack(domains, accept), None)
        if found is not None:
            return Homomorphism(x, sys.g, r), found
    return None


def find_section_pair(
    sys: CrossedSystem, x: FiniteGroup, u: tuple[int, ...], v: Homomorphism
):
    """A pair (r, s) witnessing bijectivity of a map into the product.

    r: H -> X is a homomorphism with u(r(h)) = h and v(r(h)) = 1;
    s: G -> X is a map with v(s(g)) = g, u(s(g)) = 1,
    s(g1)s(g2) = r(f(g1,g2)) s(g1g2), s(g)r(h) = r(g |> h) s(g), and
    r(u(a)) s(v(a)) = a for every a in X.
    """
    xm = x.table
    gm = sys.g.table
    act = sys.action.perms
    f = sys.cocycle.table
    g_triples = _completion_triples(sys.g)
    # fibers of v, for the pointwise recovery condition
    fiber: list[list[int]] = [[] for _ in sys.g.elements()]
    for a in x.elements():
        fiber[v.map[a]].append(a)
    for r in homomorphism_maps(sys.h, x):
        if any(u[r[h]] != h for h in sys.h.elements()):
            continue
        if any(v.map[r[h]] != 0 for h in sys.h.elements()):
            continue
        cand_per_g = []
        feasible = True
        for g in sys.g.elements():
            cands = [
                xi
                for xi in x.elements()
                if v.map[xi] == g and u[xi] == 0
            ] if g else [0]
            if not cands:
                feasible = False
                break
            cand_per_g.append(cands)
        if not feasible:
            continue

        def accept(k: int, s) -> bool:
            sk = s[k]
            for (g1, g2, g12) in g_triples[k]:
                if xm[s[g1]][s[g2]] != xm[r[f[g1][g2]]][s[g12]]:
                    return False
            if any(xm[r[u[a]]][sk] != a for a in fiber[k]):
                return False
            return all(
                xm[sk][r[h]] == xm[r[act[k][h]]][sk] for h in sys.h.elements()
            )

        found = next(backtrack(cand_per_g, accept), None)
        if found is not None:
            return Homomorphism(sys.h, x, r), found
    return None
