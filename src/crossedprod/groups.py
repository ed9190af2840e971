"""Finite groups as explicit multiplication tables, with 0-based element indices.

Element 0 is always the identity.  Groups are immutable after construction and
hash/compare by their table, so they can be used as cache keys.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    CapExceededError,
    InvalidDescriptorError,
    InvalidTableError,
    NotNormalError,
)

DEFAULT_MAX_GROUP_ORDER = 256

# table validation ----------------------------------------------------------


def _check_shape(table) -> None:
    """Raise InvalidTableError unless `table` is a non-empty square of indices into it."""
    n = len(table)
    if n == 0:
        raise InvalidTableError("empty table", ())
    for x, row in enumerate(table):
        if len(row) != n:
            raise InvalidTableError("ragged row", (x,))
        for y, v in enumerate(row):
            if not 0 <= v < n:
                raise InvalidTableError("entry out of range", (x, y))


def check_table(table: tuple[tuple[int, ...], ...]) -> None:
    """Raise InvalidTableError unless `table` is a group table with identity 0."""
    _check_shape(table)
    n = len(table)
    for x in range(n):
        if table[0][x] != x:
            raise InvalidTableError("identity row", (0, x))
        if table[x][0] != x:
            raise InvalidTableError("identity column", (x, 0))
    arr = np.array(table, dtype=np.int64)
    want = np.arange(n)
    row_bad = (np.sort(arr, axis=1) != want).any(axis=1)
    col_bad = (np.sort(arr, axis=0) != want[:, None]).any(axis=0)
    if row_bad.any():
        x = int(np.argmax(row_bad))
        seen: set[int] = set()
        for y, v in enumerate(table[x]):
            if v in seen:
                raise InvalidTableError("row not a permutation", (x, y, v))
            seen.add(v)
    if col_bad.any():
        y = int(np.argmax(col_bad))
        seen = set()
        for x in range(n):
            v = table[x][y]
            if v in seen:
                raise InvalidTableError("column not a permutation", (x, y, v))
            seen.add(v)
    # associativity row by row, keeping memory at O(n^2)
    for x in range(n):
        left = arr[arr[x], :]     # left[y,z]  = (x*y)*z
        right = arr[x][arr]       # right[y,z] = x*(y*z)
        if not np.array_equal(left, right):
            y, z = (int(v) for v in np.argwhere(left != right)[0])
            raise InvalidTableError("not associative", (x, y, z))


class FiniteGroup:
    """A finite group given by its full multiplication table.

    `table[x][y]` is the index of x*y; index 0 is the identity.  Derived data
    (inverses, element orders, automorphisms, ...) is computed lazily and
    cached; each cache entry is written once.
    """

    def __init__(self, name, table, *, descriptor=None, validate=True):
        table = tuple(tuple(int(v) for v in row) for row in table)
        if validate:
            check_table(table)
        self.name = str(name)
        self.table = table
        self.order = len(table)
        self.descriptor = descriptor
        self._hash = hash(table)
        self._cache: dict = {}

    # basic operations ------------------------------------------------------

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def inv(self, x: int) -> int:
        return self.inverse_table[x]

    def conj(self, x: int, y: int) -> int:
        """x * y * x^-1."""
        t = self.table
        return t[t[x][y]][self.inverse_table[x]]

    def power(self, x: int, k: int) -> int:
        if k < 0:
            x, k = self.inv(x), -k
        acc = 0
        for _ in range(k):
            acc = self.table[acc][x]
        return acc

    def elements(self) -> range:
        return range(self.order)

    @property
    def inverse_table(self) -> tuple[int, ...]:
        inv = self._cache.get("inv")
        if inv is None:
            inv = tuple(row.index(0) for row in self.table)
            self._cache["inv"] = inv
        return inv

    def element_order(self, x: int) -> int:
        return self.element_orders[x]

    @property
    def element_orders(self) -> tuple[int, ...]:
        orders = self._cache.get("orders")
        if orders is None:
            out = []
            for x in self.elements():
                k, acc = 1, x
                while acc != 0:
                    acc = self.table[acc][x]
                    k += 1
                out.append(k)
            orders = tuple(out)
            self._cache["orders"] = orders
        return orders

    @property
    def is_abelian(self) -> bool:
        flag = self._cache.get("abelian")
        if flag is None:
            t = self.table
            flag = all(
                t[x][y] == t[y][x]
                for x in range(self.order)
                for y in range(x + 1, self.order)
            )
            self._cache["abelian"] = flag
        return flag

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        classes = self._cache.get("classes")
        if classes is None:
            if self.is_abelian:
                classes = tuple((x,) for x in self.elements())
            else:
                seen = [False] * self.order
                out = []
                for x in self.elements():
                    if seen[x]:
                        continue
                    orbit = sorted({self.conj(g, x) for g in self.elements()})
                    for v in orbit:
                        seen[v] = True
                    out.append(tuple(orbit))
                classes = tuple(out)
            self._cache["classes"] = classes
        return classes

    def fingerprint(self) -> tuple:
        """Cheap isomorphism invariant: order profile, center size, class sizes."""
        fp = self._cache.get("fp")
        if fp is None:
            orders = tuple(sorted(self.element_orders))
            zsize = len(center(self).elements)
            csizes = tuple(sorted(len(c) for c in self.conjugacy_classes()))
            fp = (self.order, orders, zsize, csizes)
            self._cache["fp"] = fp
        return fp

    # identity/equality on the table, not the name --------------------------

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"


# spec-level wrappers kept as plain functions -------------------------------


def multiply(g: FiniteGroup, x: int, y: int) -> int:
    return g.mul(x, y)


def inverse(g: FiniteGroup, x: int) -> int:
    return g.inv(x)


# homomorphisms -------------------------------------------------------------


@dataclass(frozen=True)
class Homomorphism:
    """A group homomorphism given by its value table."""

    source: FiniteGroup
    target: FiniteGroup
    map: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.map[x]

    def is_injective(self) -> bool:
        return len(set(self.map)) == self.source.order

    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.target.order

    def is_bijective(self) -> bool:
        return self.source.order == self.target.order and self.is_injective()

    def kernel_elements(self) -> tuple[int, ...]:
        return tuple(x for x in self.source.elements() if self.map[x] == 0)

    def image_elements(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.map)))

    def compose(self, inner: "Homomorphism") -> "Homomorphism":
        """self after inner (source of self must be target of inner)."""
        return Homomorphism(
            inner.source, self.target, tuple(self.map[v] for v in inner.map)
        )


def is_homomorphism(source: FiniteGroup, target: FiniteGroup, mapping) -> bool:
    if len(mapping) != source.order or mapping[0] != 0:
        return False
    ts, tt = source.table, target.table
    for x in source.elements():
        mx = mapping[x]
        for y in source.elements():
            if mapping[ts[x][y]] != tt[mx][mapping[y]]:
                return False
    return True


def homomorphism(source: FiniteGroup, target: FiniteGroup, mapping) -> Homomorphism:
    mapping = tuple(int(v) for v in mapping)
    if not is_homomorphism(source, target, mapping):
        raise InvalidTableError("not a homomorphism", mapping)
    return Homomorphism(source, target, mapping)


@dataclass(frozen=True)
class Automorphism(Homomorphism):
    """A bijective endomorphism; `map` is a permutation of the group."""

    def inverse_automorphism(self) -> "Automorphism":
        inv = [0] * len(self.map)
        for x, y in enumerate(self.map):
            inv[y] = x
        return Automorphism(self.source, self.target, tuple(inv))


def automorphism(group: FiniteGroup, mapping) -> Automorphism:
    mapping = tuple(int(v) for v in mapping)
    if len(set(mapping)) != group.order or not is_homomorphism(group, group, mapping):
        raise InvalidTableError("not an automorphism", mapping)
    return Automorphism(group, group, mapping)


def identity_automorphism(group: FiniteGroup) -> Automorphism:
    return Automorphism(group, group, tuple(range(group.order)))


# subgroups ------------------------------------------------------------------


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of `parent`, stored as a sorted tuple of element indices."""

    parent: FiniteGroup
    elements: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in set(self.elements)

    def is_normal(self) -> bool:
        g = self.parent
        members = set(self.elements)
        return all(
            g.conj(x, s) in members for x in g.elements() for s in self.elements
        )


def closure(g: FiniteGroup, elems) -> tuple[int, ...]:
    """Subgroup generated by `elems`, as a sorted element tuple."""
    known = {0}
    frontier = [0]
    for x in elems:
        if x not in known:
            known.add(x)
            frontier.append(x)
    table = g.table
    items = list(known)
    i = 0
    while i < len(items):
        a = items[i]
        i += 1
        for b in list(items):
            for c in (table[a][b], table[b][a]):
                if c not in known:
                    known.add(c)
                    items.append(c)
    return tuple(sorted(known))


def subgroup(parent: FiniteGroup, elems) -> Subgroup:
    elems = tuple(sorted(set(int(v) for v in elems) | {0}))
    if closure(parent, elems) != elems:
        raise InvalidTableError("not closed", elems)
    return Subgroup(parent, elems)


def center(g: FiniteGroup) -> Subgroup:
    """Z(G); its elements are cached on the group."""
    elems = g._cache.get("center")
    if elems is None:
        t = g.table
        elems = tuple(
            x for x in g.elements() if all(t[x][y] == t[y][x] for y in g.elements())
        )
        g._cache["center"] = elems
    return Subgroup(g, elems)


def inner_automorphisms(g: FiniteGroup) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Map from each inner automorphism's value table to the ascending tuple of
    the c in G whose conjugation x -> c x c^-1 it is; cached on the group.

    The keys are Inn(G) and each value is a coset c Z(G).  Keyed by value
    table rather than by position in automorphism_group, so a lookup never
    needs Aut(G).
    """
    inner = g._cache.get("inner")
    if inner is None:
        t = g.table
        inv = g.inverse_table
        found: dict[tuple[int, ...], list[int]] = {}
        for c in g.elements():
            ci = inv[c]
            found.setdefault(tuple(t[t[c][x]][ci] for x in g.elements()), []).append(c)
        inner = {perm: tuple(cs) for perm, cs in found.items()}
        g._cache["inner"] = inner
    return inner


def centralizer(g: FiniteGroup, elems) -> Subgroup:
    t = g.table
    elems = tuple(elems)
    out = tuple(
        x for x in g.elements() if all(t[x][s] == t[s][x] for s in elems)
    )
    return Subgroup(g, out)


def normal_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """All normal subgroups, ordered by size then element tuple."""
    classes = g.conjugacy_classes()
    trivial = (0,)
    found: set[tuple[int, ...]] = {trivial}
    frontier = [trivial]
    while frontier:
        base = frontier.pop()
        base_set = set(base)
        for cls in classes:
            if cls[0] in base_set:
                continue
            # a subgroup generated by whole conjugacy classes is normal
            new = closure(g, base + cls)
            if new not in found:
                found.add(new)
                frontier.append(new)
    ordered = sorted(found, key=lambda e: (len(e), e))
    return [Subgroup(g, e) for e in ordered]


def subgroup_as_group(sub: Subgroup) -> tuple[FiniteGroup, Homomorphism]:
    """Re-index a subgroup as a standalone group plus its inclusion map."""
    parent = sub.parent
    elems = sub.elements
    pos = {v: i for i, v in enumerate(elems)}
    table = [
        [pos[parent.table[a][b]] for b in elems]
        for a in elems
    ]
    grp = FiniteGroup(f"{parent.name}<{len(elems)}>", table, validate=False)
    incl = Homomorphism(grp, parent, elems)
    return grp, incl


def quotient(g: FiniteGroup, n: Subgroup) -> tuple[FiniteGroup, Homomorphism]:
    """Quotient by a normal subgroup, with the canonical projection."""
    if n.parent is not g and n.parent != g:
        raise NotNormalError("subgroup of a different group")
    if not n.is_normal():
        raise NotNormalError(f"{n.elements} is not normal in {g.name}")
    members = set(n.elements)
    coset_of = [-1] * g.order
    reps: list[int] = []
    for x in g.elements():
        if coset_of[x] >= 0:
            continue
        idx = len(reps)
        reps.append(x)
        for s in members:
            coset_of[g.mul(x, s)] = idx
    # element 0 is scanned first, so coset 0 is the subgroup itself
    table = [
        [coset_of[g.mul(a, b)] for b in reps]
        for a in reps
    ]
    q = FiniteGroup(f"{g.name}/{len(members)}", table, validate=False)
    proj = Homomorphism(g, q, tuple(coset_of))
    return q, proj


# homomorphism and isomorphism search ---------------------------------------


def generating_sequence(g: FiniteGroup) -> list[int]:
    """Greedy generating sequence: repeatedly adjoin the smallest outside element."""
    gens: list[int] = []
    closed = (0,)
    for x in g.elements():
        if x not in set(closed):
            gens.append(x)
            closed = closure(g, gens)
            if len(closed) == g.order:
                break
    return gens


def backtrack(domains, accept):
    """Yield every tuple `vals` with vals[k] in domains[k] and accept(k, vals) for all k.

    Tuples come in lexicographic order of the domains.  `accept(k, vals)` is
    called once per candidate for position k and may read only vals[0..k];
    later entries hold stale values.  With no positions, one empty tuple is
    yielded.
    """
    n = len(domains)
    if n == 0:
        yield ()
        return
    vals = [None] * n
    iters = [iter(domains[0])] + [None] * (n - 1)
    k = 0
    while k >= 0:
        for val in iters[k]:
            vals[k] = val
            if accept(k, vals):
                break
        else:
            k -= 1
            continue
        if k == n - 1:
            yield tuple(vals)
        else:
            k += 1
            iters[k] = iter(domains[k])


def _completion_triples(table) -> list[list[tuple[int, int, int]]]:
    """For each index k: the pairs (a, b, ab) whose largest index is k."""
    n = len(table)
    out: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            out[max(a, b, ab)].append((a, b, ab))
    return out


def _extend_map(src: FiniteGroup, dst: FiniteGroup, base: dict, x: int, y: int):
    """Extend a partial multiplicative map with x -> y; None on conflict.

    The result is closed under products of its domain, and multiplicativity
    is checked on every pair, so a total extension is a homomorphism.
    """
    if x in base:
        return base if base[x] == y else None
    mapping = dict(base)
    ts, tt = src.table, dst.table
    known = list(mapping)
    queue = [(x, k) for k in known] + [(k, x) for k in known] + [(x, x)]
    mapping[x] = y
    known.append(x)
    while queue:
        a, b = queue.pop()
        c = ts[a][b]
        d = tt[mapping[a]][mapping[b]]
        cur = mapping.get(c)
        if cur is None:
            for k in known:
                queue.append((c, k))
                queue.append((k, c))
            queue.append((c, c))
            mapping[c] = d
            known.append(c)
        elif cur != d:
            return None
    return mapping


def _generator_images(src: FiniteGroup, dst: FiniteGroup, images_of, *, injective: bool = False):
    """Yield the value tables of the homomorphisms src -> dst, in search order.

    `images_of(gen)` lists the candidate images of one generator; each choice
    extends the partial map of the previous generators via _extend_map.  With
    `injective` a partial map whose values repeat is rejected at once: every
    extension of it repeats them too, so only the injective homomorphisms are
    yielded, in the same order.
    """
    gens = generating_sequence(src)
    maps: list[dict] = [{0: 0}] * (len(gens) + 1)

    def accept(k: int, imgs) -> bool:
        ext = _extend_map(src, dst, maps[k], gens[k], imgs[k])
        maps[k + 1] = ext
        return ext is not None and (not injective or len(set(ext.values())) == len(ext))

    for _ in backtrack([images_of(x) for x in gens], accept):
        yield tuple(maps[-1][x] for x in src.elements())


def enumerate_homomorphisms(src: FiniteGroup, dst: FiniteGroup) -> list[Homomorphism]:
    """All homomorphisms src -> dst, by generator-image backtracking."""
    def images_of(gen: int) -> list[int]:
        gorder = src.element_order(gen)
        return [y for y in dst.elements() if gorder % dst.element_order(y) == 0]

    results = sorted(_generator_images(src, dst, images_of))
    return [Homomorphism(src, dst, m) for m in results]


def _isomorphisms(g1: FiniteGroup, g2: FiniteGroup):
    """Yield the isomorphisms g1 -> g2 as value tables, in search order."""
    if g1.order != g2.order:
        return
    by_order: dict[int, list[int]] = {}
    for x in g2.elements():
        by_order.setdefault(g2.element_order(x), []).append(x)
    yield from _generator_images(
        g1, g2, lambda gen: by_order.get(g1.element_order(gen), ()), injective=True
    )


def are_isomorphic(g1: FiniteGroup, g2: FiniteGroup) -> Homomorphism | None:
    """An isomorphism witness if one exists: fingerprint filter, then backtracking."""
    if g1.fingerprint() != g2.fingerprint():
        return None
    found = next(_isomorphisms(g1, g2), None)
    return None if found is None else Homomorphism(g1, g2, found)


def automorphism_group(g: FiniteGroup) -> list[Automorphism]:
    """The full automorphism list, cached on the group, sorted by value table."""
    auts = g._cache.get("auts")
    if auts is None:
        auts = [Automorphism(g, g, p) for p in sorted(_isomorphisms(g, g))]
        g._cache["auts"] = auts
    return auts


def automorphism_index(g: FiniteGroup) -> dict[tuple[int, ...], int]:
    """Map from automorphism value table to its position in automorphism_group."""
    idx = g._cache.get("aut_index")
    if idx is None:
        idx = {a.map: i for i, a in enumerate(automorphism_group(g))}
        g._cache["aut_index"] = idx
    return idx


# constructors ---------------------------------------------------------------


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise InvalidDescriptorError(f"cyclic order must be >= 1, got {n}")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(f"C{n}", table, descriptor=f"cyclic:{n}", validate=False)


def presentation_group(n: int, m: int, i: int, j: int, name: str) -> FiniteGroup:
    """Group on pairs (a^p, b^q) with a^n = 1, b^m = a^i, b^-1 a b = a^j.

    Requires i*(j-1) = 0 and j^m = 1 mod n; the table is fully determined by
    the two relations, which make it a group table, so it is not re-validated
    (the tests run `check_table` on every presentation with n*m <= 36).
    """
    if n < 1 or m < 1:
        raise InvalidDescriptorError("presentation orders must be >= 1")
    if (i * (j - 1)) % n != 0 or pow(j, m, n) != 1 % n:
        raise InvalidDescriptorError(f"inconsistent relations (n={n}, m={m}, i={i}, j={j})")
    jinv = pow(j, m - 1, n) if n > 1 else 0
    jq = [pow(jinv, q, n) if n > 1 else 0 for q in range(m)]
    size = n * m
    table = [[0] * size for _ in range(size)]
    for p in range(n):
        for q in range(m):
            a = p + n * q
            for r in range(n):
                for s in range(m):
                    t = (p + r * jq[q]) % n
                    u = q + s
                    if u >= m:
                        u -= m
                        t = (t + i) % n
                    table[a][r + n * s] = t + n * u
    return FiniteGroup(name, table, validate=False)


def dihedral_group(order: int) -> FiniteGroup:
    if order < 2 or order % 2 != 0:
        raise InvalidDescriptorError(f"dihedral order must be even >= 2, got {order}")
    k = order // 2
    g = presentation_group(k, 2, 0, (k - 1) % k if k > 1 else 0, f"D{order}")
    return FiniteGroup(g.name, g.table, descriptor=f"dihedral:{order}", validate=False)


def quaternion_group() -> FiniteGroup:
    g = presentation_group(4, 2, 2, 3, "Q8")
    return FiniteGroup("Q8", g.table, descriptor="quaternion:8", validate=False)


def symmetric_group(n: int) -> FiniteGroup:
    if not 1 <= n <= 5:
        raise InvalidDescriptorError(f"symmetric:n supports 1 <= n <= 5, got {n}")
    perms = sorted(itertools.permutations(range(n)))
    pos = {p: i for i, p in enumerate(perms)}
    table = [
        [pos[tuple(p[q[i]] for i in range(n))] for q in perms]
        for p in perms
    ]
    return FiniteGroup(f"S{n}", table, descriptor=f"symmetric:{n}", validate=False)


def alternating_group(n: int) -> FiniteGroup:
    if not 1 <= n <= 5:
        raise InvalidDescriptorError(f"alternating group supports 1 <= n <= 5, got {n}")

    def parity(p):
        inv = sum(
            1
            for a in range(len(p))
            for b in range(a + 1, len(p))
            if p[a] > p[b]
        )
        return inv % 2

    perms = sorted(p for p in itertools.permutations(range(n)) if parity(p) == 0)
    pos = {p: i for i, p in enumerate(perms)}
    table = [
        [pos[tuple(p[q[i]] for i in range(n))] for q in perms]
        for p in perms
    ]
    return FiniteGroup(f"A{n}", table, validate=False)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    nb = b.order
    table = [
        [a.table[x1][x2] * nb + b.table[y1][y2] for x2 in a.elements() for y2 in b.elements()]
        for x1 in a.elements()
        for y1 in b.elements()
    ]
    desc = None
    if a.descriptor and b.descriptor:
        desc = f"product({a.descriptor},{b.descriptor})"
    return FiniteGroup(f"{a.name}x{b.name}", table, descriptor=desc, validate=False)


def table_group(table, *, name=None, renumber=False) -> FiniteGroup:
    """Group from a raw table; with renumber=True the identity is moved to index 0."""
    table = [list(row) for row in table]
    n = len(table)
    if renumber:
        _check_shape(table)
        ident = None
        for e in range(n):
            if all(table[e][x] == x and table[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise InvalidTableError("no identity element", ())
        if ident != 0:
            perm = list(range(n))
            perm[0], perm[ident] = ident, 0
            table = [
                [perm[table[perm[x]][perm[y]]] for y in range(n)]
                for x in range(n)
            ]
    return FiniteGroup(name or f"table{n}", table)


# descriptor grammar ---------------------------------------------------------


def _split_product_args(body: str) -> tuple[str, str]:
    depth = 0
    for k, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return body[:k], body[k + 1:]
    raise InvalidDescriptorError(f"product(...) needs two arguments: {body!r}")


def int_rows(value, what: str) -> list:
    """Return `value` if it is a list of lists of integers, as document tables must be."""
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) and all(isinstance(v, int) for v in row)
        for row in value
    ):
        raise InvalidDescriptorError(f"{what} must be a list of lists of integers")
    return value


def _parse_descriptor(text: str, max_order: int):
    """(order, builder) of the group a descriptor names.

    Each (sub)descriptor's order is known from its text, so a group over
    `max_order` raises CapExceededError before any table is built.  An
    invalid argument counts as order 0 here and is rejected by the builder.
    """
    if text.startswith("product(") and text.endswith(")"):
        (left_order, left), (right_order, right) = (
            _parse_descriptor(part.strip(), max_order)
            for part in _split_product_args(text[len("product("):-1])
        )
        order = left_order * right_order

        def build():
            return direct_product(left(), right())
    elif ":" in text:
        kind, _, arg = text.partition(":")
        kind = kind.strip().lower()
        try:
            value = int(arg)
        except ValueError as exc:
            raise InvalidDescriptorError(f"bad descriptor argument: {text!r}") from exc
        if kind == "cyclic":
            order, build = max(value, 0), partial(cyclic_group, value)
        elif kind == "dihedral":
            order, build = max(value, 0), partial(dihedral_group, value)
        elif kind == "quaternion":
            if value != 8:
                raise InvalidDescriptorError("only quaternion:8 is supported")
            order, build = 8, quaternion_group
        elif kind == "symmetric":
            order = math.factorial(value) if 1 <= value <= 5 else 0
            build = partial(symmetric_group, value)
        else:
            raise InvalidDescriptorError(f"unknown group kind {kind!r}")
    else:
        raise InvalidDescriptorError(f"unrecognized group descriptor {text!r}")
    if order > max_order:
        raise CapExceededError(f"group order {order} exceeds cap {max_order}")
    return order, build


def make_group(spec, *, max_order: int = DEFAULT_MAX_GROUP_ORDER) -> FiniteGroup:
    """Build a group from a descriptor string or a table document.

    Descriptors: ``cyclic:N``, ``dihedral:N`` (N = order), ``quaternion:8``,
    ``symmetric:N`` (N <= 5), ``product(spec,spec)``.  A mapping with keys
    ``order`` and ``table`` (plus optional ``renumber``/``name``) gives an
    explicit table, which is validated.  A group over `max_order` raises
    CapExceededError before its table is built.
    """
    if not isinstance(spec, dict):
        return _parse_descriptor(str(spec).strip(), max_order)[1]()
    table = int_rows(spec["table"], "table")
    if spec.get("order", len(table)) != len(table):
        raise InvalidDescriptorError("order field disagrees with table size")
    if len(table) > max_order:
        raise CapExceededError(f"group order {len(table)} exceeds cap {max_order}")
    return table_group(table, name=spec.get("name"), renumber=bool(spec.get("renumber", False)))


def group_to_doc(g: FiniteGroup) -> object:
    """Descriptor string when available, else an explicit table document."""
    if g.descriptor:
        return g.descriptor
    return {"order": g.order, "table": [list(row) for row in g.table], "name": g.name}


# naming ----------------------------------------------------------------------


def _abelian_invariant_name(g: FiniteGroup) -> str | None:
    """Invariant-factor name (largest factor first) for an abelian group.

    Read from element-order counts: if the p-part of g is the product of cyclic
    groups of orders p^e_i, then p^(sum_i min(k, e_i)) elements have order
    dividing p^k, so the count for k less the count for k - 1 (in powers of p)
    is the number of factors with e_i >= k.
    """
    if not g.is_abelian:
        return None
    factors = [1] * g.order.bit_length()
    n, p = g.order, 2
    while n > 1:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        prev = 0
        for k in range(1, e + 1):
            count = sum(1 for o in g.element_orders if p**k % o == 0)
            logp = 0
            while count > 1:
                count //= p
                logp += 1
            for j in range(logp - prev):
                factors[j] *= p
            prev = logp
        p += 1
    return "x".join(f"C{f}" for f in factors if f > 1) or "C1"


def _named_candidates(order: int):
    if order == 8:
        yield "Q8", quaternion_group()
    if order == 6:
        yield "S3", symmetric_group(3)
    if order == 24:
        yield "S4", symmetric_group(4)
    if order == 12:
        yield "A4", alternating_group(4)
    if order % 2 == 0 and order >= 6:
        yield f"D{order}", dihedral_group(order)
    if order % 4 == 0 and order >= 12:
        k = order // 4
        yield f"Dic{k}", presentation_group(2 * k, 2, k, 2 * k - 1, f"Dic{k}")
    # small products of a named non-abelian with a cyclic group
    for sub in (6, 8, 12):
        if order % sub == 0 and order // sub >= 2 and order > sub:
            for name, base in _named_candidates(sub):
                cof = order // sub
                yield f"{name}xC{cof}", direct_product(base, cyclic_group(cof))


def identify_group(g: FiniteGroup) -> str:
    """A human-readable isomorphism-type name, exact for the common catalog.

    Groups outside the catalog get a deterministic fallback tag built from the
    element-order profile, so distinct types rarely share a name.
    """
    if g.order == 1:
        return "C1"
    name = _abelian_invariant_name(g)
    if name is not None:
        return name
    for cand_name, cand in _named_candidates(g.order):
        if are_isomorphic(g, cand) is not None:
            return cand_name
    counts: dict[int, int] = {}
    for k in g.element_orders:
        counts[k] = counts.get(k, 0) + 1
    profile = ",".join(f"{k}^{v}" for k, v in sorted(counts.items()) if k > 1)
    return f"G{g.order}({profile})"
