"""Finite groups as explicit multiplication tables, with 0-based element indices.

Element 0 is always the identity.  Groups are immutable after construction and
hash/compare by their table, so they can be used as cache keys.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from operator import itemgetter

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


def _frozen(values) -> np.ndarray:
    """A read-only intp copy of `values`."""
    arr = np.array(values, dtype=np.intp)
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=None)
def _power_orders(k: int) -> tuple[int, ...]:
    """The orders k / gcd(j, k) of x^j, j = 1..k-1, for x of order k."""
    return tuple(k // math.gcd(j, k) for j in range(1, k))


class FiniteGroup:
    """A finite group given by its full multiplication table.

    `table[x][y]` is the index of x*y; index 0 is the identity.  The table is
    stored twice: as a tuple of tuples of Python ints, which the per-element
    code reads, and as one read-only intp array (`table_array`), which every
    array path reads.  It may be given as an integer numpy array, copied into
    that array, whose `tolist()` gives the tuples, or as any sequence of rows
    of integers (lists, tuples, numpy integers), converted entry by entry
    with `int()`, whose array is built on first use.  Derived data (inverses,
    element orders, automorphisms, ...) is computed lazily and cached; each
    cache entry is written once, except `raw_action`, the one-entry action
    slot of `classify.system_from_raw`.
    """

    def __init__(self, name, table, *, descriptor=None, validate=True):
        array = None
        if isinstance(table, np.ndarray) and table.dtype.kind in "iu":
            array = _frozen(table)
            table = tuple(map(tuple, array.tolist()))
        else:
            table = tuple(tuple(map(int, row)) for row in table)
        if validate:
            check_table(table)
        self.name = str(name)
        self.table = table
        self.order = len(table)
        self.descriptor = descriptor
        self._hash = hash(table)
        self._array = array
        self._cache: dict = {}

    def _renamed(self, name: str) -> "FiniteGroup":
        """A group on this group's table under `name`, with its own empty cache.

        The table tuple, its array and its hash are shared, not rebuilt; no
        descriptor.
        """
        grp = object.__new__(FiniteGroup)
        grp.name = name
        grp.table = self.table
        grp.order = self.order
        grp.descriptor = None
        grp._hash = self._hash
        grp._array = self.table_array
        grp._cache = {}
        return grp

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

    @property
    def table_array(self) -> np.ndarray:
        """The table as a read-only intp array, shape (|G|, |G|), cached."""
        if self._array is None:
            self._array = _frozen(self.table)
        return self._array

    @property
    def inverse_array(self) -> np.ndarray:
        """`inverse_table` as a read-only intp array, cached."""
        inv = self._cache.get("inv_array")
        if inv is None:
            inv = self._cache["inv_array"] = _frozen(self.inverse_table)
        return inv

    def element_order(self, x: int) -> int:
        return self.element_orders[x]

    @property
    def element_orders(self) -> tuple[int, ...]:
        """The order of every element, cached on the group.

        One walk x, x^2, ..., 1 per cyclic subgroup met: an element already
        given its order is skipped.  A walk of length k gives x and
        x^(k-1) = x^-1 the order k; for k > 4 a second walk gives every
        power x^j the order k / gcd(j, k), so a cyclic group costs two walks.
        """
        orders = self._cache.get("orders")
        if orders is None:
            table = self.table
            out = [0] * self.order
            out[0] = 1
            for x, row in enumerate(table):
                if out[x]:
                    continue
                acc = row[x]
                if not acc:
                    out[x] = 2
                    continue
                prev, k = x, 2
                while acc:
                    prev, acc = acc, table[acc][x]
                    k += 1
                if k > 4:
                    acc = x
                    for o in _power_orders(k):
                        out[acc] = o
                        acc = table[acc][x]
                else:
                    out[x] = out[prev] = k
            orders = tuple(out)
            self._cache["orders"] = orders
        return orders

    def elements_by_order(self) -> dict[int, tuple[int, ...]]:
        """Map from each element order to the ascending elements of that order, cached."""
        by_order = self._cache.get("by_order")
        if by_order is None:
            found: dict[int, list[int]] = {}
            for x, k in enumerate(self.element_orders):
                found.setdefault(k, []).append(x)
            by_order = {k: tuple(xs) for k, xs in found.items()}
            self._cache["by_order"] = by_order
        return by_order

    @property
    def is_abelian(self) -> bool:
        flag = self._cache.get("abelian")
        if flag is None:
            # each row against the matching column: x*y == y*x for every y
            flag = self.table == tuple(zip(*self.table))
            self._cache["abelian"] = flag
        return flag

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        classes = self._cache.get("classes")
        if classes is None:
            if self.is_abelian:
                classes = tuple((x,) for x in self.elements())
            else:
                # column x of the conjugation table holds c x c^-1 for every c,
                # so its least entry names x's class; classes come in order of
                # their least element, members ascending
                t, inv = self.table_array, self.inverse_array
                least = t[t, inv[:, None]].min(axis=0)
                members = np.argsort(least, kind="stable").tolist()
                ends = np.cumsum(np.unique(least, return_counts=True)[1]).tolist()
                classes = tuple(
                    tuple(members[a:b]) for a, b in zip([0] + ends[:-1], ends)
                )
            self._cache["classes"] = classes
        return classes

    def fingerprint(self) -> tuple:
        """Cheap isomorphism invariant, cached: (order, sorted element orders,
        centre size, sorted class sizes, number of distinct squares).

        The centre and the classes come from one commutation count: row x of
        `t == t.T` holds |C(x)| true entries, and x's class has |G| / |C(x)|
        members, so the k elements in classes of size s make k / s classes,
        and the central elements are those in classes of size 1.  The squares
        tell C4:C4 (3) from Q8xC2 (2), which tie on the other four fields.
        """
        fp = self._cache.get("fp")
        if fp is None:
            n, t = self.order, self.table_array
            held = np.bincount(n // (t == t.T).sum(axis=1)).tolist()
            csizes: list[int] = []
            for s, k in enumerate(held[1:], 1):
                csizes += [s] * (k // s)
            squares = len(set(t.diagonal().tolist()))
            fp = (n, tuple(sorted(self.element_orders)), held[1], tuple(csizes), squares)
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
    """Whether `mapping` (a value table) is a homomorphism source -> target.

    It suffices to test phi(x s) = phi(x) phi(s) for every x and every s of
    `_generator_plan(source)`: the s that pass form a set closed under
    products, and in a finite group every element is a positive word in the
    generators.  Every value is first looked up in the target's identity
    row, so a value outside the target gives False or IndexError at the
    same value as a scan of all pairs (x, y) would.
    """
    if len(mapping) != source.order or mapping[0] != 0:
        return False
    ts, tt = source.table, target.table
    if any(tt[0][v] != v for v in mapping):
        return False
    for s in _generator_plan(source)[0]:
        ms = mapping[s]
        for x, row in enumerate(ts):
            if mapping[row[s]] != tt[mapping[x]][ms]:
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
        """The inverse, computed on the first call and kept on this object."""
        return self._inverse

    @cached_property
    def _inverse(self) -> "Automorphism":
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
        """Whether x N x^-1 lies in N for every generator x of the parent.

        That suffices: the x that pass form a set closed under products, and
        in a finite group every element is a positive word in the generators.
        """
        g = self.parent
        members = set(self.elements)
        return all(
            g.conj(x, s) in members for x in _generator_plan(g)[0] for s in self.elements
        )


def closure(g: FiniteGroup, elems) -> tuple[int, ...]:
    """Subgroup generated by `elems`, as a sorted element tuple.

    Dimino's algorithm (Butler, Fundamental Algorithms for Permutation
    Groups): the `elems` are taken in turn, and one already in the subgroup K
    built so far is skipped.  The first, s, gives the cycle s, s^2, ..., 1.
    Each later one makes <K, s> a union of cosets r K, walked breadth-first
    from K: each generator t used so far times each coset rep r either lies
    in a coset already listed or starts a new one, since t (r k) = (t r) k.
    That is one product per element of the result plus one per rep and
    generator used, so a conjugacy class costs only its few members that
    are not yet in the subgroup.
    """
    table = g.table
    known = {0}
    gens: list[int] = []
    for s in elems:
        if s in known:
            continue
        gens.append(s)
        if len(known) == 1:
            c = table[0][s]  # s, as the table holds it
            while c:
                known.add(c)
                c = table[c][s]
            continue
        coset = itemgetter(*known)  # r K, read off the row of r
        reps = [0]  # K itself, whose walk reaches s K first
        for r in reps:  # grows while it is walked: breadth-first
            for t in gens:
                c = table[t][r]
                if c not in known:
                    known.update(coset(table[c]))
                    reps.append(c)
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
        if g.is_abelian:
            elems = tuple(g.elements())
        else:
            # x is central iff its row (x*y) equals its column (y*x)
            cols = zip(*g.table)
            elems = tuple(x for x, (row, col) in enumerate(zip(g.table, cols)) if row == col)
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
        if g.is_abelian:   # every conjugation is the identity
            inner = {tuple(g.elements()): tuple(g.elements())}
        else:
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


def _product_set(g: FiniteGroup, a, b) -> tuple[int, ...]:
    """The sorted product set NM of a normal subgroup N = a and a subgroup
    M = b; for normal M, their join.

    NM = MN is the union of the cosets y N, y in M, and y N = y' N whenever
    y lies in y' N: so a coset (the row of y read on N) is added only for a
    y not yet covered, one product per element of the result.  A trivial N
    gives M itself.
    """
    if len(a) == 1:
        return tuple(sorted(b))
    table = g.table
    coset = itemgetter(*a)
    covered = set(a)
    for y in b:
        if y not in covered:
            covered.update(coset(table[y]))
    return tuple(sorted(covered))


def normal_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """All normal subgroups, ordered by size then element tuple.

    A normal subgroup is the join of the normal closures of the classes it
    contains, and the join of normal N and M is the product set NM.  So the
    lattice is the trivial group closed under N -> NM, over the distinct
    closures M of the non-trivial classes that are not inside N (Holt, Eick,
    O'Brien, Handbook of Computational Group Theory).  Each closure is one
    `closure` call on its class, and each join NM the union of the cosets
    y N, y in M (`_product_set`).  The element tuples are cached on the
    group.
    """
    lattice = g._cache.get("normal")
    if lattice is None:
        # a subgroup generated by a whole conjugacy class is normal
        closures = sorted({closure(g, cls) for cls in g.conjugacy_classes()[1:]})
        found = {(0,)}
        frontier = [(0,)]
        for base in frontier:  # grows while it is walked
            members = set(base)
            for m in closures:
                if not members.issuperset(m):
                    new = _product_set(g, base, m)
                    if new not in found:
                        found.add(new)
                        frontier.append(new)
        lattice = tuple(sorted(found, key=lambda e: (len(e), e)))
        g._cache["normal"] = lattice
    return [Subgroup(g, e) for e in lattice]


def subgroup_as_group(sub: Subgroup) -> tuple[FiniteGroup, Homomorphism]:
    """Re-index a subgroup as a standalone group plus its inclusion map.

    Element k of the new group is the k-th smallest element of the subgroup,
    so its table is the parent's block on the subgroup's rows and columns,
    each entry replaced by its rank (`np.searchsorted`).
    """
    parent = sub.parent
    elems = sub.elements
    idx = np.array(elems, dtype=np.intp)
    table = np.searchsorted(idx, parent.table_array[idx[:, None], idx])
    grp = FiniteGroup(f"{parent.name}<{len(elems)}>", table, validate=False)
    incl = Homomorphism(grp, parent, elems)
    return grp, incl


def quotient(g: FiniteGroup, n: Subgroup) -> tuple[FiniteGroup, Homomorphism]:
    """Quotient by a normal subgroup, with the canonical projection."""
    if n.parent is not g and n.parent != g:
        raise NotNormalError("subgroup of a different group")
    if not n.is_normal():
        raise NotNormalError(f"{n.elements} is not normal in {g.name}")
    # row x of the gather is the coset x N; its least element is its rep,
    # and cosets are numbered by rep, so coset 0 is the subgroup itself: a
    # rep y has least[y] == y, and counting the reps up to y numbers them
    t = g.table_array
    least = t[:, np.array(n.elements, dtype=np.intp)].min(axis=1)
    firsts = least == np.arange(g.order)
    reps = firsts.nonzero()[0]
    coset_of = firsts.cumsum()[least] - 1
    q = FiniteGroup(f"{g.name}/{n.order}", coset_of[t[reps[:, None], reps]], validate=False)
    proj = Homomorphism(g, q, tuple(coset_of.tolist()))
    return q, proj


# homomorphism and isomorphism search ---------------------------------------


def _generator_plan(g: FiniteGroup) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
    """`(gens, levels)` for the generator-image search, cached on g.

    `gens` is the greedy generating sequence: each g_k is the smallest element
    outside H_{k-1} = <g_0..g_{k-1}> (H_{-1} = 1).  `levels[k]` lists, in
    breadth-first order over H_k, one step `(x, j, x g_j, new)` for every x in
    H_k and every j <= k that no earlier level listed.  `new` marks the first
    step to reach an element, so its x was reached by an earlier step or lies
    in H_{k-1}; the new steps reach exactly the elements of H_k outside H_{k-1}.
    A map on H_k is a homomorphism iff phi(x g_j) = phi(x) phi(g_j) on every
    step of levels 0..k: with that, phi(x w) = phi(x) phi(w) for every positive
    word w, and in a finite group every element is one.
    """
    plan = g._cache.get("plan")
    if plan is None:
        table = g.table
        gens: list[int] = []
        levels: list[tuple] = []
        seen = [False] * g.order
        seen[0] = True
        members = [0]  # H_{k-1}, in the order the search reached it
        for gen in range(1, g.order):
            if seen[gen]:
                continue
            k = len(gens)
            gens.append(gen)
            steps = []
            old = len(members)
            for i, x in enumerate(members):  # grows while it is walked: breadth-first
                row = table[x]
                for j in (k,) if i < old else range(k + 1):
                    y = row[gens[j]]
                    new = not seen[y]
                    steps.append((x, j, y, new))
                    if new:
                        seen[y] = True
                        members.append(y)
            levels.append(tuple(steps))
        plan = (tuple(gens), tuple(levels))
        g._cache["plan"] = plan
    return plan


def generating_sequence(g: FiniteGroup) -> list[int]:
    """Greedy generating sequence: repeatedly adjoin the smallest outside element.

    Read from the cached `_generator_plan`; a fresh list on every call.
    """
    return list(_generator_plan(g)[0])


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


def _completion_triples(g: FiniteGroup) -> list[list[tuple[int, int, int]]]:
    """For each index k: the pairs (a, b, ab) of G whose largest index is k, cached on g.

    Each list is in row-major order of (a, b): one stable sort of the flat
    (a, b) grid by max(a, b, ab).
    """
    out = g._cache.get("triples")
    if out is None:
        n = g.order
        ab = g.table_array
        r = np.arange(n)
        last = np.maximum(np.maximum(r[:, None], r), ab).ravel()
        order = np.argsort(last, kind="stable")
        a, b = np.divmod(order, n)
        triples = list(zip(a.tolist(), b.tolist(), ab.ravel()[order].tolist()))
        bounds = np.searchsorted(last[order], np.arange(n + 1)).tolist()
        out = [triples[start:end] for start, end in zip(bounds, bounds[1:])]
        g._cache["triples"] = out
    return out


def _generator_images(src: FiniteGroup, dst: FiniteGroup, images_of, *, injective: bool = False):
    """Yield the value tables of the homomorphisms src -> dst, in search order.

    `images_of(gen)` lists the candidate images of one generator of
    `_generator_plan(src)`.  Choosing the image of g_k walks level k of the
    plan on one shared value list `phi`: a new step defines phi(x g_j) as
    phi(x) img_j, any other step checks that equation, so a node costs
    O(|H_k| * k).  With `injective` a new value 0 (a non-trivial kernel) is
    rejected at once: every extension has that kernel too, so only the
    injective homomorphisms are yielded, in the same order.
    """
    gens, levels = _generator_plan(src)
    tt = dst.table
    phi = [0] * src.order

    def accept(k: int, imgs) -> bool:
        for x, j, y, new in levels[k]:
            v = tt[phi[x]][imgs[j]]
            if new:
                if injective and v == 0:
                    return False
                phi[y] = v
            elif phi[y] != v:
                return False
        return True

    for _ in backtrack([images_of(x) for x in gens], accept):
        yield tuple(phi)


def homomorphism_maps(src: FiniteGroup, dst: FiniteGroup) -> list[tuple[int, ...]]:
    """The value tables of all homomorphisms src -> dst, sorted, by
    generator-image backtracking."""
    src_orders, dst_orders = src.element_orders, dst.element_orders

    def images_of(gen: int) -> list[int]:
        return [y for y, k in enumerate(dst_orders) if src_orders[gen] % k == 0]

    return sorted(_generator_images(src, dst, images_of))


def enumerate_homomorphisms(src: FiniteGroup, dst: FiniteGroup) -> list[Homomorphism]:
    """All homomorphisms src -> dst, in the order of `homomorphism_maps`."""
    return [Homomorphism(src, dst, m) for m in homomorphism_maps(src, dst)]


def _isomorphisms(g1: FiniteGroup, g2: FiniteGroup):
    """Yield the isomorphisms g1 -> g2 as value tables, in search order."""
    if g1.order != g2.order:
        return
    orders, by_order = g1.element_orders, g2.elements_by_order()
    yield from _generator_images(
        g1, g2, lambda gen: by_order.get(orders[gen], ()), injective=True
    )


def are_isomorphic(g1: FiniteGroup, g2: FiniteGroup) -> Homomorphism | None:
    """An isomorphism witness if one exists: fingerprint filter, then backtracking."""
    if g1.fingerprint() != g2.fingerprint():
        return None
    found = next(_isomorphisms(g1, g2), None)
    return None if found is None else Homomorphism(g1, g2, found)


def isomorphic(g1: FiniteGroup, g2: FiniteGroup) -> bool:
    """Whether g1 and g2 are isomorphic, deciding by the first rule that applies.

    1. different orders: no;
    2. equal tables: yes;
    3. one abelian, the other not: no;
    4. both abelian: yes exactly when their sorted element orders agree (an
       abelian group's type is fixed by how many elements it has of each
       order, as `_abelian_invariant_name` reads it);
    5. otherwise the witness search `are_isomorphic`.
    """
    if g1.order != g2.order:
        return False
    if g1 == g2:
        return True
    if g1.is_abelian != g2.is_abelian:
        return False
    if g1.is_abelian:
        return sorted(g1.element_orders) == sorted(g2.element_orders)
    return are_isomorphic(g1, g2) is not None


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
    r = np.arange(n)
    return FiniteGroup(f"C{n}", (r[:, None] + r) % n, descriptor=f"cyclic:{n}", validate=False)


def presentation_group(n: int, m: int, i: int, j: int, name: str, *, descriptor=None) -> FiniteGroup:
    """Group on pairs (a^p, b^q) with a^n = 1, b^m = a^i, b^-1 a b = a^j.

    Requires i*(j-1) = 0 and j^m = 1 mod n; the table is fully determined by
    the two relations, which make it a group table, so it is not re-validated
    (the tests run `check_table` on every presentation with n*m <= 36).  The
    table is built in numpy and handed over as an array; `descriptor` is kept
    on the group (the dihedral and quaternion constructors pass theirs).
    """
    if n < 1 or m < 1:
        raise InvalidDescriptorError("presentation orders must be >= 1")
    if (i * (j - 1)) % n != 0 or pow(j, m, n) != 1 % n:
        raise InvalidDescriptorError(f"inconsistent relations (n={n}, m={m}, i={i}, j={j})")
    jinv = pow(j, m - 1, n) if n > 1 else 0
    jq = np.array([pow(jinv, q, n) if n > 1 else 0 for q in range(m)], dtype=np.intp)
    # (a^p b^q)(a^r b^s) = a^(p + r j^-q) b^(q + s), and b^m = a^i on a carry;
    # axes (q, p, s, r) so that element a^p b^q has index p + n q
    q = np.arange(m, dtype=np.intp)[:, None, None, None]
    p = np.arange(n, dtype=np.intp)[None, :, None, None]
    s = np.arange(m, dtype=np.intp)[None, None, :, None]
    r = np.arange(n, dtype=np.intp)[None, None, None, :]
    carry = q + s >= m
    t = (p + r * jq[q] + i * carry) % n
    u = q + s - m * carry
    size = n * m
    return FiniteGroup(name, (t + n * u).reshape(size, size), descriptor=descriptor, validate=False)


def dihedral_group(order: int) -> FiniteGroup:
    if order < 2 or order % 2 != 0:
        raise InvalidDescriptorError(f"dihedral order must be even >= 2, got {order}")
    k = order // 2
    return presentation_group(
        k, 2, 0, (k - 1) % k if k > 1 else 0, f"D{order}", descriptor=f"dihedral:{order}"
    )


def quaternion_group() -> FiniteGroup:
    return presentation_group(4, 2, 2, 3, "Q8", descriptor="quaternion:8")


def _permutation_table(perms: "np.ndarray") -> "np.ndarray":
    """The table of the permutations in `perms`, one per row in ascending
    lexicographic order and closed under composition; p q is p after q.

    Each product is ranked by a lookup of its base-n code w . (p q), which
    ascends with the rows.  Since (p q)[i] = p[q[i]], that code is
    sum_v p[v] w[q^-1(v)]: one integer matmul of the rows against the
    weights permuted by every inverse.  (A float64 matmul would be faster
    on S5 but calls BLAS, whose first call allocates its buffers: about
    0.3 MB more peak memory in every process that builds one of these.)
    """
    k, n = perms.shape
    weights = n ** np.arange(n - 1, -1, -1)
    rank = np.zeros(n ** n, dtype=np.intp)
    rank[perms @ weights] = np.arange(k)
    return rank[perms @ weights[np.argsort(perms, axis=1)].T]


def _permutations(n: int) -> "np.ndarray":
    """Every permutation of range(n), one per row, in lexicographic order."""
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp)


def symmetric_group(n: int) -> FiniteGroup:
    if not 1 <= n <= 5:
        raise InvalidDescriptorError(f"symmetric:n supports 1 <= n <= 5, got {n}")
    table = _permutation_table(_permutations(n))
    return FiniteGroup(f"S{n}", table, descriptor=f"symmetric:{n}", validate=False)


def alternating_group(n: int) -> FiniteGroup:
    if not 1 <= n <= 5:
        raise InvalidDescriptorError(f"alternating group supports 1 <= n <= 5, got {n}")
    perms = _permutations(n)
    a, b = np.triu_indices(n, 1)
    inversions = (perms[:, a] > perms[:, b]).sum(axis=1)
    table = _permutation_table(perms[inversions % 2 == 0])
    return FiniteGroup(f"A{n}", table, validate=False)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """a x b on the pairs (x, y) as x |b| + y."""
    nb = b.order
    ta, tb = a.table_array, b.table_array
    size = a.order * nb
    table = (ta[:, None, :, None] * nb + tb[None, :, None, :]).reshape(size, size)
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


def _is_int(value) -> bool:
    """Whether a document value is an integer; JSON true and false are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def int_rows(value, what: str) -> list:
    """Return `value` if it is a list of lists of integers, as document tables must be."""
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) and all(_is_int(v) for v in row)
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
    order = spec.get("order", len(table))
    if not _is_int(order):
        raise InvalidDescriptorError("order field must be an integer")
    if order != len(table):
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


@lru_cache(maxsize=None)
def _named_candidates(order: int) -> tuple[tuple[str, FiniteGroup], ...]:
    """The named non-abelian groups of one order, in the order tried.

    Built once per order, so each candidate's fingerprint and generator plan
    are cached on it across `identify_group` calls, whose searches walk the
    candidate's plan.  A candidate isomorphic to an earlier one (D6 to S3,
    S3xC2 to D12, S3xC6 to D12xC3, ...) is dropped: the earlier one matches
    first, so its name could never be returned.
    """
    out = []
    if order == 8:
        out.append(("Q8", quaternion_group()))
    if order == 6:
        out.append(("S3", symmetric_group(3)))
    if order == 24:
        out.append(("S4", symmetric_group(4)))
    if order == 12:
        out.append(("A4", alternating_group(4)))
    if order % 2 == 0 and order >= 6:
        out.append((f"D{order}", dihedral_group(order)))
    if order % 4 == 0 and order >= 12:
        k = order // 4
        out.append((f"Dic{k}", presentation_group(2 * k, 2, k, 2 * k - 1, f"Dic{k}")))
    # small products of a named non-abelian with a cyclic group
    for sub in (6, 8, 12):
        if order % sub == 0 and order // sub >= 2 and order > sub:
            cof = order // sub
            for name, base in _named_candidates(sub):
                out.append((f"{name}xC{cof}", direct_product(base, cyclic_group(cof))))
    kept: list[tuple[str, FiniteGroup]] = []
    for name, cand in out:
        if not any(isomorphic(cand, other) for _, other in kept):
            kept.append((name, cand))
    return tuple(kept)


def identify_group(g: FiniteGroup) -> str:
    """A human-readable isomorphism-type name, exact for the common catalog.

    A non-abelian g is matched against `_named_candidates` in order by
    `isomorphic(cand, g)`: after the fingerprint filter the search maps the
    candidate onto g, so it walks the candidate's cached generator plan and g
    needs no plan of its own.  Groups outside the catalog get a deterministic
    fallback tag built from the element-order profile, so distinct types
    rarely share a name.
    """
    if g.order == 1:
        return "C1"
    name = _abelian_invariant_name(g)
    if name is not None:
        return name
    for cand_name, cand in _named_candidates(g.order):
        if isomorphic(cand, g):
            return cand_name
    counts: dict[int, int] = {}
    for k in g.element_orders:
        counts[k] = counts.get(k, 0) + 1
    profile = ",".join(f"{k}^{v}" for k, v in sorted(counts.items()) if k > 1)
    return f"G{g.order}({profile})"
