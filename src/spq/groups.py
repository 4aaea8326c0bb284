"""Finite groups as explicit multiplication tables, with subgroup machinery.

Elements of a group of order m are the indices 0..m-1 and index 0 is always
the identity. All types are immutable once constructed; derived data is
cached lazily on the group object, and ``_derived`` keeps the subgroup
inventory, embedded subgroups and quotients, and on a homomorphism the
restriction memo of ``global_functor``. ``_check_square`` owns the
table-shape checks of both table constructors, and ``left_cosets`` the
coset listing behind ``quotient`` and ``partition.GSet.from_cosets``.
``_grow`` is the one closure routine: ``closure_set``, Light's
associativity test and every computed generating set go through it. Every
group carries generators: given ones are checked by ``_walk``, a
breadth-first walk of the Cayley graph over them that relies on
associativity, and missing ones are computed on first use. The
homomorphism search tries each tuple of generator images once, on one
walk of the same Cayley graph. ``all_subgroups`` extends each subgroup H
it finds by one element g of each right coset Hg other than H, and keeps
the union of the cosets g^i H when g normalizes H and gH has prime order:
no closure. That finds every solvable subgroup. A group it does not reach
is not solvable, and is enumerated again by closing each H with one g per
right coset, [G:H] - 1 closures per H. Conjugacy classes of subgroups are
read off the conjugation action in ``lattice``.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from functools import cached_property

from .errors import (
    InvalidPermutation,
    InvariantViolation,
    NotAGroup,
    NotASubgroupInclusion,
    NotNormal,
    OrderCapExceeded,
    ProductCapExceeded,
    UnknownSpec,
)

DEFAULT_ORDER_CAP = 512
DEFAULT_PRODUCT_CAP = 1 << 16


def _check_square(table: Sequence[Sequence[int]]) -> int:
    """Side of a nonempty square table with entries in 0..side-1; NotAGroup otherwise."""
    n = len(table)
    if n == 0:
        raise NotAGroup("empty multiplication table")
    for row in table:
        if len(row) != n:
            raise NotAGroup("multiplication table is not square")
        for x in row:
            if not 0 <= x < n:
                raise NotAGroup(f"table entry {x} out of range 0..{n - 1}")
    return n


def _derived(owner, name: str, key, build: Callable):
    """``build()`` for ``key``, made once and kept in ``owner.__dict__[name]`` (key None
    for a single object); ``setdefault`` keeps one winner if two threads race."""
    table = owner.__dict__.setdefault(name, {})
    found = table.get(key)
    if found is None:
        found = table.setdefault(key, build())
    return found


class FiniteGroup:
    """A finite group given by its full multiplication table.

    ``mul[a][b]`` is the index of the product, ``inv[a]`` the inverse.
    Construction checks identity and inverse axioms, and that given
    ``generators`` are elements that generate the table; associativity is
    the caller's responsibility (``from_cayley_table`` verifies it for
    untrusted tables, the builtin constructors guarantee it).
    """

    identity = 0

    def __init__(self, mul: Sequence[Sequence[int]], label: str,
                 generators: Iterable[int] | None = None):
        table = tuple(tuple(int(x) for x in row) for row in mul)
        n = _check_square(table)
        for g in range(n):
            if table[0][g] != g or table[g][0] != g:
                raise NotAGroup("element 0 is not a two-sided identity", witness=g)
        inv = [0] * n
        for g in range(n):
            row = table[g]
            try:
                h = row.index(0)
            except ValueError:
                raise NotAGroup("element has no right inverse", witness=g) from None
            if table[h][g] != 0:
                raise NotAGroup("right inverse is not a left inverse", witness=g)
            inv[g] = h
        self.order = n
        self.mul = table
        self.inv = tuple(inv)
        self.label = str(label)
        if generators is not None:
            gens = tuple(generators)
            for g in gens:
                if not 0 <= g < n:
                    raise NotAGroup(f"generator {g} out of range 0..{n - 1}")
            if len(_walk(table, gens)) != n:
                raise NotAGroup("the given generators do not generate the group")
            self.generators = gens

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label!r}, order={self.order})"

    def elements(self) -> range:
        return range(self.order)

    def conjugate(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self.mul[self.mul[g][x]][self.inv[g]]

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """Each element not yet generated, in index order: at most log2|G| of them."""
        return _grow(self.mul, self.elements())[0]

    @cached_property
    def is_abelian(self) -> bool:
        mul = self.mul
        return all(mul[a][b] == mul[b][a]
                   for a in range(self.order) for b in range(a + 1, self.order))

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        out = []
        for g in range(self.order):
            k, x = 1, g
            while x != 0:
                x = self.mul[x][g]
                k += 1
            out.append(k)
        return tuple(out)

    def closure_set(self, seed: Iterable[int]) -> set[int]:
        """Smallest subset containing ``seed`` closed under multiplication."""
        return _grow(self.mul, seed)[1]

    def generated_mask(self, seed: Iterable[int]) -> int:
        mask = 0
        for g in self.closure_set(seed):
            mask |= 1 << g
        return mask

    def subgroup(self, generators: Iterable[int]) -> Subgroup:
        """The subgroup generated by the given element indices."""
        gens = list(generators)
        bad = [g for g in gens if not 0 <= g < self.order]
        if bad:
            raise UnknownSpec(f"element index {bad[0]} out of range 0..{self.order - 1}")
        mask = self.generated_mask(gens)
        return Subgroup(self, mask)

    @cached_property
    def trivial_subgroup(self) -> Subgroup:
        return Subgroup(self, 1)

    @cached_property
    def full_subgroup(self) -> Subgroup:
        return Subgroup(self, (1 << self.order) - 1)

    def conjugate_mask(self, mask: int, g: int) -> int:
        out = 0
        for x in _mask_bits(mask):
            out |= 1 << self.conjugate(g, x)
        return out

    def embedded_subgroup(self, mask: int) -> EmbeddedSubgroup:
        """The subgroup with the given member mask, as a group in its own right.

        Cached per mask so that repeated calls return the identical object
        (the full-group mask returns the parent itself).
        """
        return _derived(self, "_embedded_cache", mask, lambda: _embed(self, mask))


def _embed(G: FiniteGroup, mask: int) -> EmbeddedSubgroup:
    elems = _mask_bits(mask)
    pos = {g: i for i, g in enumerate(elems)}
    if len(elems) == G.order:
        return EmbeddedSubgroup(G, tuple(elems), pos)
    table = [[pos[G.mul[a][b]] for b in elems] for a in elems]
    return EmbeddedSubgroup(FiniteGroup(table, f"{G.label}:{mask:x}"), tuple(elems), pos)


def _grow(mul: Sequence[Sequence[int]], seed: Iterable[int]) -> tuple[tuple[int, ...], set[int]]:
    """Adjoin ``seed`` to {0} one element at a time, closing under ``mul``.

    Returns the seeds that grew the set, in seed order, and the closure.
    Each new element is multiplied on both sides by the members present
    when it is popped; a member that joins later takes its products with it
    when that member is popped, so every pair is covered.
    """
    joined: list[int] = []
    closure = {0}
    for g in seed:
        if g in closure:
            continue
        joined.append(g)
        closure.add(g)
        queue = [g]
        while queue:
            x = queue.pop()
            for y in tuple(closure):
                for z in (mul[x][y], mul[y][x]):
                    if z not in closure:
                        closure.add(z)
                        queue.append(z)
    return tuple(joined), closure


def _walk(mul: Sequence[Sequence[int]], gens: Sequence[int]) -> set[int]:
    """The elements reached from 0 by right products with ``gens``.

    Breadth-first over the Cayley graph, in |G|*|gens| lookups. In an
    associative table these are the products of nonempty words in
    ``gens``, which in a finite group is the subgroup that they generate.
    """
    reached = {0}
    queue = [0]
    for x in queue:
        row = mul[x]
        for g in gens:
            z = row[g]
            if z not in reached:
                reached.add(z)
                queue.append(z)
    return reached


# (group: FiniteGroup, to_ambient: tuple[int, ...], from_ambient: dict[int, int])
EmbeddedSubgroup = namedtuple("EmbeddedSubgroup", ("group", "to_ambient", "from_ambient"))
EmbeddedSubgroup.__doc__ = "A subgroup realized as a standalone group plus its element embedding."


def _mask_bits(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending: the one set-bit loop."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _image_mask(mask: int, images) -> int:
    """Mask of the images of the members of ``mask``; ``images[g]`` is g's image."""
    out = 0
    for g in _mask_bits(mask):
        out |= 1 << images[g]
    return out


class Subgroup:
    """Subgroup of a FiniteGroup, stored as a bitmask over element indices.

    Two subgroups are equal, and hash alike, when they have the same parent
    object and the same members.
    """

    def __init__(self, parent: FiniteGroup, members: int):
        self.parent = parent
        self.members = members
        if not 0 <= members < 1 << parent.order:
            raise NotASubgroupInclusion(
                f"mask {members:#x} is not a set of elements 0..{parent.order - 1}")
        if members & 1 == 0:
            raise NotASubgroupInclusion("subgroup does not contain the identity")
        mul, inv, mask = parent.mul, parent.inv, members
        elems = _mask_bits(mask)
        for a in elems:
            if not mask >> inv[a] & 1:
                raise NotASubgroupInclusion(f"not closed under inversion at {a}")
            row = mul[a]
            for b in elems:
                if not mask >> row[b] & 1:
                    raise NotASubgroupInclusion(f"not closed under product at ({a},{b})")
        if parent.order % self.order:
            raise NotASubgroupInclusion("order does not divide the parent order")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.parent, self.members) == (other.parent, other.members)

    def __hash__(self):
        return hash((self.parent, self.members))

    @cached_property
    def order(self) -> int:
        return self.members.bit_count()

    @cached_property
    def elements(self) -> tuple[int, ...]:
        return tuple(_mask_bits(self.members))

    @cached_property
    def key(self) -> tuple[int, tuple[int, ...]]:
        """Canonical sort key: order first, then the member list."""
        return (self.order, self.elements)

    def __contains__(self, g: int) -> bool:
        return bool(self.members >> g & 1)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, members={list(self.elements)})"

    def is_subgroup_of(self, other: Subgroup) -> bool:
        return (self.parent is other.parent
                and self.members & other.members == self.members)

    @property
    def as_group(self) -> EmbeddedSubgroup:
        return self.parent.embedded_subgroup(self.members)


class GroupHom:
    """Group homomorphism, stored as the image of every source element.

    Two homomorphisms are equal, and hash alike, when they have the same
    source and target objects and the same images.
    """

    def __init__(self, source: FiniteGroup, target: FiniteGroup, image_of: Iterable[int]):
        self.source = source
        self.target = target
        self.image_of = img = tuple(int(x) for x in image_of)
        if len(img) != self.source.order:
            raise ValueError("image table length does not match the source order")
        for g, x in enumerate(img):
            if not 0 <= x < self.target.order:
                raise ValueError(f"image {x} of element {g} is out of range "
                                 f"0..{self.target.order - 1}")
        if img and img[0] != 0:
            raise ValueError("homomorphism must send identity to identity")
        # phi(a s) = phi(a) phi(s) for every a and generator s is complete: a = 1
        # gives phi(1) = 1, and then phi(a b) = phi(a) phi(b) by induction on a
        # word for b in the generators, which every element of a finite group has
        smul, tmul = self.source.mul, self.target.mul
        for s in self.source.generators:
            image = img[s]
            for a in range(self.source.order):
                if img[smul[a][s]] != tmul[img[a]][image]:
                    raise ValueError(f"not a homomorphism at pair ({a},{s})")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.source, self.target, self.image_of)
                == (other.source, other.target, other.image_of))

    def __hash__(self):
        return hash((self.source, self.target, self.image_of))

    def __call__(self, g: int) -> int:
        return self.image_of[g]

    @cached_property
    def image_mask(self) -> int:
        mask = 0
        for x in self.image_of:
            mask |= 1 << x
        return mask

    @cached_property
    def surjective(self) -> bool:
        return self.image_mask.bit_count() == self.target.order

    @cached_property
    def kernel(self) -> Subgroup:
        return Subgroup(self.source, self.preimage_mask(1))

    def preimage_mask(self, target_mask: int) -> int:
        mask = 0
        for g, img in enumerate(self.image_of):
            if target_mask >> img & 1:
                mask |= 1 << g
        return mask

    def then(self, nxt: GroupHom) -> GroupHom:
        """Composite ``nxt o self`` (apply self first)."""
        if nxt.source is not self.target:
            raise ValueError("homomorphisms are not composable")
        return GroupHom(self.source, nxt.target,
                        tuple(nxt.image_of[x] for x in self.image_of))

    @staticmethod
    def identity(G: FiniteGroup) -> GroupHom:
        return GroupHom(G, G, tuple(range(G.order)))

    @staticmethod
    def conjugation(G: FiniteGroup, g: int) -> GroupHom:
        return GroupHom(G, G, tuple(G.conjugate(g, x) for x in G.elements()))


# ---------------------------------------------------------------------------
# constructors


def _associativity_witness(table: Sequence[Sequence[int]],
                           gens: Sequence[int]) -> tuple[int, int, int] | None:
    """First failing triple ((a*t)*b != a*(t*b)) with t in ``gens``, or None.

    Light's test. The set of t with (a*t)*b == a*(t*b) for all a, b is
    closed under multiplication: if t and u are in it, then
    (a*(t*u))*b = ((a*t)*u)*b = (a*t)*(u*b) = a*(t*(u*b)) = a*((t*u)*b).
    So when the products of ``gens`` reach every element, checking t over
    ``gens`` decides associativity, in |gens|*n^2 steps instead of n^3.
    """
    n = len(table)
    for t in gens:
        for a in range(n):
            at = table[a][t]
            row_a = table[a]
            row_at = table[at]
            row_t = table[t]
            for b in range(n):
                if row_at[b] != row_a[row_t[b]]:
                    return (a, t, b)
    return None


def from_cayley_table(table: Sequence[Sequence[int]], label: str,
                      order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Validate an untrusted multiplication table and wrap it as a group.

    The identity may sit at any index in the input; the result is reindexed
    so that it lands at 0. Axiom failures raise NotAGroup with a witness in
    the input numbering.
    """
    rows = [tuple(int(x) for x in row) for row in table]
    if len(rows) > order_cap:
        raise OrderCapExceeded(f"table side {len(rows)} exceeds the order cap {order_cap}")
    n = _check_square(rows)
    ident = None
    for e in range(n):
        if all(rows[e][g] == g and rows[g][e] == g for g in range(n)):
            ident = e
            break
    if ident is None:
        raise NotAGroup("no two-sided identity element")
    swap = list(range(n))  # an involution: it maps both ways
    swap[0], swap[ident] = ident, 0
    if ident != 0:
        rows = [tuple(swap[rows[swap[i]][swap[j]]] for j in range(n)) for i in range(n)]
    gens = _grow(rows, range(n))[0]
    witness = _associativity_witness(rows, gens)
    if witness is not None:
        raise NotAGroup("multiplication is not associative",
                        witness=tuple(swap[x] for x in witness))
    return FiniteGroup(rows, label, generators=gens)


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p o q)(i) = p[q[i]]."""
    return tuple(p[i] for i in q)


def from_permutation_generators(degree: int, gens: Sequence[Sequence[int]], label: str,
                                order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Close a set of permutations under composition and build the group.

    Element order is first occurrence in a breadth-first closure from the
    identity, applying the generators in the given order. The closure runs
    on the points some generator moves, which the generators permute among
    themselves, so nothing of size ``degree`` is built beyond the generators.
    """
    if degree < 1:
        raise InvalidPermutation("degree must be a positive integer")
    norm: list[tuple[int, ...]] = []
    for g in gens:
        p = tuple(int(x) for x in g)
        if len(p) != degree or sorted(p) != list(range(degree)):
            raise InvalidPermutation(f"{list(g)} is not a permutation of 0..{degree - 1}")
        norm.append(p)
    moved = sorted({i for p in norm for i, x in enumerate(p) if x != i})
    local = {point: i for i, point in enumerate(moved)}
    norm = [tuple(local[p[point]] for point in moved) for p in norm]
    ident = tuple(range(len(moved)))
    elems = [ident]
    pos = {ident: 0}
    queue = [ident]
    while queue:
        cur = queue.pop(0)
        for p in norm:
            nxt = _compose(cur, p)
            if nxt not in pos:
                if len(elems) >= order_cap:
                    raise OrderCapExceeded(
                        f"closure exceeds the order cap {order_cap}")
                pos[nxt] = len(elems)
                elems.append(nxt)
                queue.append(nxt)
    table = [[pos[_compose(a, b)] for b in elems] for a in elems]
    gen_ids = []
    for p in norm:
        i = pos[p]
        if i not in gen_ids:
            gen_ids.append(i)
    return FiniteGroup(table, label, generators=gen_ids)


def direct_product(A: FiniteGroup, B: FiniteGroup,
                   label: str | None = None) -> FiniteGroup:
    """Direct product with pairs (a, b) encoded as a*|B| + b."""
    nb = B.order
    table = [[(A.mul[a1][a2]) * nb + B.mul[b1][b2]
              for a2 in A.elements() for b2 in B.elements()]
             for a1 in A.elements() for b1 in B.elements()]
    gens = tuple(g * nb for g in A.generators) + B.generators
    return FiniteGroup(table, label or f"{A.label}x{B.label}", generators=gens)


def _cyclic(n: int) -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, f"C{n}", generators=(1,) if n > 1 else ())


def _inverting_extension(k: int, s: int, label: str) -> FiniteGroup:
    """<a, b | a^k, b^2 = a^s, b a b^-1 = a^-1> of order 2k, for a central a^s.

    Dihedral with s = 0, dicyclic with s = k/2; a^i b^e has index i + k*e.
    """
    n = 2 * k
    table = [[0] * n for _ in range(n)]
    for i in range(k):
        for e in (0, 1):
            for j in range(k):
                for f in (0, 1):
                    r = (i + (-j if e else j) + (s if e and f else 0)) % k
                    table[i + k * e][j + k * f] = r + k * (e ^ f)
    return FiniteGroup(table, label, generators=(k,) if k == 1 else (1, k))


def _permutation_parity(p: tuple[int, ...]) -> int:
    inversions = sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
                     if p[i] > p[j])
    return inversions & 1


def _symmetric_or_alternating(n: int, alternating: bool) -> FiniteGroup:
    perms = [p for p in itertools.permutations(range(n))
             if not alternating or _permutation_parity(p) == 0]
    pos = {p: i for i, p in enumerate(perms)}
    table = [[pos[_compose(a, b)] for b in perms] for a in perms]
    label = ("A" if alternating else "S") + str(n)
    gen_perms: list[tuple[int, ...]] = []
    if not alternating and n >= 2:
        gen_perms.append((1, 0) + tuple(range(2, n)))
        if n >= 3:
            gen_perms.append(tuple(range(1, n)) + (0,))
    elif alternating and n >= 3:
        gen_perms.append((1, 2, 0) + tuple(range(3, n)))
        if n >= 4:
            if n % 2:
                gen_perms.append(tuple(range(1, n)) + (0,))
            else:
                gen_perms.append((0,) + tuple(range(2, n)) + (1,))
    gens = tuple(pos[p] for p in gen_perms)
    return FiniteGroup(table, label, generators=gens)


def _sl2f3() -> FiniteGroup:
    ident = (1, 0, 0, 1)
    mats = [m for m in itertools.product(range(3), repeat=4)
            if (m[0] * m[3] - m[1] * m[2]) % 3 == 1]
    mats.remove(ident)
    mats = [ident] + sorted(mats)
    pos = {m: i for i, m in enumerate(mats)}

    def mm(x, y):
        return ((x[0] * y[0] + x[1] * y[2]) % 3, (x[0] * y[1] + x[1] * y[3]) % 3,
                (x[2] * y[0] + x[3] * y[2]) % 3, (x[2] * y[1] + x[3] * y[3]) % 3)

    table = [[pos[mm(a, b)] for b in mats] for a in mats]
    gens = (pos[(1, 1, 0, 1)], pos[(0, 2, 1, 0)])
    return FiniteGroup(table, "SL2F3", generators=gens)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


_ATOM_RE = re.compile(
    r"^(?:C(?P<c>\d+)|D(?P<d>\d+)|S(?P<s>\d)|A(?P<a>\d)|Q(?P<q>8|16)"
    r"|EA\((?P<p>\d+),(?P<k>\d+)\)|(?P<sl>SL2F3))$")


def _elementary_abelian(p: int, k: int) -> FiniteGroup:
    G = _cyclic(p)
    for _ in range(k - 1):
        G = direct_product(G, _cyclic(p))
    return FiniteGroup(G.mul, f"EA({p},{k})", generators=G.generators)


def _atom(m: re.Match, order_cap: int) -> tuple[int, Callable[[], FiniteGroup]]:
    """Order and constructor of one spec atom, validating the grammar constraints."""
    if m["c"]:
        n = int(m["c"])
        if n < 1:
            raise UnknownSpec("cyclic order must be at least 1")
        return n, lambda: _cyclic(n)
    if m["d"]:
        order = int(m["d"])
        if order < 2 or order % 2:
            raise UnknownSpec(f"D{order}: dihedral spec takes an even order >= 2")
        return order, lambda: _inverting_extension(order // 2, 0, f"D{order}")
    if m["s"] or m["a"]:
        n = int(m["s"] or m["a"])
        if not 1 <= n <= 6:
            raise UnknownSpec("symmetric/alternating degrees run from 1 to 6")
        alternating = bool(m["a"])
        order = max(math.factorial(n) // 2, 1) if alternating else math.factorial(n)
        return order, lambda: _symmetric_or_alternating(n, alternating)
    if m["q"]:
        order = int(m["q"])
        return order, lambda: _inverting_extension(order // 2, order // 4, f"Q{order}")
    if m["p"]:
        p, k = int(m["p"]), int(m["k"])
        if p < 2 or k < 1:
            raise UnknownSpec(f"EA({p},{k}): need a prime p and k >= 1")
        # p**k >= max(p, 2**k): reject before testing p or computing p**k
        if p > order_cap or k > order_cap.bit_length():
            raise OrderCapExceeded(f"EA({p},{k}) has order above the cap {order_cap}")
        if not _is_prime(p):
            raise UnknownSpec(f"EA({p},{k}): need a prime p and k >= 1")
        return p ** k, lambda: _elementary_abelian(p, k)
    return 24, _sl2f3


def builtin(spec: str, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Build a group from the catalog grammar.

    ``C<n>`` cyclic, ``D<m>`` dihedral of order m (m even), ``S<n>``/``A<n>``
    symmetric/alternating (n <= 6), ``Q8``/``Q16`` quaternion, ``EA(<p>,<k>)``
    elementary abelian, ``SL2F3``, and ``x``-separated direct products.
    """
    text = spec.replace(" ", "")
    if not text:
        raise UnknownSpec("empty group spec")
    matches = []
    for part in text.split("x"):
        m = _ATOM_RE.match(part)
        if m is None:
            raise UnknownSpec(f"unrecognized group spec {part!r}")
        matches.append(m)
    atoms = [_atom(m, order_cap) for m in matches]
    total = 1
    for order, _ in atoms:
        total *= order
        if total > order_cap:  # stop before the product can grow huge
            raise OrderCapExceeded(
                f"spec {spec!r} has order at least {total}, above the cap {order_cap}")
    group = atoms[0][1]()
    for _, build in atoms[1:]:
        group = direct_product(group, build())
    if group.label != text:
        group = FiniteGroup(group.mul, text, generators=group.generators)
    return group


def _int_rows(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(row, list) and all(type(x) is int for x in row) for row in value)


# JSON group input: the key each kind needs, and each key's JSON type
_JSON_REQUIRED = {"cayley": "table", "permutation": "degree", "builtin": "spec"}
_JSON_TYPES = {
    "label": (lambda v: isinstance(v, str), "a string"),
    "spec": (lambda v: isinstance(v, str), "a string"),
    "degree": (lambda v: type(v) is int, "an integer"),
    "table": (_int_rows, "a list of integer lists"),
    "generators": (_int_rows, "a list of integer lists"),
}


def group_from_json(data, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Build a group from the JSON input format.

    Expected keys: ``label``, ``kind`` in {"cayley", "permutation", "builtin"}
    and, by kind, ``table``, ``degree``+``generators``, or ``spec``. An input
    of the wrong shape raises UnknownSpec naming the offending key.
    """
    if not isinstance(data, dict):
        raise UnknownSpec("group input must be a JSON object")
    kind = data.get("kind")
    required = _JSON_REQUIRED.get(kind) if isinstance(kind, str) else None
    if required is None:
        raise UnknownSpec(f"unknown group input kind {kind!r}")
    if required not in data:
        raise UnknownSpec(f"group input of kind {kind!r} needs the key {required!r}")
    for key, (valid, expected) in _JSON_TYPES.items():
        if key in data and not valid(data[key]):
            raise UnknownSpec(f"group input key {key!r} must be {expected}")
    label = data.get("label", "G")
    if kind == "cayley":
        return from_cayley_table(data["table"], label, order_cap=order_cap)
    if kind == "permutation":
        return from_permutation_generators(data["degree"], data.get("generators", []),
                                           label, order_cap=order_cap)
    return builtin(data["spec"], order_cap=order_cap)


# ---------------------------------------------------------------------------
# subgroup machinery


def all_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Every subgroup exactly once, sorted by (order, member list).

    First by cyclic extension (Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*, 2005, section 10.5): one worklist from the
    trivial subgroup, in which each subgroup H found is extended by one
    element g of each right coset Hg other than H. g is kept when it
    normalizes H and gH has prime order p, and then <H, g> is the union of
    the cosets g^i H for i < p, with no closure. Every solvable K != 1 has a
    normal subgroup of prime index, itself solvable, so this finds every
    solvable subgroup, and every subgroup exactly when it reaches G. Every
    cyclic subgroup is solvable, so one missing raises InvariantViolation.

    A G it does not reach is not solvable. Then a second worklist closes
    each subgroup H with one element g of each right coset Hg other than H:
    every h*g in Hg gives the same <H, g>, so [G:H] - 1 closures per H.
    """
    return list(_derived(G, "_all_subgroups", None, lambda: _enumerate_subgroups(G)))


def _enumerate_subgroups(G: FiniteGroup) -> tuple[Subgroup, ...]:
    masks = _worklist(G, lambda mask, members, g: _prime_extension(G, mask, members, g))
    for g in G.elements():
        cyclic, power = 1, g
        while power:
            cyclic |= 1 << power
            power = G.mul[power][g]
        if cyclic not in masks:
            raise InvariantViolation(
                f"cyclic extension missed the cyclic subgroup generated by element {g}")
    if (1 << G.order) - 1 not in masks:
        masks = _worklist(G, lambda mask, members, g: G.generated_mask(members + [g]))
    return tuple(sorted((Subgroup(G, m) for m in masks), key=lambda s: s.key))


def _worklist(G: FiniteGroup, extend: Callable[[int, list[int], int], int]) -> set[int]:
    """The masks reached from the trivial subgroup by ``extend(mask, members, g)``,
    called with one g of each right coset Hg of each H reached other than H;
    a result of 0 is no subgroup."""
    masks = {1}
    work = [1]
    for mask in work:
        members = _mask_bits(mask)
        seen = mask
        for g in G.elements():
            if seen >> g & 1:
                continue
            for h in members:
                seen |= 1 << G.mul[h][g]
            grown = extend(mask, members, g)
            if grown and grown not in masks:
                masks.add(grown)
                work.append(grown)
    return masks


def _prime_extension(G: FiniteGroup, mask: int, members: list[int], g: int) -> int:
    """The mask of <H, g> if g normalizes H = ``mask`` and gH has prime order p, else 0.

    The check costs |H| lookups plus the order of gH, and <H, g> is then the
    union of the cosets g^i H for i < p: p * |H| lookups.
    """
    mul = G.mul
    row, g_inv = mul[g], G.inv[g]
    for h in members:
        if not mask >> mul[row[h]][g_inv] & 1:
            return 0
    p, power = 1, g
    while not mask >> power & 1:
        p, power = p + 1, mul[power][g]
    if not _is_prime(p):
        return 0
    grown, power = mask, g
    for _ in range(p - 1):
        row = mul[power]
        for h in members:
            grown |= 1 << row[h]
        power = mul[power][g]
    return grown


def index(H: Subgroup, K: Subgroup) -> int:
    """[K : H] for H <= K in the same parent group."""
    if not H.is_subgroup_of(K):
        raise NotASubgroupInclusion("index requires H <= K in one parent group")
    return K.order // H.order


def normalizer(H: Subgroup) -> Subgroup:
    G = H.parent
    mask = 0
    for g in G.elements():
        if G.conjugate_mask(H.members, g) == H.members:
            mask |= 1 << g
    return Subgroup(G, mask)


def core_in(H: Subgroup, K: Subgroup) -> Subgroup:
    """Largest subgroup of H normal in K: the intersection of K-conjugates of H."""
    if not H.is_subgroup_of(K):
        raise NotASubgroupInclusion("core_in requires H <= K")
    G = H.parent
    mask = H.members
    for k in K.elements:
        mask &= G.conjugate_mask(H.members, k)
        if mask == 1:
            break
    return Subgroup(G, mask)


def is_normal(N: Subgroup) -> bool:
    """Whether G's generators normalize N: N_G(N) is a subgroup, so that is all of G."""
    G = N.parent
    return all(G.conjugate_mask(N.members, g) == N.members for g in G.generators)


def left_cosets(H: Subgroup) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The left cosets gH as (coset_of, reps).

    ``reps`` holds the least member of each coset in increasing order, and
    ``coset_of[g]`` is the index in ``reps`` of g's coset.
    """
    G = H.parent
    coset_of = [-1] * G.order
    reps: list[int] = []
    for g in G.elements():
        if coset_of[g] < 0:
            for h in H.elements:
                coset_of[G.mul[g][h]] = len(reps)
            reps.append(g)
    return tuple(coset_of), tuple(reps)


def quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """The quotient group on least coset representatives plus the projection.

    Kept per normal subgroup, like embedded subgroups: repeated calls return
    the identical pair. The inputs are checked on every call.
    """
    if N.parent is not G:
        raise NotASubgroupInclusion("subgroup does not live in the given group")
    if not is_normal(N):
        raise NotNormal("quotient by a non-normal subgroup")
    return _derived(G, "_quotients", N.members, lambda: _quotient(G, N))


def _quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    coset_of, reps = left_cosets(N)
    table = [[coset_of[G.mul[a][b]] for b in reps] for a in reps]
    Q = FiniteGroup(table, f"{G.label}/{N.order}")
    return Q, GroupHom(G, Q, coset_of)


def enumerate_homomorphisms(G: FiniteGroup, K: FiniteGroup,
                            surjective_only: bool = False,
                            product_cap: int = DEFAULT_PRODUCT_CAP) -> list[GroupHom]:
    """All homomorphisms G -> K up to conjugacy in K.

    Each class is returned as its member with the least image tuple, and the
    list is sorted by image tuple.

    A homomorphism is fixed by its generator images, so each tuple of
    candidate images (elements of K whose order divides the generator's)
    is tried once. G's Cayley graph over its generators is listed once:
    tree edges set phi(a s) = phi(a) phi(s), the other edges check it, and
    a tuple without a clash is a homomorphism. With ``surjective_only`` a
    tuple is dropped before that unless its images generate K (``_walk``).
    The least image of a class is taken over K's inner automorphisms,
    tabulated once per call with duplicates dropped, so an abelian K costs
    one image per homomorphism.
    ProductCapExceeded when |G|*|K| or the tuple count exceeds the cap.
    """
    if G.order * K.order > product_cap:
        raise ProductCapExceeded(
            f"|G|*|K| = {G.order * K.order} exceeds the cap {product_cap}")
    gens = tuple(g for g in G.generators if g != 0)
    k_orders = K.element_orders
    candidates = [[y for y in K.elements() if G.element_orders[g] % k_orders[y] == 0]
                  for g in gens]
    tuples = math.prod(len(c) for c in candidates)
    if tuples > product_cap:
        raise ProductCapExceeded(
            f"{tuples} generator-image tuples exceed the cap {product_cap}")
    tree, rest = [], []  # edges (a, generator index, a s) of G's Cayley graph
    queue, reached = [0], {0}
    for a in queue:
        for i, s in enumerate(gens):
            b = G.mul[a][s]
            if b in reached:
                rest.append((a, i, b))
                continue
            reached.add(b)
            queue.append(b)
            tree.append((a, i, b))
    # K's inner automorphisms, each once, as permutations of K's elements
    inner = {tuple(K.conjugate(k, x) for x in K.elements()) for k in K.elements()}
    classes: set[tuple[int, ...]] = set()
    for ims in itertools.product(*candidates):
        if surjective_only and len(_walk(K.mul, ims)) != K.order:
            continue
        phi = [0] * G.order
        for a, i, b in tree:
            phi[b] = K.mul[phi[a]][ims[i]]
        if any(phi[b] != K.mul[phi[a]][ims[i]] for a, i, b in rest):
            continue
        classes.add(min(tuple(c[x] for x in phi) for c in inner))
    return [GroupHom(G, K, img) for img in sorted(classes)]
