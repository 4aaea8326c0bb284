"""Fixed-point partition posets of finite G-sets and subgroup interval posets.

For a transitive G-set G/H the invariant proper nontrivial partitions are
exactly the coset partitions of the subgroups strictly between H and G, so
the fixed-point poset recovers the open subgroup interval (H, G);
``check_transitive_iso`` checks the explicit map K -> the cosets of K.
Interval posets and their conjugation actions are slices of the subgroup
lattice of ``lattice``, and coset G-sets read ``groups.left_cosets``. The
homology of an order complex is the top slice of that module's orbit
complex of the poset with a top adjoined (the cone). Listing stops with
SizeCapExceeded past PARTITION_CAP invariant partitions.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, islice

from .errors import NotASubgroupInclusion, SizeCapExceeded
from .groups import FiniteGroup, Subgroup, _mask_bits, left_cosets
from .homology import betti_numbers
from .lattice import (OrbitPoset, orbit_classes, orbit_complex, poset_chains, subgroup_lattice,
                      top_slice)

DEFAULT_SIZE_CAP = 12
DEFAULT_CHAIN_CAP = 20000
# Bell(9) = 21147 < PARTITION_CAP < Bell(10) = 115975
PARTITION_CAP = 25000

Partition = tuple[tuple[int, ...], ...]


class GSet:
    """Finite set with a group action, given per element as a point permutation.

    Two G-sets are equal, and hash alike, when they have the same group
    object, size and action.
    """

    def __init__(self, group: FiniteGroup, size: int, action: tuple[tuple[int, ...], ...]):
        self.group = G = group
        self.size = size
        self.action = action
        if size < 1:
            raise ValueError("a G-set needs at least one point")
        if len(action) != G.order:
            raise ValueError("action table length disagrees with the group order")
        ident = tuple(range(size))
        if action[0] != ident:
            raise ValueError("identity must act trivially")
        for g in G.elements():
            if sorted(action[g]) != list(ident):
                raise ValueError(f"element {g} does not act by a permutation")
            for s in G.generators:  # complete, by induction on words, as in GroupHom
                gs = G.mul[g][s]
                if any(action[gs][x] != action[g][action[s][x]] for x in range(size)):
                    raise ValueError("action is not a homomorphism")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.group, self.size, self.action) == (other.group, other.size, other.action)

    def __hash__(self):
        return hash((self.group, self.size, self.action))

    @staticmethod
    def regular(G: FiniteGroup) -> GSet:
        action = tuple(tuple(G.mul[g][x] for x in G.elements()) for g in G.elements())
        return GSet(G, G.order, action)

    @staticmethod
    def trivial(G: FiniteGroup, size: int) -> GSet:
        ident = tuple(range(size))
        return GSet(G, size, tuple(ident for _ in G.elements()))

    @staticmethod
    def from_cosets(G: FiniteGroup, H: Subgroup) -> GSet:
        """Left translation on the cosets gH, with least-element representatives."""
        if H.parent is not G:
            raise NotASubgroupInclusion("subgroup lives in a different group")
        coset_of, reps = left_cosets(H)
        action = tuple(tuple(coset_of[G.mul[g][r]] for r in reps) for g in G.elements())
        return GSet(G, len(reps), action)

    @staticmethod
    def disjoint_union(parts: list[GSet]) -> GSet:
        if not parts:
            raise ValueError("disjoint union of no parts")
        G = parts[0].group
        if any(p.group is not G for p in parts):
            raise ValueError("all parts must share one group")
        size = sum(p.size for p in parts)
        action = []
        for g in G.elements():
            perm = []
            offset = 0
            for p in parts:
                perm.extend(offset + x for x in p.action[g])
                offset += p.size
            action.append(tuple(perm))
        return GSet(G, size, tuple(action))

    @cached_property
    def orbits(self) -> tuple[tuple[int, ...], ...]:
        seen = [False] * self.size
        out = []
        for x in range(self.size):
            if seen[x]:
                continue
            orbit = sorted({self.action[g][x] for g in self.group.elements()})
            for y in orbit:
                seen[y] = True
            out.append(tuple(orbit))
        return tuple(out)

    def stabilizer(self, point: int) -> Subgroup:
        mask = 0
        for g in self.group.elements():
            if self.action[g][point] == point:
                mask |= 1 << g
        return Subgroup(self.group, mask)

    @cached_property
    def is_isotypical(self) -> bool:
        """True when all point stabilizers are conjugate."""
        G = self.group
        reference = None
        for x in range(self.size):
            stab = self.stabilizer(x).members
            canon = min(G.conjugate_mask(stab, g) for g in G.elements())
            if reference is None:
                reference = canon
            elif canon != reference:
                return False
        return True


class Poset:
    """Finite poset on opaque payloads with a precomputed strict order."""

    def __init__(self, elements, lt_masks: tuple[int, ...]):
        self.elements = tuple(elements)
        self.lt_masks = lt_masks

    def __len__(self) -> int:
        return len(self.elements)

    def lt(self, i: int, j: int) -> bool:
        return bool(self.lt_masks[i] >> j & 1)

    def above(self, i: int) -> list[int]:
        return _mask_bits(self.lt_masks[i])


def invariant_partitions(M: GSet) -> list[Partition]:
    """All G-invariant partitions of the point set, including the trivial two.

    Builds the block of the least unassigned point, closes it under the
    action, and recurses; each invariant partition is produced exactly once.
    Raises SizeCapExceeded as soon as there are more than PARTITION_CAP.
    """
    perms = sorted({M.action[g] for g in M.group.elements()} - {tuple(range(M.size))})
    out: list[Partition] = []

    def blocks_of(base: frozenset[int]) -> set[frozenset[int]] | None:
        orbit = {base}
        for perm in perms:
            orbit.add(frozenset(perm[x] for x in base))
        total = set()
        for block in orbit:
            if total & block:
                return None
            total |= block
        return orbit

    def recurse(remaining: tuple[int, ...], prefix: list[frozenset[int]]) -> None:
        if not remaining:
            if len(out) == PARTITION_CAP:
                raise SizeCapExceeded(f"more than {PARTITION_CAP} invariant partitions")
            out.append(tuple(sorted(tuple(sorted(b)) for b in prefix)))
            return
        p = remaining[0]
        rest = remaining[1:]
        pool = set(remaining)
        for sub in range(1 << len(rest)):
            base = frozenset((p,) + tuple(rest[i] for i in range(len(rest))
                                          if sub >> i & 1))
            orbit = blocks_of(base)
            if orbit is None:
                continue
            union = frozenset().union(*orbit)
            if not union <= pool:
                continue
            recurse(tuple(x for x in remaining if x not in union),
                    prefix + list(orbit))

    recurse(tuple(range(M.size)), [])
    return sorted(out)


def fixed_partition_poset(M: GSet, size_cap: int = DEFAULT_SIZE_CAP) -> Poset:
    """Invariant proper nontrivial partitions of M, ordered by refinement.

    p refines q exactly when q puts each two consecutive points of every
    block of p together, so the up-set of p is the AND of the bitsets
    ``together[x, y]`` (the partitions with x and y in one block) over those
    pairs, minus p itself; no pair of partitions is compared.
    """
    if M.size > size_cap:
        raise SizeCapExceeded(f"G-set of size {M.size} above the cap {size_cap}")
    discrete = tuple((x,) for x in range(M.size))
    indiscrete = (tuple(range(M.size)),)
    elems = [p for p in invariant_partitions(M) if p not in (discrete, indiscrete)]
    together: dict[tuple[int, int], int] = {}
    for j, q in enumerate(elems):
        for block in q:
            for pair in combinations(block, 2):
                together[pair] = together.get(pair, 0) | 1 << j
    masks = []
    for i, p in enumerate(elems):
        up = (1 << len(elems)) - 1
        for block in p:
            for pair in zip(block, block[1:]):
                up &= together.get(pair, 0)
        masks.append(up & ~(1 << i))
    return Poset(elems, tuple(masks))


def interval_poset(G: FiniteGroup, H: Subgroup, lower_closed: bool = False) -> Poset:
    """Subgroups between H and G ordered by inclusion; G left out, H only if ``lower_closed``.

    A slice of the subgroup lattice: H's id and the ids above it, in lattice
    order, with the strict order read off ``supersets``.
    """
    if H.parent is not G:
        raise NotASubgroupInclusion("subgroup lives in a different group")
    lat = subgroup_lattice(G)
    h = lat.id_of_mask(H.members)
    ids = [i for i in (h,) + lat.supersets[h]
           if (lower_closed or i != h) and i != lat.top_id]
    pos = {i: k for k, i in enumerate(ids)}
    return Poset((lat.subgroups[i] for i in ids),
                 tuple(sum(1 << pos[j] for j in lat.supersets[i] if j in pos) for i in ids))


def check_transitive_iso(G: FiniteGroup, H: Subgroup,
                         size_cap: int = DEFAULT_SIZE_CAP) -> bool:
    """Check that K -> the cosets of K is an isomorphism (H, G) -> fixed poset of G/H.

    The cosets of K partition G/H into the G-translates of the block
    {kH : k in K}; point 0 of ``GSet.from_cosets`` is H itself. The map must
    be a bijection onto the fixed-point partition poset that preserves and
    reflects the order.
    """
    if H.parent is not G:
        raise NotASubgroupInclusion("subgroup lives in a different group")
    if G.order // H.order > size_cap:
        raise SizeCapExceeded(
            f"index {G.order // H.order} above the cap {size_cap}")
    M = GSet.from_cosets(G, H)
    fixed = fixed_partition_poset(M, size_cap)
    interval = interval_poset(G, H)
    index = {p: i for i, p in enumerate(fixed.elements)}
    image = []
    for K in interval.elements:
        block = {M.action[k][0] for k in K.elements}
        cosets = {tuple(sorted(M.action[g][x] for x in block)) for g in G.elements()}
        image.append(index.get(tuple(sorted(cosets)), -1))
    return sorted(image) == list(range(len(fixed))) and all(
        sum(1 << image[b] for b in interval.above(a)) == fixed.lt_masks[image[a]]
        for a in range(len(image)))


def subgroup_conjugation_action(G: FiniteGroup, P: Poset) -> tuple[tuple[int, ...], ...]:
    """Distinct permutations that conjugation by G induces on a poset of subgroups.

    The lattice's ``conj_perms`` restricted to P's ids; raises ValueError
    when conjugation moves a member of P out of P.
    """
    lat = subgroup_lattice(G)
    ids = [lat.id_of_mask(sub.members) for sub in P.elements]
    pos = {i: k for k, i in enumerate(ids)}
    try:
        perms = {tuple(pos[perm[i]] for i in ids) for perm in lat.conj_perms}
    except KeyError:
        raise ValueError("the poset is not closed under conjugation by G") from None
    perms.discard(tuple(range(len(P))))
    return tuple(sorted(perms))


def _cone(P: Poset, action=None) -> OrbitPoset:
    """P with a top adjoined, every weight 1 and the action fixing the top.

    Raises ValueError unless each member of the action is a permutation of
    P's ids carrying each up-set onto the up-set of the image, and the
    members with the identity are closed under composition, so they form a
    group.
    """
    top = len(P)
    ident = tuple(range(top))
    gamma = {ident}
    for perm in action or ():
        perm = tuple(perm)
        if sorted(perm) != list(ident):
            raise ValueError(f"{perm} is not a permutation of the {top} poset ids")
        if any(sum(1 << perm[j] for j in P.above(i)) != P.lt_masks[perm[i]]
               for i in ident):
            raise ValueError(f"{perm} does not preserve the order")
        gamma.add(perm)
    if any(tuple(p[x] for x in q) not in gamma for p in gamma for q in gamma):
        raise ValueError("the action is not closed under composition")
    return OrbitPoset(tuple(tuple(P.above(i)) + (top,) for i in ident) + ((),),
                      (1,) * (top + 1),
                      tuple(perm + (top,) for perm in sorted(gamma - {ident})), top)


def _reduced_betti_augmented(P: Poset, action=None,
                             chain_cap: int = DEFAULT_CHAIN_CAP) -> tuple[int, list[int]]:
    """Reduced Betti numbers of the order complex, with the degree -1 value.

    The augmented chain complex of the order complex is the top slice of
    the orbit complex of P with a top adjoined, every weight 1 and the
    action fixing the top: a chain c < top sits in degree |c| and the lone
    top plays the empty simplex. Returns (b_{-1}, [b_0, b_1, ...]); the
    empty poset gives (1, []).
    """
    cone = _cone(P, action)
    # P's chains plus the lone top; stop counting once P passes the cap
    top_chains = (c for c in poset_chains(cone, 1) if c[-1] == cone.top_id)
    counted = sum(1 for _ in islice(top_chains, chain_cap + 2))
    if counted > chain_cap + 1:
        raise SizeCapExceeded(f"order complex above the chain cap {chain_cap}")
    betti = betti_numbers(top_slice(orbit_complex(cone, orbit_classes(cone, 1)))).betti
    return betti[0], list(betti[1:])


def reduced_betti_of_order_complex(P: Poset, action=None,
                                   chain_cap: int = DEFAULT_CHAIN_CAP) -> list[int]:
    """Reduced rational Betti numbers of the order complex, degrees 0 and up."""
    return _reduced_betti_augmented(P, action, chain_cap)[1]
