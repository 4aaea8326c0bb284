"""Index-filtered chain complexes on the subgroup lattice of a finite group.

A k-chain is a strictly increasing sequence of subgroups H_0 < ... < H_k; it
sits at filtration level n when its total index [H_k : H_0] is at most n.
Conjugation permutes chains without reordering them, so the orbit set is an
honest basis for the coinvariant complex, with no sign twists. G acts through
its image Gamma, kept once per member and with no counts. The chain kernel
reads only an ``OrbitPoset``, so the order complexes of ``partition`` run on
it too. The action is read through one table, ``OrbitPoset.moves``, and
``canonical`` and ``orbit_classes`` take the same step on it.
``orbit_classes`` walks one least chain per orbit, narrowing the stabilizer
of each prefix, and never lists the other orbit members; it lists each
degree in filtration order, by (total index, representative), so every
level is a prefix of every degree. ``orbit_complex`` assembles the
coinvariant boundaries of those representatives. ``check_boundaries``
checks that a complex is one, d o d = 0, that its bases are in filtration
order and that every level of it is a subcomplex, and records success on
it, once per complex object. Both cuts check their complex first, so no
caller has to check before it cuts. ``level_cut`` keeps the classes of
total index at most n, a prefix of each degree, with C's own columns and
no copy; it equals the complex built at n. ``top_slice`` alone cuts the
reduced complex out of a coinvariant one, once per complex object, after
checking in O(nnz) that the chains off the top span a subcomplex.
``oldest_cofaces`` tabulates each cell's oldest coface, the pivot of the
coboundary pairing in ``homology``, once per complex object; a level cut
holds its complex's table and a top slice has its own. A
complex is its poset, bases and columns and carries no other label: its
caller knows which group and level it was built for, and whether it was
cut.
``poset_chains`` lists every chain, for the dense oracle and chain caps.
``count_classes`` counts the orbits by (total index, degree) with no chain
listed: Burnside over Gamma, one ascending pass per (conjugacy class of
Gamma, start id) over the fixed subposet F_gamma, weighted by the class
size. ``chain_counts`` keeps its result on the group and is the one
source of a level's realized indices
(``filtration_levels``), class counts and Euler characteristics: the
reports of p-groups are read off it, and the complexes the walk builds are
checked against it. ``effective_level`` alone checks a group's filtration
level and clamps it to |G|.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Iterator
from functools import cached_property
from operator import attrgetter

from .errors import InvariantViolation, NotAComplex
from .groups import FiniteGroup, Subgroup, _derived, _mask_bits, all_subgroups
from .intmatrix import SparseIntMatrix


class ChainClass(namedtuple("ChainClass", "representative total_index orbit_size")):
    """Conjugacy class of chains of ids; the representative is the least orbit member.

    ``representative`` is a tuple of ids, ``total_index`` its weight ratio and
    ``orbit_size`` the number of chains in the class.
    """

    __slots__ = ()


class OrbitPoset:
    """Finite poset with a greatest element and an order-preserving action.

    Elements are ids 0..len-1. ``supersets[i]`` lists the ids strictly
    above i, ``orders[i]`` its weight (a chain's total index is the weight
    ratio of its ends), ``conj_perms`` the distinct non-identity
    permutations of the ids that the action induces, and ``top_id`` the
    greatest element. Chain enumeration, orbit canonicalization and
    boundary assembly read only these four fields, and the action only
    through ``moves``, the one table derived from ``conj_perms``.

    ``conj_perms`` together with the identity must form a group Gamma:
    orbit sizes are read off as |Gamma| / |stabilizer|. For a
    ``SubgroupLattice`` Gamma is the image of G. The order-complex cones of
    ``partition`` check that their action is an order-preserving group of
    permutations; ``subgroup_conjugation_action`` supplies one by
    restricting a lattice's ``conj_perms`` to an interval.
    """

    def __init__(self, supersets: tuple[tuple[int, ...], ...], orders: tuple[int, ...],
                 conj_perms: tuple[tuple[int, ...], ...], top_id: int):
        self.supersets = supersets
        self.orders = orders
        self.conj_perms = conj_perms
        self.top_id = top_id

    @cached_property
    def moves(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Gamma as one table: for each id i, the pairs (j, members) by increasing j.

        There is one pair per image j of i under Gamma, and ``members`` is the
        bitset of the members of Gamma sending i to j. Bit 0 stands for the
        identity and bit b for ``conj_perms[b - 1]``, so a set of members is
        an int, narrowed by AND. The member sets of i partition Gamma, and i
        is fixed by all of Gamma exactly when it has a single move.
        """
        by_image: list[dict[int, int]] = [{i: 1} for i in range(len(self.orders))]
        for b, perm in enumerate(self.conj_perms, 1):
            for i, j in enumerate(perm):
                by_image[i][j] = by_image[i].get(j, 0) | 1 << b
        return tuple(tuple(sorted(m.items())) for m in by_image)

    def canonical(self, ids: tuple[int, ...]) -> tuple[int, ...]:
        """Least member of the orbit of a tuple of ids (repeats allowed).

        Entry by entry, the least image of the next id under the members of
        Gamma still eligible is the first of its moves they meet, and the
        eligible members narrow to that move's by AND. When Gamma is the
        identity (no ``conj_perms``, the test ``orbit_complex`` makes) every
        tuple is its own orbit, so ``tuple(ids)`` is returned as is: ``moves``
        is not read, and ids are not checked against the poset.
        """
        if not self.conj_perms:
            return tuple(ids)
        least = []
        eligible = -1  # every bit set: all of Gamma
        for i in ids:
            for j, members in self.moves[i]:
                if members & eligible:
                    least.append(j)
                    eligible &= members
                    break
        return tuple(least)


class SubgroupLattice(OrbitPoset):
    """Subgroup inventory of a group with inclusion and conjugation data.

    Subgroups are listed in canonical order (by order, then member list) and
    referenced by their position in that list. No step of the build runs
    over every element of G times every subgroup. The ids above H are the
    AND, over H's members x, of ``contains[x]``, the bitset of the ids
    holding x. Gamma, the image of G, is the closure under composition of
    the permutations that conjugation by G's generators induces on the
    list, ``generator_perms``; ``conj_perms`` holds its non-identity members.
    A generator that commutes with every generator is central and induces
    the identity, so it is left out of ``generator_perms`` (one |gens|^2
    check): for abelian G, Gamma is the identity alone, with no subgroup
    conjugated.
    ``_conjugation_perm(g)`` is the permutation that conjugation by one
    element g induces; restriction reads it for its double-coset
    representatives alone.
    """

    def __init__(self, group: FiniteGroup):
        subs = all_subgroups(group)
        self.group = group
        self.subgroups: tuple[Subgroup, ...] = tuple(subs)
        self.id_by_mask = {s.members: i for i, s in enumerate(subs)}
        n = len(subs)
        contains = [0] * group.order
        for i, s in enumerate(subs):
            for x in s.elements:
                contains[x] |= 1 << i
        supersets = []
        for i, s in enumerate(subs):
            above = contains[0]
            for x in s.elements:
                above &= contains[x]
            supersets.append(tuple(_mask_bits(above ^ 1 << i)))
        identity = tuple(range(n))
        gens, mul = group.generators, group.mul
        self.generator_perms = tuple(self._conjugation_perm(g) for g in gens
                                     if any(mul[g][h] != mul[h][g] for h in gens))
        gamma = {identity}
        queue = [identity]
        for perm in queue:
            for step in self.generator_perms:
                image = tuple(perm[i] for i in step)
                if image not in gamma:
                    gamma.add(image)
                    queue.append(image)
        super().__init__(tuple(supersets), tuple(s.order for s in subs),
                         tuple(sorted(gamma - {identity})),
                         self.id_by_mask[(1 << group.order) - 1])

    def _conjugation_perm(self, g: int) -> tuple[int, ...]:
        return tuple(self.id_by_mask[self.group.conjugate_mask(s.members, g)]
                     for s in self.subgroups)

    def id_of_mask(self, mask: int) -> int:
        return self.id_by_mask[mask]

    def masks(self, ids: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.subgroups[i].members for i in ids)


def subgroup_lattice(G: FiniteGroup) -> SubgroupLattice:
    return _derived(G, "_subgroup_lattice", None, lambda: SubgroupLattice(G))


def conjugacy_classes_of_subgroups(
        G: FiniteGroup) -> list[tuple[Subgroup, list[Subgroup]]]:
    """Conjugation orbits on the subgroup list, read off the lattice's action.

    Each entry is (least member, orbit); ids follow key order, so orbits are
    sorted by key and classes by their representative's key.
    """
    lat = subgroup_lattice(G)
    orbits: dict[int, list[Subgroup]] = {}
    for i, sub in enumerate(lat.subgroups):
        orbits.setdefault(lat.moves[i][0][0], []).append(sub)
    return [(orbit[0], orbit) for orbit in orbits.values()]


def poset_chains(P: OrbitPoset, n: int) -> Iterator[tuple[int, ...]]:
    """Strict chains of P, as id tuples, whose weight ratio is at most n, depth first.

    Starts from every id in order and climbs through ``supersets``.
    """
    orders, supersets = P.orders, P.supersets
    for start, bottom in enumerate(orders):
        limit = bottom * n
        path = [start]
        pending = [iter(supersets[start])]
        yield (start,)
        while pending:
            for j in pending[-1]:
                if orders[j] <= limit:
                    path.append(j)
                    yield tuple(path)
                    pending.append(iter(supersets[j]))
                    break
            else:
                pending.pop()
                path.pop()


def orbit_classes(P: OrbitPoset, n: int) -> list[list[ChainClass]]:
    """Orbits of P's strict chains of weight ratio at most n, grouped by degree.

    Only the least member of each orbit is visited, by a depth-first walk
    that extends least chains alone. Order chains lexicographically and let
    Stab(p) be the stabilizer of a chain p in Gamma. Then:

    - A prefix of a least chain is least: an image g.p < p of a prefix p
      makes g.c < c for any chain c extending p.
    - p + (j,) is least exactly when p is least and
      j == min(g[j] for g in Stab(p)). If p is least and g.(p + (j,)) is
      smaller, then g.p <= p forces g.p == p, so g lies in Stab(p) and
      g[j] < j; conversely such a g gives a smaller image.

    Both tests are the step ``canonical`` takes: the first move of j that
    meets Stab(p) sends j to min(g[j] for g in Stab(p)), and its members
    within Stab(p) are Stab(p + (j,)). So the walk starts from the ids whose
    first move fixes them, and extends by j when the step fixes j; once the
    stabilizer is the identity alone, every extension is least.
    Gamma preserves the order and the weights, so an orbit passes the
    weight limit exactly when its least member does, and the orbit size is
    |Gamma| / |Stab(chain)|. Within each degree the classes are sorted by
    (total index, representative): filtration order, so the classes of
    every level n are a prefix of each degree.
    """
    orders, supersets, moves = P.orders, P.supersets, P.moves
    order = len(P.conj_perms) + 1
    by_length: list[list[ChainClass]] = [[] for _ in range(len(orders) + 1)]

    def walk(chain: tuple[int, ...], stab: int, limit: int) -> None:
        size = stab.bit_count()
        if order % size:
            raise InvariantViolation(
                f"stabilizer of order {size} does not divide the action's order {order}")
        last = chain[-1]
        by_length[len(chain)].append(ChainClass(
            chain, orders[last] // orders[chain[0]], order // size))
        for j in supersets[last]:
            if orders[j] <= limit:
                for image, members in moves[j]:
                    if members & stab:
                        break
                if image == j:
                    walk(chain + (j,), stab & members, limit)

    for start, bottom in enumerate(orders):
        image, stab = moves[start][0]
        if image == start:
            walk((start,), stab, bottom * n)
    classes = by_length[1:]
    while len(classes) > 1 and not classes[-1]:
        classes.pop()
    for level in classes:
        level.sort(key=attrgetter("total_index", "representative"))
    return classes


class ChainCounts(namedtuple("ChainCounts", "every top")):
    """Orbit counts of strict chains by total index and degree, from ``count_classes``.

    ``every[index][k]`` is the number of orbits of k-chains whose total
    index (weight ratio) is exactly ``index``; ``top[index][k]`` counts
    those ending at the top. Every vector has one entry per degree the
    poset can hold.
    """

    __slots__ = ()

    def at(self, n: int, top: bool = False) -> tuple[int, ...]:
        """Per-degree orbit counts at level n: the chains of total index at most n."""
        table = self.top if top else self.every
        return tuple(map(sum, zip(*(v for index, v in table.items() if index <= n))))

    def euler(self, n: int, top: bool = False) -> int:
        """Alternating sum of ``at(n, top)``: the Euler characteristic of that complex."""
        return sum(c if k % 2 == 0 else -c for k, c in enumerate(self.at(n, top)))


def count_classes(P: SubgroupLattice) -> ChainCounts:
    """Orbit counts of P's strict chains by (total index, degree), with no chain listed.

    By Burnside the number of orbits is 1/|Gamma| times the sum, over gamma
    in Gamma, of the chains gamma fixes; gamma fixes a chain exactly when it
    fixes each member, so these are the chains of the fixed subposet
    F_gamma. Conjugate members fix isomorphic subposets, so
    ``_count_fixed_chains`` counts them once per conjugacy class of Gamma,
    for every (index, degree) at once, and the count is weighted by the
    class size. Each sum must be divisible by |Gamma|. P's ids ascend along
    every chain.

    A per-degree vector is packed into one int, degree k in the bits from
    k * width on: adding vectors adds the ints, and a shift by ``width``
    raises every degree by one. A k-chain has total index at least 2^k, so
    there are ``degrees`` degrees, and a field holds at most
    |Gamma| * len(P)^degrees < 2^width chains: no field carries into the next.
    """
    orders = P.orders
    gamma = len(P.conj_perms) + 1
    degrees = (max(orders) // min(orders)).bit_length()
    width = degrees * len(orders).bit_length() + gamma.bit_length()
    every: dict[int, int] = {}
    top: dict[int, int] = {}
    for perm, size in _gamma_classes(P):
        fixed_every: dict[int, int] = {}
        fixed_top: dict[int, int] = {}
        _count_fixed_chains(P, [i == j for i, j in enumerate(perm)], width,
                            fixed_every, fixed_top)
        for fixed, total in ((fixed_every, every), (fixed_top, top)):
            for index, chains in fixed.items():
                total[index] = total.get(index, 0) + size * chains

    def unpacked(packed: dict[int, int]) -> dict[int, tuple[int, ...]]:
        out = {}
        for index in sorted(packed):
            sums = [packed[index] >> k * width & (1 << width) - 1 for k in range(degrees)]
            if any(c % gamma for c in sums):
                raise InvariantViolation(
                    f"Burnside sums {sums} at total index {index} are not all "
                    f"divisible by |Gamma| = {gamma}")
            out[index] = tuple(c // gamma for c in sums)
        return out

    return ChainCounts(unpacked(every), unpacked(top))


def _gamma_classes(P: SubgroupLattice) -> list[tuple[tuple[int, ...], int]]:
    """(member, class size) for each conjugacy class of Gamma, the identity first.

    A class is an orbit of conjugation by the members of ``generator_perms``,
    which generate Gamma: |Gamma| * len(generator_perms) conjugations.
    """
    steps = []
    for perm in P.generator_perms:
        inverse = [0] * len(perm)
        for i, j in enumerate(perm):
            inverse[j] = i
        steps.append((perm, inverse))
    classes = []
    classified = set()
    for perm in (tuple(range(len(P.orders))),) + P.conj_perms:
        if perm in classified:
            continue
        classified.add(perm)
        orbit = [perm]
        for member in orbit:
            for step, inverse in steps:
                conjugate = tuple(step[member[i]] for i in inverse)
                if conjugate not in classified:
                    classified.add(conjugate)
                    orbit.append(conjugate)
        classes.append((perm, len(orbit)))
    return classes


def _count_fixed_chains(P: OrbitPoset, fixed: list[bool], width: int,
                        every: dict[int, int], top: dict[int, int]) -> None:
    """Add the chains of P's subposet of ``fixed`` ids into ``every`` and ``top``.

    Both map a total index to a packed per-degree vector (see
    ``count_classes``); ``top`` takes the chains ending at ``top_id``. One
    ascending pass per start s: ``ending[u]`` counts the chains from s to u
    by degree, and is complete when u is reached, since every chain reaches
    u through smaller ids.
    """
    orders, top_id = P.orders, P.top_id
    ups = P.supersets if all(fixed) else [
        tuple(t for t in above if fixed[t]) for above in P.supersets]
    ending = [0] * len(orders)
    for s, bottom in enumerate(orders):
        if not fixed[s]:
            continue
        ending[s] = 1
        for u in (s,) + ups[s]:
            chains = ending[u]
            ending[u] = 0
            index = orders[u] // bottom
            every[index] = every.get(index, 0) + chains
            if u == top_id:
                top[index] = top.get(index, 0) + chains
            chains <<= width
            for t in ups[u]:
                ending[t] += chains


class OrbitComplex:
    """Per-degree chain-class bases of an OrbitPoset with integer boundaries.

    Coinvariant (from ``orbit_complex`` or ``level_cut``) or reduced (from
    ``top_slice``); they differ only in their bases and columns. Each
    degree's basis is in filtration order (total index never decreasing),
    so every level is a prefix of it. ``columns[k]`` lists the columns of
    the boundary d_k from degree k to degree k-1, each as a row -> value
    dict without zeros; ``columns[0]`` holds empty columns into zero rows,
    so rank conventions need no special casing. ``checked`` records that
    ``check_boundaries`` passed on this object: d o d = 0, the filtration
    order and that every level is a subcomplex; every cut is made from a
    checked complex and is checked itself. ``sliced`` keeps
    this object's ``top_slice`` once cut, and ``oldest`` its table of
    oldest cofaces (``oldest_cofaces``) once built; a level cut holds its
    parent's. A new complex starts with none of the three, even when it is
    made from another's lattice, bases and columns. Two complexes are equal
    only when they are the same object.
    """

    def __init__(self, lattice: OrbitPoset, bases: tuple[tuple[ChainClass, ...], ...],
                 columns: tuple[tuple[dict[int, int], ...], ...]):
        self.lattice = lattice
        self.bases = bases
        self.columns = columns
        self.checked = False
        self.sliced: OrbitComplex | None = None
        self.oldest: tuple[array, ...] | None = None

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.bases)

    @cached_property
    def boundaries(self) -> tuple[SparseIntMatrix, ...]:
        """The boundaries as sorted sparse triples; ``boundaries[k]`` is d_k."""
        rows = (0,) + self.dims
        return tuple(SparseIntMatrix(rows[k], len(cols), tuple(sorted(
            (r, c, v) for c, col in enumerate(cols) for r, v in col.items())))
            for k, cols in enumerate(self.columns))


def orbit_complex(P: OrbitPoset, classes: list[list[ChainClass]]) -> OrbitComplex:
    """Assemble the coinvariant boundaries of the given chain classes of P.

    The boundary of a class is the alternating sum of its representative's
    faces, each re-canonicalized; faces in one orbit accumulate, so
    coefficients can exceed +-1. The last face, a prefix of the least
    representative, is least already and needs no canonicalization. When
    Gamma is the identity every face is its own least member and the k + 1
    faces of a chain are distinct, so each row is looked up as is, with no
    memo, and every coefficient is +-1.
    """
    index_of: list[dict[tuple[int, ...], int]] = [
        {cls.representative: i for i, cls in enumerate(level)}
        for level in classes]
    orders = P.orders
    identity = not P.conj_perms
    columns: list[tuple[dict[int, int], ...]] = [tuple({} for _ in classes[0])]
    for k in range(1, len(classes)):
        rows = index_of[k - 1]
        row_of: dict[tuple[int, ...], int] = {}  # classes share faces
        level = []
        for cls in classes[k]:
            ids = cls.representative
            col: dict[int, int] = {}
            for i in range(k + 1):
                face = ids[:i] + ids[i + 1:]
                if orders[face[-1]] // orders[face[0]] > cls.total_index:
                    raise InvariantViolation("face left the filtration")
                if identity:
                    col[rows[face]] = 1 if i % 2 == 0 else -1
                    continue
                if i == k:  # the prefix of a least chain is least
                    row = rows[face]
                else:
                    row = row_of.get(face)
                    if row is None:
                        row = row_of[face] = rows[P.canonical(face)]
                col[row] = col.get(row, 0) + (1 if i % 2 == 0 else -1)
            level.append(col if identity else {r: v for r, v in col.items() if v})
        columns.append(tuple(level))
    return OrbitComplex(P, tuple(tuple(level) for level in classes), tuple(columns))


def check_boundaries(C: OrbitComplex) -> None:
    """Verify filtration order, the level premise and d o d = 0, reporting the earliest bad column.

    Both premises make every filtration level a prefix subcomplex, which
    ``level_cut`` and ``homology.persistence_intervals`` rely on: the total
    index never decreases along a degree's basis, and no face has a larger
    total index than its chain. They are checked in the same pass over the
    basis and the boundary entries, column by column, before d o d. Success
    is recorded on C (``checked``), so a later call on the same object
    returns at once. Every cut checks its complex first. A complex made
    anew from another's bases and columns carries no record and is checked
    in full.
    """
    if C.checked:
        return
    for k, (basis, cols) in enumerate(zip(C.bases, C.columns)):
        below = [cls.total_index for cls in C.bases[k - 1]] if k else []
        lower = C.columns[k - 1] if k else ()
        previous = 0
        for j, (cls, col) in enumerate(zip(basis, cols)):
            if cls.total_index < previous:
                raise NotAComplex(
                    f"degree {k} lists a chain of total index {cls.total_index} after one "
                    f"of {previous}, out of filtration order", column=j)
            previous = cls.total_index
            # degree k - 1 is in filtration order already, so its largest
            # row holds the largest total index of the column
            if col and below[max(col)] > cls.total_index:
                raise NotAComplex(
                    f"d_{k} takes a chain of total index {cls.total_index} to one above it",
                    column=j)
            image: dict[int, int] = {}
            for r, v in col.items():
                for i, w in lower[r].items():
                    image[i] = image.get(i, 0) + v * w
            if any(image.values()):
                raise NotAComplex(f"d_{k - 1} after d_{k} is nonzero", column=j)
    C.checked = True


def top_slice(C: OrbitComplex) -> OrbitComplex:
    """The reduced complex: a coinvariant complex modulo its chains not ending at the top.

    Those chains span a subcomplex, as their faces miss the top too: C is
    checked first (``check_boundaries``), then that premise in O(nnz), and
    NotAComplex names the first column that breaks it. The basis is the
    coinvariant classes ending at ``top_id``, in the same order (a
    top-ending chain's orbit holds only top-ending chains), so still in
    filtration order; the boundaries are the coinvariant ones restricted to
    those rows and columns, with the rows renumbered: the one face that
    deletes the top lands in the subcomplex, and d o d = 0 on C gives it on
    the quotient. Trailing degrees without such classes are dropped, and C
    itself is the slice when every class ends at the top. This is the only
    route to a reduced complex. The slice is cut once per complex object,
    recorded as checked and kept on C (``sliced``), so the read-off and
    every gap probe share it; a level of the slice is the slice of that
    level.
    """
    if C.sliced is not None:
        return C.sliced
    check_boundaries(C)
    top = C.lattice.top_id
    keep = [[i for i, cls in enumerate(basis) if cls.representative[-1] == top]
            for basis in C.bases]
    for k in range(1, len(C.columns)):
        ends = set(keep[k - 1])
        for j, (cls, col) in enumerate(zip(C.bases[k], C.columns[k])):
            if cls.representative[-1] != top and not ends.isdisjoint(col):
                raise NotAComplex(
                    f"d_{k} takes a chain not ending at the top to one that does", column=j)
    while len(keep) > 1 and not keep[-1]:
        keep.pop()
    if list(map(len, keep)) == list(C.dims):
        C.sliced = C
        return C
    bases = tuple(tuple(C.bases[k][i] for i in kept) for k, kept in enumerate(keep))
    columns = [tuple({} for _ in keep[0])]
    for k in range(1, len(keep)):
        new_row = {i: r for r, i in enumerate(keep[k - 1])}
        columns.append(tuple({new_row[i]: v for i, v in C.columns[k][j].items() if i in new_row}
                             for j in keep[k]))
    C.sliced = OrbitComplex(C.lattice, bases, tuple(columns))
    C.sliced.checked = True
    return C.sliced


def oldest_cofaces(C: OrbitComplex) -> tuple[array, ...]:
    """Per degree k below the top, the oldest coface of each k-cell of C.

    ``oldest_cofaces(C)[k][i]`` is the least j with row i in column j of
    d_{k+1}, or ``C.dims[k + 1]`` when the cell has no coface; one pass over
    each d_{k+1}, newest column first. The table is built once per complex
    object and kept on it (``oldest``). Every level of C is a prefix of
    each degree, so ``level_cut`` hands its cut C's own table: within a cut
    that keeps m columns of d_{k+1}, a cell's oldest coface is C's when
    that lies below m, and the cell has none in the cut otherwise.
    """
    if C.oldest is None:
        dims = C.dims
        table = []
        for k in range(len(dims) - 1):
            columns = C.columns[k + 1]
            oldest = array("i", [dims[k + 1]]) * dims[k]
            for j in range(len(columns) - 1, -1, -1):
                for r in columns[j]:
                    oldest[r] = j
            table.append(oldest)
        C.oldest = tuple(table)
    return C.oldest


def level_cut(C: OrbitComplex, n: int) -> OrbitComplex:
    """The coinvariant complex at level n, cut out of C built at a level at least n.

    C is checked first (``check_boundaries``). Its bases are in filtration
    order, so the classes of total index at most n are a prefix of each
    degree, found by bisection; they span a subcomplex, as no face has a
    larger index than its chain, so a kept column hits only kept rows, under
    the same numbers. The cut keeps C's own column dicts, with no copy, and
    drops trailing empty degrees; it equals the complex built at n, bases
    and columns, and is C itself when n reaches every class. The cut also
    holds C's table of oldest cofaces by reference (``oldest_cofaces``),
    built on C at its first cut. It works on a ``top_slice`` as well, whose
    levels are the slices of C's; the slice has a table of its own.
    """
    check_boundaries(C)
    kept = [bisect_right(basis, n, key=attrgetter("total_index")) for basis in C.bases]
    while len(kept) > 1 and not kept[-1]:
        kept.pop()
    if kept == list(C.dims):
        return C
    cut = OrbitComplex(C.lattice,
                       tuple(basis[:m] for basis, m in zip(C.bases, kept)),
                       tuple(cols[:m] for cols, m in zip(C.columns, kept)))
    cut.checked = True
    cut.oldest = oldest_cofaces(C)
    return cut


def effective_level(G: FiniteGroup, n: int) -> int:
    """min(n, |G|), as no chain has a larger index; the one check that rejects n < 1."""
    if n < 1:
        raise ValueError(f"filtration level must be at least 1, got {n}")
    return min(n, G.order)


def chains_up_to(G: FiniteGroup, n: int) -> list[tuple[int, ...]]:
    """All strict subgroup chains of total index <= min(n, |G|), as id tuples, depth first."""
    n_eff = effective_level(G, n)  # before the lattice: a bad level fails fast
    return list(poset_chains(subgroup_lattice(G), n_eff))


def chain_classes(G: FiniteGroup, n: int) -> list[list[ChainClass]]:
    """Conjugacy classes of filtered chains by degree, each in filtration order:
    by (total index, representative)."""
    n_eff = effective_level(G, n)  # before the lattice: a bad level fails fast
    return orbit_classes(subgroup_lattice(G), n_eff)


def chain_counts(G: FiniteGroup) -> ChainCounts:
    """``count_classes`` of G's subgroup lattice, for every level at once; kept on G."""
    return _derived(G, "_chain_counts", None, lambda: count_classes(subgroup_lattice(G)))


def build_complex(G: FiniteGroup, n: int) -> OrbitComplex:
    """The coinvariant complex of G's subgroup lattice at level n; ``top_slice`` reduces it."""
    classes = chain_classes(G, n)  # checks n before the lattice is built
    return orbit_complex(subgroup_lattice(G), classes)


def filtration_levels(G: FiniteGroup) -> list[int]:
    """Sorted [K : H] over pairs H <= K: the indices of ``chain_counts``,
    whose identity pass visits every pair."""
    return sorted(chain_counts(G).every)

