"""Index-filtered chain complexes on the subgroup lattice of a finite group.

A k-chain is a strictly increasing sequence of subgroups H_0 < ... < H_k; it
sits at filtration level n when its total index [H_k : H_0] is at most n.
Conjugation permutes chains without reordering them, so the orbit set is an
honest basis for the coinvariant complex, with no sign twists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation
from .groups import FiniteGroup, Subgroup, all_subgroups
from .intmatrix import SparseIntMatrix

COINVARIANT = "coinvariant"
REDUCED = "reduced"
FLAVORS = (COINVARIANT, REDUCED)


@dataclass(frozen=True)
class Chain:
    """Strictly increasing chain of subgroup ids within one SubgroupLattice."""

    subgroup_ids: tuple[int, ...]
    total_index: int

    @property
    def degree(self) -> int:
        return len(self.subgroup_ids) - 1


@dataclass(frozen=True)
class ChainClass:
    """Conjugacy class of chains; the representative is the least orbit member."""

    representative: Chain
    orbit_size: int

    @property
    def degree(self) -> int:
        return self.representative.degree

    @property
    def total_index(self) -> int:
        return self.representative.total_index


class SubgroupLattice:
    """Subgroup inventory of a group with inclusion and conjugation data.

    Subgroups are listed in canonical order (by order, then member list) and
    referenced by their position in that list. ``conj_perms`` holds the
    distinct non-identity permutations that conjugation induces on the list,
    with ``conj_counts[i]`` elements of G inducing ``conj_perms[i]``.
    """

    def __init__(self, group: FiniteGroup):
        subs = all_subgroups(group)
        self.group = group
        self.subgroups: tuple[Subgroup, ...] = tuple(subs)
        self.id_by_mask = {s.members: i for i, s in enumerate(subs)}
        self.orders = tuple(s.order for s in subs)
        n = len(subs)
        self.supersets: tuple[tuple[int, ...], ...] = tuple(
            tuple(j for j in range(n)
                  if j != i and subs[i].members & subs[j].members == subs[i].members)
            for i in range(n))
        perm_counts: dict[tuple[int, ...], int] = {}
        identity = tuple(range(n))
        for g in group.elements():
            perm = tuple(self.id_by_mask[group.conjugate_mask(s.members, g)]
                         for s in subs)
            perm_counts[perm] = perm_counts.get(perm, 0) + 1
        perm_counts.pop(identity, None)
        items = sorted(perm_counts.items())
        self.conj_perms: tuple[tuple[int, ...], ...] = tuple(p for p, _ in items)
        self.conj_counts: tuple[int, ...] = tuple(c for _, c in items)
        self.top_id = self.id_by_mask[(1 << group.order) - 1]

    def id_of_mask(self, mask: int) -> int:
        return self.id_by_mask[mask]

    def masks(self, ids: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.subgroups[i].members for i in ids)

    def canonical(self, ids: tuple[int, ...]) -> tuple[int, ...]:
        """Least member of the conjugation orbit of a chain of subgroup ids."""
        best = ids
        for perm in self.conj_perms:
            cand = tuple(perm[i] for i in ids)
            if cand < best:
                best = cand
        return best

    def orbit(self, ids: tuple[int, ...]) -> set[tuple[int, ...]]:
        out = {ids}
        for perm in self.conj_perms:
            out.add(tuple(perm[i] for i in ids))
        return out


def subgroup_lattice(G: FiniteGroup) -> SubgroupLattice:
    cached = G.__dict__.get("_subgroup_lattice")
    if cached is None:
        cached = G.__dict__.setdefault("_subgroup_lattice", SubgroupLattice(G))
    return cached


def _check_level(n: int) -> None:
    if n < 1:
        raise ValueError(f"filtration level must be at least 1, got {n}")


def chains_up_to(G: FiniteGroup, n: int, require_top_G: bool = False) -> list[Chain]:
    """All strict subgroup chains of total index <= min(n, |G|).

    Depth-first over the inclusion order, starting from every subgroup in
    canonical order; with ``require_top_G`` only chains ending at the full
    group are returned.
    """
    _check_level(n)
    lat = subgroup_lattice(G)
    n_eff = min(n, G.order)
    out: list[Chain] = []
    orders = lat.orders
    top = lat.top_id

    def extend(path: list[int], bottom_order: int) -> None:
        if not require_top_G or path[-1] == top:
            out.append(Chain(tuple(path), orders[path[-1]] // bottom_order))
        for j in lat.supersets[path[-1]]:
            if orders[j] <= bottom_order * n_eff:
                path.append(j)
                extend(path, bottom_order)
                path.pop()

    for start in range(len(lat.subgroups)):
        extend([start], orders[start])
    return out


def chain_classes(G: FiniteGroup, n: int, flavor: str) -> list[list[ChainClass]]:
    """Conjugacy classes of filtered chains, grouped by degree.

    Coinvariant flavor takes every chain; reduced flavor only chains ending
    at the full group. Within each degree the classes are sorted by their
    canonical representative.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    _check_level(n)
    lat = subgroup_lattice(G)
    chains = chains_up_to(G, n, require_top_G=(flavor == REDUCED))
    by_degree: dict[int, dict[tuple[int, ...], int]] = {}
    for chain in chains:
        canon = lat.canonical(chain.subgroup_ids)
        bucket = by_degree.setdefault(chain.degree, {})
        if canon not in bucket:
            bucket[canon] = len(lat.orbit(canon))
    top_degree = max(by_degree) if by_degree else 0
    out: list[list[ChainClass]] = []
    for k in range(top_degree + 1):
        bucket = by_degree.get(k, {})
        classes = []
        for ids in sorted(bucket):
            total = lat.orders[ids[-1]] // lat.orders[ids[0]]
            classes.append(ChainClass(Chain(ids, total), bucket[ids]))
        out.append(classes)
    return out


@dataclass(eq=False)
class FilteredChainComplex:
    """Per-degree chain-class bases with integer boundary matrices.

    ``boundaries[k]`` maps degree k to degree k-1; ``boundaries[0]`` is the
    empty matrix with zero rows, so rank conventions need no special casing.
    """

    group: FiniteGroup
    n: int
    n_effective: int
    flavor: str
    lattice: SubgroupLattice
    bases: tuple[tuple[ChainClass, ...], ...]
    boundaries: tuple[SparseIntMatrix, ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.bases)


def build_complex(G: FiniteGroup, n: int, flavor: str) -> FilteredChainComplex:
    """Assemble the filtered complex of the requested flavor at level n.

    The boundary of a class is the alternating sum of its representative's
    faces, each re-canonicalized; conjugate faces accumulate, so coefficients
    can exceed +-1. In the reduced flavor the face deleting the top group
    lands in the collapsed part and contributes nothing.
    """
    classes = chain_classes(G, n, flavor)
    lat = subgroup_lattice(G)
    index_of: list[dict[tuple[int, ...], int]] = [
        {cls.representative.subgroup_ids: i for i, cls in enumerate(level)}
        for level in classes]
    boundaries: list[SparseIntMatrix] = [SparseIntMatrix.zero(0, len(classes[0]))]
    for k in range(1, len(classes)):
        data: dict[tuple[int, int], int] = {}
        for col, cls in enumerate(classes[k]):
            ids = cls.representative.subgroup_ids
            last_face = k if flavor == COINVARIANT else k - 1
            for i in range(last_face + 1):
                face = ids[:i] + ids[i + 1:]
                face_index = lat.orders[face[-1]] // lat.orders[face[0]]
                if face_index > cls.representative.total_index:
                    raise InvariantViolation("face left the filtration")
                row = index_of[k - 1][lat.canonical(face)]
                key = (row, col)
                data[key] = data.get(key, 0) + (1 if i % 2 == 0 else -1)
        boundaries.append(SparseIntMatrix.from_dict(len(classes[k - 1]),
                                                    len(classes[k]), data))
    return FilteredChainComplex(
        group=G, n=n, n_effective=min(n, G.order), flavor=flavor, lattice=lat,
        bases=tuple(tuple(level) for level in classes),
        boundaries=tuple(boundaries))


def filtration_levels(G: FiniteGroup) -> list[int]:
    """Sorted total indices realized by chains: all [K : H] over pairs H <= K."""
    lat = subgroup_lattice(G)
    levels = {1}
    for i, ups in enumerate(lat.supersets):
        for j in ups:
            levels.add(lat.orders[j] // lat.orders[i])
    return sorted(levels)


def complex_to_json_dict(C: FilteredChainComplex) -> dict:
    """Debug serialization: bases as chains of member masks, sparse triples."""
    return {
        "group": C.group.label,
        "order": C.group.order,
        "n": C.n,
        "n_effective": C.n_effective,
        "flavor": C.flavor,
        "bases": [
            [{"chain": list(C.lattice.masks(cls.representative.subgroup_ids)),
              "orbit_size": cls.orbit_size}
             for cls in level]
            for level in C.bases],
        "boundaries": [
            {"rows": m.rows, "cols": m.cols, "entries": [list(e) for e in m.entries]}
            for m in C.boundaries],
    }
