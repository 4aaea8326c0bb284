"""Exact rational homology of integer chain complexes.

Betti numbers come from boundary ranks computed fraction-free, of a
complex or of one filtration level of it, ranked in place; persistence
intervals give the Betti numbers of every filtration level of a complex from
one reduction of it. Both check their complex first, with
``lattice.check_boundaries``: d o d = 0 and every level a subcomplex, once
per complex object. The oracle at the bottom recomputes coinvariant Betti
numbers along the other route: homology of the full complex first, then
the averaging idempotent e, as
dim e.H_k = rank(B_k + e.Z_k) - rank(B_k). That is legitimate because
rational group algebras are semisimple.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import BasisCapExceeded, InvariantViolation
from .intmatrix import reduce_columns
from .lattice import chains_up_to, check_boundaries, subgroup_lattice

TYPE_CHECKING = False  # true only to type checkers: no command loads typing
if TYPE_CHECKING:
    from fractions import Fraction

    from .groups import FiniteGroup
    from .lattice import OrbitComplex

DEFAULT_BASIS_CAP = 20000


@dataclass(frozen=True)
class HomologyResult:
    """Per-degree rational Betti numbers of one chain complex."""

    betti: tuple[int, ...]
    euler: int
    dims: tuple[int, ...]
    ranks: tuple[int, ...]


def euler_characteristic(betti, dims) -> int:
    """Alternating sum of the Betti numbers, checked against that of dims."""
    euler = sum(b if k % 2 == 0 else -b for k, b in enumerate(betti))
    if euler != sum(d if k % 2 == 0 else -d for k, d in enumerate(dims)):
        raise InvariantViolation(
            f"Euler characteristic mismatch: betti {list(betti)}, dims {list(dims)}")
    return euler


def betti_numbers(C: OrbitComplex, n: int | None = None) -> HomologyResult:
    """Betti numbers betti[k] = dims[k] - rank d_k - rank d_{k+1}, of C or of its level n.

    Verifies d o d = 0 and the level premise first. Ranks are taken from
    the top degree down, skipping the columns of d_k that are pivot rows of
    the reduced d_{k+1}: those reduce to zero (clearing, Chen-Kerber). On a
    ``top_slice`` this is the homology of the quotient by the chains not
    ending at the top.

    With n given, the result is that of ``lattice.level_cut(C, n)``, ranked
    on C's own columns with no copy: the classes of total index above n are
    cleared as well, and by the level premise the kept columns hit only kept
    rows, in the same order, so every low is the cut's. ``dims`` counts the
    kept classes, trailing empty degrees dropped as the cut drops them.
    """
    check_boundaries(C)
    above = [set() if n is None else
             {j for j, cls in enumerate(basis) if cls.total_index > n}
             for basis in C.bases]
    dims = [len(basis) - len(out) for basis, out in zip(C.bases, above)]
    while len(dims) > 1 and not dims[-1]:
        dims.pop()
    dims = tuple(dims)
    top = len(dims) - 1
    ranks = [0] * (top + 1)
    pivots: set[int] = set()
    for k in range(top, 0, -1):
        pivots = {low for low in reduce_columns(C.columns[k], cleared=pivots | above[k])
                  if low >= 0}
        ranks[k] = len(pivots)
    betti = []
    for k in range(top + 1):
        upper = ranks[k + 1] if k < top else 0
        b = dims[k] - ranks[k] - upper
        if b < 0:
            raise InvariantViolation(f"negative Betti number in degree {k}")
        betti.append(b)
    euler = euler_characteristic(betti, dims)
    return HomologyResult(tuple(betti), euler, dims, tuple(ranks))


Interval = tuple[int, int | None]


def persistence_intervals(C: OrbitComplex) -> tuple[tuple[Interval, ...], ...]:
    """Birth and death levels of the homology classes of C's index filtration.

    The level-n complex is the subcomplex spanned by the classes of total
    index at most n. Ordering each degree's basis by (total index, position)
    makes every level a prefix of every degree, so one lowest-pivot
    reduction of C gives the homology of all levels (Zomorodian-Carlsson).
    Degrees are reduced from the top down, skipping the columns that the
    degree above already pairs, whose reductions are zero (clearing,
    Chen-Kerber). Verifies d o d = 0 on C, which covers every level.

    Per degree, returns the (birth, death) levels of the classes in basis
    order; death is None for a class alive in C itself, and classes born
    and killed at the same level are left out. The degree-k Betti number at
    level n counts the intervals with birth <= n and no death, or death > n.
    """
    check_boundaries(C)
    order = [sorted(range(len(basis)), key=lambda i: (basis[i].total_index, i))
             for basis in C.bases]
    position = []
    for perm in order:
        pos = [0] * len(perm)
        for p, i in enumerate(perm):
            pos[i] = p
        position.append(pos)
    values = [[basis[i].total_index for i in perm]
              for basis, perm in zip(C.bases, order)]
    out: list[tuple[Interval, ...]] = []
    killed: dict[int, int] = {}  # position in degree k -> death level
    for k in range(len(C.bases) - 1, -1, -1):
        if k == 0:
            lows = [-1] * len(values[0])
        else:
            rows = position[k - 1]
            lows = reduce_columns([{rows[r]: v for r, v in C.columns[k][i].items()}
                                   for i in order[k]], cleared=killed)
        born = values[k]
        out.append(tuple((born[j], killed.get(j)) for j, low in enumerate(lows)
                         if low < 0 and killed.get(j) != born[j]))
        killed = {low: born[j] for j, low in enumerate(lows) if low >= 0}
    return tuple(reversed(out))


def betti_at(intervals: tuple[tuple[Interval, ...], ...], n: int) -> tuple[int, ...]:
    """Per-degree Betti numbers at level n from persistence intervals."""
    return tuple(sum(1 for birth, death in degree
                     if birth <= n and (death is None or death > n))
                 for degree in intervals)


# ---------------------------------------------------------------------------
# dense exact linear algebra over the rationals on Python ints (oracle machinery)


def _row_reduce(mat: list[list[int | Fraction]]) -> list[int]:
    """In-place reduced row echelon form; returns the pivot columns.

    Entries are ints or Fractions, and mixing them is exact. The pivot row
    is zero left of its pivot, so normalizing it and clearing the other rows
    with it touch only its support: its nonzero columns from the pivot on.
    A pivot of -1 is normalized by negation, so an int matrix whose pivots
    are all +-1 stays in ints; only another pivot brings in a Fraction.
    """
    from fractions import Fraction  # loaded by the oracle alone

    if not mat:
        return []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        row = mat[r]
        support = [j for j in range(c, ncols) if row[j] != 0]
        pivot = row[c]
        if pivot == -1:
            for j in support:
                row[j] = -row[j]
        elif pivot != 1:
            inv = Fraction(1) / pivot
            for j in support:
                row[j] *= inv
        for i, other in enumerate(mat):
            f = other[c]
            if i != r and f != 0:
                for j in support:
                    other[j] -= f * row[j]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return pivots


def _nullspace(rows_matrix: list[list[int | Fraction]],
               ncols: int) -> list[list[int | Fraction]]:
    """Kernel basis of the matrix given as a list of rows, acting on ncols coords."""
    mat = [row[:] for row in rows_matrix]
    pivots = _row_reduce(mat)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec: list[int | Fraction] = [0] * ncols
        vec[free] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][free]
        basis.append(vec)
    return basis


def _dense_rank(mat: list[list[int | Fraction]]) -> int:
    work = [row[:] for row in mat]
    return len(_row_reduce(work))


def coinvariants_of_homology_oracle(G: FiniteGroup, n: int,
                                    basis_cap: int = DEFAULT_BASIS_CAP) -> list[int]:
    """Coinvariant homology dimensions, computed the other way around.

    Builds the full chain complex on all chains (no conjugation quotient)
    and returns, per degree, the rank of the averaging idempotent
    e = (1/|G|) sum_g g on its rational homology:
    dim e.H_k = rank(B_k + e.Z_k) - rank(B_k), where the cycles Z_k come
    from dense exact elimination over the rationals (on Python ints, with a
    Fraction only at a pivot other than +-1) and
    rank(B_k) = dim C_{k+1} - dim Z_{k+1}. G acts through its image Gamma,
    each member of Gamma induced by |G| / |Gamma| elements, so sum_g g is a
    multiple of the sum over Gamma. Scaling does not change a rank, so e is
    applied as that sum, with weight 1 per member of Gamma: integral cycles
    stay integral, and each integral e.z is divided by the gcd of its
    entries.
    Semisimplicity over the rationals makes this the dimension of the
    coinvariants, so it cross-validates betti_numbers on the coinvariant
    complex without sharing any code path with it.
    """
    chains = chains_up_to(G, n)  # checks n before the lattice is built
    lat = subgroup_lattice(G)
    if len(chains) > basis_cap:
        raise BasisCapExceeded(
            f"full complex has {len(chains)} chains, above the cap {basis_cap}")
    by_degree: dict[int, list[tuple[int, ...]]] = {}
    for chain in chains:
        by_degree.setdefault(len(chain) - 1, []).append(chain)
    top = max(by_degree)
    bases = [sorted(by_degree.get(k, [])) for k in range(top + 1)]
    index_of = [{ids: i for i, ids in enumerate(level)} for level in bases]
    # faces[k][j]: the (row, sign) terms of d_k on the j-th chain of degree k
    faces = [[[(index_of[k - 1][ids[:i] + ids[i + 1:]], 1 if i % 2 == 0 else -1)
               for i in range(k + 1)] if k else [] for ids in level]
             for k, level in enumerate(bases)]
    columns = []  # columns[k]: d_k as dense columns
    for k, level in enumerate(faces):
        columns.append([[0] * (len(bases[k - 1]) if k else 0) for _ in level])
        for col, terms in zip(columns[k], level):
            for row, sign in terms:
                col[row] += sign
    cycles = [_nullspace([list(row) for row in zip(*cols)], len(cols)) for cols in columns]
    columns.append([])
    cycles.append([])
    # images[k][p][j]: index of the p-th conjugation applied to the j-th chain
    images = [[[index_of[k][tuple(perm[s] for s in ids)] for ids in level]
               for perm in lat.conj_perms] for k, level in enumerate(bases)]

    out: list[int] = []
    for k in range(top + 1):
        boundary_rank = len(columns[k + 1]) - len(cycles[k + 1])
        if len(cycles[k]) == boundary_rank:
            out.append(0)
            continue
        averaged = []
        for z in cycles[k]:
            ez = list(z)
            for image in images[k]:
                for j, v in enumerate(z):
                    if v:
                        ez[image[j]] += v
            dez: dict[int, int | Fraction] = {}
            for j, v in enumerate(ez):
                if v:
                    for row, sign in faces[k][j]:
                        dez[row] = dez.get(row, 0) + sign * v
            if any(dez.values()):
                raise InvariantViolation("averaged cycle left the cycle space")
            if all(type(v) is int for v in ez) and (content := gcd(*ez)) > 1:
                ez = [v // content for v in ez]  # fewer non-unit pivots
            averaged.append(ez)
        out.append(_dense_rank(columns[k + 1] + averaged) - boundary_rank)
    return out
