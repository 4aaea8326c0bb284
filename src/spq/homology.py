"""Exact rational homology of integer chain complexes.

Betti numbers come from boundary ranks computed fraction-free, of a
complex (a level of one is its ``lattice.level_cut``), by pairing
coboundaries: persistent cohomology with clearing, whose pairs are those
of homology (de Silva, Morozov and Vejdemo-Johansson). A cell's pivot is
read from its complex's table of oldest cofaces, which every level cut
of that complex shares, and a coboundary column is built only when its
pivot is already owned. Persistence intervals give the Betti numbers of
every filtration level of a complex from one lowest-pivot reduction of
its own boundary columns, as its bases are in filtration order, so the
read-off and the ranks that check it run different reductions. Both
check their complex first, with ``lattice.check_boundaries``: d o d = 0,
the filtration order and every level a subcomplex, once per complex
object. The oracle at the bottom recomputes coinvariant Betti numbers
along the other route: homology of the full complex first, then the
averaging idempotent e, as dim e.H_k = rank(B_k + e.Z_k) - rank(B_k).
That is legitimate because rational group algebras are semisimple.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import BasisCapExceeded, InvariantViolation
from .intmatrix import eliminate, reduce_columns
from .lattice import chains_up_to, check_boundaries, oldest_cofaces, subgroup_lattice

TYPE_CHECKING = False  # true only to type checkers: no command loads typing
if TYPE_CHECKING:
    from collections.abc import Container, KeysView, Sequence
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


def coboundary_pairs(columns: tuple[dict[int, int], ...], oldest: Sequence[int],
                     cells: int, cleared: Container[int]) -> KeysView[int]:
    """The (k+1)-cells paired in the reduction of the coboundary delta_k = d_{k+1}^T.

    ``columns`` are those of d_{k+1}, one per (k+1)-cell, over ``cells``
    k-cells; ``oldest`` is the table of oldest cofaces of a complex whose
    degree k + 1 these columns are a prefix of (``lattice.oldest_cofaces``),
    so a cell whose entry is not below ``len(columns)`` has no coface here.
    The k-cells are taken newest first, and a column's pivot is its oldest
    coface left. A cell whose pivot no newer cell owns is paired with it,
    with no column built. Only on a collision are its coboundary, and those
    of the owners it meets, built, from the transpose of ``columns`` (made
    at the first collision and dropped on return), and cleared with
    ``intmatrix.eliminate`` until the pivot is free or the column zero.
    Cells in ``cleared`` reduce to zero and are skipped. The number of
    pairs is the rank of d_{k+1}.
    """
    bound = len(columns)
    owner: dict[int, int] = {}  # pivot -> the cell paired with it
    built: dict[int, dict[int, int]] = {}  # pivot -> its owner's column, once built
    transpose: list[list[int]] | None = None
    for cell in range(cells - 1, -1, -1):
        pivot = oldest[cell]
        if pivot >= bound or cell in cleared:
            continue
        if pivot in owner:
            if transpose is None:
                transpose = [[] for _ in range(cells)]
                for j, column in enumerate(columns):
                    for r in column:
                        transpose[r].append(j)
            col = {j: columns[j][cell] for j in transpose[cell]}
            while pivot in owner:
                other = built.get(pivot)
                if other is None:
                    other = built[pivot] = {j: columns[j][owner[pivot]]
                                            for j in transpose[owner[pivot]]}
                eliminate(col, other, pivot)
                pivot = min(col, default=bound)
            if not col:
                continue
            built[pivot] = col
        owner[pivot] = cell
    return owner.keys()


def betti_numbers(C: OrbitComplex) -> HomologyResult:
    """Betti numbers betti[k] = dims[k] - rank d_k - rank d_{k+1} of C.

    Verifies C first (``lattice.check_boundaries``). Each rank d_{k+1} is
    the number of pairs of ``coboundary_pairs`` on delta_k, taken from
    degree 0 up, skipping the k-cells that delta_{k-1} paired: their columns
    reduce to zero (clearing, Chen-Kerber, run upward). Pivots are read from
    C's table of oldest cofaces, which a ``level_cut`` shares with the
    complex it was cut from. On a ``top_slice`` this is the homology of the
    quotient by the chains not ending at the top; on a ``level_cut``, that
    of one filtration level.
    """
    check_boundaries(C)
    dims = C.dims
    top = len(dims) - 1
    oldest = oldest_cofaces(C)
    ranks = [0] * (top + 1)
    paired: Container[int] = ()
    for k in range(top):
        paired = coboundary_pairs(C.columns[k + 1], oldest[k], dims[k], paired)
        ranks[k + 1] = len(paired)
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
    index at most n. C's bases are in filtration order, so every level is a
    prefix of every degree, and one lowest-pivot reduction of C's own
    columns gives the homology of all levels (Zomorodian-Carlsson). Degrees
    are reduced from the top down, skipping the columns that the degree
    above already pairs, whose reductions are zero (clearing, Chen-Kerber);
    the columns of degree 0 are empty and reduce to low -1. Verifies C first
    (``lattice.check_boundaries``), which covers every level and the order.

    Per degree, returns the (birth, death) levels of the classes in basis
    order; death is None for a class alive in C itself, and classes born
    and killed at the same level are left out. The degree-k Betti number at
    level n counts the intervals with birth <= n and no death, or death > n.
    """
    check_boundaries(C)
    out: list[tuple[Interval, ...]] = []
    killed: dict[int, int] = {}  # row of degree k -> death level
    for k in range(len(C.bases) - 1, -1, -1):
        lows = reduce_columns(C.columns[k], cleared=killed)
        born = [cls.total_index for cls in C.bases[k]]
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
