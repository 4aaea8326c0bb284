"""Reference constructions and dumps that only the tests use.

Dense views, products and relabelings of ``SparseIntMatrix``, posets
built by testing a strict order on every pair, ``complex_to_json_dict``,
the JSON dump behind the byte-stability digest of the catalog complexes,
Gaussian binomials for the closed forms of elementary abelian groups, a
class count planted one class high, a complex with boundary entries
planted, a complex with its bases permuted (rows renamed to match), a
wrapper that counts the calls of one module binding, and the level of a
walk's or a complex's classes.
They stay out of ``spq`` so that a reference never ships with the code that
it checks.
"""

from __future__ import annotations

import itertools

from spq import FiniteGroup, Poset, SparseIntMatrix, betti_numbers, level_cut, rank_exact
from spq.lattice import ChainCounts, OrbitComplex, effective_level


def complex_to_json_dict(G: FiniteGroup, n: int, flavor: str, C: OrbitComplex) -> dict:
    """C, built from G's lattice at level n, as chains of member masks and sparse triples.

    ``flavor`` names the complex ("coinvariant" or "reduced"); the complex
    itself carries neither it nor G and n.
    """
    return {
        "group": G.label,
        "order": G.order,
        "n": n,
        "n_effective": effective_level(G, n),
        "flavor": flavor,
        "bases": [
            [{"chain": list(C.lattice.masks(cls.representative)),
              "orbit_size": cls.orbit_size}
             for cls in level]
            for level in C.bases],
        "boundaries": [
            {"rows": m.rows, "cols": m.cols, "entries": [list(e) for e in m.entries]}
            for m in C.boundaries],
    }


def sparse_from_dict(rows: int, cols: int,
                     data: dict[tuple[int, int], int]) -> SparseIntMatrix:
    """The matrix with the given (row, col) -> value entries; zeros are dropped."""
    entries = tuple(sorted((r, c, v) for (r, c), v in data.items() if v != 0))
    return SparseIntMatrix(rows, cols, entries)


def to_dense(M: SparseIntMatrix) -> list[list[int]]:
    out = [[0] * M.cols for _ in range(M.rows)]
    for r, c, v in M.entries:
        out[r][c] = v
    return out


def matmul(A: SparseIntMatrix, B: SparseIntMatrix) -> SparseIntMatrix:
    if A.cols != B.rows:
        raise ValueError("inner dimensions disagree")
    by_col: dict[int, list[tuple[int, int]]] = {}
    for r, c, v in A.entries:
        by_col.setdefault(c, []).append((r, v))
    acc: dict[tuple[int, int], int] = {}
    for rr, cc, vv in B.entries:
        for r, v in by_col.get(rr, ()):
            key = (r, cc)
            acc[key] = acc.get(key, 0) + v * vv
    return sparse_from_dict(A.rows, B.cols, acc)


def permuted(M: SparseIntMatrix, row_perm: list[int],
             col_perm: list[int]) -> SparseIntMatrix:
    """M with row r moved to row_perm[r] and column c to col_perm[c]."""
    return SparseIntMatrix(M.rows, M.cols, tuple(sorted(
        (row_perm[r], col_perm[c], v) for r, c, v in M.entries)))


def poset_from_predicate(elements, is_lt) -> Poset:
    """The poset whose strict order is ``is_lt``, tested on every pair."""
    elems = tuple(elements)
    masks = []
    for i, a in enumerate(elems):
        m = 0
        for j, b in enumerate(elems):
            if i != j and is_lt(a, b):
                m |= 1 << j
        masks.append(m)
    return Poset(elems, tuple(masks))


def gaussian_binomial(k: int, r: int, p: int) -> int:
    """[k, r]_p, the number of r-dimensional subspaces of F_p^k."""
    if not 0 <= r <= k:
        return 0
    num = den = 1
    for i in range(r):
        num *= p ** (k - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def subspace_chains(k: int, p: int, degree: int) -> int:
    """Strict chains V_0 < ... < V_degree of subspaces of F_p^k: a sum of Gaussian
    multinomials, one per sequence of dimensions."""
    total = 0
    for dims in itertools.combinations(range(k + 1), degree + 1):
        ways = gaussian_binomial(k, dims[-1], p)  # the top, then each member below it
        for lower, upper in zip(dims, dims[1:]):
            ways *= gaussian_binomial(upper, lower, p)
        total += ways
    return total


def one_class_high(counts: ChainCounts) -> ChainCounts:
    """``counts`` with one more 1-chain class at its largest total index (|G| for a group)."""
    every = dict(counts.every)
    index = max(every)
    vector = every[index]
    every[index] = vector[:1] + (vector[1] + 1,) + vector[2:]
    return counts._replace(every=every)


def with_added_entries(C: OrbitComplex, k: int, j: int, added: dict[int, int]) -> OrbitComplex:
    """C with ``added`` (row -> value) added to column j of d_k; a new complex, so unchecked."""
    level = list(C.columns[k])
    col = dict(level[j])
    for row, value in added.items():
        col[row] = col.get(row, 0) + value
    level[j] = col
    return OrbitComplex(C.lattice, C.bases, C.columns[:k] + (tuple(level),) + C.columns[k + 1:])


def reordered(C: OrbitComplex, orders: list[list[int]]) -> OrbitComplex:
    """C with degree k's basis listed as ``[C.bases[k][i] for i in orders[k]]``.

    Columns move with their classes and rows are renamed to match, so the
    result is the same complex in other bases: d o d = 0 and every level a
    subcomplex still hold. A new complex, so unchecked.
    """
    position = []
    for order in orders:
        pos = [0] * len(order)
        for p, i in enumerate(order):
            pos[i] = p
        position.append(pos)
    columns = [tuple(C.columns[0][i] for i in orders[0])]
    for k in range(1, len(orders)):
        rows = position[k - 1]
        columns.append(tuple({rows[r]: v for r, v in C.columns[k][i].items()}
                             for i in orders[k]))
    bases = tuple(tuple(basis[i] for i in order) for basis, order in zip(C.bases, orders))
    return OrbitComplex(C.lattice, bases, tuple(columns))


def by_representative(C: OrbitComplex) -> OrbitComplex:
    """C with each degree sorted by representative alone, as ``orbit_classes`` once
    listed it, rows renamed to match; not in filtration order, so for dumps only."""
    return reordered(C, [sorted(range(len(basis)), key=lambda i: basis[i].representative)
                         for basis in C.bases])


def cut_rank_mismatches(C: OrbitComplex) -> list[int]:
    """The levels n, one per total index that C holds, at which the ranks that
    ``betti_numbers`` takes of ``level_cut(C, n)`` differ from ``rank_exact`` of
    that cut's boundaries, each column reduced in full."""
    levels = sorted({cls.total_index for basis in C.bases for cls in basis})
    return [n for n in levels
            if betti_numbers(cut := level_cut(C, n)).ranks
            != tuple(rank_exact(m) for m in cut.boundaries)]


def counting(monkeypatch, module, name, counter, key):
    """Wrap ``module.name`` so that each call adds ``key(*args)`` to ``counter``;
    a call whose key is None is not counted."""
    original = getattr(module, name)

    def counted(*args):
        tag = key(*args)
        if tag is not None:
            counter[tag] += 1
        return original(*args)

    monkeypatch.setattr(module, name, counted)


def largest_index(bases) -> int:
    """The largest total index among chain classes listed by degree: the realized
    level that a complex with these bases, or a walk with these classes, is at."""
    return max(cls.total_index for basis in bases for cls in basis)
