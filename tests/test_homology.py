"""Exact rank, Betti numbers and the semisimplicity cross-check."""

import dataclasses
import math
import random
import types
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from helpers import cut_rank_mismatches, matmul, permuted, sparse_from_dict, to_dense
from test_lattice import _graded_cone

import spq.homology
import spq.lattice
import spq.reports
from spq import (
    BasisCapExceeded,
    NotAComplex,
    SparseIntMatrix,
    betti_numbers,
    build_complex,
    builtin,
    coinvariants_of_homology_oracle,
    compute_report,
    filtration_levels,
    from_permutation_generators,
    interval_poset,
    level_cut,
    profile_report,
    rank_exact,
    read_off,
    subgroup_conjugation_action,
    subgroup_lattice,
    top_slice,
)
from spq.groups import is_normal
from spq.homology import _dense_rank, _nullspace, _row_reduce
from spq.intmatrix import reduce_columns
from spq.lattice import (
    ChainClass,
    OrbitComplex,
    OrbitPoset,
    check_boundaries,
    oldest_cofaces,
    orbit_classes,
    orbit_complex,
)
from spq.partition import _cone
from spq.suites import CATALOG, _complex_identity_failure, catalog_group


def dense_rank_oracle(dense):
    """Plain Gaussian elimination over Fraction, independent of rank_exact."""
    mat = [[Fraction(x) for x in row] for row in dense]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        sel = next((i for i in range(rank, len(mat)) if mat[i][c] != 0), None)
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][c] != 0:
                f = mat[i][c] / mat[rank][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def test_rank_basics():
    eye = sparse_from_dict(3, 3, {(i, i): 1 for i in range(3)})
    assert rank_exact(eye) == 3
    assert rank_exact(SparseIntMatrix(4, 5, ())) == 0


def test_rank_four_cycle():
    # 4 vertices, 4 edges around a square: rank 3 (hand-reduced oracle below)
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    data = {}
    for j, (a, b) in enumerate(edges):
        data[(a, j)] = -1
        data[(b, j)] = 1
    M = sparse_from_dict(4, 4, data)
    assert rank_exact(M) == dense_rank_oracle(to_dense(M)) == 3


def test_rank_against_dense_oracle_random():
    rng = random.Random(52)
    for trial in range(60):
        rows = rng.randrange(1, 61)
        cols = rng.randrange(1, 61)
        density = rng.choice((0.05, 0.15, 0.4))
        data = {}
        for r in range(rows):
            for c in range(cols):
                if rng.random() < density:
                    v = rng.randrange(-9, 10)
                    if v:
                        data[(r, c)] = v
        M = sparse_from_dict(rows, cols, data)
        assert rank_exact(M) == dense_rank_oracle(to_dense(M))


def sparse_matrices(rows: int, cols: int):
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    return st.dictionaries(cells, st.integers(-9, 9), max_size=rows * cols).map(
        lambda data: sparse_from_dict(rows, cols, data))


@pytest.mark.parametrize("tall", [True, False])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rank_against_dense_oracle_hypothesis(tall, data):
    small, large = sorted(data.draw(st.tuples(st.integers(1, 14), st.integers(1, 14))))
    rows, cols = (large, small) if tall else (small, large)
    M = data.draw(sparse_matrices(rows, cols))
    assert rank_exact(M) == dense_rank_oracle(to_dense(M))
    # a product through a narrow middle has rank deficiency to eliminate
    inner = data.draw(st.integers(1, 4))
    N = matmul(data.draw(sparse_matrices(rows, inner)),
               data.draw(sparse_matrices(inner, cols)))
    assert rank_exact(N) == dense_rank_oracle(to_dense(N))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7), st.integers(1, 12), st.data())
def test_reduce_columns_lows_are_the_rank_pairing(rows, cols, data):
    # entries in -3..3 make lows of -1 and non-unit pivots; low(j) = i exactly
    # when the ranks of the lower-left blocks pair row i with column j
    # (pairing uniqueness, Cohen-Steiner, Edelsbrunner and Morozov 2006)
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, -3))
    dense = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                               min_size=rows, max_size=rows))
    # rank[i][j]: rank of rows i.. of columns ..j-1, dense and exact
    rank = [[_dense_rank([row[:j] for row in dense[i:]]) for j in range(cols + 1)]
            for i in range(rows + 1)]
    # cleared columns must reduce to zero: those in the span of the earlier ones
    zero = [j for j in range(cols) if rank[0][j + 1] == rank[0][j]]
    cleared = set(data.draw(st.lists(st.sampled_from(zero), unique=True))) if zero else set()
    columns = [{r: row[j] for r, row in enumerate(dense) if row[j]} for j in range(cols)]
    lows = reduce_columns(columns, cleared)
    for j, low in enumerate(lows):
        paired = [i for i in range(rows) if rank[i][j + 1] - rank[i + 1][j + 1]
                  - rank[i][j] + rank[i + 1][j] == 1]
        assert paired == ([low] if low >= 0 else [])
    assert columns == [{r: row[j] for r, row in enumerate(dense) if row[j]}
                       for j in range(cols)]  # inputs untouched


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.data())
def test_oracle_elimination_against_rank_exact(rows, cols, data):
    # mostly zeros, so zero rows and columns and short pivot rows are common
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -2))
    dense = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                               min_size=rows, max_size=rows))
    mat = [[Fraction(x) for x in row] for row in dense]
    rank = rank_exact(sparse_from_dict(
        rows, cols, {(r, c): x for r, row in enumerate(dense)
                     for c, x in enumerate(row) if x}))
    assert _dense_rank(mat) == rank
    kernel = _nullspace(mat, cols)
    assert mat == [[Fraction(x) for x in row] for row in dense]  # inputs untouched
    assert len(kernel) == cols - rank
    work = [row[:] for row in mat]
    pivots = _row_reduce(work)
    # reduced row echelon form: each pivot column is a unit vector
    assert all(work[i][c] == int(i == j) for j, c in enumerate(pivots)
               for i in range(rows))
    free = [c for c in range(cols) if c not in pivots]
    for i, v in enumerate(kernel):
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in mat)
        assert [v[c] for c in free] == [int(i == j) for j in range(len(free))]


def test_rank_invariant_under_permutation():
    rng = random.Random(7)
    data = {(r, c): rng.randrange(-5, 6) or 1
            for r in range(12) for c in range(15) if rng.random() < 0.3}
    M = sparse_from_dict(12, 15, data)
    base = rank_exact(M)
    for seed in range(5):
        rp = list(range(12))
        cp = list(range(15))
        random.Random(seed).shuffle(rp)
        random.Random(seed + 100).shuffle(cp)
        assert rank_exact(permuted(M, rp, cp)) == base


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.data())
def test_oracle_elimination_on_ints_matches_fractions(rows, cols, data):
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -2))
    dense = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                               min_size=rows, max_size=rows))
    exact = [[Fraction(x) for x in row] for row in dense]
    kernel = _nullspace(exact, cols)
    assert _nullspace(dense, cols) == kernel
    assert _dense_rank(dense) == _dense_rank(exact) == rank_exact(sparse_from_dict(
        rows, cols, {(r, c): x for r, row in enumerate(dense)
                     for c, x in enumerate(row) if x}))
    work = [row[:] for row in dense]
    assert _row_reduce(work) == _row_reduce(exact)
    assert work == exact


F = Fraction


@pytest.mark.parametrize("dense,rref,pivots,kernel", [
    ([[2, 1], [1, 1]], [[1, 0], [0, 1]], [0, 1], []),
    ([[0, 2], [3, 0]], [[1, 0], [0, 1]], [0, 1], []),
    ([[2, 1], [4, 2]], [[1, F(1, 2)], [0, 0]], [0], [[F(-1, 2), 1]]),
    ([[3, 0, 1], [0, 2, 1]], [[1, 0, F(1, 3)], [0, 1, F(1, 2)]], [0, 1],
     [[F(-1, 3), F(-1, 2), 1]]),
])
def test_oracle_elimination_with_non_unit_pivots(dense, rref, pivots, kernel):
    work = [row[:] for row in dense]
    assert _row_reduce(work) == pivots
    assert work == rref
    assert _nullspace(dense, len(dense[0])) == kernel


def test_oracle_elimination_with_unit_pivots_stays_in_ints():
    # the incidence matrix of a directed triangle: every pivot is +-1
    dense = [[-1, 1, 0], [0, -1, 1], [1, 0, -1]]
    work = [row[:] for row in dense]
    assert _row_reduce(work) == [0, 1]
    assert work == [[1, 0, -1], [0, 1, -1], [0, 0, 0]]
    kernel = _nullspace(dense, 3)
    assert kernel == [[1, 1, 1]]
    assert all(type(x) is int for row in work + kernel for x in row)


@pytest.mark.parametrize("spec,n", [("S3", 3), ("C2xC6", 6), ("EA(2,3)", 4), ("A4", 12)])
def test_oracle_averaged_cycles_stay_in_ints(monkeypatch, spec, n):
    # e.z carries the conjugation counts as a common factor; with it divided
    # out, these ranks need no pivot other than +-1
    entry_types = set()

    def recording_rank(mat):
        work = [row[:] for row in mat]
        rank = len(_row_reduce(work))
        entry_types.update(type(x) for row in mat + work for x in row)
        return rank

    monkeypatch.setattr(spq.homology, "_dense_rank", recording_rank)
    G = catalog_group(spec)
    oracle = coinvariants_of_homology_oracle(G, n)
    assert entry_types == {int}
    assert oracle == list(betti_numbers(build_complex(G, n)).betti)


def _referenced_names(code) -> set[str]:
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _referenced_names(const)
    return names


def test_oracle_shares_no_code_with_the_fast_path():
    fast_path = {"reduce_columns", "rank_exact", "betti_numbers", "build_complex",
                 "chain_classes", "orbit_complex", "coboundary_pairs", "eliminate",
                 "oldest_cofaces"}
    for fn in (coinvariants_of_homology_oracle, _row_reduce, _nullspace, _dense_rank):
        assert not _referenced_names(fn.__code__) & fast_path, fn.__name__


def test_sparse_matrix_validation():
    with pytest.raises(ValueError):
        SparseIntMatrix(2, 2, ((0, 0, 0),))
    with pytest.raises(ValueError):
        SparseIntMatrix(2, 2, ((0, 0, 1), (0, 0, 2)))
    with pytest.raises(ValueError):
        SparseIntMatrix(2, 2, ((2, 0, 1),))


@pytest.mark.parametrize("spec,n,flavor,expected", [
    ("S3", 3, "coinvariant", (1, 1)),
    ("C30", 5, "coinvariant", (1, 5)),
    ("S3", 3, "reduced", (0, 1)),
    ("C2", 2, "reduced", (0, 0)),
])
def test_betti_numbers(spec, n, flavor, expected):
    # betti covers exactly the degrees the complex has; reports pad with zeros
    C = build_complex(builtin(spec), n)
    result = betti_numbers(top_slice(C) if flavor == "reduced" else C)
    assert result.betti == expected


def test_betti_padded_in_reports():
    from spq import compute_report
    rep = compute_report(builtin("C30"), 5)
    assert rep.pi == (1, 5, 0)  # dense up to floor(log2(5))


def test_euler_identity_everywhere():
    for spec in ("S3", "D16", "SL2F3", "C30", "Q8"):
        G = builtin(spec)
        for n in filtration_levels(G):
            for C in (build_complex(G, n), top_slice(build_complex(G, n))):
                res = betti_numbers(C)
                assert res.euler == sum(
                    d if k % 2 == 0 else -d for k, d in enumerate(res.dims))
                for k, b in enumerate(res.betti):
                    upper = res.ranks[k + 1] if k + 1 < len(res.dims) else 0
                    assert b == res.dims[k] - res.ranks[k] - upper


def test_not_a_complex_witness():
    real = build_complex(builtin("C4"), 4)
    broken = ({0: 1},) + tuple({} for _ in real.columns[2][1:])
    fake = dataclasses.replace(real, columns=(real.columns[0], real.columns[1], broken))
    with pytest.raises(NotAComplex) as info:
        betti_numbers(fake)
    assert info.value.column == 0


def test_not_a_complex_names_the_least_bad_column():
    # the row-sorted entries of d_1 d_2 list a bad entry of column 1 first;
    # rows 0 and 1 of degree 1 are absent from columns 1 and 0 of d_2
    real = build_complex(builtin("S3"), 6)
    d2 = [dict(col) for col in real.columns[2]]
    assert len(d2) == 2 and 0 not in d2[1] and 1 not in d2[0]
    for r, c in ((0, 1), (1, 0)):
        d2[c][r] = d2[c].get(r, 0) + 1
    fake = dataclasses.replace(real, columns=real.columns[:2] + (tuple(d2),))
    product = matmul(fake.boundaries[1], fake.boundaries[2])
    assert {c for _, c, _ in product.entries} == {0, 1}
    assert product.entries[0][1] == 1
    with pytest.raises(NotAComplex) as info:
        betti_numbers(fake)
    assert info.value.column == 0


def test_a_replaced_complex_is_checked_again():
    real = build_complex(builtin("C4"), 4)
    check_boundaries(real)
    assert real.checked
    broken = ({0: 1},) + tuple({} for _ in real.columns[2][1:])
    fake = dataclasses.replace(real, columns=(real.columns[0], real.columns[1], broken))
    assert not fake.checked
    with pytest.raises(NotAComplex):
        betti_numbers(fake)


@pytest.fixture
def products(monkeypatch):
    """The complexes on which ``check_boundaries`` runs the full d o d product.

    The check is ``lattice``'s; ``homology`` calls it under its own binding.
    """
    unchecked = []
    original = spq.lattice.check_boundaries

    def counted(C):
        if not C.checked:
            unchecked.append(C)
        original(C)

    monkeypatch.setattr(spq.lattice, "check_boundaries", counted)
    monkeypatch.setattr(spq.homology, "check_boundaries", counted)
    return unchecked


def test_a_cut_checks_its_complex_first(products):
    C = build_complex(builtin("D8"), 8)
    assert not C.checked
    cut = level_cut(C, 4)
    assert C.checked and cut.checked and top_slice(cut).checked
    assert products == [C]


@pytest.mark.parametrize("spec,probes", [("C2xS4", 7), ("D16", 4)])
def test_profile_runs_one_d_d_product(products, spec, probes):
    # one build at |G|, checked once: every probe ranks a cut of it and its top slice
    assert profile_report(builtin(spec)).gap_checks == probes
    assert len(products) == 1


def test_profile_cuts_only_the_top_slice(monkeypatch):
    # the read-off and every probe share one top slice, cut once; a probe's
    # level cuts are prefixes of it and of the complex
    cuts = []
    original = spq.lattice.top_slice

    def counted(C):
        if C.sliced is None:
            cuts.append(C)
        return original(C)

    monkeypatch.setattr(spq.lattice, "top_slice", counted)
    monkeypatch.setattr(spq.reports, "top_slice", counted)
    assert profile_report(builtin("C2xS4")).gap_checks == 7
    assert len(cuts) == 1


@pytest.mark.parametrize("run", [lambda G: read_off(G, [G.order]),
                                 lambda G: compute_report(G, 8)])
def test_a_top_slice_is_not_checked_again(products, run):
    run(builtin("C2xS4"))
    assert len(products) == 1


def test_complex_identities_run_one_d_d_product(products):
    # the coinvariant complex is ranked, and so checked, before its slice is cut
    assert _complex_identity_failure(builtin("C2xS4"), 48) is None
    assert len(products) == 1


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(CATALOG), st.data())
def test_clearing_keeps_the_ranks(spec, data):
    # rank_exact reduces every column; betti_numbers skips the cells that
    # delta_{k-1} paired
    G = catalog_group(spec)
    n = data.draw(st.sampled_from(filtration_levels(G) + [G.order + 1]))
    sub = data.draw(st.sampled_from(subgroup_lattice(G).subgroups))
    P = interval_poset(G, sub, lower_closed=data.draw(st.booleans()))
    cone = _cone(P, subgroup_conjugation_action(G, P) if is_normal(sub) else None)
    complexes = [build_complex(G, n), top_slice(build_complex(G, n))]
    complexes.append(top_slice(orbit_complex(cone, orbit_classes(cone, 1))))
    for C in complexes:
        assert betti_numbers(C).ranks == tuple(rank_exact(m) for m in C.boundaries)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CATALOG), st.data())
def test_ranks_hold_on_every_level_cut(spec, data):
    # a cut reads its pivots from the table of the complex it was cut from;
    # rank_exact reduces every column of the cut afresh
    G = catalog_group(spec)
    whole = build_complex(G, G.order)
    sub = data.draw(st.sampled_from(subgroup_lattice(G).subgroups))
    P = interval_poset(G, sub, lower_closed=data.draw(st.booleans()))
    cone = _graded_cone(_cone(P, subgroup_conjugation_action(G, P) if is_normal(sub) else None))
    cone_whole = orbit_complex(cone, orbit_classes(cone, cone.orders[cone.top_id]))
    for C in (whole, top_slice(whole), cone_whole, top_slice(cone_whole)):
        assert cut_rank_mismatches(C) == []


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ranks_hold_on_every_level_cut_of_random_complexes(data):
    # d_1 has entries in -3..3: non-unit pivots, zero columns and cells with no
    # coface. Each column of d_2 is an integer combination of the cycles of d_1
    # of no larger level, so d o d = 0, every level is a subcomplex, and the
    # cells that delta_0 pairs are cleared from delta_1
    dims = data.draw(st.tuples(st.integers(1, 6), st.integers(1, 10), st.integers(1, 8)))
    levels = [sorted(data.draw(st.lists(st.integers(1, 4), min_size=d, max_size=d)))
              for d in dims]
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, -3))
    d1 = tuple({r: v for r in range(dims[0])
                if levels[0][r] <= levels[1][j] and (v := data.draw(entry))}
               for j in range(dims[1]))
    d2 = []
    for j in range(dims[2]):
        kept = sum(n <= levels[2][j] for n in levels[1])
        col = [0] * kept
        if kept:
            for z in _nullspace([[c.get(r, 0) for c in d1[:kept]] for r in range(dims[0])],
                                kept):
                scale = data.draw(st.sampled_from((0, 0, 1, -1, 2, -3)))
                den = math.lcm(*(Fraction(x).denominator for x in z))
                col = [a + scale * int(x * den) for a, x in zip(col, z)]
        d2.append({i: v for i, v in enumerate(col) if v})
    bases = tuple(tuple(ChainClass((k, i), n, 1) for i, n in enumerate(level))
                  for k, level in enumerate(levels))
    C = OrbitComplex(OrbitPoset(((),), (1,), (), 0), bases,
                     (tuple({} for _ in range(dims[0])), d1, tuple(d2)))
    assert cut_rank_mismatches(C) == []


def test_ranks_hold_on_a_level_cut_of_s3xs3xs3():
    # |Gamma| = 216, so faces of one orbit accumulate into coefficients other than +-1
    G = builtin("S3xS3xS3")
    whole = build_complex(G, 24)
    for C in (whole, top_slice(whole)):
        cut = level_cut(C, 12)
        assert betti_numbers(cut).ranks == tuple(rank_exact(m) for m in cut.boundaries)
        assert cut is not C and cut.oldest is oldest_cofaces(C)


def test_betti_independent_of_column_order():
    C = build_complex(builtin("SL2F3"), 6)
    base = betti_numbers(C).betti
    shuffled = []
    for k, mat in enumerate(C.boundaries):
        cp = list(range(mat.cols))
        random.Random(k).shuffle(cp)
        rp = list(range(mat.rows))
        random.Random(k + 50).shuffle(rp)
        shuffled.append((mat, rp, cp))
    # ranks, hence Betti numbers, survive independent row/col relabeling
    ranks = [rank_exact(permuted(m, rp, cp)) for m, rp, cp in shuffled]
    assert ranks == [rank_exact(m) for m, _, _ in shuffled]
    assert betti_numbers(C).betti == base


@pytest.mark.parametrize("spec,n,expected", [
    ("S3", 3, [1, 1]),
    ("C30", 2, [4, 0]),
    ("C1", 1, [1]),
])
def test_oracle_examples(spec, n, expected):
    assert coinvariants_of_homology_oracle(builtin(spec), n) == expected


def test_oracle_matches_direct_computation():
    for spec in ("C6", "S3", "D8", "Q8", "EA(2,3)", "A4", "Q16", "D16",
                 "EA(3,2)", "C2xC6", "SL2F3"):
        G = builtin(spec)
        for n in filtration_levels(G):
            oracle = coinvariants_of_homology_oracle(G, n)
            direct = list(betti_numbers(build_complex(G, n)).betti)
            assert oracle == direct, (spec, n)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_oracle_on_random_permutation_groups(data):
    # the oracle takes about a second on S4 at its top levels, hence the small cap
    degree = data.draw(st.sampled_from((4, 3, 2, 1)))
    gens = data.draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=2))
    G = from_permutation_generators(degree, gens, "random")
    n = data.draw(st.sampled_from(filtration_levels(G)))
    try:
        oracle = coinvariants_of_homology_oracle(G, n, basis_cap=100)
    except BasisCapExceeded:
        assume(False)
    assert oracle == list(betti_numbers(build_complex(G, n)).betti)


def test_oracle_basis_cap():
    with pytest.raises(BasisCapExceeded):
        coinvariants_of_homology_oracle(builtin("D16"), 16, basis_cap=10)


def test_steinberg_rank_four():
    # top homology of the punctured lattice of (Z/2)^4: dimension 2^(4*3/2)
    from spq import compute_report
    rep = compute_report(builtin("EA(2,4)"), 15)
    assert rep.pi == (1, 0, 0, 64)


@pytest.mark.parametrize("spec", CATALOG + ("S4", "D32"))
def test_profile_read_off_matches_compute_report(spec):
    # every level read off the persistence intervals equals a fresh build
    G = builtin(spec)
    prof = profile_report(G)
    assert [r.to_json_dict() for r in prof.reports] == \
        [compute_report(G, n).to_json_dict() for n in prof.levels]
