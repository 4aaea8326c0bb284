"""Group construction, subgroup enumeration, quotients and hom search."""

import hashlib
import itertools
import random
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spq import (
    FiniteGroup,
    GroupHom,
    InvalidPermutation,
    NotAGroup,
    NotASubgroupInclusion,
    NotNormal,
    OrderCapExceeded,
    ProductCapExceeded,
    Subgroup,
    UnknownSpec,
    all_subgroups,
    builtin,
    conjugacy_classes_of_subgroups,
    core_in,
    enumerate_homomorphisms,
    from_cayley_table,
    from_permutation_generators,
    group_from_json,
    index,
    is_normal,
    normalizer,
    quotient,
)
import spq.groups
from spq.groups import _grow, _walk, left_cosets
from spq.suites import CATALOG, catalog_group


def naive_closure(G, members):
    """Multiply every pair until nothing new appears; the member mask."""
    members = set(members) | {0}
    while True:
        grown = members | {G.mul[a][b] for a in members for b in members}
        if grown == members:
            return sum(1 << x for x in members)
        members = grown


def brute_force_subgroups(G, max_generators):
    """Independent oracle: close every generator set of bounded size.

    Every subgroup of order m needs at most log2(m) generators (each new
    generator at least doubles the subgroup), so max_generators =
    floor(log2(|G|)) is exhaustive. Closing S + {g} equals closing
    <S> + {g}, so each round extends the subgroups found so far by one
    element instead of walking every generator set.
    """
    masks = {1}
    for _ in range(max_generators):
        masks |= {naive_closure(G, [x for x in G.elements() if m >> x & 1] + [g])
                  for m in masks for g in G.elements() if not m >> g & 1}
    return sorted(masks)


def exhaustive_nonassociative_triples(table):
    n = len(table)
    bad = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    bad.append((a, b, c))
    return bad


def test_trivial_and_c2_tables():
    one = from_cayley_table([[0]], "triv")
    assert one.order == 1
    c2 = from_cayley_table([[0, 1], [1, 0]], "C2")
    assert c2.order == 2
    assert c2.inv == (0, 1)


def test_identity_reindexed():
    # C3 with the identity placed at index 1
    table = [[2, 0, 1], [0, 1, 2], [1, 2, 0]]
    G = from_cayley_table(table, "C3-shifted")
    assert G.mul[0][0] == 0
    assert sorted(G.element_orders) == [1, 3, 3]


def test_perturbed_c6_reports_witness():
    c6 = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    c6[2][3] = 0  # break one entry away from the identity row/column
    bad = exhaustive_nonassociative_triples(c6)
    assert bad, "perturbation must break associativity"
    with pytest.raises(NotAGroup) as info:
        from_cayley_table(c6, "broken")
    assert info.value.witness in bad


# table, then the NotAGroup message from FiniteGroup(...) and from from_cayley_table(...)
MALFORMED_TABLES = {
    "empty": ([], "empty multiplication table", "empty multiplication table"),
    "ragged": ([[0, 1], [1]], "multiplication table is not square",
               "multiplication table is not square"),
    "entry out of range": ([[0, 1], [1, 2]], "table entry 2 out of range 0..1",
                           "table entry 2 out of range 0..1"),
    "no identity": ([[0, 0], [0, 0]], "element 0 is not a two-sided identity (witness: 1)",
                    "no two-sided identity element"),
    # both elements are left identities, neither is a right identity
    "identity not two-sided": ([[0, 1], [0, 1]],
                               "element 0 is not a two-sided identity (witness: 1)",
                               "no two-sided identity element"),
    # an associative monoid: 1 * 1 = 1, so 1 has no inverse
    "missing inverse": ([[0, 1], [1, 1]], "element has no right inverse (witness: 1)",
                        "element has no right inverse (witness: 1)"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TABLES))
def test_malformed_table_messages(case):
    table, direct, untrusted = MALFORMED_TABLES[case]
    with pytest.raises(NotAGroup) as info:
        FiniteGroup(table, case)
    assert str(info.value) == direct
    with pytest.raises(NotAGroup) as info:
        from_cayley_table(table, case)
    assert str(info.value) == untrusted


@pytest.mark.parametrize("table", [
    [[0] * 5 for _ in range(5)],                    # no identity
    [[0, 1, 2, 3, 4]] * 4 + [[0]],                  # ragged
    [[9] * 5 for _ in range(5)],                    # entries out of range
])
def test_order_cap_comes_before_the_shape_checks(table):
    with pytest.raises(OrderCapExceeded):
        from_cayley_table(table, "big", order_cap=4)


def test_nonassociative_witness_is_in_the_input_numbering():
    # C6 relabelled i -> i + 3 (mod 6), so the identity sits at index 3 and
    # the table is reindexed before the associativity test runs
    table = [[0] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(6):
            table[(i + 3) % 6][(j + 3) % 6] = (i + j + 3) % 6
    table[4][5] = 1
    bad = exhaustive_nonassociative_triples(table)
    with pytest.raises(NotAGroup) as info:
        from_cayley_table(table, "shifted")
    assert info.value.witness in bad


@pytest.mark.parametrize("spec", CATALOG)
def test_left_cosets_match_brute_force(spec):
    G = builtin(spec)
    for H in all_subgroups(G):
        coset_of, reps = left_cosets(H)
        least = [min(G.mul[g][h] for h in H.elements) for g in G.elements()]
        assert reps == tuple(sorted(set(least)))
        assert len(reps) == G.order // H.order
        assert all(coset_of[g] == reps.index(least[g]) for g in G.elements())


@pytest.mark.parametrize("spec", ["C2", "C3", "C4", "C2xC2", "S3", "C6", "D8", "Q8",
                                  "A4", "C2xC6", "D16", "SL2F3"])
def test_associativity_check_matches_exhaustive_reference(spec):
    # Light's test runs on every table; the n^3 scan is the reference
    G = builtin(spec)
    rng = random.Random(spec)
    n = G.order
    for _ in range(40):
        table = [list(row) for row in G.mul]
        for _ in range(rng.randint(1, 2)):
            a, b = rng.randrange(1, n), rng.randrange(1, n)
            table[a][b] = rng.choice([x for x in range(n) if x != table[a][b]])
        bad = exhaustive_nonassociative_triples(table)
        if bad:
            with pytest.raises(NotAGroup) as info:
                from_cayley_table(table, "perturbed")
            assert info.value.witness in bad
        else:
            try:
                from_cayley_table(table, "perturbed")
            except NotAGroup as err:
                assert not isinstance(err.witness, tuple), err


def test_builtin_tables_golden():
    # sha256 over repr((label, mul, generators)) of every spec, in this order
    extra = ("EA(2,2)", "EA(2,4)", "EA(2,5)", "EA(5,2)", "S4", "S5", "A5", "D2", "D4",
             "D32", "D48", "S1", "S2", "A1", "A2", "A3", "C2xS4", "C3xS4", "Q8xC3")
    digest = hashlib.sha256()
    for spec in CATALOG + extra:
        G = builtin(spec)
        digest.update(repr((G.label, G.mul, G.generators)).encode())
    assert digest.hexdigest() == (
        "bbecf6dd906ea647639e00448cb544fc3802b8ff3995fb590386109ae8b396fe")


def test_order_cap():
    table = [[(i + j) % 8 for j in range(8)] for i in range(8)]
    with pytest.raises(OrderCapExceeded):
        from_cayley_table(table, "C8", order_cap=4)
    with pytest.raises(OrderCapExceeded):
        builtin("C30", order_cap=16)
    with pytest.raises(OrderCapExceeded):
        from_permutation_generators(5, [(1, 2, 3, 4, 0)], "C5", order_cap=3)


def test_permutation_closure():
    s3 = from_permutation_generators(3, [(1, 2, 0), (1, 0, 2)], "S3")
    assert s3.order == 6
    c4 = from_permutation_generators(4, [(1, 2, 3, 0)], "C4")
    assert c4.order == 4
    assert c4.is_abelian
    triv = from_permutation_generators(2, [], "triv")
    assert triv.order == 1
    with pytest.raises(InvalidPermutation):
        from_permutation_generators(3, [(0, 0, 1)], "bad")
    with pytest.raises(InvalidPermutation):
        from_permutation_generators(0, [], "bad")


def _moved_to(perm, slots, degree):
    """``perm`` acting on ``slots`` inside 0..degree-1, fixing every other point."""
    out = list(range(degree))
    for i, x in enumerate(perm):
        out[slots[i]] = slots[x]
    return out


@pytest.mark.parametrize("gens", [
    [(1, 2, 0), (1, 0, 2)],          # S3
    [(1, 2, 3, 0), (0, 3, 2, 1)],    # D8
])
def test_permutation_closure_ignores_fixed_points(gens):
    own = from_permutation_generators(len(gens[0]), gens, "G")
    for slots in (range(len(gens[0])), (8, 2, 5, 0)[:len(gens[0])]):
        padded = from_permutation_generators(
            9, [_moved_to(p, slots, 9) for p in gens], "G")
        assert padded.mul == own.mul
        assert padded.generators == own.generators


def test_huge_degree_builds_nothing_of_its_size():
    tracemalloc.start()
    try:
        G = group_from_json({"kind": "permutation", "degree": 10_000_000})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert G.order == 1
    assert peak < 1 << 20


@pytest.mark.parametrize("spec,order,abelian", [
    ("C1", 1, True),
    ("C30", 30, True),
    ("D16", 16, False),
    ("SL2F3", 24, False),
    ("Q8", 8, False),
    ("Q16", 16, False),
    ("S4", 24, False),
    ("A4", 12, False),
    ("A5", 60, False),
    ("EA(2,3)", 8, True),
    ("C2xC6", 12, True),
    ("C2xC3", 6, True),
])
def test_builtin_catalog(spec, order, abelian):
    G = builtin(spec)
    assert G.order == order
    assert G.is_abelian == abelian
    assert G.label == spec


def test_builtin_specials():
    q8 = builtin("Q8")
    # exactly one element of order 2 in the quaternion group
    assert sum(1 for k in q8.element_orders if k == 2) == 1
    ea = builtin("EA(2,3)")
    assert all(k in (1, 2) for k in ea.element_orders)
    d4 = builtin("D4")  # Klein four group
    assert d4.is_abelian


@pytest.mark.parametrize("spec", ["C0", "D7", "S7", "A9", "Q32", "EA(4,2)", "foo", "",
                                  "C2xD7", "S0", "A7", "EA(2,0)", "D0"])
def test_unknown_specs(spec):
    with pytest.raises(UnknownSpec):
        builtin(spec)


@pytest.mark.parametrize("spec,count", [
    ("C6", 4),        # divisors of 6
    ("S3", 6),
    ("EA(2,2)", 5),   # 1 + 3 lines + 1
    ("S4", 30),       # 1 + 9 + 4 + 7 + 4 + 3 + 1 + 1 by order 1, 2, 3, 4, 6, 8, 12, 24
    ("A5", 59),       # 1 + 15 + 10 + 5 + 6 + 10 + 6 + 5 + 1 by order 1, 2, 3, 4, 5, 6, 10, 12, 60
    ("D32", 36),      # dihedral of order 2m has tau(m) + sigma(m): m = 16, 5 + 31
    ("D48", 68),      # m = 24, 8 + 60
    ("EA(2,4)", 67),  # sum over k of the Gaussian binomials [4 k]_2: 1 + 15 + 35 + 15 + 1
    ("EA(2,5)", 374), # [5 k]_2: 1 + 31 + 155 + 155 + 31 + 1
    ("S5", 156),
    ("C2xA5", 164),
    ("C256", 9),      # divisors of 256
    ("D128", 134),    # m = 64, 7 + 127
    ("EA(2,6)", 2825),  # [6 k]_2: 1 + 63 + 651 + 1395 + 651 + 63 + 1
    ("C2xC2xS4", 420),
    ("C4xD16", 125),
    ("C2xC2xD16", 329),
])
def test_subgroup_counts(spec, count):
    assert len(all_subgroups(builtin(spec))) == count


@pytest.mark.parametrize("spec", ["S4", "A4", "A5"])
def test_enumeration_closes_one_candidate_per_right_coset(monkeypatch, spec):
    # cyclic extension reaches a solvable G with no closure at all; A5 is not
    # solvable and is closed: <H, h*g> = <H, g>, so each subgroup H is grown
    # once per right coset Hg other than H, a sum of [G:H] - 1 closures
    G = builtin(spec)
    calls = []

    def counted(mul, seed):
        calls.append(seed)
        return _grow(mul, seed)

    monkeypatch.setattr(spq.groups, "_grow", counted)
    found = all_subgroups(G)
    closures = sum(G.order // H.order - 1 for H in found) if spec == "A5" else 0
    assert len(calls) == closures


@pytest.mark.parametrize("spec", ["C6", "S3", "D8", "Q8", "EA(2,2)", "A4",
                                  "D16", "SL2F3"])
def test_subgroups_against_brute_force(spec):
    G = builtin(spec)
    max_gens = G.order.bit_length() - 1
    oracle = brute_force_subgroups(G, max_gens)
    computed = sorted(s.members for s in all_subgroups(G))
    assert computed == oracle


def test_subgroup_invariants():
    G = builtin("S3")
    for sub in all_subgroups(G):
        assert 0 in sub
        assert G.order % sub.order == 0
        for a in sub.elements:
            assert G.inv[a] in sub
            for b in sub.elements:
                assert G.mul[a][b] in sub
    with pytest.raises(NotASubgroupInclusion):
        Subgroup(G, 0b000110)  # {1, 2} misses the identity


@pytest.mark.parametrize("spec,count", [
    ("S3", 4), ("D16", 11), ("SL2F3", 7), ("S4", 11), ("A4", 5),
])
def test_conjugacy_class_counts(spec, count):
    assert len(conjugacy_classes_of_subgroups(builtin(spec))) == count


@pytest.mark.parametrize("spec", ["S3", "D8", "Q8", "A4", "SL2F3"])
def test_orbit_sizes_match_normalizer_index(spec):
    G = builtin(spec)
    for rep, orbit in conjugacy_classes_of_subgroups(G):
        assert len(orbit) == G.order // normalizer(rep).order
        assert rep.key == min(s.key for s in orbit)


def test_index_and_errors():
    G = builtin("S3")
    subs = all_subgroups(G)
    triv = G.trivial_subgroup
    full = G.full_subgroup
    a3 = next(s for s in subs if s.order == 3)
    s2 = next(s for s in subs if s.order == 2)
    assert index(triv, triv) == 1
    assert index(triv, full) == 6
    assert index(a3, full) == 2
    with pytest.raises(NotASubgroupInclusion):
        index(a3, s2)
    with pytest.raises(NotASubgroupInclusion):
        index(full, a3)


def test_normalizer_and_core():
    S3 = builtin("S3")
    a3 = next(s for s in all_subgroups(S3) if s.order == 3)
    s2 = next(s for s in all_subgroups(S3) if s.order == 2)
    assert normalizer(a3).order == 6      # index-2 subgroups are normal
    assert normalizer(s2).order == 2
    # oracle: intersect the conjugates exhaustively
    conjugates = {S3.conjugate_mask(s2.members, g) for g in S3.elements()}
    expected = (1 << 6) - 1
    for m in conjugates:
        expected &= m
    assert core_in(s2, S3.full_subgroup).members == expected == 1

    C4 = builtin("C4")
    c2 = next(s for s in all_subgroups(C4) if s.order == 2)
    assert core_in(c2, C4.full_subgroup).members == c2.members


def test_quotient():
    C4 = builtin("C4")
    c2 = next(s for s in all_subgroups(C4) if s.order == 2)
    Q, proj = quotient(C4, c2)
    assert Q.order == 2 and proj.surjective

    S3 = builtin("S3")
    a3 = next(s for s in all_subgroups(S3) if s.order == 3)
    Q, proj = quotient(S3, a3)
    assert Q.order == 2
    # oracle: coset multiplication by brute force
    for a in S3.elements():
        for b in S3.elements():
            assert proj(S3.mul[a][b]) == Q.mul[proj(a)][proj(b)]
    s2 = next(s for s in all_subgroups(S3) if s.order == 2)
    with pytest.raises(NotNormal):
        quotient(S3, s2)
    Q, proj = quotient(S3, S3.trivial_subgroup)
    assert Q.order == 6 and proj.kernel.order == 1


def test_quotient_is_kept_per_normal_subgroup():
    S3 = builtin("S3")
    a3 = next(s for s in all_subgroups(S3) if s.order == 3)
    Q, proj = quotient(S3, a3)
    again = quotient(S3, a3)
    assert again[0] is Q and again[1] is proj
    # the checks run on every call: the same mask in another group is refused
    other = builtin("S3")
    with pytest.raises(NotASubgroupInclusion):
        quotient(S3, Subgroup(other, a3.members))
    s2 = next(s for s in all_subgroups(S3) if s.order == 2)
    for _ in range(2):
        with pytest.raises(NotNormal):
            quotient(S3, s2)


def test_hom_validation():
    C4 = builtin("C4")
    C2 = builtin("C2")
    GroupHom(C4, C2, (0, 1, 0, 1))
    with pytest.raises(ValueError):
        GroupHom(C4, C2, (0, 1, 1, 0))


@pytest.mark.parametrize("images,bad", [((0, 5), "5 of element 1"),
                                        ((0, -1), "-1 of element 1"),
                                        ((2, 0), "2 of element 0")])
def test_hom_images_must_be_target_elements(images, bad):
    C2 = builtin("C2")
    with pytest.raises(ValueError, match=f"image {bad} is out of range 0..1"):
        GroupHom(C2, C2, images)


@pytest.mark.parametrize("spec,mask", [("C2", -1), ("C2", -2), ("C4", 1 | 1 << 4),
                                       ("C4", 1 << 4), ("S3", (1 << 7) - 1)])
def test_subgroup_mask_must_lie_in_the_group(spec, mask):
    # unchecked, a negative mask would loop forever in _mask_bits and a bit
    # at or above |G| would index past the multiplication table
    with pytest.raises(NotASubgroupInclusion, match="is not a set of elements"):
        Subgroup(builtin(spec), mask)


@pytest.mark.parametrize("gspec,kspec,surj,count", [
    ("C2", "C2", False, 2),   # trivial map and identity
    ("C4", "C2", True, 1),
    ("S3", "C2", True, 1),    # the sign map
    ("S3", "C3", True, 0),
    ("C2", "C4", False, 2),
])
def test_hom_class_counts(gspec, kspec, surj, count):
    classes = enumerate_homomorphisms(builtin(gspec), builtin(kspec),
                                      surjective_only=surj)
    assert len(classes) == count


def test_hom_search_matches_exhaustive():
    # oracle: filter all set maps S3 -> C2 for the homomorphism property
    S3, C2 = builtin("S3"), builtin("C2")
    homs = []
    for img in itertools.product(range(2), repeat=6):
        if img[0] != 0:
            continue
        if all(img[S3.mul[a][b]] == C2.mul[img[a]][img[b]]
               for a in range(6) for b in range(6)):
            homs.append(img)
    classes = enumerate_homomorphisms(S3, C2)
    assert len(homs) == 2  # trivial and sign; C2 abelian, classes = maps
    assert len(classes) == 2
    assert sorted(hom.image_of for hom in classes) == sorted(homs)


def slow_hom_classes(G, K, surjective_only):
    """Independent slow path: every generator assignment, extended along words.

    Each element of G gets a shortest word in G's generators from a
    breadth-first walk; an assignment of generator images is extended
    along those words and kept when phi(ab) = phi(a) phi(b) on all |G|^2
    pairs. Maps are reduced to K-conjugacy classes by their least conjugate.
    """
    gens = [g for g in G.generators if g != 0]
    words = {0: ()}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for i, s in enumerate(gens):
                b = G.mul[a][s]
                if b not in words:
                    words[b] = words[a] + (i,)
                    nxt.append(b)
        frontier = nxt
    assert len(words) == G.order
    inverse = [next(y for y in K.elements() if K.mul[x][y] == 0) for x in K.elements()]
    found = set()
    for assignment in itertools.product(K.elements(), repeat=len(gens)):
        img = []
        for a in G.elements():
            y = 0
            for i in words[a]:
                y = K.mul[y][assignment[i]]
            img.append(y)
        if any(img[G.mul[a][b]] != K.mul[img[a]][img[b]]
               for a in G.elements() for b in G.elements()):
            continue
        if surjective_only and len(set(img)) != K.order:
            continue
        found.add(min(tuple(K.mul[K.mul[k][x]][inverse[k]] for x in img)
                      for k in K.elements()))
    return sorted(found)


def _small_hom_pairs():
    pairs = []
    for gspec in CATALOG:
        ngens = sum(1 for g in catalog_group(gspec).generators if g != 0)
        pairs += [(gspec, kspec) for kspec in CATALOG
                  if catalog_group(kspec).order ** ngens <= 5000]
    return pairs


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_small_hom_pairs()), st.booleans())
def test_hom_search_matches_slow_path(pair, surjective_only):
    G, K = (builtin(spec) for spec in pair)
    classes = enumerate_homomorphisms(G, K, surjective_only=surjective_only)
    assert [hom.image_of for hom in classes] == slow_hom_classes(G, K, surjective_only)


def test_hom_classes_relabel_invariant():
    for target in ("C2", "C4", "C6", "S3"):
        K = builtin(target)
        a = enumerate_homomorphisms(builtin("C6"), K)
        b = enumerate_homomorphisms(builtin("C2xC3"), K)
        assert len(a) == len(b)


def test_product_cap():
    with pytest.raises(ProductCapExceeded):
        enumerate_homomorphisms(builtin("S3"), builtin("C2"), product_cap=10)


def test_product_cap_bounds_the_generator_image_tuples():
    # |G|*|K| = 64 is under the cap, but 8^3 = 512 image tuples are not
    E = builtin("EA(2,3)")
    with pytest.raises(ProductCapExceeded, match="512 generator-image tuples"):
        enumerate_homomorphisms(E, E, product_cap=100)
    # 32^5 tuples are refused before any is tried
    E = builtin("EA(2,5)")
    with pytest.raises(ProductCapExceeded, match="33554432 generator-image tuples"):
        enumerate_homomorphisms(E, E)


def test_hom_search_conjugates_each_pair_of_target_elements_once(monkeypatch):
    # the inner automorphisms of K are tabulated once per search, |K|^2
    # conjugations, instead of |K| per image per homomorphism (32768 here)
    E = builtin("EA(2,3)")
    calls = []
    conjugate = FiniteGroup.conjugate

    def counted(self, g, x):
        calls.append(g)
        return conjugate(self, g, x)

    monkeypatch.setattr(FiniteGroup, "conjugate", counted)
    assert len(enumerate_homomorphisms(E, E)) == 512
    assert len(calls) <= E.order ** 2


def test_hom_search_on_the_verify_pairs():
    # exactly the (G, K) pairs whose surjections `spq verify` walks
    groups = [catalog_group(s) for s in CATALOG if catalog_group(s).order <= 16]
    pairs = [(G, K) for G in groups for K in groups if G.order % K.order == 0]
    assert len(pairs) == 101
    for surjective_only, total in ((False, 1537), (True, 416)):
        found = 0
        for G, K in pairs:
            classes = [hom.image_of for hom in
                       enumerate_homomorphisms(G, K, surjective_only=surjective_only)]
            assert classes == slow_hom_classes(G, K, surjective_only), (G.label, K.label)
            found += len(classes)
        assert found == total


def test_builtin_generators_generate():
    for spec in ("S3", "S4", "S5", "A4", "A5", "D16", "Q16", "SL2F3",
                 "C2xC6", "EA(3,2)"):
        G = builtin(spec)
        assert len(G.closure_set(G.generators)) == G.order


def test_light_associativity_path():
    # Light's test accepts the 100-element cyclic table and catches one wrong product in it
    n = 100
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    G = from_cayley_table(table, "C100")
    assert G.order == n and G.is_abelian
    table[7][13] = 14
    with pytest.raises(NotAGroup) as info:
        from_cayley_table(table, "broken")
    witness = info.value.witness
    if isinstance(witness, tuple):
        a, b, c = witness
        assert table[table[a][b]][c] != table[a][table[b][c]]


def test_hom_search_on_a_table_built_group():
    # a table-built group carries the generators its associativity test used
    table = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    G = from_cayley_table(table, "C6-table")
    assert len(G.closure_set(G.generators)) == 6
    classes = enumerate_homomorphisms(G, builtin("C2"))
    assert len(classes) == 2


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.data())
def test_generator_walk_reaches_the_closure(degree, data):
    perms = data.draw(st.lists(st.permutations(range(degree)), max_size=3))
    G = from_permutation_generators(degree, perms, "P")
    gens = data.draw(st.lists(st.integers(0, G.order - 1), max_size=4))
    assert _walk(G.mul, gens) == G.closure_set(gens)


@pytest.mark.parametrize("gens", [(2,), (), (99,), (-1,)])
def test_given_generators_must_generate(gens):
    S3 = builtin("S3")
    with pytest.raises(NotAGroup):
        FiniteGroup(S3.mul, "S3", generators=gens)


@st.composite
def derived_groups(draw):
    """(kind, group): a permutation group of degree <= 4, or a quotient,
    an embedded subgroup or a relabelled Cayley-table copy of one."""
    degree = draw(st.integers(1, 4))
    perms = draw(st.lists(st.permutations(range(degree)), max_size=3))
    G = from_permutation_generators(degree, perms, "P")
    kind = draw(st.sampled_from(("permutation", "quotient", "subgroup", "table")))
    if kind == "quotient":
        normal = [N for N in all_subgroups(G) if is_normal(N)]
        return kind, quotient(G, draw(st.sampled_from(normal)))[0]
    if kind == "subgroup":
        H = draw(st.sampled_from(all_subgroups(G))).as_group.group
        return ("permutation" if H is G else kind), H  # the full subgroup is G
    if kind == "table":
        relabel = draw(st.permutations(range(G.order)))
        table = [[0] * G.order for _ in G.elements()]
        for a in G.elements():
            for b in G.elements():
                table[relabel[a]][relabel[b]] = relabel[G.mul[a][b]]
        return kind, from_cayley_table(table, "T")
    return kind, G


@settings(max_examples=80, deadline=None)
@given(derived_groups())
def test_every_group_carries_generators(case):
    kind, G = case
    assert len(G.closure_set(G.generators)) == G.order
    # computed generators each at least double the subgroup they extend
    computed = FiniteGroup(G.mul, G.label).generators
    assert len(G.closure_set(computed)) == G.order
    assert 2 ** len(computed) <= G.order
    if kind != "permutation":
        assert G.generators == computed


@settings(max_examples=80, deadline=None)
@given(derived_groups())
def test_subgroups_of_random_groups_against_brute_force(case):
    # relabelled tables change the order in which the cosets are marked
    _, G = case
    oracle = brute_force_subgroups(G, G.order.bit_length() - 1)
    assert sorted(s.members for s in all_subgroups(G)) == oracle


def two_generated_subgroups(G):
    """Independent oracle for a group whose every subgroup is generated by two
    elements, as in S5: <a, b> over all pairs a <= b, each reached by a
    breadth-first walk of right products from the identity."""
    masks = set()
    for a in G.elements():
        for b in range(a, G.order):
            reached = {0}
            queue = [0]
            for x in queue:
                for y in (G.mul[x][a], G.mul[x][b]):
                    if y not in reached:
                        reached.add(y)
                        queue.append(y)
            masks.add(sum(1 << x for x in reached))
    return sorted(masks)


@settings(max_examples=25, deadline=None)
@given(st.permutations(range(5)), st.permutations(range(5)))
@example((1, 2, 3, 4, 0), (1, 2, 0, 3, 4))  # A5, the one group here that is closed
def test_subgroups_of_degree_five_groups_against_brute_force(p, q):
    # two random permutations of degree 5 mostly generate S5, whose closures
    # take seconds; test_subgroup_counts covers S5 once
    G = from_permutation_generators(5, [p, q], "P")
    assume(G.order < 120)
    assert sorted(s.members for s in all_subgroups(G)) == two_generated_subgroups(G)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CATALOG), st.data())
def test_closure_set_matches_fixpoint(spec, data):
    G = builtin(spec)
    seed = data.draw(st.lists(st.integers(0, G.order - 1), max_size=4))
    closure = G.closure_set(seed)
    assert sum(1 << x for x in closure) == naive_closure(G, seed)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7), st.data())
def test_grow_closes_tables_that_are_not_groups(n, data):
    # Light's test grows its set on unchecked tables, where 0 is only an identity
    table = [[i if j == 0 else j if i == 0 else data.draw(st.integers(0, n - 1))
              for j in range(n)] for i in range(n)]
    seed = data.draw(st.lists(st.integers(0, n - 1), max_size=4))
    joined, closure = _grow(table, seed)
    assert sum(1 << x for x in closure) == naive_closure(SimpleNamespace(mul=table), seed)
    assert _grow(table, joined)[1] == closure
    for i, g in enumerate(joined):
        assert g in seed and g not in _grow(table, joined[:i])[1]


SMALL_CATALOG = tuple(spec for spec in CATALOG if catalog_group(spec).order <= 16)


@pytest.mark.parametrize("gspec", SMALL_CATALOG)
def test_hom_search_ignores_which_generators(gspec):
    G = catalog_group(gspec)
    bare = FiniteGroup(G.mul, G.label)
    for kspec in SMALL_CATALOG:
        K = catalog_group(kspec)
        assert ([hom.image_of for hom in enumerate_homomorphisms(G, K)]
                == [hom.image_of for hom in enumerate_homomorphisms(bare, K)])


def test_kernel_and_composition():
    S3, C2 = builtin("S3"), builtin("C2")
    sign = enumerate_homomorphisms(S3, C2, surjective_only=True)[0]
    assert sign.kernel.order == 3
    doubled = sign.then(GroupHom.identity(C2))
    assert doubled.image_of == sign.image_of
    conj = GroupHom.conjugation(S3, 1)
    assert conj.surjective and conj.kernel.order == 1
