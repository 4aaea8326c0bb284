"""Fixed-point partition posets, interval posets, and order-complex homology."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import poset_from_predicate
from test_homology import dense_rank_oracle

from spq import (
    GSet,
    Poset,
    NotASubgroupInclusion,
    SizeCapExceeded,
    all_subgroups,
    builtin,
    check_transitive_iso,
    conjugacy_classes_of_subgroups,
    fixed_partition_poset,
    interval_poset,
    invariant_partitions,
    is_normal,
    reduced_betti_of_order_complex,
    subgroup_conjugation_action,
)
from spq import partition
from spq.partition import _reduced_betti_augmented
from spq.suites import CATALOG, catalog_group


def naive_invariant_partitions(M):
    """Oracle: filter every set partition for invariance (sizes <= 8)."""
    points = range(M.size)
    out = []

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for sub in partitions(rest):
            for i in range(len(sub)):
                yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]
            yield [[first]] + sub

    perms = [M.action[g] for g in M.group.elements()]
    for part in partitions(list(points)):
        canon = {frozenset(b) for b in part}
        if all({frozenset(p[x] for x in b) for b in canon} == canon for p in perms):
            out.append(tuple(sorted(tuple(sorted(b)) for b in canon)))
    return sorted(set(out))


def refines(p, q):
    """Reference order: every block of p lies inside one block of q."""
    containing = {}
    for block in q:
        for x in block:
            containing[x] = block
    return all(set(block) <= set(containing[block[0]]) for block in p)


def sub_of_order(G, order):
    return next(s for s in all_subgroups(G) if s.order == order)


def test_gset_validation():
    C2 = builtin("C2")
    with pytest.raises(ValueError):
        GSet(C2, 2, ((0, 1), (0, 1), (1, 0)))
    with pytest.raises(ValueError):
        GSet(C2, 2, ((1, 0), (0, 1)))  # identity must act trivially
    M = GSet.regular(C2)
    assert M.orbits == ((0, 1),)
    assert M.stabilizer(0).order == 1
    assert M.is_isotypical


def test_gset_must_be_a_homomorphism():
    # each row is still a permutation, but no automorphism of S3 swaps just two elements
    action = list(GSet.regular(builtin("S3")).action)
    action[1], action[2] = action[2], action[1]
    with pytest.raises(ValueError, match="not a homomorphism"):
        GSet(builtin("S3"), 6, tuple(action))


def test_regular_s3_poset_is_antichain():
    P = fixed_partition_poset(GSet.regular(builtin("S3")))
    assert len(P) == 4
    assert all(m == 0 for m in P.lt_masks)


def test_mixed_gset_single_partition():
    C2 = builtin("C2")
    M = GSet.disjoint_union([GSet.trivial(C2, 1), GSet.regular(C2)])
    P = fixed_partition_poset(M)
    assert P.elements == (((0,), (1, 2)),)
    assert not M.is_isotypical


def test_two_point_trivial_poset_empty():
    P = fixed_partition_poset(GSet.trivial(builtin("C1"), 2))
    assert len(P) == 0


def test_size_cap():
    with pytest.raises(SizeCapExceeded):
        fixed_partition_poset(GSet.trivial(builtin("C1"), 5), size_cap=4)
    G = builtin("D16")
    with pytest.raises(SizeCapExceeded):
        check_transitive_iso(G, G.trivial_subgroup, size_cap=8)


def test_partition_cap_counts_the_trivial_partitions(monkeypatch):
    # Bell(4) = 15 partitions of four points, the trivial two included
    M = GSet.trivial(builtin("C1"), 4)
    monkeypatch.setattr(partition, "PARTITION_CAP", 15)
    assert len(invariant_partitions(M)) == 15
    monkeypatch.setattr(partition, "PARTITION_CAP", 14)
    with pytest.raises(SizeCapExceeded, match="more than 14"):
        invariant_partitions(M)


def _mixed_c4():
    G = builtin("C4")
    return GSet.disjoint_union([GSet.trivial(G, 2), GSet.regular(G)])


def _double_c2():
    G = builtin("C2")
    return GSet.disjoint_union([GSet.regular(G), GSet.regular(G),
                                GSet.trivial(G, 2)])


def _d8_cosets():
    G = builtin("D8")
    return GSet.from_cosets(G, sub_of_order(G, 2))


@pytest.mark.parametrize("build", [
    lambda: GSet.regular(builtin("S3")),
    lambda: GSet.regular(builtin("C4")),
    _mixed_c4,
    _double_c2,
    _d8_cosets,
])
def test_invariant_partitions_match_naive_filter(build):
    M = build()
    assert M.size <= 8
    assert invariant_partitions(M) == naive_invariant_partitions(M)


@st.composite
def small_gsets(draw, max_size):
    """A catalog group and a sum of regular, trivial and coset terms of at most max_size points."""
    G = catalog_group(draw(st.sampled_from(CATALOG)))
    parts, size = [], 0
    while size < max_size:
        room = max_size - size
        kind = draw(st.sampled_from(["regular", "trivial", "coset"]))
        if kind == "regular" and G.order <= room:
            part = GSet.regular(G)
        elif kind == "trivial":
            part = GSet.trivial(G, draw(st.integers(1, room)))
        else:
            fits = [H for H in all_subgroups(G) if G.order // H.order <= room]
            part = GSet.from_cosets(G, draw(st.sampled_from(fits)))
        parts.append(part)
        size += part.size
        if draw(st.booleans()):
            break
    return GSet.disjoint_union(parts)


# random draws stop at 6 points, where the pairwise reference takes 0.1 s;
# the 7-point examples include trivial:7, the most partitions (875) at 7 points
@settings(max_examples=60, deadline=None)
@given(small_gsets(max_size=6))
@example(GSet.trivial(catalog_group("S3"), 7))
@example(GSet.disjoint_union([GSet.regular(catalog_group("C3")),
                              GSet.from_cosets(catalog_group("C3"),
                                               catalog_group("C3").trivial_subgroup),
                              GSet.trivial(catalog_group("C3"), 1)]))
@example(GSet.disjoint_union([GSet.trivial(catalog_group("C2"), 1),
                              GSet.regular(catalog_group("C2"))]))
def test_refinement_masks_match_pairwise_reference(M):
    P = fixed_partition_poset(M)
    assert P.lt_masks == poset_from_predicate(P.elements, refines).lt_masks


def test_interval_posets():
    S3 = builtin("S3")
    P = interval_poset(S3, S3.trivial_subgroup)
    assert len(P) == 4 and all(m == 0 for m in P.lt_masks)
    C4 = builtin("C4")
    assert len(interval_poset(C4, C4.trivial_subgroup)) == 1
    C2 = builtin("C2")
    assert len(interval_poset(C2, C2.trivial_subgroup)) == 0
    closed = interval_poset(C4, C4.trivial_subgroup, lower_closed=True)
    assert len(closed) == 2
    with pytest.raises(NotASubgroupInclusion):
        interval_poset(S3, C4.trivial_subgroup)


@pytest.mark.parametrize("spec", CATALOG)
def test_interval_poset_matches_pairwise_reference(spec):
    G = catalog_group(spec)
    subs = all_subgroups(G)
    full = G.full_subgroup.members
    for H in subs:
        for lower_closed in (False, True):
            elems = [K for K in subs if K.members & H.members == H.members
                     and (lower_closed or K != H) and K.members != full]
            ref = poset_from_predicate(elems, lambda a, b: a != b
                                       and a.members & b.members == a.members)
            P = interval_poset(G, H, lower_closed)
            assert (P.elements, P.lt_masks) == (ref.elements, ref.lt_masks)


@pytest.mark.parametrize("spec", CATALOG)
def test_conjugation_action_matches_conjugate_mask_reference(spec):
    G = catalog_group(spec)
    for N in all_subgroups(G):
        if not is_normal(N):
            continue
        for lower_closed in (False, True):
            P = interval_poset(G, N, lower_closed=lower_closed)
            pos = {K.members: i for i, K in enumerate(P.elements)}
            ref = {tuple(pos[G.conjugate_mask(K.members, g)] for K in P.elements)
                   for g in G.elements()} - {tuple(range(len(P)))}
            assert subgroup_conjugation_action(G, P) == tuple(sorted(ref))


def test_conjugation_action_rejects_a_poset_that_is_not_invariant():
    G = builtin("S3")
    P = interval_poset(G, sub_of_order(G, 2), lower_closed=True)
    with pytest.raises(ValueError, match="not closed under conjugation"):
        subgroup_conjugation_action(G, P)


def _drop_relation(P):
    i = next(i for i, m in enumerate(P.lt_masks) if m)
    masks = list(P.lt_masks)
    masks[i] &= masks[i] - 1
    return Poset(P.elements, tuple(masks))


def _drop_element(P):
    return Poset(P.elements[1:], tuple(m >> 1 for m in P.lt_masks[1:]))


def _replace_element(P):
    discrete = tuple((x,) for x in range(sum(map(len, P.elements[0]))))
    return Poset((discrete,) + P.elements[1:], P.lt_masks)


@pytest.mark.parametrize("damage", [_drop_relation, _drop_element, _replace_element])
def test_transitive_iso_rejects_a_damaged_fixed_poset(monkeypatch, damage):
    G = builtin("D8")
    H = G.trivial_subgroup
    assert check_transitive_iso(G, H)
    original = partition.fixed_partition_poset
    monkeypatch.setattr(partition, "fixed_partition_poset",
                        lambda M, size_cap: damage(original(M, size_cap)))
    assert not check_transitive_iso(G, H)


@pytest.mark.parametrize("spec", ["S3", "C4", "C2xC2", "Q8"])
def test_transitive_iso_roster(spec):
    G = builtin(spec)
    for rep, _ in conjugacy_classes_of_subgroups(G):
        if G.order // rep.order <= 8:
            assert check_transitive_iso(G, rep), (spec, rep.order)


def test_transitive_iso_degenerate():
    G = builtin("S3")
    assert check_transitive_iso(G, G.full_subgroup)  # both sides empty


def test_nonisotypical_gsets_are_acyclic():
    for spec in ("C2", "C3", "C4", "S3", "C2xC2"):
        G = builtin(spec)
        reps = [rep for rep, _ in conjugacy_classes_of_subgroups(G)]
        for H1, H2 in itertools.combinations(reps, 2):
            if G.order // H1.order + G.order // H2.order > 8:
                continue
            M = GSet.disjoint_union([GSet.from_cosets(G, H1),
                                     GSet.from_cosets(G, H2)])
            if M.is_isotypical:
                continue
            bm1, betti = _reduced_betti_augmented(fixed_partition_poset(M))
            assert bm1 == 0 and not any(betti), (spec, H1.order, H2.order)


@pytest.mark.parametrize("spec,expected", [
    ("EA(2,2)", [2]),
    ("EA(3,2)", [3]),
    ("EA(2,3)", [0, 8]),
])
def test_steinberg_via_order_complex(spec, expected):
    G = builtin(spec)
    P = interval_poset(G, G.trivial_subgroup)
    assert reduced_betti_of_order_complex(P) == expected


def test_single_point_poset_contractible():
    C2 = builtin("C2")
    M = GSet.disjoint_union([GSet.trivial(C2, 1), GSet.regular(C2)])
    assert reduced_betti_of_order_complex(fixed_partition_poset(M)) == [0]


def test_suspension_relation():
    # the top filtration step is the unreduced suspension of the proper part,
    # taken compatibly with conjugation on both sides
    from spq import compute_report
    for spec in ("C2", "C4", "C6", "S3", "D8", "Q8", "A4", "SL2F3"):
        G = builtin(spec)
        proper = interval_poset(G, G.trivial_subgroup)
        action = subgroup_conjugation_action(G, proper)
        bm1, betti = _reduced_betti_augmented(proper, action)
        pi = compute_report(G, G.order - 1).pi
        expected = [1 + bm1] + list(betti)
        length = max(len(pi), len(expected))
        assert tuple(expected + [0] * (length - len(expected))) == \
            tuple(list(pi) + [0] * (length - len(pi))), spec


def test_order_complex_chain_cap():
    G = builtin("EA(2,3)")
    P = interval_poset(G, G.trivial_subgroup)
    with pytest.raises(SizeCapExceeded):
        reduced_betti_of_order_complex(P, chain_cap=5)
    three = poset_from_predicate(range(3), lambda a, b: a < b)  # 7 chains
    assert _reduced_betti_augmented(three, chain_cap=7) == (0, [0, 0, 0])
    with pytest.raises(SizeCapExceeded):
        _reduced_betti_augmented(three, chain_cap=6)


ANTICHAIN3 = Poset(range(3), (0, 0, 0))
CHAIN3 = poset_from_predicate(range(3), lambda a, b: a < b)


@pytest.mark.parametrize("P,action,message", [
    (ANTICHAIN3, ((1, 2, 0),), "not closed under composition"),
    (CHAIN3, ((1, 0, 2),), "does not preserve the order"),
    (CHAIN3, ((0, 0, 1),), "not a permutation"),
    (CHAIN3, ((2, 1, 0),), "does not preserve the order"),
    (CHAIN3, ((0, 1),), "not a permutation"),
])
def test_order_complex_rejects_invalid_actions(P, action, message):
    with pytest.raises(ValueError, match=message):
        reduced_betti_of_order_complex(P, action)


def test_order_complex_of_a_valid_action():
    # C3 rotating three points: the quotient is a single point
    assert reduced_betti_of_order_complex(ANTICHAIN3) == [2]
    assert reduced_betti_of_order_complex(ANTICHAIN3, ((1, 2, 0), (2, 0, 1))) == [0]


PAIRS = list(itertools.combinations(range(7), 2))


def _poset_from_edges(size, edges):
    """Strict order on range(size) generated by the masked pairs i < j."""
    lt = {(i, j) for b, (i, j) in enumerate(PAIRS) if edges >> b & 1 and j < size}
    for k in range(size):  # Warshall closure; k runs outermost
        lt |= {(i, j) for i in range(size) for j in range(size)
               if (i, k) in lt and (k, j) in lt}
    return poset_from_predicate(range(size), lambda a, b: (a, b) in lt)


def _augmented_betti_oracle(P):
    """Reduced Betti numbers from the plain augmented order complex, densely."""
    ids = range(len(P))  # P's order refines the natural order of the ids
    bases = [[()]]
    for size in range(1, len(P) + 1):
        level = [c for c in itertools.combinations(ids, size)
                 if all(P.lt(a, b) for a, b in zip(c, c[1:]))]
        if not level:
            break
        bases.append(level)
    ranks = [0] * (len(bases) + 1)
    for k in range(1, len(bases)):
        rows = {c: i for i, c in enumerate(bases[k - 1])}
        dense = [[0] * len(bases[k]) for _ in rows]
        for col, chain in enumerate(bases[k]):
            for i in range(len(chain)):
                dense[rows[chain[:i] + chain[i + 1:]]][col] += (-1) ** i
        ranks[k] = dense_rank_oracle(dense)
    betti = [len(b) - ranks[k] - ranks[k + 1] for k, b in enumerate(bases)]
    return betti[0], betti[1:]


@given(st.integers(0, 7), st.integers(0, (1 << len(PAIRS)) - 1))
@example(0, 0)  # empty poset
@example(5, 0b1)  # an edge and three isolated points
@example(6, 1 << PAIRS.index((0, 1)) | 1 << PAIRS.index((1, 2))
         | 1 << PAIRS.index((3, 4)) | 1 << PAIRS.index((3, 5)))  # two trees
def test_order_complex_matches_dense_oracle(size, edges):
    P = _poset_from_edges(size, edges)
    bm1, betti = _reduced_betti_augmented(P)
    assert (bm1, betti) == _augmented_betti_oracle(P)
