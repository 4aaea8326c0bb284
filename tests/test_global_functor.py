"""Transfers, double-coset restrictions, and the simple-chain decomposition."""

import collections
import tracemalloc
from fractions import Fraction

import pytest

import spq.global_functor
import spq.groups
import spq.suites
from spq import (
    ChainNotEndingAtTop,
    ChainNotInSubgroup,
    ChainVector,
    GroupHom,
    FiltrationViolation,
    Subgroup,
    all_subgroups,
    basis_vector,
    boundary,
    build_complex,
    builtin,
    chain_classes,
    conjugacy_classes_of_subgroups,
    double_coset_decomposition,
    enumerate_homomorphisms,
    is_simple,
    restrict,
    simple_decomposition,
    subgroup_lattice,
    top_slice,
    transfer,
    verify_d0_compatibility,
    verify_projective_decomposition,
)
from spq.global_functor import _fiber_keys, _same_ratios
from spq.suites import CATALOG, _check_d0_identity, catalog_group


def sub_of_order(G, order):
    return next(s for s in all_subgroups(G) if s.order == order)


def class_vectors(G, n, degree):
    classes = chain_classes(G, n)
    if degree >= len(classes):
        return []
    return [basis_vector(G, n, c.representative) for c in classes[degree]]


def test_chain_vector_normalization():
    G = builtin("S3")
    lat = subgroup_lattice(G)
    twos = [lat.id_of_mask(s.members) for s in all_subgroups(G) if s.order == 2]
    bottom = lat.id_of_mask(1)
    # conjugate chains merge into one class
    v = ChainVector(G, 6, 1, {(bottom, twos[0]): Fraction(1),
                              (bottom, twos[1]): Fraction(2)})
    assert len(v.coefficients) == 1
    assert next(iter(v.coefficients.values())) == 3
    with pytest.raises(ValueError):
        ChainVector(G, 6, 1, {(twos[0], twos[0]): Fraction(1)})
    with pytest.raises(FiltrationViolation):
        ChainVector(G, 2, 1, {(bottom, lat.top_id): Fraction(1)})


@pytest.mark.parametrize("make", [
    lambda G: ChainVector(G, 6, -1, {}),
    lambda G: basis_vector(G, 6, ()),
    lambda G: ChainVector(G, 6, 1, {(0,): Fraction(1)}),
    lambda G: basis_vector(G, 6, (0, 63)),
    lambda G: basis_vector(G, 6, (-1, 5)),
    lambda G: basis_vector(G, 6, (5, 0)),
    lambda G: basis_vector(G, 6, (1, 2)),  # two subgroups of order 2
    lambda G: verify_d0_compatibility(GroupHom.identity(G), ((63, 1),), 6),
    lambda G: verify_d0_compatibility(GroupHom.identity(G), ((),), 6),
    lambda G: verify_d0_compatibility(GroupHom.identity(G), ((0,),), 6),
    lambda G: verify_d0_compatibility(GroupHom.identity(G), ((5, 0),), 6),
])
def test_chain_validation_rejects_non_chains(make):
    with pytest.raises(ValueError):
        make(builtin("S3"))


def test_chain_validation_checks_the_level():
    S3 = builtin("S3")
    lat = subgroup_lattice(S3)
    with pytest.raises(FiltrationViolation):
        verify_d0_compatibility(GroupHom.identity(S3), ((0, lat.top_id),), 5)
    with pytest.raises(FiltrationViolation):
        basis_vector(S3, 5, (0, lat.top_id))
    assert verify_d0_compatibility(GroupHom.identity(S3), ((0, lat.top_id),), 6)


@pytest.mark.parametrize("n", [0, -3])
def test_chain_vector_rejects_a_level_below_one(n):
    with pytest.raises(ValueError, match="filtration level must be at least 1"):
        ChainVector(builtin("D8"), n, 0, {})


def test_transfer_full_group_is_identity():
    G = builtin("S3")
    lat = subgroup_lattice(G)
    v = basis_vector(G, 6, (lat.id_of_mask(1), lat.top_id))
    assert transfer(G.full_subgroup, v) == v


def test_transfer_c2_in_c4():
    C4 = builtin("C4")
    H = sub_of_order(C4, 2)
    emb = H.as_group
    sub_lat, lat = subgroup_lattice(emb.group), subgroup_lattice(C4)
    v = basis_vector(emb.group, 4, (sub_lat.id_of_mask(1), sub_lat.id_of_mask(3)))
    out = transfer(H, v)
    assert out.coefficients == {
        (lat.id_of_mask(1), lat.id_of_mask(H.members)): Fraction(2)}


def test_transfer_merges_conjugates():
    S3 = builtin("S3")
    H = sub_of_order(S3, 2)
    emb = H.as_group
    sub_lat, lat = subgroup_lattice(emb.group), subgroup_lattice(S3)
    out = transfer(H, basis_vector(emb.group, 6, (sub_lat.id_of_mask(3),)))  # [S2]
    canon = min(s.members for s in all_subgroups(S3) if s.order == 2)
    assert out.coefficients == {(lat.id_of_mask(canon),): Fraction(3)}


def test_transfer_wrong_carrier():
    S3 = builtin("S3")
    H = sub_of_order(S3, 2)
    with pytest.raises(ChainNotInSubgroup):
        transfer(H, basis_vector(builtin("C2"), 6, (0,)))


def test_restrict_identity_and_surjection():
    S3, C2 = builtin("S3"), builtin("C2")
    ident = GroupHom.identity(S3)
    for v in class_vectors(S3, 6, 1):
        assert restrict(ident, v) == v
    sign = enumerate_homomorphisms(S3, C2, surjective_only=True)[0]
    c2_lat, lat = subgroup_lattice(C2), subgroup_lattice(S3)
    v = basis_vector(C2, 6, (c2_lat.id_of_mask(1), c2_lat.id_of_mask(3)))
    out = restrict(sign, v)
    a3 = sub_of_order(S3, 3)
    assert out.coefficients == {(lat.id_of_mask(a3.members), lat.top_id): Fraction(1)}


def test_restrict_trivial_inclusion():
    C2 = builtin("C2")
    emb = C2.trivial_subgroup.as_group
    inc = GroupHom(emb.group, C2, emb.to_ambient)
    dec = double_coset_decomposition(inc, C2.trivial_subgroup)
    assert dec.representatives == (0, 1)
    lat, src_lat = subgroup_lattice(C2), subgroup_lattice(emb.group)
    out = restrict(inc, basis_vector(C2, 2, (lat.id_of_mask(1),)))
    assert out.coefficients == {(src_lat.id_of_mask(1),): Fraction(1)}


def test_restrict_fractional_coefficients():
    # inclusion C2 -> C4 on the vertex [{e}]: two cosets of weight 1/2 each
    C4 = builtin("C4")
    H = sub_of_order(C4, 2)
    emb = H.as_group
    inc = GroupHom(emb.group, C4, emb.to_ambient)
    lat, src_lat = subgroup_lattice(C4), subgroup_lattice(emb.group)
    out = restrict(inc, basis_vector(C4, 4, (lat.id_of_mask(1),)))
    assert out.coefficients == {(src_lat.id_of_mask(1),): Fraction(1)}
    # and on the vertex [C2]: both cosets pull back to the whole source
    out2 = restrict(inc, basis_vector(C4, 4, (lat.id_of_mask(H.members),)))
    assert out2.coefficients == {(src_lat.id_of_mask(3),): Fraction(1)}


def restrict_reference(psi, v):
    """``restrict`` from its formula, on member masks, with every double coset
    walked afresh; the pulled-back chains become ids only at the end."""
    G, K = psi.source, psi.target
    out = {}
    for ids, coeff in v.coefficients.items():
        masks = subgroup_lattice(K).masks(ids)
        base = Subgroup(K, masks[0])
        for k in double_coset_decomposition(psi, base).representatives:
            pulled = tuple(psi.preimage_mask(K.conjugate_mask(m, k)) for m in masks)
            if any(a == b for a, b in zip(pulled, pulled[1:])):
                continue
            weight = Fraction(G.order // pulled[0].bit_count(),
                              K.order // masks[0].bit_count())
            out[pulled] = out.get(pulled, 0) + coeff * weight
    lat = subgroup_lattice(G)
    return ChainVector(G, v.n, v.degree, {
        tuple(lat.id_of_mask(m) for m in pulled): c for pulled, c in out.items()})


@pytest.mark.parametrize("spec", ["S3", "D8", "A4"])
def test_restriction_memo_on_inclusions(spec):
    # an inclusion of a proper subgroup has several double cosets; one psi
    # serves every vector, whatever its bottom subgroup, and must agree with
    # a fresh hom (empty memo) and with the formula
    K = builtin(spec)
    for H, _ in conjugacy_classes_of_subgroups(K)[1:-1]:
        emb = H.as_group
        psi = GroupHom(emb.group, K, emb.to_ambient)
        for degree in (0, 1, 2):
            for v in class_vectors(K, K.order, degree):
                fresh = GroupHom(psi.source, K, psi.image_of)
                assert restrict(psi, v) == restrict(fresh, v)
                assert restrict(psi, v) == restrict_reference(psi, v)


def test_d0_identity_builds_once_per_target(monkeypatch):
    built = []
    decomposed = collections.Counter()
    homs = []  # keeps every psi alive, so ids stay distinct
    chain_classes_ = spq.suites.chain_classes
    decompose = spq.global_functor.double_coset_decomposition

    def counted_classes(G, n):
        built.append(G)
        return chain_classes_(G, n)

    def counted_decompose(hom, base):
        homs.append(hom)
        decomposed[id(hom), base.members] += 1
        return decompose(hom, base)

    monkeypatch.setattr(spq.suites, "chain_classes", counted_classes)
    monkeypatch.setattr(spq.global_functor, "double_coset_decomposition",
                        counted_decompose)
    result = _check_d0_identity()
    assert result[0].passed and result[0].computed == "20949 checks OK"
    assert len(built) == len({id(G) for G in built}) == 17
    assert max(decomposed.values()) == 1


@pytest.mark.parametrize("spec", ["S3", "D8", "A4", "S4"])
def test_d0_compatibility_on_inclusions_and_identity(spec):
    # an inclusion has several double cosets, so faces of distinct pullbacks
    # merge; in S4 the face of a least chain need not be least itself
    K = builtin(spec)
    homs = [GroupHom.identity(K)]
    for H, _ in conjugacy_classes_of_subgroups(K)[1:-1]:
        emb = H.as_group
        homs.append(GroupHom(emb.group, K, emb.to_ambient))
    for psi in homs:
        for level in chain_classes(K, K.order)[1:3]:
            for cls in level:
                assert verify_d0_compatibility(psi, (cls.representative,), K.order)


def planted(psi, a, b):
    """A copy of psi whose cached preimages of target ids a and b are swapped."""
    _, preimage = spq.global_functor._restriction_memo(psi)
    swapped = list(preimage)
    swapped[a], swapped[b] = swapped[b], swapped[a]
    fault = GroupHom(psi.source, psi.target, psi.image_of)
    fault.__dict__["_restriction_memo"] = {None: ({}, tuple(swapped))}
    return fault


def planted_d8_onto_klein():
    # the first order-2 subgroup of C2xC2 trades preimages with the top;
    # of the three degree-2 classes only the first then breaks the identity
    psi = enumerate_homomorphisms(builtin("D8"), builtin("C2xC2"), True)[0]
    return planted(psi, 1, subgroup_lattice(psi.target).top_id)


def test_d0_batch_fails_on_a_planted_fault(monkeypatch):
    fault = planted_d8_onto_klein()
    K = fault.target
    lat = subgroup_lattice(K)
    assert lat.subgroups[1].order == 2
    chains = [cls.representative for cls in chain_classes(K, K.order)[2]]
    assert [verify_d0_compatibility(fault, (ids,), 8) for ids in chains] == [False, True, True]
    assert not verify_d0_compatibility(fault, chains, 8)
    assert verify_d0_compatibility(fault, chains[1:], 8)
    monkeypatch.setattr(spq.suites, "_surjection_pairs",
                        lambda max_order: iter([("D8", "C2xC2", fault)]))
    result, = _check_d0_identity()
    failing = [("D8", "C2xC2", lat.masks(ids))
               for level in chain_classes(K, K.order)[1:3]
               for ids in (cls.representative for cls in level)
               if not verify_d0_compatibility(fault, (ids,), 8)]
    assert ("D8", "C2xC2", lat.masks(chains[0])) in failing
    assert not result.passed and result.computed == str(failing[:3])


@pytest.mark.parametrize("spec", ["S3", "D8", "A4", "S4"])
def test_d0_batch_agrees_with_one_chain_calls(spec):
    K = builtin(spec)
    homs = [GroupHom.identity(K)]
    for H, _ in conjugacy_classes_of_subgroups(K)[1:-1]:
        emb = H.as_group
        homs.append(GroupHom(emb.group, K, emb.to_ambient))
    for G in map(catalog_group, CATALOG):
        if G.order <= 16 and G.order % K.order == 0:
            homs.extend(enumerate_homomorphisms(G, K, surjective_only=True))
    # faulty homs, so that some batches answer False
    homs.append(planted(GroupHom.identity(K), 1, subgroup_lattice(K).top_id))
    homs.append(planted_d8_onto_klein())
    for psi in homs:
        n = max(psi.source.order, psi.target.order)
        for level in chain_classes(psi.target, psi.target.order)[1:3]:
            chains = [cls.representative for cls in level]
            one_by_one = all(verify_d0_compatibility(psi, (ids,), n) for ids in chains)
            assert verify_d0_compatibility(psi, chains, n) is one_by_one


def test_d0_tail_is_expanded_on_its_own_tables():
    # a wrong pullback table planted for base id b alone: a chain whose tail
    # starts at b meets it only through the tail's own expansion, so a check
    # that read the tail side off the chain's expansion would pass it
    psi = GroupHom.identity(builtin("D8"))
    lat = subgroup_lattice(psi.target)
    b, top = 1, lat.top_id
    assert lat.subgroups[b].order == 2
    _, preimage = spq.global_functor._restriction_memo(psi)
    bad = list(preimage)
    bad[b], bad[top] = bad[top], bad[b]
    fault = GroupHom(psi.source, psi.target, psi.image_of)
    fault.__dict__["_restriction_memo"] = {None: ({b: (tuple(bad),)}, preimage)}
    for level in chain_classes(psi.target, 8)[1:3]:
        chains = [cls.representative for cls in level]
        tail_at_b = [ids for ids in chains if ids[1] == b]
        clear = [ids for ids in chains if b not in ids]
        assert tail_at_b and clear
        assert not any(verify_d0_compatibility(fault, (ids,), 8) for ids in tail_at_b)
        assert verify_d0_compatibility(fault, clear, 8)
        assert not verify_d0_compatibility(fault, chains, 8)
        assert verify_d0_compatibility(psi, chains, 8)


def test_d0_batch_rejects_an_empty_or_mixed_batch():
    S3 = builtin("S3")
    top = subgroup_lattice(S3).top_id
    with pytest.raises(ValueError):
        verify_d0_compatibility(GroupHom.identity(S3), (), 6)
    with pytest.raises(ValueError):
        verify_d0_compatibility(GroupHom.identity(S3), ((0, top), (0, 1, top)), 6)


def test_d0_identity_memory_stays_small():
    # with the catalog lattices built, the check holds only per-psi memos;
    # 0.86 MB here, and 5.04 MB once a memo keyed on chain tails was added
    for spec in CATALOG:
        if catalog_group(spec).order <= 16:
            subgroup_lattice(catalog_group(spec))
    tracemalloc.start()
    try:
        result = _check_d0_identity()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result[0].passed
    assert peak < 2 * 2**20


@pytest.mark.parametrize("lhs,lhs_den,rhs,rhs_den,same", [
    ({(0, 1): 2, (0, 2): 6}, 4, {(0, 1): 1, (0, 2): 3}, 2, True),  # equal ratios
    ({(0, 1): 1}, 2, {(0, 1): 1}, 3, False),  # equal numerators, other denominators
    ({(0, 1): 1, (0, 2): 1}, 2, {(0, 1): 1}, 2, False),  # a key on one side only
    ({(0, 1): 1}, 2, {(0, 1): 1, (0, 2): 1}, 2, False),
    ({(0, 1): 1, (0, 2): 0}, 2, {(0, 1): 2, (1, 2): 0}, 4, True),  # zeros are ignored
    ({(0, 1): 0}, 2, {}, 3, True),
])
def test_d0_sides_compare_by_cross_multiplying(lhs, lhs_den, rhs, rhs_den, same):
    assert _same_ratios(lhs, lhs_den, rhs, rhs_den) is same
    assert _same_ratios(rhs, rhs_den, lhs, lhs_den) is same


def test_double_coset_counting_identity():
    S3, C2 = builtin("S3"), builtin("C2")
    sign = enumerate_homomorphisms(S3, C2, surjective_only=True)[0]
    homs = [sign, GroupHom.identity(S3)]
    H = sub_of_order(S3, 2)
    emb = H.as_group
    homs.append(GroupHom(emb.group, S3, emb.to_ambient))
    for psi in homs:
        K = psi.target
        for sub, _ in conjugacy_classes_of_subgroups(K):
            dec = double_coset_decomposition(psi, sub)
            sizes = [len(o) for o in dec.orbits]
            assert sum(sizes) == K.order
            for rep, size in zip(dec.representatives, sizes):
                pre = psi.preimage_mask(K.conjugate_mask(sub.members, rep))
                assert size == psi.source.order * sub.order // pre.bit_count()


def double_cosets_by_brute_force(psi, base):
    """im(psi)\\K/base from every product a k h, least element first."""
    K = psi.target
    image = set(psi.image_of)
    orbits = {tuple(sorted({K.mul[K.mul[a][k]][h] for a in image for h in base.elements}))
              for k in K.elements()}
    return tuple(sorted(orbits))


def test_double_cosets_match_brute_force():
    # surjections have one coset; inclusions of proper subgroups take the
    # general path
    surjections = [psi for _, _, psi in spq.suites._surjection_pairs(8)]
    inclusions = []
    for spec in ("S3", "D8", "A4"):
        K = builtin(spec)
        for H in all_subgroups(K)[:-1]:
            emb = H.as_group
            inclusions.append(GroupHom(emb.group, K, emb.to_ambient))
    assert all(psi.surjective for psi in surjections)
    assert not any(psi.surjective for psi in inclusions)
    for psi in surjections + inclusions:
        for base in all_subgroups(psi.target):
            dec = double_coset_decomposition(psi, base)
            orbits = double_cosets_by_brute_force(psi, base)
            assert dec.orbits == orbits
            assert dec.representatives == tuple(orbit[0] for orbit in orbits)


def test_boundary_operator():
    S3 = builtin("S3")
    lat = subgroup_lattice(S3)
    bottom, s2 = lat.id_of_mask(1), lat.id_of_mask(sub_of_order(S3, 2).members)
    v = basis_vector(S3, 6, (bottom, s2, lat.top_id))
    dv = boundary(v)
    canon2 = lat.canonical((bottom, s2))
    assert dv.coefficients[lat.canonical((s2, lat.top_id))] == 1
    assert dv.coefficients[(bottom, lat.top_id)] == -1
    assert dv.coefficients[canon2] == 1
    with pytest.raises(ValueError):
        boundary(basis_vector(S3, 6, (bottom,)))


def test_transfer_commutes_with_boundary():
    for spec, order in (("C4", 2), ("S3", 2), ("S3", 3), ("D8", 4), ("Q8", 4)):
        G = builtin(spec)
        H = sub_of_order(G, order)
        for degree in (1, 2):
            for v in class_vectors(H.as_group.group, G.order, degree):
                assert boundary(transfer(H, v)) == transfer(H, boundary(v))


def test_restrict_commutes_with_boundary():
    cases = []
    S3, C2, C4, C8 = (builtin(s) for s in ("S3", "C2", "C4", "C8"))
    cases.append(enumerate_homomorphisms(S3, C2, True)[0])
    cases.append(enumerate_homomorphisms(C8, C4, True)[0])
    H = sub_of_order(C4, 2)
    emb = H.as_group
    cases.append(GroupHom(emb.group, C4, emb.to_ambient))
    for psi in cases:
        n = max(psi.source.order, psi.target.order)
        for degree in (1, 2):
            for v in class_vectors(psi.target, n, degree):
                assert boundary(restrict(psi, v)) == restrict(psi, boundary(v))


def test_inner_automorphisms_act_trivially():
    for spec in ("S3", "Q8"):
        G = builtin(spec)
        for g in G.elements():
            conj = GroupHom.conjugation(G, g)
            for v in class_vectors(G, G.order, 1):
                assert restrict(conj, v) == v


def test_restriction_functoriality():
    C8, C4, C2 = builtin("C8"), builtin("C4"), builtin("C2")
    phi = enumerate_homomorphisms(C8, C4, True)[0]
    psi = enumerate_homomorphisms(C4, C2, True)[0]
    for degree in (0, 1):
        for v in class_vectors(C2, 8, degree):
            assert restrict(phi.then(psi), v) == restrict(phi, restrict(psi, v))


@pytest.mark.parametrize("gspec,kspec", [("C4", "C2"), ("S3", "C2"), ("D8", "C2xC2")])
def test_d0_compatibility_surjections(gspec, kspec):
    G, K = builtin(gspec), builtin(kspec)
    for cls_level in chain_classes(K, K.order)[1:3]:
        for cls in cls_level:
            for hom in enumerate_homomorphisms(G, K, surjective_only=True):
                assert verify_d0_compatibility(hom, (cls.representative,), G.order)


def test_d0_compatibility_identity_and_nonsurjective():
    C4 = builtin("C4")
    ident = GroupHom.identity(C4)
    for cls in chain_classes(C4, 4)[1]:
        assert verify_d0_compatibility(ident, (cls.representative,), 4)
    # trivial map C4 -> C2 needs the degenerate bookkeeping to balance
    C2 = builtin("C2")
    lat = subgroup_lattice(C2)
    trivial = GroupHom(C4, C2, (0, 0, 0, 0))
    assert verify_d0_compatibility(trivial, ((lat.id_of_mask(1), lat.id_of_mask(3)),), 4)


def test_is_simple():
    S3 = builtin("S3")
    lat = subgroup_lattice(S3)
    bottom = lat.id_of_mask(1)
    s2 = lat.id_of_mask(sub_of_order(S3, 2).members)
    a3 = lat.id_of_mask(sub_of_order(S3, 3).members)
    assert is_simple(S3, (bottom, s2, lat.top_id))
    assert not is_simple(S3, (a3, lat.top_id))
    assert is_simple(S3, (bottom, lat.top_id))
    C4 = builtin("C4")
    c4_lat = subgroup_lattice(C4)
    c2 = c4_lat.id_of_mask(sub_of_order(C4, 2).members)
    assert not is_simple(C4, (c2, c4_lat.top_id))


def test_simple_decomposition():
    C4 = builtin("C4")
    lat = subgroup_lattice(C4)
    c2 = sub_of_order(C4, 2)
    c2_id = lat.id_of_mask(c2.members)
    N, image, proj = simple_decomposition(C4, (c2_id, lat.top_id))
    assert N.members == c2.members
    assert proj.target.order == 2
    q_lat = subgroup_lattice(proj.target)
    assert image == (q_lat.id_of_mask(1), q_lat.id_of_mask(3))
    with pytest.raises(ChainNotEndingAtTop):
        simple_decomposition(C4, (lat.id_of_mask(1), c2_id))


@pytest.mark.parametrize("ids", [(-2, 5), (5, 5), (-1, 5), (99,), ()])
def test_simple_chain_checks_reject_bad_ids(ids):
    S3 = builtin("S3")
    assert subgroup_lattice(S3).top_id == 5
    with pytest.raises(ValueError):
        is_simple(S3, ids)
    with pytest.raises(ValueError):
        simple_decomposition(S3, ids)


@pytest.mark.parametrize("spec,n,k", [
    ("C4", 4, 1), ("S3", 6, 1), ("C1", 1, 0),
    ("C2xC2", 4, 1), ("D8", 8, 2), ("Q8", 8, 2),
])
def test_projective_decomposition(spec, n, k):
    assert verify_projective_decomposition(builtin(spec), n, k)


@pytest.mark.parametrize("spec", ["C4", "C2xC2", "S3", "D8"])
def test_fiber_keys_cover_every_reduced_class(spec):
    G = builtin(spec)
    seen, expected = _fiber_keys(G, G.order)
    assert [len(keys) for keys in seen] == [len(b) for b in top_slice(build_complex(G, G.order)).bases]
    assert all(k < len(seen) for k in expected)
    assert all(keys == expected[k] for k, keys in enumerate(seen))


def test_fiber_suite_compares_every_degree(monkeypatch):
    # one expected pair a degree above every class of G must fail the check
    def with_a_higher_pair(G, n):
        seen, expected = _fiber_keys(G, n)
        expected[len(seen)].add((1, (0,)))
        return seen, expected

    monkeypatch.setattr(spq.suites, "_fiber_keys", with_a_higher_pair)
    results = spq.suites._check_projective_decomposition()
    assert results and not any(r.passed for r in results)


def test_fiber_check_builds_each_quotient_once(monkeypatch):
    # 133 quotient calls cover 17 (group, normal subgroup) pairs of C4, C2xC2, S3, D8
    monkeypatch.setattr(spq.suites, "_GROUP_CACHE", {})  # groups no earlier test touched
    built = []
    left_cosets = spq.groups.left_cosets
    monkeypatch.setattr(spq.groups, "left_cosets",
                        lambda H: built.append(H.members) or left_cosets(H))
    assert all(r.passed for r in spq.suites._check_projective_decomposition())
    assert len(built) == 17


def test_projective_decomposition_fails_on_extra_pairs(monkeypatch):
    # counting every quotient class as simple adds pairs no class of G meets
    monkeypatch.setattr(spq.global_functor, "is_simple", lambda Q, ids: True)
    assert not verify_projective_decomposition(builtin("D8"), 8, 1)


@pytest.mark.parametrize("k", [-1, -2])
def test_projective_decomposition_rejects_a_negative_degree(k):
    with pytest.raises(ValueError):
        verify_projective_decomposition(builtin("D8"), 8, k)


def test_proper_top_classes_are_transfers():
    # every class with top H < G is [G:H]^-1 times a transfer from H
    G = builtin("D8")
    lat = subgroup_lattice(G)
    for level in chain_classes(G, G.order):
        for cls in level:
            masks = lat.masks(cls.representative)
            if masks[-1] == (1 << G.order) - 1:
                continue
            top = next(s for s in all_subgroups(G) if s.members == masks[-1])
            emb = top.as_group
            sub_lat = subgroup_lattice(emb.group)
            sub_ids = tuple(sub_lat.id_of_mask(
                sum(1 << emb.from_ambient[b] for b in range(G.order) if m >> b & 1))
                for m in masks)
            lifted = transfer(top, basis_vector(emb.group, G.order, sub_ids))
            assert lifted == basis_vector(G, G.order, cls.representative,
                                          G.order // top.order)
