"""Transfers, double-coset restrictions, and the simple-chain decomposition."""

import collections
from fractions import Fraction

import pytest

import spq.global_functor
import spq.suites
from spq import (
    COINVARIANT,
    ChainNotEndingAtTop,
    ChainNotInSubgroup,
    ChainVector,
    GroupHom,
    FiltrationViolation,
    Subgroup,
    all_subgroups,
    basis_vector,
    boundary,
    builtin,
    chain_classes,
    conjugacy_classes_of_subgroups,
    double_coset_decomposition,
    enumerate_homomorphisms,
    is_simple,
    restrict,
    simple_decomposition,
    subgroup_lattice,
    transfer,
    verify_d0_compatibility,
    verify_projective_decomposition,
)
from spq.suites import _check_d0_identity


def sub_of_order(G, order):
    return next(s for s in all_subgroups(G) if s.order == order)


def full_mask(G):
    return (1 << G.order) - 1


def class_vectors(G, n, degree):
    lat = subgroup_lattice(G)
    classes = chain_classes(G, n, COINVARIANT)
    if degree >= len(classes):
        return []
    return [basis_vector(G, n, lat.masks(c.representative))
            for c in classes[degree]]


def test_chain_vector_normalization():
    G = builtin("S3")
    lat = subgroup_lattice(G)
    twos = [s.members for s in all_subgroups(G) if s.order == 2]
    # conjugate chains merge into one class
    v = ChainVector(G, 6, 1, {(1, twos[0]): Fraction(1), (1, twos[1]): Fraction(2)})
    assert len(v.coefficients) == 1
    assert next(iter(v.coefficients.values())) == 3
    with pytest.raises(ValueError):
        ChainVector(G, 6, 1, {(twos[0], twos[0]): Fraction(1)})
    with pytest.raises(FiltrationViolation):
        ChainVector(G, 2, 1, {(1, full_mask(G)): Fraction(1)})


def test_transfer_full_group_is_identity():
    G = builtin("S3")
    v = basis_vector(G, 6, (1, full_mask(G)))
    assert transfer(G.full_subgroup, v) == v


def test_transfer_c2_in_c4():
    C4 = builtin("C4")
    H = sub_of_order(C4, 2)
    emb = H.as_group
    v = basis_vector(emb.group, 4, (1, 3))
    out = transfer(H, v)
    assert out.coefficients == {(1, H.members): Fraction(2)}


def test_transfer_merges_conjugates():
    S3 = builtin("S3")
    H = sub_of_order(S3, 2)
    emb = H.as_group
    out = transfer(H, basis_vector(emb.group, 6, (3,)))  # the vertex [S2]
    canon = min(s.members for s in all_subgroups(S3) if s.order == 2)
    assert out.coefficients == {(canon,): Fraction(3)}


def test_transfer_wrong_carrier():
    S3 = builtin("S3")
    H = sub_of_order(S3, 2)
    with pytest.raises(ChainNotInSubgroup):
        transfer(H, basis_vector(builtin("C2"), 6, (1,)))


def test_restrict_identity_and_surjection():
    S3, C2 = builtin("S3"), builtin("C2")
    ident = GroupHom.identity(S3)
    for v in class_vectors(S3, 6, 1):
        assert restrict(ident, v) == v
    sign = enumerate_homomorphisms(S3, C2, surjective_only=True)[0]
    v = basis_vector(C2, 6, (1, 3))
    out = restrict(sign, v)
    a3 = sub_of_order(S3, 3)
    assert out.coefficients == {(a3.members, full_mask(S3)): Fraction(1)}


def test_restrict_trivial_inclusion():
    C2 = builtin("C2")
    emb = C2.trivial_subgroup.as_group
    inc = GroupHom(emb.group, C2, emb.to_ambient)
    dec = double_coset_decomposition(inc, C2.trivial_subgroup)
    assert dec.representatives == (0, 1)
    out = restrict(inc, basis_vector(C2, 2, (1,)))
    assert out.coefficients == {(1,): Fraction(1)}


def test_restrict_fractional_coefficients():
    # inclusion C2 -> C4 on the vertex [{e}]: two cosets of weight 1/2 each
    C4 = builtin("C4")
    H = sub_of_order(C4, 2)
    emb = H.as_group
    inc = GroupHom(emb.group, C4, emb.to_ambient)
    out = restrict(inc, basis_vector(C4, 4, (1,)))
    assert out.coefficients == {(1,): Fraction(1)}
    # and on the vertex [C2]: both cosets pull back to the whole source
    out2 = restrict(inc, basis_vector(C4, 4, (H.members,)))
    assert out2.coefficients == {(3,): Fraction(1)}


def restrict_reference(psi, v):
    """``restrict`` from its formula, with every double coset walked afresh."""
    G, K = psi.source, psi.target
    out = {}
    for masks, coeff in v.coefficients.items():
        base = Subgroup(K, masks[0], masks[0].bit_count())
        for k in double_coset_decomposition(psi, base).representatives:
            pulled = tuple(psi.preimage_mask(K.conjugate_mask(m, k)) for m in masks)
            if any(a == b for a, b in zip(pulled, pulled[1:])):
                continue
            weight = Fraction(G.order // pulled[0].bit_count(),
                              K.order // masks[0].bit_count())
            out[pulled] = out.get(pulled, 0) + coeff * weight
    return ChainVector(G, v.n, v.degree, out)


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

    def counted_classes(G, n, flavor):
        built.append(G)
        return chain_classes_(G, n, flavor)

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


def test_boundary_operator():
    S3 = builtin("S3")
    s2 = sub_of_order(S3, 2)
    v = basis_vector(S3, 6, (1, s2.members, full_mask(S3)))
    dv = boundary(v)
    lat = subgroup_lattice(S3)
    canon2 = lat.masks(lat.canonical((lat.id_of_mask(1), lat.id_of_mask(s2.members))))
    assert dv.coefficients[(s2.members, full_mask(S3))] == 1
    assert dv.coefficients[(1, full_mask(S3))] == -1
    assert dv.coefficients[canon2] == 1
    with pytest.raises(ValueError):
        boundary(basis_vector(S3, 6, (1,)))


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
    lat = subgroup_lattice(K)
    for cls_level in chain_classes(K, K.order, COINVARIANT)[1:3]:
        for cls in cls_level:
            masks = lat.masks(cls.representative)
            for hom in enumerate_homomorphisms(G, K, surjective_only=True):
                assert verify_d0_compatibility(hom, masks, G.order)


def test_d0_compatibility_identity_and_nonsurjective():
    C4 = builtin("C4")
    ident = GroupHom.identity(C4)
    lat = subgroup_lattice(C4)
    for cls in chain_classes(C4, 4, COINVARIANT)[1]:
        masks = lat.masks(cls.representative)
        assert verify_d0_compatibility(ident, masks, 4)
    # trivial map C4 -> C2 needs the degenerate bookkeeping to balance
    C2 = builtin("C2")
    trivial = GroupHom(C4, C2, (0, 0, 0, 0))
    assert verify_d0_compatibility(trivial, (1, 3), 4)


def test_is_simple():
    S3 = builtin("S3")
    s2 = sub_of_order(S3, 2)
    a3 = sub_of_order(S3, 3)
    assert is_simple(S3, (1, s2.members, full_mask(S3)))
    assert not is_simple(S3, (a3.members, full_mask(S3)))
    assert is_simple(S3, (1, full_mask(S3)))
    C4 = builtin("C4")
    c2 = sub_of_order(C4, 2)
    assert not is_simple(C4, (c2.members, full_mask(C4)))


def test_simple_decomposition():
    C4 = builtin("C4")
    c2 = sub_of_order(C4, 2)
    N, image, proj = simple_decomposition(C4, (c2.members, full_mask(C4)))
    assert N.members == c2.members
    assert proj.target.order == 2
    assert image == (1, 3)
    with pytest.raises(ChainNotEndingAtTop):
        simple_decomposition(C4, (1, c2.members))


@pytest.mark.parametrize("spec,n,k", [
    ("C4", 4, 1), ("S3", 6, 1), ("C1", 1, 0),
    ("C2xC2", 4, 1), ("D8", 8, 2), ("Q8", 8, 2),
])
def test_projective_decomposition(spec, n, k):
    assert verify_projective_decomposition(builtin(spec), n, k)


def test_proper_top_classes_are_transfers():
    # every class with top H < G is [G:H]^-1 times a transfer from H
    G = builtin("D8")
    lat = subgroup_lattice(G)
    for level in chain_classes(G, G.order, COINVARIANT):
        for cls in level:
            masks = lat.masks(cls.representative)
            if masks[-1] == full_mask(G):
                continue
            top = next(s for s in all_subgroups(G) if s.members == masks[-1])
            emb = top.as_group
            sub_masks = tuple(
                sum(1 << emb.from_ambient[b] for b in range(G.order) if m >> b & 1)
                for m in masks)
            lifted = transfer(top, basis_vector(emb.group, G.order, sub_masks))
            assert lifted == basis_vector(G, G.order, masks, G.order // top.order)
