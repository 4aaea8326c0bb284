"""Chain enumeration, conjugacy classes of chains, and complex assembly."""

import collections
import functools
import hashlib
import json
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import by_representative, complex_to_json_dict, matmul, with_added_entries

import spq.groups
import spq.lattice
from spq import (
    ChainVector,
    GroupHom,
    NotAComplex,
    betti_numbers,
    build_complex,
    builtin,
    chain_classes,
    chains_up_to,
    coinvariants_of_homology_oracle,
    compute_report,
    filtration_levels,
    from_permutation_generators,
    interval_poset,
    is_normal,
    level_cut,
    read_off,
    subgroup_conjugation_action,
    subgroup_lattice,
    top_slice,
    verify_d0_compatibility,
)
from spq.cli import main
from spq.homology import _dense_rank
from spq.lattice import (
    ChainClass,
    OrbitComplex,
    OrbitPoset,
    oldest_cofaces,
    orbit_classes,
    orbit_complex,
    poset_chains,
)
from spq.partition import _cone
from spq.suites import CATALOG, catalog_group

# sha256 over json.dumps(complex_to_json_dict(...), sort_keys=True) of every
# CATALOG group in catalog order, n = 1..|G|+1, coinvariant before reduced: of
# the complexes as built, in filtration order, and of the same complexes with
# each degree re-sorted by representative (``by_representative``), the order
# the bases were built in before filtration order, whose digest is unchanged
CATALOG_COMPLEXES_SHA256 = "4db5cca426faf91749ef086c93c70e127bfbd7b3e621748c200c83e414f3f373"
CATALOG_COMPLEXES_BY_REPRESENTATIVE_SHA256 = (
    "76e46a4ab10473c9e99245840a0ca4292975fd46e530a7fa8102b996c1703c65")


@pytest.fixture
def no_enumeration(monkeypatch):
    """Subgroup enumeration raises a non-ValueError, so a level check must come first."""
    def enumerated(G):
        raise LookupError(f"subgroups of {G.label} enumerated")

    monkeypatch.setattr(spq.groups, "_enumerate_subgroups", enumerated)


@pytest.mark.parametrize("use", [
    lambda G: chains_up_to(G, 0),
    lambda G: chain_classes(G, 0),
    lambda G: build_complex(G, 0),
    lambda G: compute_report(G, 0),
    lambda G: ChainVector(G, 0, 0, {}),
    lambda G: verify_d0_compatibility(GroupHom.identity(G), ((0, 1),), 0),
    lambda G: read_off(G, [4, 0]),
    lambda G: coinvariants_of_homology_oracle(G, 0),
])
def test_every_entry_point_rejects_level_zero(no_enumeration, use):
    # one check, lattice.effective_level, behind every route that takes a level,
    # made before the lattice of the fresh group is built
    with pytest.raises(ValueError, match="filtration level must be at least 1"):
        use(builtin("S3"))


def test_compute_rejects_a_bad_level_before_any_subgroup_is_enumerated(no_enumeration, capsys):
    assert main(["compute", "-n", "0", "-g", "C2xC2xS4"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: filtration level must be at least 1, got 0\n"
    assert captured.out == ""


def test_chains_level_one_is_discrete():
    G = builtin("S3")
    orders = subgroup_lattice(G).orders
    chains = chains_up_to(G, 1)
    assert len(chains) == 6
    assert all(len(c) == 1 and orders[c[-1]] // orders[c[0]] == 1 for c in chains)


def test_chains_c4_level_two():
    chains = chains_up_to(builtin("C4"), 2)
    by_degree = {}
    for c in chains:
        by_degree.setdefault(len(c) - 1, []).append(c)
    assert len(by_degree[0]) == 3
    assert len(by_degree[1]) == 2  # {e}<C2 and C2<C4
    assert 2 not in by_degree


def brute_force_chains(G, n, require_top):
    """Strict chains of member masks with total index <= n, straight from the masks."""
    masks = [s.members for s in subgroup_lattice(G).subgroups]
    full = (1 << G.order) - 1

    def extend(prefix, bottom):
        chains = []
        if not require_top or prefix[-1] == full:
            chains.append(tuple(prefix))
        for m in masks:
            if m != prefix[-1] and prefix[-1] & m == prefix[-1] \
                    and m.bit_count() <= n * bottom:
                chains.extend(extend(prefix + [m], bottom))
        return chains

    return {c for m in masks for c in extend([m], m.bit_count())}


def test_chains_s3_ending_at_top():
    G = builtin("S3")
    lat = subgroup_lattice(G)
    chains = [c for c in chains_up_to(G, 6) if c[-1] == lat.top_id]
    assert {lat.masks(c) for c in chains} == brute_force_chains(G, 6, True)
    by_degree = {}
    for c in chains:
        by_degree.setdefault(len(c) - 1, []).append(c)
    assert len(by_degree[0]) == 1
    assert len(by_degree[1]) == 5   # {e}<G, A3<G, three conjugate S2<G
    assert len(by_degree[2]) == 4   # {e}<S2<G three ways, {e}<A3<G


@pytest.mark.parametrize("require_top", [False, True])
@pytest.mark.parametrize("spec", ["S3", "D8", "Q8", "A4", "C2xC6"])
def test_chains_match_brute_force(spec, require_top):
    G = builtin(spec)
    lat = subgroup_lattice(G)
    for n in filtration_levels(G) + [G.order + 1]:
        chains = [c for c in chains_up_to(G, n) if not require_top or c[-1] == lat.top_id]
        assert len(set(chains)) == len(chains)
        assert {lat.masks(c) for c in chains} == brute_force_chains(G, n, require_top)


def test_rejects_bad_level():
    with pytest.raises(ValueError):
        chains_up_to(builtin("C4"), 0)
    with pytest.raises(ValueError):
        build_complex(builtin("C4"), -3)


def test_chain_classes_s3():
    assert [len(level) for level in chain_classes(builtin("S3"), 1)] == [4]
    reduced = top_slice(build_complex(builtin("S3"), 3)).bases
    assert [len(level) for level in reduced] == [1, 2]
    lat = subgroup_lattice(builtin("S3"))
    degree1 = {lat.masks(c.representative) for c in reduced[1]}
    orders = sorted(chain[0].bit_count() for chain in degree1)
    assert orders == [2, 3]  # one S2 class, one A3 class, both capped by S3


def test_chain_classes_trivial_group():
    assert [len(level) for level in chain_classes(builtin("C1"), 5)] == [1]


def test_orbit_sizes():
    classes = chain_classes(builtin("S3"), 6)
    by_size = sorted(c.orbit_size for c in classes[1])
    # {e}<S2 and S2<S3 have orbit size 3; {e}<A3, A3<S3 and {e}<S3 are fixed
    assert by_size == [1, 1, 1, 3, 3]


@pytest.mark.parametrize("spec", CATALOG)
def test_supersets_match_all_pairs_scan(spec):
    lat = subgroup_lattice(catalog_group(spec))
    masks = lat.masks(range(len(lat.subgroups)))
    assert lat.supersets == tuple(
        tuple(j for j, b in enumerate(masks) if j != i and a & b == a)
        for i, a in enumerate(masks))


@pytest.mark.parametrize("spec", ["C6", "S3", "D8", "Q8", "A4"])
def test_element_perms_are_conjugations(spec):
    G = builtin(spec)
    lat = subgroup_lattice(G)
    identity = tuple(range(len(lat.subgroups)))
    element_perms = [lat._conjugation_perm(g) for g in G.elements()]
    assert len(element_perms) == G.order
    for g, perm in enumerate(element_perms):
        assert lat.masks(perm) == tuple(G.conjugate_mask(s.members, g)
                                        for s in lat.subgroups)
    assert set(element_perms) == set(lat.conj_perms) | {identity}
    # g -> the conjugation by g is a homomorphism onto Gamma: equal fibers
    fiber = G.order // (len(lat.conj_perms) + 1)
    assert all(element_perms.count(p) == fiber for p in set(element_perms))


def _check_moves(P):
    """``P.moves`` against Gamma read straight from ``conj_perms`` (bit b is gamma[b])."""
    gamma = (tuple(range(len(P.orders))),) + P.conj_perms
    assert len(P.moves) == len(P.orders)
    for i, moves in enumerate(P.moves):
        images = [j for j, _ in moves]
        assert all(a < b for a, b in zip(images, images[1:]))
        union = 0
        for j, members in moves:
            assert not union & members
            union |= members
            assert members == sum(1 << b for b, perm in enumerate(gamma) if perm[i] == j)
        assert union == (1 << len(gamma)) - 1
        assert dict(moves)[i] & 1


@pytest.mark.parametrize("spec", CATALOG)
def test_moves_tabulate_the_action(spec):
    lat = subgroup_lattice(catalog_group(spec))
    _check_moves(lat)
    assert [len(moves) == 1 for moves in lat.moves] == [is_normal(s) for s in lat.subgroups]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_moves_of_random_permutation_groups_and_cones(data):
    degree = data.draw(st.sampled_from((4, 3, 2, 1)))
    gens = data.draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=2))
    G = from_permutation_generators(degree, gens, "random")
    lat = subgroup_lattice(G)
    _check_moves(lat)
    # Gamma, the image of G, is closed and every member has the same fiber
    identity = tuple(range(len(lat.subgroups)))
    gamma = set(lat.conj_perms) | {identity}
    element_perms = [lat._conjugation_perm(g) for g in G.elements()]
    assert set(element_perms) == gamma
    assert {tuple(p[i] for i in q) for p in gamma for q in gamma} == gamma
    assert len({element_perms.count(p) for p in gamma}) == 1
    sub = data.draw(st.sampled_from(lat.subgroups))
    P = interval_poset(G, sub, lower_closed=data.draw(st.booleans()))
    _check_moves(_cone(P, subgroup_conjugation_action(G, P) if is_normal(sub) else None))


@pytest.mark.parametrize("spec", ["EA(2,3)", "EA(2,5)", "C30"])
def test_gamma_of_an_abelian_group_conjugates_no_subgroup(monkeypatch, spec):
    # every generator is central, so none is conjugated and Gamma is the identity
    calls = []
    original = spq.groups.FiniteGroup.conjugate_mask

    def counted(self, mask, g):
        calls.append(g)
        return original(self, mask, g)

    monkeypatch.setattr(spq.groups.FiniteGroup, "conjugate_mask", counted)
    lat = subgroup_lattice(builtin(spec))
    assert (lat.generator_perms, lat.conj_perms, calls) == ((), (), [])
    assert spq.lattice._gamma_classes(lat) == [(tuple(range(len(lat.subgroups))), 1)]


@pytest.mark.parametrize("spec,central", [("C2xS4", 1), ("C2xC2xC2xD8", 3)])
def test_gamma_is_the_closure_over_every_generator(spec, central):
    G = builtin(spec)
    lat = subgroup_lattice(G)
    steps = tuple(lat._conjugation_perm(g) for g in G.generators)
    assert len(steps) - len(lat.generator_perms) == central
    identity = tuple(range(len(lat.subgroups)))
    gamma, queue = {identity}, [identity]
    for perm in queue:
        for step in steps:
            image = tuple(perm[i] for i in step)
            if image not in gamma:
                gamma.add(image)
                queue.append(image)
    assert gamma == set(lat.conj_perms) | {identity}
    every = types.SimpleNamespace(generator_perms=steps, orders=lat.orders,
                                  conj_perms=lat.conj_perms)
    assert spq.lattice._gamma_classes(every) == spq.lattice._gamma_classes(lat)


def test_reduced_boundary_c2():
    C = top_slice(build_complex(builtin("C2"), 2))
    assert C.dims == (1, 1)
    assert C.boundaries[1].entries == ((0, 0, 1),)


def test_boundary_squares_to_zero():
    for spec in ("C4", "C30", "S3", "D8", "Q8", "A4", "D16", "SL2F3"):
        G = builtin(spec)
        for n in filtration_levels(G):
            for C in (build_complex(G, n), top_slice(build_complex(G, n))):
                for k in range(2, len(C.bases)):
                    assert matmul(C.boundaries[k - 1], C.boundaries[k]).entries == ()


def test_face_filtration_closure():
    C = build_complex(builtin("SL2F3"), 8)
    lat = C.lattice
    for level in C.bases[1:]:
        for cls in level:
            ids = cls.representative
            for i in range(len(ids)):
                face = ids[:i] + ids[i + 1:]
                face_index = lat.orders[face[-1]] // lat.orders[face[0]]
                assert face_index <= cls.total_index


def test_basis_monotone_in_n():
    G = builtin("SL2F3")
    for cut in (lambda C: C, top_slice):
        for n in range(1, G.order + 1):
            small = cut(build_complex(G, n))
            big = cut(build_complex(G, n + 1))
            for k, level in enumerate(small.bases):
                larger = set(big.bases[k]) if k < len(big.bases) else set()
                assert set(level) <= larger


def test_clamping_above_group_order():
    G = builtin("S3")
    full = build_complex(G, 6)
    for n in (7, 9, 1000):
        C = build_complex(G, n)
        assert C.bases == full.bases
        assert C.boundaries == full.boundaries


def test_reduced_basis_is_top_slice_of_coinvariant():
    for spec in ("S3", "D8", "C30"):
        G = builtin(spec)
        lat = subgroup_lattice(G)
        full_mask = (1 << G.order) - 1
        for n in filtration_levels(G):
            coinv = chain_classes(G, n)
            red = top_slice(build_complex(G, n)).bases
            for k, level in enumerate(red):
                expected = [c for c in coinv[k]
                            if lat.masks(c.representative)[-1] == full_mask]
                assert list(level) == expected


def reference_reduced(P, n):
    """Reference reduced complex of P at level n, assembled from the full scan.

    The basis is the top-ending full-scan classes; the boundary of a class
    sums its faces i < k with alternating signs, each reduced by a full
    scan, and drops face k, which deletes the top.
    """
    bases = full_scan_classes(P, n, True)
    rows = [{cls.representative: r for r, cls in enumerate(level)} for level in bases]
    columns = [tuple({} for _ in bases[0])]
    for k in range(1, len(bases)):
        level = []
        for cls in bases[k]:
            ids, col = cls.representative, collections.Counter()
            for i in range(k):
                col[rows[k - 1][full_scan_canonical(P, ids[:i] + ids[i + 1:])]] += (-1) ** i
            level.append({r: v for r, v in col.items() if v})
        columns.append(tuple(level))
    return bases, tuple(columns)


def _check_slice_against_reference(P, n, sliced):
    bases, columns = reference_reduced(P, n)
    assert [list(level) for level in sliced.bases] == bases
    assert sliced.dims == tuple(len(level) for level in bases)
    assert sliced.columns == columns


@pytest.mark.parametrize("spec", CATALOG + ("S4", "D32", "C2xS4"))
def test_top_slice_is_the_reduced_build(spec):
    G = catalog_group(spec)
    lat = subgroup_lattice(G)
    for n in filtration_levels(G) + [G.order + 1]:
        _check_slice_against_reference(lat, min(n, G.order), top_slice(build_complex(G, n)))


@pytest.mark.parametrize("spec", ("S3", "D8", "Q8", "A4", "SL2F3", "S4"))
def test_cone_top_slice_is_the_reduced_build(spec):
    for cone in _normal_interval_cones(spec):
        _check_slice_against_reference(
            cone, 1, top_slice(orbit_complex(cone, orbit_classes(cone, 1))))


def _check_cut(cut, built):
    assert cut.bases == built.bases
    assert cut.columns == built.columns


def _check_prefix(whole, n):
    """``whole`` and its top slice are in filtration order, and the level cut at n
    of either keeps its own column dicts, with no copy."""
    for C in (whole, top_slice(whole)):
        for basis in C.bases:
            assert list(basis) == sorted(basis, key=lambda c: (c.total_index, c.representative))
        cut = level_cut(C, n)
        for cols, kept in zip(C.columns, cut.columns):
            assert all(col is own for col, own in zip(kept, cols))


@pytest.mark.parametrize("spec", CATALOG)
def test_level_cut_is_the_build_at_that_level(spec):
    # profile's gap probes rank these cuts; verify still walks every level afresh
    G = catalog_group(spec)
    whole = build_complex(G, G.order)
    for n in range(1, G.order + 2):
        built = build_complex(G, n)
        _check_cut(level_cut(whole, n), built)
        _check_cut(level_cut(top_slice(whole), n), top_slice(built))
    assert level_cut(whole, G.order) is whole


def test_a_complex_made_from_anothers_parts_starts_afresh():
    # the check's record, the slice and the table are kept per complex object
    C = build_complex(builtin("S4"), 24)
    sliced, table = top_slice(C), oldest_cofaces(C)
    assert C.checked and C.sliced is sliced and C.oldest is table
    made = OrbitComplex(C.lattice, C.bases, C.columns)
    assert not made.checked and made.sliced is None and made.oldest is None
    assert made != C and C == C
    assert top_slice(made) is not sliced and oldest_cofaces(made) is not table


def _graded_cone(cone):
    """The cone weighted 2^h at each id, h the length of the longest chain below it.

    The action preserves the order and so the weights, and a face has at
    most its chain's total index: each level of the cone's complex is a
    subcomplex, as for a subgroup lattice.
    """
    height = [0] * len(cone.orders)
    for _ in cone.orders:
        for i, above in enumerate(cone.supersets):
            for j in above:
                height[j] = max(height[j], height[i] + 1)
    return OrbitPoset(cone.supersets, tuple(2 ** h for h in height), cone.conj_perms,
                      cone.top_id)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_level_cuts_of_random_permutation_groups_and_cones(data):
    degree = data.draw(st.sampled_from((4, 3, 2, 1)))
    gens = data.draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=2))
    G = from_permutation_generators(degree, gens, "random")
    n = data.draw(st.integers(1, G.order + 1))
    whole = build_complex(G, G.order)
    _check_cut(level_cut(whole, n), build_complex(G, n))
    _check_prefix(whole, n)
    lat = subgroup_lattice(G)
    sub = data.draw(st.sampled_from(lat.subgroups))
    P = interval_poset(G, sub, lower_closed=data.draw(st.booleans()))
    cone = _graded_cone(_cone(P, subgroup_conjugation_action(G, P) if is_normal(sub) else None))
    largest = cone.orders[cone.top_id]
    n = data.draw(st.integers(1, largest))
    whole = orbit_complex(cone, orbit_classes(cone, largest))
    _check_cut(level_cut(whole, n), orbit_complex(cone, orbit_classes(cone, n)))
    _check_prefix(whole, n)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_cut_checks_its_complex_once(data):
    # a fresh complex is checked by its first cut, in one d o d product, and
    # a d o d fault planted in it is met before the cut's own premise
    degree = data.draw(st.sampled_from((4, 3, 2, 1)))
    gens = data.draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=2))
    G = from_permutation_generators(degree, gens, "random")
    sub = data.draw(st.sampled_from(subgroup_lattice(G).subgroups))
    P = interval_poset(G, sub, lower_closed=data.draw(st.booleans()))
    cone = _graded_cone(_cone(P, subgroup_conjugation_action(G, P) if is_normal(sub) else None))
    largest = cone.orders[cone.top_id]
    for make, top in ((lambda: build_complex(G, G.order), G.order),
                      (lambda: orbit_complex(cone, orbit_classes(cone, largest)), largest)):
        n = data.draw(st.integers(1, top))
        cuts = (top_slice, lambda C: level_cut(C, n))
        if data.draw(st.booleans()):
            cuts = cuts[::-1]
        C = make()
        products = []
        original = spq.lattice.check_boundaries

        def counted(X):
            if not X.checked:
                products.append(X)
            original(X)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spq.lattice, "check_boundaries", counted)
            made = [cut(C) for cut in cuts]
        assert products == [C] and C.checked and all(cut.checked for cut in made)
        if len(C.bases) < 3:
            continue
        # the two faces of a 1-chain have different weights, so lie in different
        # orbits: d_1 of a 1-chain is nonzero, and an entry added to d_2 breaks d o d
        j = data.draw(st.integers(0, len(C.bases[2]) - 1))
        index = C.bases[2][j].total_index
        row = data.draw(st.sampled_from(
            [r for r, cls in enumerate(C.bases[1]) if cls.total_index <= index]))
        planted = with_added_entries(C, 2, j, {row: 1})
        for cut in cuts:
            with pytest.raises(NotAComplex, match="d_1 after d_2 is nonzero") as info:
                cut(planted)
            assert info.value.column == j and not planted.checked


def _dense_betti(bases, columns):
    """Betti numbers dims[k] - rank d_k - rank d_{k+1}, ranks by dense elimination."""
    ranks = [0] + [_dense_rank([[col.get(r, 0) for col in columns[k]]
                                for r in range(len(bases[k - 1]))])
                   for k in range(1, len(bases))] + [0]
    return tuple(len(level) - ranks[k] - ranks[k + 1] for k, level in enumerate(bases))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_top_slice_betti_of_random_permutation_groups_match_reference(data):
    degree = data.draw(st.sampled_from((4, 3, 2, 1)))
    gens = data.draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=2))
    G = from_permutation_generators(degree, gens, "random")
    lat = subgroup_lattice(G)
    n = data.draw(st.sampled_from(filtration_levels(G) + [G.order + 1]))
    sliced = top_slice(build_complex(G, n))
    assert betti_numbers(sliced).betti == _dense_betti(*reference_reduced(lat, min(n, G.order)))
    sub = data.draw(st.sampled_from(lat.subgroups))
    P = interval_poset(G, sub, lower_closed=data.draw(st.booleans()))
    cone = _cone(P, subgroup_conjugation_action(G, P) if is_normal(sub) else None)
    sliced = top_slice(orbit_complex(cone, orbit_classes(cone, 1)))
    assert betti_numbers(sliced).betti == _dense_betti(*reference_reduced(cone, 1))


def test_one_build_per_compute_report(monkeypatch):
    calls = collections.Counter()

    def counted(name):
        original = getattr(spq.lattice, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(spq.lattice, name, wrapper)

    counted("orbit_classes")
    counted("poset_chains")
    compute_report(catalog_group("D8"), 4)
    # one class walk, and no chain is listed outside it
    assert (calls["orbit_classes"], calls["poset_chains"]) == (1, 0)


def test_degree_bound():
    for spec in ("C30", "D16", "SL2F3"):
        G = builtin(spec)
        for n in filtration_levels(G):
            C = build_complex(G, n)
            assert len(C.bases) - 1 <= max(0, min(n, G.order).bit_length() - 1)


@pytest.mark.parametrize("spec,levels", [
    ("C30", [1, 2, 3, 5, 6, 10, 15, 30]),
    ("C4", [1, 2, 4]),
    ("S3", [1, 2, 3, 6]),
])
def test_filtration_levels(spec, levels):
    G = builtin(spec)
    got = filtration_levels(G)
    assert got == levels
    assert all(G.order % l == 0 for l in got)


def test_complex_json_is_serializable():
    G = builtin("S3")
    data = complex_to_json_dict(G, 3, "coinvariant", build_complex(G, 3))
    text = json.dumps(data)
    back = json.loads(text)
    assert back["group"] == "S3"
    assert back["flavor"] == "coinvariant"
    assert [len(level) for level in back["bases"]] == [4, 4]
    total = sum(len(m["entries"]) for m in back["boundaries"])
    assert total == 8  # four edges, two faces each


def test_catalog_complexes_are_byte_stable():
    # a changed representative, orbit size or coefficient shows here; an
    # intended change is recorded in CHANGES.md with the new digest
    built, resorted = hashlib.sha256(), hashlib.sha256()
    for spec in CATALOG:
        G = catalog_group(spec)
        for n in range(1, G.order + 2):
            coinv = build_complex(G, n)
            for flavor, C in (("coinvariant", coinv), ("reduced", top_slice(coinv))):
                for digest, D in ((built, C), (resorted, by_representative(C))):
                    digest.update(json.dumps(complex_to_json_dict(G, n, flavor, D),
                                             sort_keys=True).encode())
    assert resorted.hexdigest() == CATALOG_COMPLEXES_BY_REPRESENTATIVE_SHA256
    assert built.hexdigest() == CATALOG_COMPLEXES_SHA256


def full_scan_canonical(P, ids):
    """Reference: the least image of ids under the identity and every permutation."""
    best = ids
    for perm in P.conj_perms:
        cand = tuple(perm[i] for i in ids)
        if cand < best:
            best = cand
    return best


def set_orbit(P, ids):
    return {ids} | {tuple(perm[i] for i in ids) for perm in P.conj_perms}


def _check_against_full_scan(P, data):
    chain = [data.draw(st.integers(0, len(P.orders) - 1))]
    while P.supersets[chain[-1]] and data.draw(st.booleans()):
        chain.append(data.draw(st.sampled_from(P.supersets[chain[-1]])))
    with_repeats = data.draw(st.lists(st.integers(0, len(P.orders) - 1),
                                      min_size=1, max_size=6))
    for ids in (tuple(chain), tuple(with_repeats)):
        assert P.canonical(ids) == full_scan_canonical(P, ids)
        # a list never equals a tuple, so this also pins the tuple result
        assert P.canonical(list(ids)) == full_scan_canonical(P, ids)
    canon = P.canonical(tuple(chain))
    assert _walked_classes(P)[canon].orbit_size == len(set_orbit(P, canon))


@functools.cache
def _walked_classes(P):
    """Every class of P's strict chains, by representative.

    The limit orders[top] admits every chain of a subgroup lattice (least
    weight 1) and of a cone (all weights 1).
    """
    n = P.orders[P.top_id]
    return {cls.representative: cls for level in orbit_classes(P, n) for cls in level}


def full_scan_chains(P, n, require_top):
    """The chains of ``poset_chains``, with ``require_top`` only those ending at the top."""
    return [c for c in poset_chains(P, n) if not require_top or c[-1] == P.top_id]


def full_scan_classes(P, n, require_top):
    """Reference classes: every chain reduced by a full scan, sizes counted as sets."""
    by_degree = {}
    for chain in full_scan_chains(P, n, require_top):
        by_degree.setdefault(len(chain) - 1, set()).add(full_scan_canonical(P, chain))
    def index(ids):
        return P.orders[ids[-1]] // P.orders[ids[0]]

    return [[ChainClass(ids, index(ids), len(set_orbit(P, ids)))
             for ids in sorted(by_degree.get(k, ()), key=lambda ids: (index(ids), ids))]
            for k in range(max(by_degree, default=0) + 1)]


def _check_classes(P, n, require_top, classes):
    assert classes == full_scan_classes(P, n, require_top)
    # orbit-stabilizer: the orbit sizes of a degree add up to its chain count
    chains = collections.Counter(len(c) - 1 for c in full_scan_chains(P, n, require_top))
    assert {k: sum(c.orbit_size for c in level)
            for k, level in enumerate(classes) if level} == chains


def slice_classes(C):
    """The bases of ``top_slice(C)``, as lists like those of ``orbit_classes``."""
    return [list(level) for level in top_slice(C).bases]


def walked_classes(P, n, require_top):
    """``orbit_classes(P, n)``, or with ``require_top`` the bases of its top slice."""
    classes = orbit_classes(P, n)
    return slice_classes(orbit_complex(P, classes)) if require_top else classes


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("S3", "D8", "Q8", "A4", "D16", "SL2F3", "S4", "C30", "EA(2,3)", "C2xC6")),
       st.data())
def test_canonical_and_orbit_size_match_full_scan(spec, data):
    # the abelian groups, and Q8, whose every subgroup is normal, have Gamma
    # the identity, where canonical returns its argument as a tuple without
    # reading the moves
    P = subgroup_lattice(catalog_group(spec))
    assert (not P.conj_perms) is (spec in ("Q8", "C30", "EA(2,3)", "C2xC6"))
    _check_against_full_scan(P, data)


@functools.cache
def _normal_interval_cones(spec):
    """Order-complex cones of the intervals (N, G), N normal, with conjugation."""
    G = catalog_group(spec)
    cones = []
    for sub in subgroup_lattice(G).subgroups:
        if any(G.conjugate_mask(sub.members, g) != sub.members for g in G.elements()):
            continue
        for lower_closed in (False, True):
            P = interval_poset(G, sub, lower_closed=lower_closed)
            cones.append(_cone(P, subgroup_conjugation_action(G, P)))
    return cones


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("S3", "D8", "Q8", "A4", "SL2F3", "S4")), st.data())
def test_cone_canonical_and_orbit_size_match_full_scan(spec, data):
    cone = data.draw(st.sampled_from(_normal_interval_cones(spec)))
    _check_against_full_scan(cone, data)


@pytest.mark.parametrize("spec", CATALOG)
def test_chain_classes_match_full_scan(spec):
    G = catalog_group(spec)
    lat = subgroup_lattice(G)
    for n in filtration_levels(G) + [G.order + 1]:
        _check_classes(lat, n, False, chain_classes(G, n))
        _check_classes(lat, n, True, slice_classes(build_complex(G, n)))


@pytest.mark.parametrize("spec", ("S3", "D8", "Q8", "A4", "SL2F3", "S4"))
def test_cone_classes_match_full_scan(spec):
    for cone in _normal_interval_cones(spec):
        for require_top in (False, True):
            _check_classes(cone, 1, require_top, walked_classes(cone, 1, require_top))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_classes_of_random_permutation_groups_match_full_scan(data):
    degree = data.draw(st.sampled_from((4, 3, 2, 1)))
    gens = data.draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=2))
    G = from_permutation_generators(degree, gens, "random")
    lat = subgroup_lattice(G)
    n = data.draw(st.sampled_from(filtration_levels(G) + [G.order + 1]))
    require_top = data.draw(st.booleans())
    _check_classes(lat, n, require_top, walked_classes(lat, n, require_top))
    sub = data.draw(st.sampled_from(lat.subgroups))
    P = interval_poset(G, sub, lower_closed=data.draw(st.booleans()))
    cone = _cone(P, subgroup_conjugation_action(G, P) if is_normal(sub) else None)
    _check_classes(cone, 1, require_top, walked_classes(cone, 1, require_top))
