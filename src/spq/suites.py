"""Self-verification suites: known dimension tables and structural identities.

The ``tables`` checks reproduce independently known homotopy dimension
tables for a fixed roster of small groups; the ``properties`` checks
exercise internal identities (boundary squares to zero, Euler
characteristics equal to ``chain_counts``, semisimplicity cross-check, face
compatibility of restrictions, decomposition counts, partition-poset facts).
The CLI exposes them as the ``paper`` and ``properties`` suites.

Most checks list their cases as a generator of ``(witness, passed)`` pairs,
built lazily so that no case runs before the one ahead of it is judged.
``_counted`` runs every case and reports ``"<n> <unit> OK"`` or the failing
witnesses; ``_first_failure`` stops at the first failing case and returns
its witness.

Each ``run_suite`` call makes one store, a dict that it passes to every
check that ranks a complex; a check called alone makes its own. The store
is keyed by ``(G.label, effective_level(G, n))``: one entry per complex,
built once in a run by ``build_complex``, ``betti_numbers``, ``top_slice``
and ``betti_numbers``, all looked up here. An entry keeps that build's two
``HomologyResult``s, or the fault that stopped it, and the
``ComputationReport`` of each n asked of it, packed by ``_level_report``;
the complex itself is dropped once it is ranked. Nothing outlives the run,
and nothing is kept on a group or in the module.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from .errors import InvariantViolation, NotAComplex
from .global_functor import (
    ChainVector,
    _check_chains,
    _d0_pass,
    _fiber_keys,
    basis_vector,
    boundary,
    double_coset_decomposition,
    restrict,
    transfer,
    verify_d0_compatibility,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    _image_mask,
    builtin,
    enumerate_homomorphisms,
)
from .homology import betti_numbers, coinvariants_of_homology_oracle
from .lattice import (
    build_complex,
    chain_classes,
    chain_counts,
    conjugacy_classes_of_subgroups,
    effective_level,
    filtration_levels,
    subgroup_lattice,
    top_slice,
)
from .partition import (
    GSet,
    _reduced_betti_augmented,
    check_transitive_iso,
    fixed_partition_poset,
    interval_poset,
    subgroup_conjugation_action,
)
from .reports import (
    ComputationReport,
    _level_report,
    profile_report,
    same_padded,
    same_report,
)

CATALOG: tuple[str, ...] = (
    "C1", "C2", "C3", "C4", "C6", "C8", "C9", "C27", "C30",
    "C2xC2", "C2xC6", "S3", "D8", "D16", "Q8", "Q16",
    "EA(3,2)", "EA(2,3)", "SL2F3", "A4")

CYCLIC_PRIME_POWERS: tuple[str, ...] = ("C2", "C3", "C4", "C8", "C9", "C27")

# published profile rows: (range start, range end or None, pi vector)
EXPECTED_TABLES: dict[str, list[tuple[int, int | None, tuple[int, ...]]]] = {
    "S3": [(1, 1, (4,)), (2, 2, (2,)), (3, 5, (1, 1)), (6, None, (1,))],
    "D16": [(1, 1, (11,)), (2, 3, (1, 6)), (4, None, (1,))],
    "SL2F3": [(1, 1, (7,)), (2, 2, (3,)), (3, 3, (1, 1)), (4, 5, (1, 2)),
              (6, 11, (1, 1)), (12, None, (1,))],
    "C30": [(1, 1, (8,)), (2, 2, (4,)), (3, 4, (2, 2)), (5, 5, (1, 5)),
            (6, 9, (1, 3)), (10, 14, (1, 1)), (15, 29, (1, 0, 1)),
            (30, None, (1,))],
}

STEINBERG_CASES: tuple[tuple[int, int, int], ...] = ((2, 2, 2), (3, 2, 3), (2, 3, 8))

_GROUP_CACHE: dict[str, FiniteGroup] = {}


def catalog_group(spec: str) -> FiniteGroup:
    if spec not in _GROUP_CACHE:
        _GROUP_CACHE[spec] = builtin(spec)
    return _GROUP_CACHE[spec]


class CheckResult(namedtuple("CheckResult", "name passed expected computed")):
    """One check: its name, whether it passed, and what was expected and computed, as text."""

    __slots__ = ()


def _result(name: str, passed: bool, expected, computed) -> CheckResult:
    return CheckResult(name, passed, str(expected), str(computed))


def _counted(name: str, expected: str, unit: str, cases) -> list[CheckResult]:
    """One result over every ``(witness, passed)`` case; only the failing witnesses are kept."""
    checked = 0
    failures = []
    for witness, passed in cases:
        checked += 1
        if not passed:
            failures.append(witness)
    return [_result(name, not failures, expected,
                    str(failures) if failures else f"{checked} {unit} OK")]


def _first_failure(cases):
    """Witness of the first failing ``(witness, passed)`` case, or None; no later case runs."""
    return next((witness for witness, passed in cases if not passed), None)


# ---------------------------------------------------------------------------
# known-values suite


def _check_table(spec: str) -> CheckResult:
    expected = EXPECTED_TABLES[spec]
    prof = profile_report(catalog_group(spec))
    got = [(r.start, r.end, r.report.pi) for r in prof.ranges]
    ok = len(got) == len(expected) and all(
        gs == es and ge == ee and same_padded(gpi, epi)
        for (gs, ge, gpi), (es, ee, epi) in zip(got, expected))
    return _result(f"table:{spec}", ok, expected,
                   [(s, e, tuple(pi)) for s, e, pi in got])


class _Ranked(namedtuple("_Ranked", "pi phi fault reports")):
    """One store entry: ``pi`` and ``phi``, the coinvariant and reduced
    ``HomologyResult`` of one build; ``fault``, the exception that stopped the
    build, if any, which leaves each result it kept from being taken None; and
    ``reports``, the ``ComputationReport`` of each n asked of the entry."""

    __slots__ = ()


def _ranked(reports: dict, G: FiniteGroup, n: int) -> _Ranked:
    """The entry of the store ``reports`` for G at level n, built and ranked on first use.

    The coinvariant complex is ranked, and so checked, before its top slice
    is cut, as in ``compute_report``; a fault in either step is kept, not
    raised, so that each reader meets it as if it had built the complex.
    """
    key = (G.label, effective_level(G, n))
    entry = reports.get(key)
    if entry is None:
        pi = phi = fault = None
        try:
            C = build_complex(G, key[1])
            pi = betti_numbers(C)
            phi = betti_numbers(top_slice(C))
        except (NotAComplex, InvariantViolation) as exc:
            fault = exc
        entry = reports[key] = _Ranked(pi, phi, fault, {})
    return entry


def _report(reports: dict, G: FiniteGroup, n: int) -> ComputationReport:
    """The report of ``compute_report(G, n)``, read off the store ``reports``.

    Packed once per n; the fault of the entry's build, if any, is raised.
    """
    entry = _ranked(reports, G, n)
    if entry.fault is not None:
        raise entry.fault
    if n not in entry.reports:
        pi, phi = entry.pi, entry.phi
        entry.reports[n] = _level_report(G, n, pi.betti, phi.betti, pi.dims, pi.euler)
    return entry.reports[n]


def _check_steinberg(reports: dict | None = None) -> list[CheckResult]:
    reports = {} if reports is None else reports
    out = []
    for p, k, expected in STEINBERG_CASES:
        G = catalog_group(f"EA({p},{k})")
        rep = _report(reports, G, p ** k - 1)
        got = rep.pi[k - 1] if k - 1 < len(rep.pi) else 0
        out.append(_result(f"steinberg:p={p},k={k}", got == expected,
                           expected, got))
    return out


def _check_boundary_cases(reports: dict | None = None) -> list[CheckResult]:
    reports = {} if reports is None else reports
    out = []
    for spec in CATALOG:
        G = catalog_group(spec)
        classes = len(conjugacy_classes_of_subgroups(G))
        at_one = _report(reports, G, 1)
        ok_one = at_one.pi == (classes,)
        at_top = _report(reports, G, G.order)
        beyond = _report(reports, G, G.order + 7)
        contractible = (at_top.pi[0] == 1 and all(x == 0 for x in at_top.pi[1:])
                        and same_report(at_top, beyond)
                        and beyond.n_effective == G.order)
        out.append(_result(f"boundary:{spec}", ok_one and contractible,
                           f"pi(1)=[{classes}], pi(>=|G|)=[1,0,...]",
                           f"pi(1)={list(at_one.pi)}, pi(|G|)={list(at_top.pi)}"))
    return out


def _check_divisor_jump(reports: dict | None = None) -> list[CheckResult]:
    """Each n that is not a realized level reports as the realized level below it."""
    reports = {} if reports is None else reports
    out = []
    for spec in CATALOG:
        G = catalog_group(spec)
        levels = filtration_levels(G)
        at_level = {n: _report(reports, G, n) for n in levels}
        bad = _first_failure(
            (n, same_report(_report(reports, G, n), at_level[max(l for l in levels if l <= n)]))
            for n in range(1, G.order + 2) if n not in at_level)
        out.append(_result(f"divisor-jump:{spec}", bad is None,
                           "constant between realized levels",
                           "ok" if bad is None else f"jump at n={bad}"))
    return out


def _check_cyclic_prime_power(reports: dict | None = None) -> list[CheckResult]:
    reports = {} if reports is None else reports
    out = []
    for spec in CYCLIC_PRIME_POWERS:
        G = catalog_group(spec)
        bad = _first_failure((n, not any(_report(reports, G, n).pi[1:]))
                             for n in range(1, G.order + 2))
        out.append(_result(f"degree-zero:{spec}", bad is None,
                           "pi concentrated in degree 0",
                           "ok" if bad is None else f"higher pi at n={bad}"))
    non_cpp = [s for s in CATALOG
               if s not in CYCLIC_PRIME_POWERS and s != "C1"
               and catalog_group(s).order <= 24]
    for spec in non_cpp:
        G = catalog_group(spec)
        found = any(len(pi) > 1 and pi[1] > 0
                    for pi in (_report(reports, G, n).pi for n in filtration_levels(G)))
        out.append(_result(f"nonvanishing-pi1:{spec}", found,
                           "some pi_1 > 0", "found" if found else "all zero"))
    return out


def known_values_suite(reports: dict | None = None) -> list[CheckResult]:
    reports = {} if reports is None else reports
    results = [_check_table(spec) for spec in EXPECTED_TABLES]
    results += _check_steinberg(reports)
    results += _check_boundary_cases(reports)
    results += _check_divisor_jump(reports)
    results += _check_cyclic_prime_power(reports)
    return results


# ---------------------------------------------------------------------------
# properties suite


def _complex_identity_failure(G: FiniteGroup, n: int, reports: dict | None = None) -> str | None:
    """The first fault of the complex at level n and of its top slice, or None.

    A fault of the store entry's build is labelled by the complex it met:
    ``coinvariant`` when the build or its rank failed, else ``reduced``.
    """
    reports = {} if reports is None else reports
    label = "coinvariant"  # the complex the next step reads
    try:
        counts = chain_counts(G)
        entry = _ranked(reports, G, n)
        for label, result, top in (("coinvariant", entry.pi, False),
                                   ("reduced", entry.phi, True)):
            if result is None:
                raise entry.fault
            euler, counted = result.euler, counts.euler(n, top=top)
            if euler != counted:
                return f"n={n} {label}: euler {euler} != {counted}"
    except (NotAComplex, InvariantViolation) as exc:
        return f"n={n} {label}: {exc}"
    return None


def _check_complex_identities(reports: dict | None = None) -> list[CheckResult]:
    reports = {} if reports is None else reports
    out = []
    for spec in CATALOG:
        G = catalog_group(spec)
        levels = filtration_levels(G)
        bad = next(filter(None, (_complex_identity_failure(G, n, reports) for n in levels)),
                   None)
        out.append(_result(f"complex-identities:{spec}", bad is None,
                           "d2=0 and Euler identity",
                           f"{2 * len(levels)} complexes OK" if bad is None else bad))
    return out


def _check_semisimplicity(reports: dict | None = None) -> list[CheckResult]:
    reports = {} if reports is None else reports

    def cases(G):
        for n in filtration_levels(G):
            oracle = coinvariants_of_homology_oracle(G, n)
            entry = _ranked(reports, G, n)
            if entry.pi is None:
                raise entry.fault
            direct = list(entry.pi.betti)
            yield (n, oracle, direct), same_padded(oracle, direct)

    out = []
    for spec in CATALOG:
        G = catalog_group(spec)
        if G.order > 24:
            continue
        bad = _first_failure(cases(G))
        out.append(_result(f"semisimplicity:{spec}", bad is None,
                           "oracle matches coinvariant homology",
                           "ok" if bad is None else str(bad)))
    return out


def _surjection_pairs(max_order: int):
    specs = [s for s in CATALOG if catalog_group(s).order <= max_order]
    for gspec in specs:
        G = catalog_group(gspec)
        for kspec in specs:
            K = catalog_group(kspec)
            if G.order % K.order:
                continue
            for psi in enumerate_homomorphisms(G, K, surjective_only=True):
                yield gspec, kspec, psi


def _check_d0_identity() -> list[CheckResult]:
    """Restriction along each surjection of catalog groups of order <= 16 commutes
    with d_0 on the target's degree-1 and degree-2 classes.

    The classes of one (target, degree) form a batch, listed and validated
    (``_check_chains``) once, at n = |K|: that is the effective level of
    every surjection G -> K, as |G| >= |K|. Each surjection then makes one
    ``_d0_pass`` over each batch of its target, with no validation; only a
    failing batch is re-checked chain by chain, through
    ``verify_d0_compatibility``, to name its masks. Most sources are
    abelian, so their Gamma is the identity and every ``canonical`` call
    returns its argument as is.
    """
    checked = 0
    failures = []
    chains_of: dict[str, list] = {}
    for gspec, kspec, psi in _surjection_pairs(16):
        K, n = psi.target, psi.source.order
        lat = subgroup_lattice(K)
        if kspec not in chains_of:
            chains_of[kspec] = []
            for degree, level in enumerate(chain_classes(K, K.order)[1:3], 1):
                chains = [cls.representative for cls in level]
                _check_chains(K, K.order, degree, chains)
                chains_of[kspec].append(chains)
        for chains in chains_of[kspec]:
            checked += len(chains)
            if not _d0_pass(psi, chains, n):
                failures.extend((gspec, kspec, lat.masks(ids)) for ids in chains
                                if not verify_d0_compatibility(psi, (ids,), n))
    return [_result("d0-identity:surjections<=16", not failures,
                    "restriction commutes with d0",
                    f"{checked} checks OK" if not failures else str(failures[:3]))]


def _all_class_vector(G: FiniteGroup, n: int, degree: int):
    """Sum of every degree-``degree`` class of the coinvariant basis, or None."""
    classes = chain_classes(G, n)
    if degree >= len(classes) or not classes[degree]:
        return None
    return ChainVector(G, n, degree,
                       {cls.representative: Fraction(1) for cls in classes[degree]})


def _check_transfer_boundary() -> list[CheckResult]:
    def cases():
        for spec in ("C4", "S3", "D8", "Q8", "C2xC6"):
            G = catalog_group(spec)
            for H, _ in conjugacy_classes_of_subgroups(G):
                if H.order == 1:
                    continue
                sub = H.as_group.group
                for degree in (1, 2):
                    v = _all_class_vector(sub, G.order, degree)
                    if v is not None:
                        yield ((spec, H.order, degree),
                               boundary(transfer(H, v)) == transfer(H, boundary(v)))
    return _counted("transfer-boundary", "d(tr v) = tr(d v)", "checks", cases())


def _inclusion(G: FiniteGroup, order: int) -> GroupHom:
    """Inclusion of the first class representative of the given order into G."""
    emb = next(rep for rep, _ in conjugacy_classes_of_subgroups(G) if rep.order == order).as_group
    return GroupHom(emb.group, G, emb.to_ambient)


def _sample_homs() -> list[GroupHom]:
    homs = []
    for gspec, kspec in (("C4", "C2"), ("S3", "C2"), ("C8", "C4"),
                         ("D8", "C2xC2"), ("Q8", "C2xC2"), ("C2xC6", "C6")):
        G, K = catalog_group(gspec), catalog_group(kspec)
        homs.extend(enumerate_homomorphisms(G, K, surjective_only=True))
    homs.extend(_inclusion(catalog_group(gspec), order)
                for gspec, order in (("C4", 2), ("S3", 2), ("S3", 3), ("Q8", 4)))
    return homs


def _check_restrict_boundary() -> list[CheckResult]:
    def cases():
        for psi in _sample_homs():
            K = psi.target
            n = max(psi.source.order, K.order)
            for degree in (1, 2):
                v = _all_class_vector(K, n, degree)
                if v is not None:
                    yield ((psi.source.label, K.label, degree),
                           boundary(restrict(psi, v)) == restrict(psi, boundary(v)))
    return _counted("restrict-boundary", "d(psi* v) = psi*(d v)", "checks", cases())


def _check_inner_automorphisms() -> list[CheckResult]:
    def cases():
        for spec in ("S3", "D8", "Q8"):
            G = catalog_group(spec)
            v = _all_class_vector(G, G.order, 1)
            for g in G.elements():
                yield (spec, g), restrict(GroupHom.conjugation(G, g), v) == v
    return _counted("inner-automorphism", "conjugation restricts to the identity", "checks",
                    cases())


def _check_functoriality() -> list[CheckResult]:
    c8, c4, c2 = catalog_group("C8"), catalog_group("C4"), catalog_group("C2")
    s3 = catalog_group("S3")
    proj84 = enumerate_homomorphisms(c8, c4, True)[0]
    proj42 = enumerate_homomorphisms(c4, c2, True)[0]
    sign = enumerate_homomorphisms(s3, c2, True)[0]
    pairs = [(proj84, proj42), (_inclusion(s3, 3), sign)]

    def cases():
        for phi, psi in pairs:
            K = psi.target
            n = max(phi.source.order, psi.source.order, K.order)
            for degree in (0, 1):
                v = _all_class_vector(K, n, degree)
                if v is not None:
                    yield ((phi.source.label, psi.source.label, K.label),
                           restrict(phi.then(psi), v) == restrict(phi, restrict(psi, v)))
    return _counted("restriction-functoriality", "(psi o phi)* = phi* o psi*", "checks",
                    cases())


def _check_double_cosets() -> list[CheckResult]:
    failures = []
    checked = 0
    for psi in _sample_homs():
        K = psi.target
        G = psi.source
        for sub, _ in conjugacy_classes_of_subgroups(K):
            dec = double_coset_decomposition(psi, sub)
            total = 0
            for rep, orbit in zip(dec.representatives, dec.orbits):
                conj = K.conjugate_mask(sub.members, rep)
                pre = psi.preimage_mask(conj).bit_count()
                checked += 1
                if len(orbit) != G.order * sub.order // pre:
                    failures.append((G.label, K.label, rep))
                total += len(orbit)
            if total != K.order:
                failures.append((G.label, K.label, "total"))
    return [_result("double-coset-counting", not failures,
                    "orbit sizes |G||H0|/|preimage| summing to |K|",
                    f"{checked} orbits OK" if not failures else str(failures))]


def _check_tau_realization() -> list[CheckResult]:
    """Classes not ending at G are transfers from their own top subgroup."""
    def cases():
        for spec in ("C4", "S3", "D8", "Q8", "C2xC2"):
            G = catalog_group(spec)
            lat = subgroup_lattice(G)
            for level in chain_classes(G, G.order):
                for ids in (cls.representative for cls in level):
                    if ids[-1] == lat.top_id:
                        continue
                    top = lat.subgroups[ids[-1]]
                    emb = top.as_group
                    sub_lat = subgroup_lattice(emb.group)
                    masks = lat.masks(ids)
                    sub_ids = tuple(sub_lat.id_of_mask(_image_mask(m, emb.from_ambient))
                                    for m in masks)
                    v = basis_vector(emb.group, G.order, sub_ids)
                    yield ((spec, masks), transfer(top, v)
                           == basis_vector(G, G.order, ids, G.order // top.order))
    return _counted("tau-as-transfer-quotient",
                    "proper-top classes are transfers from their top", "classes", cases())


def _check_projective_decomposition() -> list[CheckResult]:
    def cases(G):
        for n in filtration_levels(G):
            seen, expected = _fiber_keys(G, n)
            depth = max([len(seen), *(d + 1 for d in expected)])  # every degree of either side
            for k in range(depth):
                yield (n, k), (seen[k] if k < len(seen) else set()) == expected[k]

    out = []
    for spec in ("C4", "C2xC2", "S3", "D8"):
        bad = _first_failure(cases(catalog_group(spec)))
        out.append(_result(f"simple-chain-fibers:{spec}", bad is None,
                           "chain classes match (core, simple class) pairs",
                           "ok" if bad is None else f"failed at (n,k)={bad}"))
    return out


def _check_partition_iso() -> list[CheckResult]:
    out = []
    for spec in ("S3", "C4", "C2xC2", "Q8"):
        G = catalog_group(spec)
        subs = [H for H, _ in conjugacy_classes_of_subgroups(G) if G.order // H.order <= 8]
        bad = _first_failure((H.order, check_transitive_iso(G, H)) for H in subs)
        out.append(_result(f"partition-iso:{spec}", bad is None,
                           "fixed partition poset = open subgroup interval",
                           f"{len(subs)} subgroups OK" if bad is None
                           else f"failed at |H|={bad}"))
    return out


def _check_nonisotypical() -> list[CheckResult]:
    def cases():
        for spec in ("C2", "C3", "C4", "S3", "C2xC2"):
            G = catalog_group(spec)
            reps = [rep for rep, _ in conjugacy_classes_of_subgroups(G)]
            for H1, H2 in combinations(reps, 2):
                if G.order // H1.order + G.order // H2.order > 8:
                    continue
                M = GSet.disjoint_union([GSet.from_cosets(G, H1), GSet.from_cosets(G, H2)])
                if not M.is_isotypical:
                    bm1, betti = _reduced_betti_augmented(fixed_partition_poset(M))
                    yield (spec, H1.order, H2.order), bm1 == 0 and not any(betti)
    return _counted("nonisotypical-acyclic", "reduced homology vanishes", "G-sets", cases())


def _check_suspension(reports: dict | None = None) -> list[CheckResult]:
    reports = {} if reports is None else reports
    out = []
    for spec in CATALOG:
        G = catalog_group(spec)
        if G.order < 2 or G.order > 24:
            continue
        proper = interval_poset(G, G.trivial_subgroup)
        action = subgroup_conjugation_action(G, proper)
        bm1, betti = _reduced_betti_augmented(proper, action)
        pi = _report(reports, G, G.order - 1).pi
        expected = [1 + bm1] + list(betti)
        ok = same_padded(pi, expected)
        out.append(_result(f"suspension:{spec}", ok, expected, list(pi)))
    return out


def properties_suite(reports: dict | None = None) -> list[CheckResult]:
    reports = {} if reports is None else reports
    results = _check_complex_identities(reports)
    results += _check_semisimplicity(reports)
    results += _check_d0_identity()
    results += _check_transfer_boundary()
    results += _check_restrict_boundary()
    results += _check_inner_automorphisms()
    results += _check_functoriality()
    results += _check_double_cosets()
    results += _check_tau_realization()
    results += _check_projective_decomposition()
    results += _check_partition_iso()
    results += _check_nonisotypical()
    results += _check_suspension(reports)
    return results


SUITES = {
    "paper": known_values_suite,
    "properties": properties_suite,
}


def run_suite(name: str) -> list[CheckResult]:
    """Results of one suite, or of every suite for ``"all"``; KeyError for an unknown name.

    The suites of one call share one store, made here and dropped on return.
    """
    suites = list(SUITES.values()) if name == "all" else [SUITES[name]]
    reports: dict = {}
    return [res for suite in suites for res in suite(reports)]
