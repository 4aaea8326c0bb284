"""Acceptance suite: one test per criterion, exact integer equality throughout.

Each test prints a PASS line when its criterion holds; run with ``-v -s`` to
see them. The checks are shared with ``spq verify`` (suites module), so the
CLI and the test suite certify the same facts.
"""

import collections

from helpers import counting, largest_index

import spq.reports
import spq.suites
from spq import builtin, chain_classes, compute_report, filtration_levels
from spq.suites import (
    CATALOG,
    EXPECTED_TABLES,
    STEINBERG_CASES,
    CheckResult,
    _check_boundary_cases,
    _check_complex_identities,
    _check_cyclic_prime_power,
    _check_d0_identity,
    _check_divisor_jump,
    _check_double_cosets,
    _check_nonisotypical,
    _check_partition_iso,
    _check_projective_decomposition,
    _check_restrict_boundary,
    _check_semisimplicity,
    _check_steinberg,
    _check_suspension,
    _check_table,
    _check_tau_realization,
    _check_transfer_boundary,
    catalog_group,
    run_suite,
)


def _assert_all(criterion: str, results: list[CheckResult]) -> None:
    failed = [r for r in results if not r.passed]
    for r in failed:
        print(f"FAIL {criterion}: {r.name} expected {r.expected} "
              f"computed {r.computed}")
    assert not failed, f"{criterion}: {len(failed)} of {len(results)} checks failed"
    print(f"PASS {criterion} ({len(results)} checks)")


def test_criterion_1_sigma3_table():
    _assert_all("criterion 1: S3 table", [_check_table("S3")])


def test_criterion_2_dihedral16_table():
    result = _check_table("D16")
    stable = result.passed and result.computed.find("(4, None") != -1
    _assert_all("criterion 2: D16 table, stable from n=4",
                [result, CheckResult("stabilizes-at-4", stable, "range [4,inf]",
                                     result.computed)])


def test_criterion_3_sl2f3_table():
    _assert_all("criterion 3: SL2(F3) table", [_check_table("SL2F3")])


def test_criterion_4_c30_table():
    _assert_all("criterion 4: C30 table", [_check_table("C30")])


def test_criterion_5_steinberg_dimensions():
    _assert_all("criterion 5: Steinberg dimensions", _check_steinberg())


def test_criterion_6_boundary_levels():
    _assert_all("criterion 6: n=1 and n>=|G| endpoints", _check_boundary_cases())


def test_criterion_7_divisor_jumps():
    _assert_all("criterion 7: reports constant between divisors",
                _check_divisor_jump())


def test_criterion_8_cyclic_prime_power_criterion():
    _assert_all("criterion 8: degree-0 concentration iff cyclic p-group",
                _check_cyclic_prime_power())


def test_criterion_9_property_suites():
    results = _check_complex_identities()
    results += _check_semisimplicity()
    results += _check_d0_identity()
    results += _check_transfer_boundary()
    results += _check_restrict_boundary()
    results += _check_double_cosets()
    results += _check_tau_realization()
    results += _check_projective_decomposition()
    _assert_all("criterion 9: structural property suites", results)


def test_criterion_10_partition_module():
    results = _check_partition_iso()
    results += _check_nonisotypical()
    results += _check_suspension()
    _assert_all("criterion 10: partition-poset facts", results)


def test_catalog_sanity():
    # every catalog group builds, and its levels divide the order
    for spec in CATALOG:
        G = builtin(spec)
        levels = filtration_levels(G)
        assert levels[0] == 1 and levels[-1] == G.order
        rep = compute_report(G, 1)
        assert rep.euler == rep.pi[0]
    print(f"PASS catalog sanity ({len(CATALOG)} groups)")


def _label_and_n(G, n, *rest):
    return G.label, n


def test_a_verify_run_ranks_each_level_once(monkeypatch):
    asking = []  # the arguments of each ask of the run's store still in progress
    walked = collections.Counter()  # (group, n) of each walk the store makes
    assembled = collections.Counter()  # (group, level) of each complex the store assembles
    profiled = collections.Counter()  # (group, n) of each build of profile_report
    packed = collections.Counter()  # (group, n) of each report packed from the store
    validated = collections.Counter()  # (target, degree) of each d0 batch validated
    rechecked = collections.Counter()  # d0 calls that validate again: only for a failing pass
    ranked = spq.suites._ranked

    def ask(*args):
        asking.append(args)
        try:
            return ranked(*args)
        finally:
            asking.pop()

    monkeypatch.setattr(spq.suites, "_ranked", ask)
    # the d0, transfer, restriction and tau checks walk too, outside the store
    counting(monkeypatch, spq.suites, "chain_classes", walked,
             lambda G, n: (G.label, n) if asking else None)
    counting(monkeypatch, spq.suites, "orbit_complex", assembled,
             lambda P, classes: (P.group.label, largest_index(classes)))
    counting(monkeypatch, spq.reports, "build_complex", profiled, _label_and_n)
    counting(monkeypatch, spq.suites, "_level_report", packed, _label_and_n)
    counting(monkeypatch, spq.suites, "_check_chains", validated,
             lambda K, n, degree, chains: (K.label, degree))
    counting(monkeypatch, spq.suites, "verify_d0_compatibility", rechecked,
             lambda psi, chains, n: psi.target.label)
    assert all(r.passed for r in run_suite("all"))
    # every n from 1 to |G| + 1 and |G| + 7 per catalog group, and the Steinberg
    # levels, each packed once; no other check asks for another n
    asked = {(f"EA({p},{k})", p ** k - 1) for p, k, _ in STEINBERG_CASES}
    for spec in CATALOG:
        order = catalog_group(spec).order
        asked |= {(spec, n) for n in range(1, order + 2)} | {(spec, order + 7)}
    assert set(packed) == asked and len(asked) == 254
    assert set(packed.values()) == {1}
    # one walk per (group, effective level), for those n and every realized level
    levels = {(spec, n) for spec in CATALOG for n in filtration_levels(catalog_group(spec))}
    effective = {(label, min(n, catalog_group(label).order)) for label, n in asked}
    assert set(walked) == effective | levels and len(walked) == 214
    assert set(walked.values()) == {1}
    # one assembly per distinct walk: the walk at n is that of the realized level
    # at or below n, and every realized level is walked
    below = {(label, max(level for level in filtration_levels(catalog_group(label))
                         if level <= n)) for label, n in walked}
    assert set(assembled) == below and levels <= below and len(below) == 84
    assert set(assembled.values()) == {1}
    # the only other builds are those of the published tables' profiles
    assert profiled == {(spec, catalog_group(spec).order): 1 for spec in EXPECTED_TABLES}
    # each d0 batch, the classes of one degree of one target, is validated once
    targets = [catalog_group(spec) for spec in CATALOG if catalog_group(spec).order <= 16]
    batches = {(K.label, degree) for K in targets
               for degree in range(1, min(3, len(chain_classes(K, K.order))))}
    assert set(validated) == batches and len(targets) == 17 and len(batches) == 30
    assert set(validated.values()) == {1} and not rechecked
    # nothing outlives the run: the next one walks, assembles and validates afresh
    assert all(r.passed for r in run_suite("all"))
    assert (set(walked.values()) == set(assembled.values()) == set(profiled.values())
            == set(validated.values()) == {2})
