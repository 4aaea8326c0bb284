"""Acceptance suite: one test per criterion, exact integer equality throughout.

Each test prints a PASS line when its criterion holds; run with ``-v -s`` to
see them. The checks are shared with ``spq verify`` (suites module), so the
CLI and the test suite certify the same facts.
"""

import collections

import spq.suites
from spq import builtin, compute_report, filtration_levels
from spq.suites import (
    CATALOG,
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
    known_values_suite,
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


def test_known_values_suite_builds_each_report_once(monkeypatch):
    requested = collections.Counter()
    original = spq.suites.compute_report

    def counted(G, n):
        requested[G.label, n] += 1
        return original(G, n)

    monkeypatch.setattr(spq.suites, "compute_report", counted)
    assert all(r.passed for r in known_values_suite())
    # every n from 1 to |G| + 1 and |G| + 7 per catalog group, and the Steinberg levels
    expected = {(f"EA({p},{k})", p ** k - 1) for p, k, _ in STEINBERG_CASES}
    for spec in CATALOG:
        order = catalog_group(spec).order
        expected |= {(spec, n) for n in range(1, order + 2)} | {(spec, order + 7)}
    assert set(requested) == expected and len(expected) == 254
    assert set(requested.values()) == {1}
