"""The text each ``spq verify`` check reports, pinned on a passing run and under planted faults.

``spq verify`` prints ``computed`` only for a failing check, so the digest of
its stdout pins the failure text of none of them. Each fault below wraps one
``spq.suites`` binding so that only the calls its predicate picks go wrong;
the number of calls made pins where a check stops.
"""

import collections

import pytest
from helpers import counting, largest_index, one_class_high

import spq.suites
from spq.errors import InvariantViolation
from spq.global_functor import ChainVector
from spq.suites import (
    EXPECTED_TABLES,
    _check_boundary_cases,
    _check_complex_identities,
    _check_cyclic_prime_power,
    _check_d0_identity,
    _check_divisor_jump,
    _check_double_cosets,
    _check_functoriality,
    _check_inner_automorphisms,
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
    _complex_identity_failure,
    _report,
    catalog_group,
    run_suite,
)


def _doubled(v):
    return ChainVector(v.group, v.n, v.degree, {k: 2 * c for k, c in v.coefficients.items()})


def _higher_pair(keys):
    seen, expected = keys
    expected[len(seen)].add((1, (0,)))
    return keys


def _raises(_):
    raise InvariantViolation("planted")


def _ends_at_top(C):
    """Whether every class of C ends at the top, as every class of a top slice does."""
    return all(cls.representative[-1] == C.lattice.top_id for basis in C.bases for cls in basis)


PLANTED = [
    pytest.param(
        _check_transfer_boundary, "transfer", lambda H, v: H.order == 6 and v.degree == 2, _doubled,
        {"transfer-boundary": "[('S3', 6, 2), ('C2xC6', 6, 2), ('C2xC6', 6, 2), ('C2xC6', 6, 2)]"},
        82, id="transfer-boundary"),
    pytest.param(
        _check_restrict_boundary, "restrict",
        lambda psi, v: psi.target.label == "C4" and v.degree == 2, _doubled,
        {"restrict-boundary": "[('C8', 'C4', 2), ('C8', 'C4', 2)]"},
        100, id="restrict-boundary"),
    pytest.param(
        _check_inner_automorphisms, "restrict", lambda psi, v: psi.source.label == "S3", _doubled,
        {"inner-automorphism":
         "[('S3', 0), ('S3', 1), ('S3', 2), ('S3', 3), ('S3', 4), ('S3', 5)]"},
        22, id="inner-automorphism"),
    pytest.param(
        _check_functoriality, "restrict", lambda psi, v: psi.source.label == "C4", _doubled,
        {"restriction-functoriality": "[('C8', 'C4', 'C2'), ('C8', 'C4', 'C2')]"},
        12, id="restriction-functoriality"),
    pytest.param(
        _check_tau_realization, "transfer", lambda H, v: H.order == 4 and v.degree == 0, _doubled,
        {"tau-as-transfer-quotient": "[('D8', (15,)), ('D8', (85,)), ('D8', (165,)), "
                                     "('Q8', (15,)), ('Q8', (85,)), ('Q8', (165,))]"},
        53, id="tau-as-transfer-quotient"),
    pytest.param(
        _check_nonisotypical, "_reduced_betti_augmented", lambda P, *action: len(P) == 1,
        lambda reduced: (reduced[0] + 1, reduced[1]),
        {"nonisotypical-acyclic": "[('C2', 1, 2), ('C3', 1, 3), ('C4', 2, 4), ('S3', 2, 6), "
                                  "('S3', 3, 6), ('C2xC2', 2, 4), ('C2xC2', 2, 4), "
                                  "('C2xC2', 2, 4)]"},
        20, id="nonisotypical-acyclic"),
    pytest.param(
        _check_divisor_jump, "_level_report",
        lambda G, n, *vectors: G.label in ("C3", "C2xC6") and n % 2 == 1 and n > 1,
        lambda rep: rep._replace(euler=7),
        {"divisor-jump:C3": "jump at n=4", "divisor-jump:C2xC6": "jump at n=5"},
        227, id="divisor-jump"),
    pytest.param(
        _check_cyclic_prime_power, "_level_report",
        lambda G, n, *vectors: G.label == "C9" and n % 2 == 1 and n > 1,
        lambda rep: rep._replace(pi=(1, 1)),
        {"degree-zero:C9": "higher pi at n=3"},
        81, id="degree-zero"),
    pytest.param(
        _check_semisimplicity, "coinvariants_of_homology_oracle",
        lambda G, n: G.label == "S3" and n > 2, lambda betti: [b + 1 for b in betti],
        {"semisimplicity:S3": "(3, [2, 2], [1, 1])"},
        70, id="semisimplicity"),
    pytest.param(
        _check_projective_decomposition, "_fiber_keys",
        lambda G, n: G.label == "D8" and n > 2, _higher_pair,
        {"simple-chain-fibers:D8": "failed at (n,k)=(4, 3)"},
        13, id="simple-chain-fibers"),
    pytest.param(
        _check_partition_iso, "check_transitive_iso",
        lambda G, H: G.label == "Q8" and H.order == 2, lambda iso: False,
        {"partition-iso:Q8": "failed at |H|=2"},
        14, id="partition-iso"),
    pytest.param(
        _check_double_cosets, "double_coset_decomposition",
        lambda psi, sub: psi.source.label == "S3" and sub.order == 1,
        lambda dec: dec._replace(orbits=dec.orbits[:-1] + ((0,),)),
        {"double-coset-counting": "[('S3', 'C2', 0), ('S3', 'C2', 'total')]"},
        111, id="double-coset-counting"),
    pytest.param(
        _check_complex_identities, "orbit_complex",
        lambda P, classes: P.group.label == "S3" and largest_index(classes) == 2,
        _raises, {"complex-identities:S3": "n=2 coinvariant: planted"},
        81, id="complex-identities-build"),
    pytest.param(
        _check_complex_identities, "top_slice",
        lambda C: C.lattice.group.label == "Q8" and largest_index(C.bases) == 8,
        _raises, {"complex-identities:Q8": "n=8 reduced: planted"},
        83, id="complex-identities-slice"),
    pytest.param(
        _check_complex_identities, "betti_numbers",
        lambda C: (C.lattice.group.label == "D8" and _ends_at_top(C)
                   and largest_index(C.bases) == 4),
        _raises, {"complex-identities:D8": "n=4 reduced: planted"},
        164, id="complex-identities-betti"),
    pytest.param(
        _check_complex_identities, "betti_numbers",
        lambda C: C.lattice.group.label == "C4" and _ends_at_top(C),
        lambda result: result._replace(euler=9),
        {"complex-identities:C4": "n=1 reduced: euler 9 != 1"},
        162, id="complex-identities-euler"),
    pytest.param(
        _check_complex_identities, "chain_counts", lambda G: G.label == "S3", one_class_high,
        {"complex-identities:S3": "n=6 coinvariant: euler 1 != 0"},
        83, id="complex-identities-count"),
]


def _plant(monkeypatch, binding, when, fault):
    """Wrap ``spq.suites.<binding>`` so that the calls ``when`` picks go wrong; returns
    the list of every call's arguments."""
    original = getattr(spq.suites, binding)
    made = []

    def planted(*args):
        made.append(args)
        return fault(original(*args)) if when(*args) else original(*args)

    monkeypatch.setattr(spq.suites, binding, planted)
    return made


@pytest.mark.parametrize("check,binding,when,fault,failures,calls", PLANTED)
def test_planted_fault_text(monkeypatch, check, binding, when, fault, failures, calls):
    made = _plant(monkeypatch, binding, when, fault)
    results = check()
    assert {r.name: r.computed for r in results if not r.passed} == failures
    assert len(made) == calls  # a check that stops at its first failure makes no later call


# the checks that read a run's store, whose faults a shared entry could hide
SHARED = [case for case in PLANTED
          if case.values[0] in (_check_divisor_jump, _check_cyclic_prime_power,
                                _check_semisimplicity, _check_complex_identities)]


@pytest.mark.parametrize("check,binding,when,fault,failures,calls", SHARED)
def test_planted_fault_shows_in_a_whole_run(monkeypatch, check, binding, when, fault,
                                            failures, calls):
    # earlier checks of the run have ranked the faulty complexes already
    _plant(monkeypatch, binding, when, fault)
    if fault is _raises:  # the known-values suite meets the fault first, and stops the run
        with pytest.raises(InvariantViolation, match="planted"):
            run_suite("all")
        return
    computed = {r.name: r.computed for r in run_suite("all")}
    assert {name: computed[name] for name in failures} == failures


def test_suites_share_a_store_but_not_their_results():
    whole = run_suite("all")
    assert all(r.passed for r in whole)
    assert run_suite("paper") + run_suite("properties") == whole
    # each check alone, with a store of its own, gives what it gives in the run
    alone = [[_check_table(spec) for spec in EXPECTED_TABLES], _check_steinberg(),
             _check_boundary_cases(), _check_divisor_jump(), _check_cyclic_prime_power(),
             _check_complex_identities(), _check_semisimplicity(), _check_d0_identity(),
             _check_transfer_boundary(), _check_restrict_boundary(),
             _check_inner_automorphisms(), _check_functoriality(), _check_double_cosets(),
             _check_tau_realization(), _check_projective_decomposition(),
             _check_partition_iso(), _check_nonisotypical(), _check_suspension()]
    assert [r for results in alone for r in results] == whole


def test_passing_text():
    results = [*_check_transfer_boundary(), *_check_restrict_boundary(),
               *_check_inner_automorphisms(), *_check_functoriality(),
               *_check_double_cosets(), *_check_tau_realization(),
               *_check_partition_iso(), *_check_nonisotypical()]
    assert all(r.passed for r in results)
    assert {r.name: r.computed for r in results} == {
        "transfer-boundary": "41 checks OK",
        "restrict-boundary": "50 checks OK",
        "inner-automorphism": "22 checks OK",
        "restriction-functoriality": "4 checks OK",
        "double-coset-counting": "121 orbits OK",
        "tau-as-transfer-quotient": "53 classes OK",
        "partition-iso:S3": "4 subgroups OK",
        "partition-iso:C4": "3 subgroups OK",
        "partition-iso:C2xC2": "5 subgroups OK",
        "partition-iso:Q8": "6 subgroups OK",
        "nonisotypical-acyclic": "20 G-sets OK",
    }
    first_failure = [*_check_divisor_jump(), *_check_cyclic_prime_power(),
                     *_check_semisimplicity(), *_check_projective_decomposition()]
    assert all(r.passed for r in first_failure)
    assert {r.computed for r in first_failure if not r.name.startswith("nonvanishing")} == {"ok"}


def _top_class_dropped(classes):
    """``classes`` without the last class of the top degree, which is no class's face."""
    return classes[:-1] + [classes[-1][:-1]]


def test_a_walk_fault_at_a_level_that_is_not_realized_fails(monkeypatch):
    # C30 at n = 7 walks the classes of level 6 but one; only that walk can show it
    walked = collections.Counter()
    counting(monkeypatch, spq.suites, "chain_classes", walked, lambda G, n: (G.label, n))
    _plant(monkeypatch, "chain_classes", lambda G, n: G.label == "C30" and n == 7,
           _top_class_dropped)
    result, = (r for r in _check_divisor_jump() if r.name == "divisor-jump:C30")
    assert not result.passed and result.computed == "jump at n=7"
    assert walked[("C30", 7)] == 1
    computed = {r.name: r.computed for r in run_suite("all") if not r.passed}
    assert computed == {"divisor-jump:C30": "jump at n=7"}


def test_a_shared_entry_fault_is_met_at_every_n_that_shares_it(monkeypatch):
    # C30's levels 6 to 9 walk the same classes, so they share one entry and its fault
    walked = collections.Counter()
    assembled = collections.Counter()
    counting(monkeypatch, spq.suites, "chain_classes", walked, lambda G, n: (G.label, n))
    counting(monkeypatch, spq.suites, "orbit_complex", assembled,
             lambda P, classes: (P.group.label, largest_index(classes)))
    _plant(monkeypatch, "orbit_complex",
           lambda P, classes: P.group.label == "C30" and largest_index(classes) == 6, _raises)
    G, reports = catalog_group("C30"), {}
    for n in range(6, 10):
        with pytest.raises(InvariantViolation, match="planted"):
            _report(reports, G, n)
        assert _complex_identity_failure(G, n, reports) == f"n={n} coinvariant: planted"
    assert walked == {("C30", n): 1 for n in range(6, 10)}
    assert assembled == {("C30", 6): 1}
