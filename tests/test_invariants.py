"""Invariant checks that guard results raise InvariantViolation, not assert.

Each check is forced to fail by patching the code it guards, so the tests
also hold under ``python -O``. The read-off's levels come from the count
these checks trust, so they are matched with a scan of every pair here too.
"""

import dataclasses
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from helpers import one_class_high, with_added_entries
from hypothesis import given, settings
from test_groups import derived_groups

import spq.global_functor
import spq.groups
import spq.homology
import spq.lattice
import spq.reports
import spq.suites
from spq import (
    InvariantViolation,
    NotAComplex,
    all_subgroups,
    betti_numbers,
    build_complex,
    builtin,
    coinvariants_of_homology_oracle,
    filtration_levels,
    level_cut,
    profile_report,
    simple_decomposition,
    subgroup_lattice,
    top_slice,
)
from spq.cli import main
from spq.homology import euler_characteristic


def test_negative_betti_number(monkeypatch):
    # every reduction claims one more pivot than its matrix has columns
    monkeypatch.setattr(spq.homology, "reduce_columns",
                        lambda columns, cleared: list(range(len(columns) + 1)))
    with pytest.raises(InvariantViolation, match="negative Betti"):
        betti_numbers(build_complex(builtin("S3"), 3))


def test_euler_mismatch():
    # in betti_numbers the ranks telescope out of the alternating sum, so
    # the shared check is forced with inconsistent vectors directly
    assert euler_characteristic((1, 1), (4, 4)) == 0
    with pytest.raises(InvariantViolation, match="Euler"):
        euler_characteristic((1, 0), (4, 4))


def test_averaged_cycle_left_cycle_space(monkeypatch):
    # every chain passes for a cycle, so the averaged chains are not cycles
    monkeypatch.setattr(spq.homology, "_nullspace", lambda rows, ncols: [
        [Fraction(int(i == j)) for i in range(ncols)] for j in range(ncols)])
    with pytest.raises(InvariantViolation, match="cycle space"):
        coinvariants_of_homology_oracle(builtin("S3"), 3)


def test_face_left_filtration(monkeypatch):
    original = spq.lattice.chain_classes

    def understated(G, n):
        return [[dataclasses.replace(cls, total_index=1) for cls in level]
                for level in original(G, n)]

    monkeypatch.setattr(spq.lattice, "chain_classes", understated)
    with pytest.raises(InvariantViolation, match="face left"):
        build_complex(builtin("S3"), 6)


def test_stabilizer_must_divide_the_action():
    # the identity and two transpositions of three ids do not form a group
    P = spq.lattice.OrbitPoset(((), (), ()), (1, 1, 1), ((1, 0, 2), (0, 2, 1)), 2)
    with pytest.raises(InvariantViolation, match="stabilizer"):
        spq.lattice.orbit_classes(P, 1)


def test_quotient_chain_not_simple(monkeypatch):
    monkeypatch.setattr(spq.global_functor, "is_simple", lambda G, ids: False)
    C4 = builtin("C4")
    lat = subgroup_lattice(C4)
    with pytest.raises(InvariantViolation, match="simple"):
        simple_decomposition(C4, (lat.id_of_mask(1), lat.top_id))


def test_slice_of_a_chain_off_the_top_with_a_face_at_the_top():
    # D8 at n = 4, with no 3-chains: a 2-chain below the top gains the faces
    # of a 2-chain m ending at the top, of no larger index. d o d stays 0 and
    # every level a subcomplex, but the chains not ending at the top no
    # longer span a subcomplex
    C = build_complex(builtin("D8"), 4)
    assert len(C.bases) == 3
    top = C.lattice.top_id
    j = max(j for j, cls in enumerate(C.bases[2]) if cls.representative[-1] != top)
    m = next(m for m, cls in enumerate(C.bases[2]) if cls.representative[-1] == top
             and cls.total_index <= C.bases[2][j].total_index)
    planted = with_added_entries(C, 2, j, C.columns[2][m])
    with pytest.raises(NotAComplex, match="not ending at the top") as info:
        top_slice(planted)
    assert planted.checked and info.value.column == j


def test_level_cut_of_a_kept_chain_with_a_face_above_the_level():
    # D8 at n = 4: a 2-chain of index 4 gains the face 1 < D8, of index 8.
    # check_boundaries, which every cut runs first, finds this fault in any
    # complex it has not passed; level_cut's own premise check meets it only
    # on a complex recorded as checked
    C = build_complex(builtin("D8"), 8)
    j = max(j for j, cls in enumerate(C.bases[2]) if cls.total_index <= 4)
    row = next(i for i, cls in enumerate(C.bases[1]) if cls.total_index > 4)
    planted = with_added_entries(C, 2, j, {row: 1})
    planted.checked = True
    with pytest.raises(NotAComplex, match="at most 4 to one above it") as info:
        level_cut(planted, 4)
    assert info.value.column == j


def test_level_ranked_in_place_of_a_kept_chain_with_a_face_above_the_level():
    # the fault above, met by ranking level 4 in place: check_boundaries checks
    # that every level is a subcomplex, and the planted complex, made by replace
    # from a checked and sliced one, carries neither the record nor the slice
    C = build_complex(builtin("D8"), 8)
    betti_numbers(C, 4)
    top_slice(C)
    assert C.checked and C.sliced is not None
    j = max(j for j, cls in enumerate(C.bases[2]) if cls.total_index <= 4)
    row = next(i for i, cls in enumerate(C.bases[1]) if cls.total_index > 4)
    planted = with_added_entries(C, 2, j, {row: 1})
    assert not planted.checked and planted.sliced is None
    with pytest.raises(NotAComplex, match="total index 4 to one above it") as info:
        betti_numbers(planted, 4)
    assert info.value.column == j


def _jumping_rank_route(monkeypatch):
    # the gap probes take the rank route of compute_report on level cuts
    original = spq.reports._ranked_report

    def jumping(G, n, coinv):
        report = original(G, n, coinv)
        return dataclasses.replace(report, pi=(report.pi[0] + 1,) + report.pi[1:])

    monkeypatch.setattr(spq.reports, "_ranked_report", jumping)


def test_gap_probe_jump(monkeypatch):
    _jumping_rank_route(monkeypatch)
    with pytest.raises(InvariantViolation, match="jumped"):
        profile_report(builtin("S3"))


def test_gap_probe_jump_is_a_cli_error(monkeypatch, capsys):
    _jumping_rank_route(monkeypatch)
    assert main(["profile", "-g", "S3"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: filtration level jumped")
    assert captured.out == ""


def test_read_off_euler_check(monkeypatch):
    original = spq.reports.persistence_intervals

    def dropped_class(C):
        intervals = original(C)
        return (intervals[0][1:],) + intervals[1:]

    monkeypatch.setattr(spq.reports, "persistence_intervals", dropped_class)
    with pytest.raises(InvariantViolation, match="Euler"):
        profile_report(builtin("S3"))


def _walk_losing_a_class_at_the_order(monkeypatch):
    # the walk drops its last top-degree class at n = |G| alone, so the gap
    # probe beyond |G| sees the same loss: only the count can tell
    original = spq.lattice.orbit_classes

    def losing(P, n):
        classes = original(P, n)
        if n == P.orders[P.top_id] // P.orders[0]:
            classes[-1] = classes[-1][:-1]
        return classes

    monkeypatch.setattr(spq.lattice, "orbit_classes", losing)


@pytest.mark.parametrize("spec", ["S4", "C30"])
def test_read_off_catches_a_class_the_walk_lost(monkeypatch, spec):
    _walk_losing_a_class_at_the_order(monkeypatch)
    with pytest.raises(InvariantViolation, match="Euler"):
        profile_report(builtin(spec))


@pytest.mark.parametrize("spec,n", [("S4", 24), ("C30", 30)])
def test_compute_catches_a_class_the_walk_lost(monkeypatch, capsys, spec, n):
    # spq compute reads off like profile, so it fails instead of printing the
    # walk's pi and chains
    _walk_losing_a_class_at_the_order(monkeypatch)
    assert main(["compute", "--json", "-n", str(n), "-g", spec]) == 2
    captured = capsys.readouterr()
    assert "Euler" in captured.err
    assert captured.out == ""


def test_read_off_catches_a_count_one_class_high(monkeypatch):
    original = spq.reports.chain_counts
    monkeypatch.setattr(spq.reports, "chain_counts", lambda G: one_class_high(original(G)))
    with pytest.raises(InvariantViolation, match="Euler"):
        profile_report(builtin("S4"))


@settings(max_examples=80, deadline=None)
@given(derived_groups())
def test_filtration_levels_are_the_indices_of_all_pairs(case):
    _, G = case
    lat = subgroup_lattice(G)
    levels = {1}
    for i, ups in enumerate(lat.supersets):
        for j in ups:
            levels.add(lat.orders[j] // lat.orders[i])
    assert filtration_levels(G) == sorted(levels)


def test_padded_cuts_only_zeros():
    assert spq.reports.padded((1, 0, 0), 2) == (1, 0)
    assert spq.reports.padded((1,), 3) == (1, 0, 0)
    with pytest.raises(InvariantViolation, match="past degree 1"):
        spq.reports.padded((1, 0, 3), 2)


def test_read_off_entry_past_the_degree_bound(monkeypatch):
    # classes above floor(log2 n) would be a fault upstream; cutting them must not
    # hide them (two in adjacent degrees, so the Euler check still passes)
    original = spq.reports.betti_at
    monkeypatch.setattr(spq.reports, "betti_at",
                        lambda intervals, n: original(intervals, n) + (1, 1))
    with pytest.raises(InvariantViolation, match="past degree"):
        profile_report(builtin("S3"))


@pytest.mark.parametrize("broken", ["wrong euler", "raises"])
def test_complex_identities_suite_reports_failure(monkeypatch, broken):
    def fake_betti(C):
        if broken == "raises":
            raise InvariantViolation("Euler characteristic mismatch")
        return dataclasses.replace(betti_numbers(C), euler=10 ** 6)

    monkeypatch.setattr(spq.suites, "betti_numbers", fake_betti)
    results = spq.suites._check_complex_identities()
    assert results and not any(res.passed for res in results)
    assert all(res.computed.startswith("n=1 ") for res in results)


def test_complex_identities_suite_reports_a_failed_slice(monkeypatch):
    def failed_slice(C):
        raise NotAComplex("slice is not a subcomplex")

    monkeypatch.setattr(spq.suites, "top_slice", failed_slice)
    results = spq.suites._check_complex_identities()
    assert results and not any(res.passed for res in results)
    assert all(res.computed == "n=1 reduced: slice is not a subcomplex" for res in results)


def test_burnside_sum_must_divide_by_gamma(monkeypatch):
    # one extra chain in the identity's pass: D8's Gamma has order 4
    original = spq.lattice._count_fixed_chains

    def one_more(P, fixed, width, every, top):
        original(P, fixed, width, every, top)
        if all(fixed):
            every[1] += 1

    monkeypatch.setattr(spq.lattice, "_count_fixed_chains", one_more)
    with pytest.raises(InvariantViolation, match="not all divisible by"):
        spq.lattice.count_classes(subgroup_lattice(builtin("D8")))


def test_cyclic_extension_must_find_every_cyclic_subgroup(monkeypatch):
    # with no extension of prime index 3, S4's four subgroups of order 3 are lost
    original = spq.groups._prime_extension

    def no_index_three(G, mask, members, g):
        grown = original(G, mask, members, g)
        return 0 if grown.bit_count() == 3 * len(members) else grown

    monkeypatch.setattr(spq.groups, "_prime_extension", no_index_three)
    with pytest.raises(InvariantViolation, match="missed the cyclic subgroup"):
        all_subgroups(builtin("S4"))


@pytest.mark.parametrize("chi,top_chi,negative", [(5, 0, "pi"), (1, 3, "phi")])
def test_counted_pi_and_phi_must_not_be_negative(monkeypatch, chi, top_chi, negative):
    # at n = 2 of C2, j = 1: pi_1 = 1 - chi and phi_1 = -chi^top
    monkeypatch.setattr(spq.lattice.ChainCounts, "euler",
                        lambda self, n, top=False: top_chi if top else chi)
    with pytest.raises(InvariantViolation, match=f"negative count at n=2 .*{negative} \\[[^\\]]*-"):
        spq.reports._counted_reports(builtin("C2"), [2])


@pytest.mark.parametrize("spec", ["C1", "C6", "S3", "C2xS4"])
def test_no_group_off_a_prime_power_order_is_counted(spec):
    with pytest.raises(InvariantViolation, match="not a prime power"):
        spq.reports._counted_reports(builtin(spec), [1])


def test_checks_hold_under_optimize():
    # python -O strips assert statements; the checks above must still fire
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    run = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         os.path.abspath(__file__), "-k", "not test_checks_hold_under_optimize"],
        cwd=root, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
