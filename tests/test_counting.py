"""Class counts by Burnside over Gamma, and the reports of p-groups read off them.

The counts are matched with the walk of ``chain_classes``; the counted
reports, and the read-off of every other group, with the rank route of
``compute_report``, and with closed forms that share no code with the lattice.
"""

import math

import pytest
from helpers import gaussian_binomial
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_groups import derived_groups

import spq.lattice
import spq.reports
from spq import (
    InvariantViolation,
    builtin,
    chain_classes,
    compute_report,
    direct_product,
    filtration_levels,
    from_permutation_generators,
    subgroup_lattice,
)
from spq.lattice import chain_counts
from spq.reports import _counted_reports, read_off, same_homotopy, same_padded, same_report


def assert_counts_match_the_walk(G):
    counts = chain_counts(G)
    top = subgroup_lattice(G).top_id
    for n in filtration_levels(G):
        classes = chain_classes(G, n)
        assert same_padded(counts.at(n), [len(level) for level in classes])
        ending = [sum(1 for cls in level if cls.representative[-1] == top) for level in classes]
        assert same_padded(counts.at(n, top=True), ending)


@settings(max_examples=60, deadline=None)
@given(derived_groups())
def test_counts_of_random_groups_match_chain_classes(case):
    assert_counts_match_the_walk(case[1])


@pytest.mark.parametrize("spec", ["S4", "C2xS4", "EA(2,5)", "C2xC2xD16"])
def test_counts_match_chain_classes(spec):
    assert_counts_match_the_walk(builtin(spec))


@pytest.mark.parametrize("spec,classes", [("C2xS4", 5), ("SL2F3", 4)])
def test_count_makes_one_pass_per_conjugacy_class_of_gamma(monkeypatch, spec, classes):
    # Gamma is S4 (24 members) for C2xS4 and A4 (12) for SL2F3
    lat = subgroup_lattice(builtin(spec))
    original = spq.lattice._count_fixed_chains
    passes = []

    def counted(P, fixed, width, every, top):
        passes.append(fixed)
        original(P, fixed, width, every, top)

    monkeypatch.setattr(spq.lattice, "_count_fixed_chains", counted)
    spq.lattice.count_classes(lat)
    assert len(passes) == classes
    assert sum(size for _, size in spq.lattice._gamma_classes(lat)) == len(lat.conj_perms) + 1


# generators of C2 wr C2 wr C2 on 8 points (order 128, the Sylow 2-subgroup of
# S8) and of C3 wr C3 on 9 points (order 81)
WREATHS = (
    ((1, 0, 2, 3, 4, 5, 6, 7), (2, 3, 0, 1, 4, 5, 6, 7), (4, 5, 6, 7, 0, 1, 2, 3)),
    ((1, 2, 0, 3, 4, 5, 6, 7, 8), (3, 4, 5, 6, 7, 8, 0, 1, 2)),
)
CATALOG_P_GROUPS = (("C2", "C4", "C8", "D8", "Q8", "D16", "EA(2,3)"), ("C3", "C9", "EA(3,2)"))


@st.composite
def p_groups(draw):
    """A subgroup of a wreath product generated by random words, of order at most
    64, or a product of two catalog p-groups of one prime, of order at most 32.

    The bounds keep the rank route quick: EA(2,3)xEA(2,3) is EA(2,6).
    """
    if draw(st.booleans()):
        gens = draw(st.sampled_from(WREATHS))
        words = draw(st.lists(st.lists(st.sampled_from(gens), min_size=1, max_size=10),
                              min_size=1, max_size=2))
        elements = []
        for word in words:
            perm = tuple(range(len(gens[0])))
            for step in word:
                perm = tuple(perm[i] for i in step)
            elements.append(perm)
        G = from_permutation_generators(len(gens[0]), elements, "P")
        assume(1 < G.order <= 64)
    else:
        specs = draw(st.sampled_from(CATALOG_P_GROUPS))
        A, B = (builtin(draw(st.sampled_from(specs))) for _ in range(2))
        assume(A.order * B.order <= 32)
        G = direct_product(A, B)
    return G


@settings(max_examples=40, deadline=None)
@given(p_groups())
def test_counted_reports_of_random_p_groups_match_the_rank_route(G):
    levels = filtration_levels(G)
    ns = sorted(set(levels) | {n + 1 for n in levels})
    for n, counted in zip(ns, _counted_reports(G, ns)):
        assert same_report(counted, compute_report(G, n)), (G.order, n)


@pytest.mark.parametrize("spec", ["C1", "C6", "S3", "A4", "SL2F3", "C30", "C2xS4"])
def test_read_off_of_groups_not_of_prime_power_order_matches_the_rank_route(spec):
    # one level at a time, as `spq compute` reads off, and all levels at once,
    # off the one complex built at the largest of them
    G = builtin(spec)
    ns = list(range(1, G.order + 2))
    ranked = [compute_report(G, n) for n in ns]
    assert [read_off(G, [n])[0] for n in ns] == ranked
    assert read_off(G, ns) == ranked


def test_the_formula_is_wrong_off_prime_powers(monkeypatch):
    # C2xS4 is not concentrated: at n = 4, pi (1, 13, 13) and phi (0, 2, 0)
    G = builtin("C2xS4")
    ranked = {n: compute_report(G, n) for n in (2, 4, 6)}
    assert (ranked[4].pi, ranked[4].phi) == ((1, 13, 13), (0, 2, 0))
    monkeypatch.setattr(spq.reports, "_prime_of", lambda order: 2)
    # there the formula's phi_2 is -2, which only the sign guard catches
    with pytest.raises(InvariantViolation, match="negative count at n=4"):
        _counted_reports(G, [4])
    # at n = 2 and 6 the formula answers wrongly with no negative count
    for n in (2, 6):
        counted = _counted_reports(G, [n])[0]
        assert counted.chains == ranked[n].chains and counted.euler == ranked[n].euler
        assert not same_homotopy(counted, ranked[n])


# closed forms from the Moebius function of the subspace lattice of F_p^k
# (Hall 1936; Rota 1964): at n = p^j, phi_j and chi_n


def ea_phi(p, k, j):
    return sum((-1) ** (j - r) * p ** math.comb(r, 2) * gaussian_binomial(k, r, p)
               for r in range(j + 1))


def ea_chi(p, k, j):
    return sum((-1) ** r * p ** math.comb(r, 2)
               * sum(gaussian_binomial(k, d, p) * gaussian_binomial(k - d, r, p)
                     for d in range(k + 1))
               for r in range(j + 1))


def ea_mismatches(p, k):
    """(j, field, counted, closed form) wherever the report of EA(p,k) at n = p^j
    disagrees with the closed forms."""
    G = builtin(f"EA({p},{k})")
    out = []
    for j in range(k + 1):
        report = read_off(G, [p ** j])[0]
        chi = ea_chi(p, k, j)
        pi_j = chi if j == 0 else (-1) ** j * (chi - 1)
        for field, got, want in (("euler", report.euler, chi),
                                 ("pi", report.pi[j], pi_j),
                                 ("phi", report.phi[j], ea_phi(p, k, j))):
            if got != want:
                out.append((j, field, got, want))
    return out


EA_CASES = [(2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3)]


@pytest.mark.parametrize("p,k", EA_CASES)
def test_elementary_abelian_closed_forms(p, k):
    assert ea_mismatches(p, k) == []


def cyclic_euler(m, n):
    """sum over d | m of the sum of mu(f) over f | m/d with f <= n."""
    def mobius(f):
        sign, q = 1, 2
        while f > 1:
            if f % q == 0:
                f //= q
                if f % q == 0:
                    return 0
                sign = -sign
            q += 1
        return sign

    divisors = [d for d in range(1, m + 1) if m % d == 0]
    return sum(mobius(f) for d in divisors for f in divisors
               if (m // d) % f == 0 and f <= n)


@pytest.mark.parametrize("m", [8, 16, 27, 25, 12, 30])
def test_cyclic_euler_closed_form(m):
    G = builtin(f"C{m}")
    for n in range(1, m + 2):
        assert read_off(G, [n])[0].euler == cyclic_euler(m, n), n


def fails(check) -> bool:
    """True when ``check()`` finds a mismatch or the route's own guard raises."""
    try:
        return bool(check())
    except InvariantViolation:
        return True


def test_a_sign_fault_in_the_count_fails_the_closed_forms(monkeypatch):
    # degree 1 summed with the wrong sign
    def euler(self, n, top=False):
        return sum(c if k % 2 == 0 or k == 1 else -c for k, c in enumerate(self.at(n, top)))

    monkeypatch.setattr(spq.lattice.ChainCounts, "euler", euler)
    for p, k in EA_CASES:
        assert fails(lambda: ea_mismatches(p, k)), (p, k)
    C16 = builtin("C16")
    assert fails(lambda: [n for n in range(1, 18) if read_off(C16, [n])[0].euler != cyclic_euler(16, n)])
