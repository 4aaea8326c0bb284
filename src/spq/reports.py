"""Computation and profile reports over the whole symmetric-product filtration.

Dimension vectors are reported densely up to the degree bound
floor(log2(min(n, |G|))): a chain of degree k has total index at least 2^k,
so nothing lives above that bound and trailing zeros are printed rather
than omitted. ``_level_report`` alone pads and packs a level's report,
``padded`` refuses to cut a nonzero entry, and ``same_padded`` alone
compares vectors of different lengths.

One read-off answers: ``read_off`` gives the reports of ``spq compute``
and ``spq profile`` (also behind the published tables of ``spq verify``).
For a group of prime-power order, ``_counted_reports`` reads them off the
class counts of ``lattice.chain_counts`` with no chain listed and no rank
taken; for every other group they are read off one filtered reduction of
the complex and of its top slice. The route follows |G| alone; no option
chooses it. Either way each level's ``chains`` and Euler characteristics
come from ``chain_counts``. The rank route only checks:
``_ranked_report`` takes the ranks of a coinvariant complex and of its top
slice at one level, keeping the walk's dims. ``compute_report`` runs it on
a fresh build at one level, for the single-level checks of ``spq verify``
and the tests; the gap probes of ``profile_report`` run it in place on one
complex, built at n = |G| and checked once, and on its one top slice, with
no level copied.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import InvariantViolation
from .groups import FiniteGroup
from .homology import betti_at, betti_numbers, euler_characteristic, persistence_intervals
from .lattice import (
    OrbitComplex,
    build_complex,
    chain_counts,
    effective_level,
    filtration_levels,
    top_slice,
)


def padded(values, length: int) -> tuple[int, ...]:
    """``values`` padded with zeros or cut to ``length``.

    InvariantViolation if a cut entry is nonzero: nothing lives above the
    degree bound, so a nonzero there is a fault upstream, not a trailing zero.
    """
    if any(values[length:]):
        raise InvariantViolation(f"nonzero entry past degree {length - 1} in {tuple(values)}")
    return tuple(values[:length]) + (0,) * (length - len(values))


def same_padded(a, b) -> bool:
    """Equal vectors once the shorter is padded with zeros to the longer's length."""
    length = max(len(a), len(b))
    return padded(a, length) == padded(b, length)


@dataclass
class ComputationReport:
    """Homotopy dimensions of one group at one filtration level.

    ``pi`` are the coinvariant homology dimensions, ``phi`` the reduced
    (collapsed-quotient) ones, ``chains`` the per-degree class counts of the
    coinvariant complex.
    """

    group: str
    order: int
    n: int
    n_effective: int
    pi: tuple[int, ...]
    phi: tuple[int, ...]
    chains: tuple[int, ...]
    euler: int

    def to_json_dict(self) -> dict:
        """The fields in declaration order, vectors as lists."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {k: list(v) if isinstance(v, tuple) else v for k, v in values}

    @staticmethod
    def from_json_dict(data: dict) -> ComputationReport:
        values = ((f.name, data[f.name]) for f in fields(ComputationReport))
        return ComputationReport(**{k: tuple(v) if isinstance(v, list) else v
                                    for k, v in values})


def _level_report(G: FiniteGroup, n: int, pi, phi, chains, euler: int) -> ComputationReport:
    """Package one level's vectors, padded to floor(log2(min(n, |G|))) + 1 degrees."""
    n_eff = effective_level(G, n)
    length = n_eff.bit_length()
    return ComputationReport(
        group=G.label, order=G.order, n=n, n_effective=n_eff,
        pi=padded(pi, length), phi=padded(phi, length),
        chains=padded(chains, length), euler=euler)


def _ranked_report(G: FiniteGroup, n: int, coinv: OrbitComplex) -> ComputationReport:
    """The rank route at level n: the homology of level n of the coinvariant complex
    ``coinv``, built at n or above, and of that of its top slice, ranked in place,
    with the walk's dims at n as chains."""
    pi = betti_numbers(coinv, n)
    phi = betti_numbers(top_slice(coinv), n)
    return _level_report(G, n, pi.betti, phi.betti, pi.dims, pi.euler)


def compute_report(G: FiniteGroup, n: int) -> ComputationReport:
    """Build the coinvariant complex at level n afresh and take the rank route on it.

    The build walks level n alone, so ``spq verify`` checks each level's
    walk with it; the build is checked once, before its top slice is cut.
    """
    return _ranked_report(G, n, build_complex(G, n))


def _prime_of(order: int) -> int | None:
    """p when ``order`` is p^k for a prime p and k >= 1, else None."""
    for p in range(2, order + 1):
        if order % p == 0:
            while order % p == 0:
                order //= p
            return p if order == 1 else None
    return None


def _counted_reports(G: FiniteGroup, levels: list[int]) -> list[ComputationReport]:
    """Reports at the given levels of a group of prime-power order, by counting alone.

    For |G| = p^k the subgroup lattice is supersolvable, so each P_n is
    Cohen-Macaulay and its homology, and that of each block of pi, lies in
    the one degree j = floor(log_p n). With chi_n and chi^top_n the Euler
    characteristics of the level-n complex and of its top slice
    (``chain_counts``): for j >= 1, pi_0 = 1, pi_j = (-1)^j (chi_n - 1) and
    phi_j = (-1)^j chi^top_n; for j = 0, pi_0 = chi_n and phi_0 = chi^top_n.
    InvariantViolation if |G| is not a prime power or a count comes out
    negative.
    """
    p = _prime_of(G.order)
    if p is None:
        raise InvariantViolation(
            f"order {G.order} of {G.label} is not a prime power: its homology is not "
            "concentrated, so it cannot be counted")
    counts = chain_counts(G)
    reports = []
    for n in levels:
        n_eff = effective_level(G, n)
        chains = counts.at(n_eff)
        euler = counts.euler(n_eff)
        top_euler = counts.euler(n_eff, top=True)
        j = 0
        while p ** (j + 1) <= n_eff:
            j += 1
        if j == 0:
            pi, phi = [euler], [top_euler]
        else:
            sign = -1 if j % 2 else 1
            pi = [1] + [0] * (j - 1) + [sign * (euler - 1)]
            phi = [0] * j + [sign * top_euler]
        if min(pi + phi) < 0:
            raise InvariantViolation(
                f"negative count at n={n} of {G.label}: pi {pi}, phi {phi}")
        reports.append(_level_report(G, n, pi, phi, chains, euler))
    return reports


def same_homotopy(a: ComputationReport, b: ComputationReport) -> bool:
    """Equal pi and phi vectors after padding to a common length."""
    return same_padded(a.pi, b.pi) and same_padded(a.phi, b.phi)


def same_report(a: ComputationReport, b: ComputationReport) -> bool:
    """Equal homotopy, chain counts and Euler characteristic (n fields aside)."""
    return same_homotopy(a, b) and a.euler == b.euler and same_padded(a.chains, b.chains)


@dataclass
class ProfileRange:
    """Maximal run [start, end] of levels with one homotopy type; end None = infinity."""

    start: int
    end: int | None
    report: ComputationReport


@dataclass
class ProfileReport:
    """Reports at every realized filtration level, with constancy certification.

    ``gap_checks`` counts the intermediate levels that were recomputed to
    certify that nothing changes strictly between realized levels.
    """

    group: str
    order: int
    levels: tuple[int, ...]
    reports: tuple[ComputationReport, ...]
    ranges: tuple[ProfileRange, ...]
    gap_checks: int

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            "order": self.order,
            "levels": list(self.levels),
            "reports": [r.to_json_dict() for r in self.reports],
            "ranges": [{"start": r.start, "end": r.end,
                        "pi": list(r.report.pi), "phi": list(r.report.phi)}
                       for r in self.ranges],
            "gap_checks": self.gap_checks,
        }


_worker_group: tuple[FiniteGroup, OrbitComplex] | None = None


def _init_worker(G: FiniteGroup) -> None:
    """Keep the probed group, with its cached subgroup lattice, and its complex at
    n = |G|, built once, in the worker: the first probe checks it."""
    global _worker_group
    _worker_group = (G, build_complex(G, G.order))


def _report_in_worker(n: int) -> ComputationReport:
    G, whole = _worker_group
    return _ranked_report(G, n, whole)


def read_off(G: FiniteGroup, levels: list[int]) -> list[ComputationReport]:
    """Reports at the given levels: counted when |G| is a prime power, else read off
    one filtered reduction of each complex.

    Every level is checked (``effective_level``) before anything is built.
    Both complexes come from one build at the largest effective level: the
    reduced complex is the top slice of the coinvariant one, which is
    checked once, before it is cut. Chains and Euler targets are
    ``chain_counts``'s, so a class that the walk loses or adds fails the
    Euler check.
    """
    largest = max(effective_level(G, n) for n in levels)
    if _prime_of(G.order) is not None:
        return _counted_reports(G, levels)
    return _reduced_reports(G, levels, build_complex(G, largest))


def _reduced_reports(G: FiniteGroup, levels: list[int],
                     coinv: OrbitComplex) -> list[ComputationReport]:
    """``read_off`` of a group not of prime-power order, from its complex ``coinv``
    built at the largest of the levels."""
    counts = chain_counts(G)
    pi_intervals = persistence_intervals(coinv)
    phi_intervals = persistence_intervals(top_slice(coinv))
    reports = []
    for n in levels:
        chains = counts.at(n)
        pi = betti_at(pi_intervals, n)
        phi = betti_at(phi_intervals, n)
        euler = euler_characteristic(pi, chains)
        euler_characteristic(phi, counts.at(n, top=True))
        reports.append(_level_report(G, n, pi, phi, chains, euler))
    return reports


def profile_report(G: FiniteGroup, threads: int = 1) -> ProfileReport:
    """Reports at every realized level, certified constant in between.

    Every level comes from ``read_off``: counted for a group of prime-power
    order, else read off one filtered reduction of the coinvariant complex
    at n = |G| and of its top slice, with the Euler characteristics checked
    against ``chain_counts``.
    One intermediate n per gap between consecutive realized levels, and one
    n beyond the group order, is then probed: the rank route ranks level n
    of the complex at n = |G| in place, which is the complex built at n,
    and must reproduce the report of the level below. These gap probes
    check the read-off by ranks, and the walk's chains against the count.
    The complex at |G| is built once and checked once, for d o d = 0 and
    for every level being a subcomplex, by whichever step first ranks or
    cuts it; its top slice is cut once and serves the read-off and every
    probe. With ``threads`` > 1 the probes run in up to that many worker
    processes, one per probe at most, each building that complex once,
    while the levels are read off.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    levels = filtration_levels(G)
    probes = [(levels[i] + 1, i)
              for i in range(len(levels) - 1) if levels[i] + 1 < levels[i + 1]]
    probes.append((G.order + 1, len(levels) - 1))
    if threads > 1:
        # imported here, as cli.py imports the verification layers: loading
        # concurrent.futures adds about 5 ms to a command that does not use it
        from concurrent.futures import ProcessPoolExecutor

        # under fork the pool starts every worker up front: start no idle ones
        with ProcessPoolExecutor(max_workers=min(threads, len(probes)),
                                 initializer=_init_worker,
                                 initargs=(G,)) as pool:
            pending = pool.map(_report_in_worker, [mid for mid, _ in probes])
            reports = read_off(G, levels)
            probed = list(pending)
    else:
        whole = build_complex(G, G.order)
        reports = (_counted_reports(G, levels) if _prime_of(G.order) is not None
                   else _reduced_reports(G, levels, whole))
        probed = [_ranked_report(G, mid, whole) for mid, _ in probes]
    for (mid, below), probe in zip(probes, probed):
        if not same_report(probe, reports[below]):
            raise InvariantViolation(
                f"filtration level jumped at non-divisor n={mid} of {G.label}")
    ranges: list[ProfileRange] = []
    for level, report in zip(levels, reports):
        if ranges and same_homotopy(ranges[-1].report, report):
            continue
        ranges.append(ProfileRange(start=level, end=None, report=report))
    for cur, nxt in zip(ranges, ranges[1:]):
        cur.end = nxt.start - 1
    return ProfileReport(group=G.label, order=G.order, levels=tuple(levels),
                         reports=tuple(reports), ranges=tuple(ranges),
                         gap_checks=len(probes))
