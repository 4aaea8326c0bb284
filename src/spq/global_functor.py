"""Chain-level transfer and restriction operators with exact rational coefficients.

Vectors live in the coinvariant complex of one group at one filtration
level; keys are chains of subgroup ids of ``subgroup_lattice(group)``.
``ChainVector`` puts raw keys into canonical (least conjugate) form.
Transfer along H <= G multiplies by the index [G : H]; restriction along
psi: G -> K sums over the double cosets im(psi)\\K/H_0 with coefficient
[G : psi^-1(k H_0 k^-1)] / [K : H_0], conjugating by the representatives
k alone.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from collections.abc import Callable, Iterable
from fractions import Fraction

from .errors import (
    ChainNotEndingAtTop,
    ChainNotInSubgroup,
    FiltrationViolation,
    InvariantViolation,
    ProductCapExceeded,
)
from .groups import (
    DEFAULT_PRODUCT_CAP,
    FiniteGroup,
    GroupHom,
    Subgroup,
    _derived,
    _image_mask,
    core_in,
    quotient,
)
from .lattice import SubgroupLattice, chain_classes, effective_level, subgroup_lattice


def _check_chains(G: FiniteGroup, n: int, degree: int,
                  chains: Iterable[tuple[int, ...]]) -> SubgroupLattice:
    """Validate id chains of one degree at level n over G; returns G's lattice.

    Only a total index above min(n, |G|) raises ``FiltrationViolation``;
    every other defect raises ``ValueError``.
    """
    n_eff = effective_level(G, n)
    if degree < 0:
        raise ValueError(f"chain degree must be at least 0, got {degree}")
    lat = subgroup_lattice(G)
    subs, orders = lat.subgroups, lat.orders
    for ids in chains:
        if len(ids) != degree + 1:
            raise ValueError("chain length disagrees with the stated degree")
        for i in ids:
            if not 0 <= i < len(subs):
                raise ValueError(f"id {i} is not a subgroup of {G.label}")
        for a, b in zip(ids, ids[1:]):
            low = subs[a].members
            if a == b or low & subs[b].members != low:
                raise ValueError("chain is not strictly increasing")
        if orders[ids[-1]] // orders[ids[0]] > n_eff:
            raise FiltrationViolation(
                f"chain of index {orders[ids[-1]] // orders[ids[0]]} at level {n_eff}")
    return lat


class ChainVector:
    """Rational linear combination of chain classes at one filtration level.

    ``coefficients`` maps chains of ids to their coefficients, none by
    default; they are checked, put in canonical form and merged. Two vectors
    are equal when their group object, level, degree and coefficients are.
    """

    def __init__(self, group: FiniteGroup, n: int, degree: int,
                 coefficients: dict[tuple[int, ...], Fraction] | None = None):
        self.group = group
        self.n = n
        self.degree = degree
        coeffs = {ids: Fraction(c) for ids, c in (coefficients or {}).items() if c}
        lat = _check_chains(group, n, degree, coeffs)
        merged: dict[tuple[int, ...], Fraction] = {}
        for ids, coeff in coeffs.items():
            canon = lat.canonical(ids)
            merged[canon] = merged.get(canon, Fraction(0)) + coeff
        self.coefficients = {k: v for k, v in sorted(merged.items()) if v != 0}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.group, self.n, self.degree, self.coefficients)
                == (other.group, other.n, other.degree, other.coefficients))


def basis_vector(G: FiniteGroup, n: int, ids: tuple[int, ...], coeff=1) -> ChainVector:
    return ChainVector(G, n, len(ids) - 1, {tuple(ids): Fraction(coeff)})


class DoubleCosetDecomposition(namedtuple("DoubleCosetDecomposition",
                                           "representatives orbits")):
    """Orbits of K under (g, h) . k = psi(g) k h, i.e. im(psi)\\K/H_0 cosets.

    Representatives are the least element of each orbit, listed in increasing
    order; ``orbits`` holds the full orbits for verification.
    """

    __slots__ = ()


def double_coset_decomposition(hom: GroupHom,
                               base: Subgroup) -> DoubleCosetDecomposition:
    """The double cosets im(hom)\\K/base, K the target of ``hom``.

    A surjective ``hom`` has the single coset K, with representative 0; it
    is returned without forming any product. Otherwise each orbit is the
    set of products a k h over a in im(hom) and h in ``base``.
    """
    K = hom.target
    if base.parent is not K:
        raise ValueError("base subgroup must live in the target group")
    if hom.surjective:
        return DoubleCosetDecomposition((0,), (tuple(K.elements()),))
    image = [g for g in K.elements() if hom.image_mask >> g & 1]
    h0 = base.elements
    seen = [False] * K.order
    reps, orbits = [], []
    for k in K.elements():
        if seen[k]:
            continue
        orbit = sorted({K.mul[K.mul[a][k]][h] for a in image for h in h0})
        for x in orbit:
            seen[x] = True
        reps.append(k)
        orbits.append(tuple(orbit))
    return DoubleCosetDecomposition(tuple(reps), tuple(orbits))


def transfer(H: Subgroup, v: ChainVector) -> ChainVector:
    """Transfer along H <= G: relabel chains into G and multiply by [G : H].

    ``v`` must live over the standalone group of H (``H.as_group``); the
    chains are re-canonicalized under conjugation by the larger group.
    """
    emb = H.as_group
    if v.group is not emb.group:
        raise ChainNotInSubgroup(
            "vector does not live over the subgroup's own group")
    G = H.parent
    lat = subgroup_lattice(G)
    to_ambient = tuple(lat.id_of_mask(_image_mask(s.members, emb.to_ambient))
                       for s in subgroup_lattice(emb.group).subgroups)
    idx = G.order // H.order
    out = {tuple(to_ambient[i] for i in ids): coeff * idx
           for ids, coeff in v.coefficients.items()}
    return ChainVector(G, v.n, v.degree, out)


def _restriction_memo(psi: GroupHom) -> tuple[dict[int, tuple[tuple[int, ...], ...]],
                                              tuple[int, ...]]:
    """The caches of one psi: per base id, filled as bases are met, one pullback
    table per double-coset representative k (the id of L in the target -> the
    id of psi^-1(k L k^-1)); and ``preimage``, which is the table of k = 0.

    Kept on psi through ``_derived``, like the subgroup lattice on a group.
    """
    def build():
        source, target = subgroup_lattice(psi.source), subgroup_lattice(psi.target)
        return {}, tuple(source.id_of_mask(psi.preimage_mask(s.members))
                         for s in target.subgroups)
    return _derived(psi, "_restriction_memo", None, build)


def _pullback_expander(psi: GroupHom, n: int, keep_degenerate: bool
                       ) -> Callable[[tuple[int, ...]], tuple[dict[tuple[int, ...], int], int]]:
    """The raw double-coset expansion of one chain class under psi, in integers.

    ``expand(ids)`` returns (numerators by canonical chain, denominator): the
    coefficient [G : psi^-1(k H_0 k^-1)] / [K : H_0] of every term of one
    chain shares the denominator [K : H_0], so only the numerators are
    summed. The pullback tables are those of psi's memo, one per double-coset
    representative of the chain's bottom subgroup, made the first time that
    bottom is met; psi's memo and both lattices, memoized on their groups,
    are read once, when the expander is made.

    With ``keep_degenerate`` the weakly increasing pullback chains survive
    (the unnormalized simplicial picture); otherwise they are dropped, which
    is the normalized-complex convention used by ``restrict``.
    """
    G, K = psi.source, psi.target
    n_eff = effective_level(G, n)
    tables_of, preimage = _restriction_memo(psi)
    source, target = subgroup_lattice(G), subgroup_lattice(K)
    orders, canonical = source.orders, source.canonical

    def expand(ids: tuple[int, ...]) -> tuple[dict[tuple[int, ...], int], int]:
        tables = tables_of.get(ids[0])
        if tables is None:
            dec = double_coset_decomposition(psi, target.subgroups[ids[0]])
            tables = tables_of[ids[0]] = tuple(
                preimage if k == 0 else tuple(preimage[i] for i in target._conjugation_perm(k))
                for k in dec.representatives)
        sums: dict[tuple[int, ...], int] = {}
        for table in tables:
            pulled = tuple([table[i] for i in ids])
            if not keep_degenerate and any(a == b for a, b in zip(pulled, pulled[1:])):
                continue
            # the pullback index never exceeds the original one, so this cannot
            # fire through the public API; kept as a guard on the contract
            if orders[pulled[-1]] // orders[pulled[0]] > n_eff:
                raise FiltrationViolation("pulled-back chain left the filtration")
            canon = canonical(pulled)
            sums[canon] = sums.get(canon, 0) + G.order // orders[pulled[0]]
        return sums, K.order // target.orders[ids[0]]
    return expand


def _same_ratios(lhs: dict[tuple[int, ...], int], lhs_den: int,
                 rhs: dict[tuple[int, ...], int], rhs_den: int) -> bool:
    """True when lhs / lhs_den and rhs / rhs_den are one vector; zero entries are ignored.

    A key missing on one side counts as zero there. Both denominators are
    positive, so a cross-multiplied zero matches only a zero. One loop
    compares every key of lhs; the other needs only find a nonzero key of
    rhs that lhs lacks, as the shared keys are compared already.
    """
    for key, num in lhs.items():
        if num * rhs_den != rhs.get(key, 0) * lhs_den:
            return False
    for key, num in rhs.items():
        if num and key not in lhs:
            return False
    return True


def restrict(psi: GroupHom, v: ChainVector) -> ChainVector:
    """Restriction along psi: G -> K of a vector over L(K)_n, landing in L(G)_n.

    Surjective psi gives a single summand per class; in general the sum runs
    over double-coset representatives with fractional coefficients.
    Pullback chains with a repeated subgroup are degenerate and vanish in
    the normalized complex.
    """
    if v.group is not psi.target:
        raise ValueError("vector does not live over the target of psi")
    out: dict[tuple[int, ...], Fraction] = {}
    expand = _pullback_expander(psi, v.n, keep_degenerate=False)
    for ids, coeff in v.coefficients.items():
        nums, den = expand(ids)
        for key, num in nums.items():
            if num:
                out[key] = out.get(key, Fraction(0)) + coeff * Fraction(num, den)
    return ChainVector(psi.source, v.n, v.degree, out)


def boundary(v: ChainVector) -> ChainVector:
    """Alternating sum of face deletions, on coinvariant chain vectors."""
    if v.degree < 1:
        raise ValueError("boundary needs degree at least 1")
    out: dict[tuple[int, ...], Fraction] = {}
    for ids, coeff in v.coefficients.items():
        for i in range(len(ids)):
            face = ids[:i] + ids[i + 1:]
            out[face] = out.get(face, Fraction(0)) + (coeff if i % 2 == 0 else -coeff)
    return ChainVector(v.group, v.n, v.degree - 1, out)


def verify_d0_compatibility(psi: GroupHom, chains: Iterable[tuple[int, ...]], n: int) -> bool:
    """Check that restriction commutes with the bottom face d_0 on every chain.

    ``chains`` are chains of one degree (at least 1) over the target of psi
    at level n; the answer is True when the identity holds for all of them.
    Both sides are expanded as raw simplicial sums (degenerate pullback
    chains retained), because d_0 alone does not descend to the normalized
    complex; the full boundary does, and its compatibility follows from
    this face-level identity. Every call validates its whole batch
    (``_check_chains``), then makes ``_d0_pass`` over it.
    """
    chains = tuple(chains)
    if not chains:
        raise ValueError("d_0 compatibility needs at least one chain")
    _check_chains(psi.target, n, len(chains[0]) - 1, chains)
    if len(chains[0]) < 2:
        raise ValueError("d_0 compatibility needs a chain of degree >= 1")
    return _d0_pass(psi, chains, n)


def _d0_pass(psi: GroupHom, chains: Iterable[tuple[int, ...]], n: int) -> bool:
    """``verify_d0_compatibility`` on a batch the caller has validated: chains of one
    degree, at least 1, over the target of psi at level n.

    One pass takes each chain in turn: its tail ids[1:] is expanded on its
    own bottom's tables (once per distinct tail in this call; nothing is
    kept after it returns), the chain is expanded, each term is mapped
    through d_0, and the two sides are compared. The first chain that fails
    ends the pass.

    The comparison is exact and integer (``_same_ratios``): each side is a
    dict of numerators over one denominator, and the sides agree when they
    have the same keys with a nonzero numerator and
    lhs[k] * rhs_den == rhs[k] * lhs_den for every key.
    """
    canonical = subgroup_lattice(psi.source).canonical
    expand = _pullback_expander(psi, n, keep_degenerate=True)
    lhs_of: dict[tuple[int, ...], tuple[dict[tuple[int, ...], int], int]] = {}
    for ids in chains:
        tail = ids[1:]
        lhs = lhs_of.get(tail)
        if lhs is None:
            lhs = lhs_of[tail] = expand(tail)
        terms, rhs_den = expand(ids)
        rhs: dict[tuple[int, ...], int] = {}
        for key, num in terms.items():
            face = canonical(key[1:])
            rhs[face] = rhs.get(face, 0) + num
        if not _same_ratios(*lhs, rhs, rhs_den):
            return False
    return True


def is_simple(G: FiniteGroup, ids: tuple[int, ...]) -> bool:
    """True when the bottom subgroup holds no nontrivial normal subgroup of the top."""
    subs = _check_chains(G, G.order, len(ids) - 1, (ids,)).subgroups
    return core_in(subs[ids[0]], subs[ids[-1]]).order == 1


def simple_decomposition(
        G: FiniteGroup, ids: tuple[int, ...]) -> tuple[Subgroup, tuple[int, ...], GroupHom]:
    """Split a chain ending at G into its core and a simple chain in the quotient.

    Returns (N, image chain, projection) where N is the largest subgroup of
    the bottom normal in G; the image chain in G/N is simple by construction.
    """
    lat = _check_chains(G, G.order, len(ids) - 1, (ids,))
    if ids[-1] != lat.top_id:
        raise ChainNotEndingAtTop("simple decomposition needs a chain ending at G")
    core = core_in(lat.subgroups[ids[0]], G.full_subgroup)
    Q, proj = quotient(G, core)
    q_lat = subgroup_lattice(Q)
    image_chain = tuple(q_lat.id_of_mask(_image_mask(m, proj.image_of))
                        for m in lat.masks(ids))
    if not is_simple(Q, image_chain):
        raise InvariantViolation("quotient chain failed to be simple")
    return core, image_chain, proj


def _fiber_keys(G: FiniteGroup, n: int) -> tuple[list[set | None], dict[int, set]]:
    """Per degree, the (core, image chain) keys of G's reduced classes at level n
    (None if two classes share a key) and the (N, simple class of G/N) pairs
    they must match, from the classes ending at the top of G and of each
    quotient; trailing degrees may hold none."""
    lat = subgroup_lattice(G)
    seen: list[set[tuple[int, tuple[int, ...]]] | None] = []
    for level in chain_classes(G, n):
        reduced = [cls for cls in level if cls.representative[-1] == lat.top_id]
        keys = set()
        for cls in reduced:
            core, image_chain, proj = simple_decomposition(G, cls.representative)
            keys.add((core.members, subgroup_lattice(proj.target).canonical(image_chain)))
        seen.append(keys if len(keys) == len(reduced) else None)
    expected: dict[int, set[tuple[int, tuple[int, ...]]]] = defaultdict(set)
    for N, moves in zip(lat.subgroups, lat.moves):
        if len(moves) > 1:  # conjugation moves N, so N is not normal
            continue
        Q, _ = quotient(G, N)
        top = subgroup_lattice(Q).top_id
        for k, level in enumerate(chain_classes(Q, n)):
            expected[k].update((N.members, cls.representative) for cls in level
                               if cls.representative[-1] == top
                               and is_simple(Q, cls.representative))
    return seen, expected


def verify_projective_decomposition(G: FiniteGroup, n: int, k: int) -> bool:
    """Check the simple-chain fiber decomposition of degree-k classes.

    Classes of k-chains of index <= n ending at G must correspond, via
    (core, image chain in G/core), one to one with pairs of a normal
    subgroup N and a simple reduced class of G/N at the same level.
    """
    if k < 0:
        raise ValueError(f"chain degree must be at least 0, got {k}")
    if G.order * G.order > DEFAULT_PRODUCT_CAP:
        raise ProductCapExceeded(
            f"|G|^2 = {G.order * G.order} exceeds the cap {DEFAULT_PRODUCT_CAP}")
    seen, expected = _fiber_keys(G, n)
    return (seen[k] if k < len(seen) else set()) == expected[k]
