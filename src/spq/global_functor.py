"""Chain-level transfer and restriction operators with exact rational coefficients.

Vectors live in the coinvariant complex of one group at one filtration
level; keys are chains of subgroup member masks in canonical (least
conjugate) form. Transfer along H <= G multiplies by the index [G : H];
restriction along psi: G -> K sums over the double cosets im(psi)\\K/H_0
with coefficient [G : psi^-1(k H_0 k^-1)] / [K : H_0].
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    all_subgroups,
    core_in,
    is_normal,
    quotient,
)
from .lattice import REDUCED, chain_classes, subgroup_lattice

MaskChain = tuple[int, ...]


def _subgroup_of(G: FiniteGroup, mask: int) -> Subgroup:
    return Subgroup(G, mask, mask.bit_count())


def _canonical_masks(G: FiniteGroup, masks: MaskChain) -> MaskChain:
    """Least conjugate of a chain given by member masks (repeats allowed)."""
    lat = subgroup_lattice(G)
    ids = tuple(lat.id_of_mask(m) for m in masks)
    return lat.masks(lat.canonical(ids))


@dataclass
class ChainVector:
    """Rational linear combination of chain classes at one filtration level."""

    group: FiniteGroup
    n: int
    degree: int
    coefficients: dict[MaskChain, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        lat = subgroup_lattice(self.group)
        n_eff = min(self.n, self.group.order)
        merged: dict[MaskChain, Fraction] = {}
        for masks, coeff in self.coefficients.items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if len(masks) != self.degree + 1:
                raise ValueError("chain length disagrees with the stated degree")
            try:
                ids = tuple(lat.id_of_mask(m) for m in masks)
            except KeyError as exc:
                raise ValueError(
                    f"mask {exc.args[0]:#x} is not a subgroup of "
                    f"{self.group.label}") from None
            for a, b in zip(masks, masks[1:]):
                if a & b != a or a == b:
                    raise ValueError("chain is not strictly increasing")
            if masks[-1].bit_count() // masks[0].bit_count() > n_eff:
                raise FiltrationViolation(
                    f"chain of index {masks[-1].bit_count() // masks[0].bit_count()} "
                    f"at level {n_eff}")
            canon = lat.masks(lat.canonical(ids))
            merged[canon] = merged.get(canon, Fraction(0)) + coeff
        self.coefficients = {k: v for k, v in sorted(merged.items()) if v != 0}

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def _require_compatible(self, other: ChainVector) -> None:
        if (self.group is not other.group or self.n != other.n
                or self.degree != other.degree):
            raise ValueError("chain vectors live in different spaces")

    def __add__(self, other: ChainVector) -> ChainVector:
        self._require_compatible(other)
        out = dict(self.coefficients)
        for k, v in other.coefficients.items():
            out[k] = out.get(k, Fraction(0)) + v
        return ChainVector(self.group, self.n, self.degree, out)

    def __sub__(self, other: ChainVector) -> ChainVector:
        return self + other.scaled(Fraction(-1))

    def scaled(self, factor) -> ChainVector:
        factor = Fraction(factor)
        return ChainVector(self.group, self.n, self.degree,
                           {k: v * factor for k, v in self.coefficients.items()})


def basis_vector(G: FiniteGroup, n: int, masks: MaskChain, coeff=1) -> ChainVector:
    return ChainVector(G, n, len(masks) - 1, {tuple(masks): Fraction(coeff)})


@dataclass(frozen=True)
class DoubleCosetDecomposition:
    """Orbits of K under (g, h) . k = psi(g) k h, i.e. im(psi)\\K/H_0 cosets.

    Representatives are the least element of each orbit, listed in increasing
    order; ``orbits`` holds the full orbits for verification.
    """

    hom: GroupHom
    base_subgroup: Subgroup
    representatives: tuple[int, ...]
    orbits: tuple[tuple[int, ...], ...]


def double_coset_decomposition(hom: GroupHom,
                               base: Subgroup) -> DoubleCosetDecomposition:
    K = hom.target
    if base.parent is not K:
        raise ValueError("base subgroup must live in the target group")
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
    return DoubleCosetDecomposition(hom, base, tuple(reps), tuple(orbits))


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
    idx = G.order // H.order
    out: dict[MaskChain, Fraction] = {}
    for masks, coeff in v.coefficients.items():
        ambient = tuple(_image_mask(m, emb.to_ambient) for m in masks)
        canon = _canonical_masks(G, ambient)
        out[canon] = out.get(canon, Fraction(0)) + coeff * idx
    return ChainVector(G, v.n, v.degree, out)


def _image_mask(mask: int, images) -> int:
    """Mask of the images of the members of ``mask``; ``images[g]`` is g's image."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << images[low.bit_length() - 1]
        mask ^= low
    return out


def _restriction_memo(psi: GroupHom) -> tuple[dict[int, tuple[int, ...]], dict[int, int]]:
    """Caches of one psi: double-coset representatives per base mask, preimage per mask.

    Kept on psi itself, the way ``FiniteGroup.embedded_subgroup`` caches its
    results on the group.
    """
    return psi.__dict__.setdefault("_restriction_memo", ({}, {}))


def _restrict_chain_terms(psi: GroupHom, masks: MaskChain, n: int,
                          keep_degenerate: bool) -> dict[MaskChain, Fraction]:
    """Raw double-coset expansion of one chain class under psi.

    With ``keep_degenerate`` the weakly increasing pullback chains survive
    (the unnormalized simplicial picture); otherwise they are dropped, which
    is the normalized-complex convention used by ``restrict``.
    """
    G, K = psi.source, psi.target
    n_eff = min(n, G.order)
    reps_of, preimages = _restriction_memo(psi)
    reps = reps_of.get(masks[0])
    if reps is None:
        dec = double_coset_decomposition(psi, _subgroup_of(K, masks[0]))
        reps = reps_of[masks[0]] = dec.representatives
    out: dict[MaskChain, Fraction] = {}
    for k in reps:
        conj = masks if k == 0 else tuple(K.conjugate_mask(m, k) for m in masks)
        for m in conj:
            if m not in preimages:
                preimages[m] = psi.preimage_mask(m)
        pulled = tuple(preimages[m] for m in conj)
        coeff = Fraction(G.order // pulled[0].bit_count(),
                         K.order // masks[0].bit_count())
        if not keep_degenerate and any(a == b for a, b in zip(pulled, pulled[1:])):
            continue
        # the pullback index never exceeds the original one, so this cannot
        # fire through the public API; kept as a guard on the contract
        if pulled[-1].bit_count() // pulled[0].bit_count() > n_eff:
            raise FiltrationViolation("pulled-back chain left the filtration")
        canon = _canonical_masks(G, pulled)
        out[canon] = out.get(canon, Fraction(0)) + coeff
    return {k: v for k, v in out.items() if v != 0}


def restrict(psi: GroupHom, v: ChainVector) -> ChainVector:
    """Restriction along psi: G -> K of a vector over L(K)_n, landing in L(G)_n.

    Surjective psi gives a single summand per class; in general the sum runs
    over double-coset representatives with fractional coefficients.
    Pullback chains with a repeated subgroup are degenerate and vanish in
    the normalized complex.
    """
    if v.group is not psi.target:
        raise ValueError("vector does not live over the target of psi")
    out: dict[MaskChain, Fraction] = {}
    for masks, coeff in v.coefficients.items():
        for key, co in _restrict_chain_terms(psi, masks, v.n,
                                             keep_degenerate=False).items():
            out[key] = out.get(key, Fraction(0)) + coeff * co
    return ChainVector(psi.source, v.n, v.degree, out)


def boundary(v: ChainVector) -> ChainVector:
    """Alternating sum of face deletions, on coinvariant chain vectors."""
    if v.degree < 1:
        raise ValueError("boundary needs degree at least 1")
    out: dict[MaskChain, Fraction] = {}
    for masks, coeff in v.coefficients.items():
        for i in range(len(masks)):
            face = masks[:i] + masks[i + 1:]
            canon = _canonical_masks(v.group, face)
            sign = 1 if i % 2 == 0 else -1
            out[canon] = out.get(canon, Fraction(0)) + coeff * sign
    return ChainVector(v.group, v.n, v.degree - 1, out)


def verify_d0_compatibility(psi: GroupHom, masks: MaskChain, n: int) -> bool:
    """Check that restriction commutes with the bottom face d_0.

    Both sides are expanded as raw simplicial sums (degenerate pullback
    chains retained), because d_0 alone does not descend to the normalized
    complex; the full boundary does, and its compatibility follows from this
    face-level identity.
    """
    if len(masks) < 2:
        raise ValueError("d_0 compatibility needs a chain of degree >= 1")
    G = psi.source
    lhs = _restrict_chain_terms(psi, tuple(masks[1:]), n, keep_degenerate=True)
    rhs: dict[MaskChain, Fraction] = {}
    for key, co in _restrict_chain_terms(psi, tuple(masks), n,
                                         keep_degenerate=True).items():
        face = _canonical_masks(G, key[1:])
        rhs[face] = rhs.get(face, Fraction(0)) + co
    rhs = {k: v for k, v in rhs.items() if v != 0}
    return lhs == rhs


def is_simple(G: FiniteGroup, masks: MaskChain) -> bool:
    """True when the bottom subgroup holds no nontrivial normal subgroup of the top."""
    bottom = _subgroup_of(G, masks[0])
    top = _subgroup_of(G, masks[-1])
    return core_in(bottom, top).order == 1


def simple_decomposition(
        G: FiniteGroup, masks: MaskChain) -> tuple[Subgroup, MaskChain, GroupHom]:
    """Split a chain ending at G into its core and a simple chain in the quotient.

    Returns (N, image chain, projection) where N is the largest subgroup of
    the bottom normal in G; the image chain in G/N is simple by construction.
    """
    full = (1 << G.order) - 1
    if masks[-1] != full:
        raise ChainNotEndingAtTop("simple decomposition needs a chain ending at G")
    core = core_in(_subgroup_of(G, masks[0]), G.full_subgroup)
    Q, proj = quotient(G, core)
    image_chain = tuple(_image_mask(m, proj.image_of) for m in masks)
    if not is_simple(Q, image_chain):
        raise InvariantViolation("quotient chain failed to be simple")
    return core, image_chain, proj


def verify_projective_decomposition(G: FiniteGroup, n: int, k: int,
                                    product_cap: int = DEFAULT_PRODUCT_CAP) -> bool:
    """Check the simple-chain fiber decomposition of degree-k classes.

    Classes of k-chains of index <= n ending at G must correspond, via
    (core, image chain in G/core), one to one with pairs of a normal
    subgroup N and a simple reduced class of G/N at the same level.
    """
    if G.order * G.order > product_cap:
        raise ProductCapExceeded(
            f"|G|^2 = {G.order * G.order} exceeds the cap {product_cap}")
    lat = subgroup_lattice(G)
    classes = chain_classes(G, n, REDUCED)
    chains = ([lat.masks(c.representative) for c in classes[k]]
              if k < len(classes) else [])
    seen: dict[tuple[int, MaskChain], MaskChain] = {}
    for masks in chains:
        core, image_chain, proj = simple_decomposition(G, masks)
        key = (core.members, _canonical_masks(proj.target, image_chain))
        if key in seen:
            return False
        seen[key] = masks
    expected: set[tuple[int, MaskChain]] = set()
    for N in all_subgroups(G):
        if not is_normal(N):
            continue
        Q, _ = quotient(G, N)
        q_classes = chain_classes(Q, n, REDUCED)
        if k >= len(q_classes):
            continue
        q_lat = subgroup_lattice(Q)
        for cls in q_classes[k]:
            q_masks = q_lat.masks(cls.representative)
            if is_simple(Q, q_masks):
                expected.add((N.members, q_masks))
    return set(seen) == expected
