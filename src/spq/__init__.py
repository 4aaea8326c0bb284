"""Rational homotopy of symmetric products of equivariant sphere spectra.

The dimensions of the rationalized equivariant homotopy groups of the n-th
symmetric product are the rational Betti numbers of the conjugation
coinvariants of the index-filtered subgroup lattice; the geometric
fixed-point version uses the reduced complex of chains ending at the full
group. Everything is computed with exact integer and rational arithmetic.

``import spq`` loads no submodule. Each exported name is looked up in the
submodule that defines it on first use (PEP 562), so a program that uses
only ``spq.builtin`` loads ``spq.groups`` alone, and the verification
layers (``global_functor``, ``partition``, ``suites``) load only when one
of their names is used.
"""

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_SUBMODULE = {name: module for module, names in (
    ("errors", (
        "BasisCapExceeded", "ChainNotEndingAtTop", "ChainNotInSubgroup",
        "FiltrationViolation", "InvalidPermutation", "InvariantViolation",
        "NotAComplex", "NotAGroup", "NotASubgroupInclusion", "NotNormal",
        "OrderCapExceeded", "ProductCapExceeded", "ResourceCapExceeded",
        "SizeCapExceeded", "SpqError", "UnknownSpec")),
    ("global_functor", (
        "ChainVector", "DoubleCosetDecomposition", "basis_vector", "boundary",
        "double_coset_decomposition", "is_simple", "restrict",
        "simple_decomposition", "transfer", "verify_d0_compatibility",
        "verify_projective_decomposition")),
    ("groups", (
        "FiniteGroup", "GroupHom", "Subgroup", "all_subgroups", "builtin",
        "core_in", "direct_product", "enumerate_homomorphisms",
        "from_cayley_table", "from_permutation_generators", "group_from_json",
        "index", "is_normal", "normalizer", "quotient")),
    ("homology", ("HomologyResult", "betti_numbers", "coinvariants_of_homology_oracle")),
    ("intmatrix", ("SparseIntMatrix", "rank_exact")),
    ("lattice", (
        "ChainClass", "SubgroupLattice", "build_complex", "chain_classes",
        "chains_up_to", "conjugacy_classes_of_subgroups", "filtration_levels",
        "level_cut", "subgroup_lattice", "top_slice")),
    ("partition", (
        "GSet", "Poset", "check_transitive_iso", "fixed_partition_poset",
        "interval_poset", "invariant_partitions", "reduced_betti_of_order_complex",
        "subgroup_conjugation_action")),
    ("reports", (
        "ComputationReport", "ProfileReport", "compute_report", "profile_report",
        "read_off")),
) for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    # not cached here, so that spq.X is always the submodule's current binding
    from importlib import import_module

    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
