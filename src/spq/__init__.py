"""Rational homotopy of symmetric products of equivariant sphere spectra.

The dimensions of the rationalized equivariant homotopy groups of the n-th
symmetric product are the rational Betti numbers of the conjugation
coinvariants of the index-filtered subgroup lattice; the geometric
fixed-point version uses the reduced complex of chains ending at the full
group. Everything is computed with exact integer and rational arithmetic.
"""

from .errors import (
    BasisCapExceeded,
    ChainNotEndingAtTop,
    ChainNotInSubgroup,
    FiltrationViolation,
    InvalidPermutation,
    InvariantViolation,
    NotAComplex,
    NotAGroup,
    NotASubgroupInclusion,
    NotNormal,
    OrderCapExceeded,
    ProductCapExceeded,
    ResourceCapExceeded,
    SizeCapExceeded,
    SpqError,
    UnknownSpec,
)
from .global_functor import (
    ChainVector,
    DoubleCosetDecomposition,
    basis_vector,
    boundary,
    double_coset_decomposition,
    is_simple,
    restrict,
    simple_decomposition,
    transfer,
    verify_d0_compatibility,
    verify_projective_decomposition,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    all_subgroups,
    builtin,
    core_in,
    direct_product,
    enumerate_homomorphisms,
    from_cayley_table,
    from_permutation_generators,
    group_from_json,
    index,
    is_normal,
    normalizer,
    quotient,
)
from .homology import (
    HomologyResult,
    betti_numbers,
    coinvariants_of_homology_oracle,
)
from .intmatrix import SparseIntMatrix, rank_exact
from .lattice import (
    ChainClass,
    SubgroupLattice,
    build_complex,
    chain_classes,
    chains_up_to,
    conjugacy_classes_of_subgroups,
    filtration_levels,
    level_cut,
    subgroup_lattice,
    top_slice,
)
from .partition import (
    GSet,
    Poset,
    check_transitive_iso,
    fixed_partition_poset,
    interval_poset,
    invariant_partitions,
    reduced_betti_of_order_complex,
    subgroup_conjugation_action,
)
from .reports import (
    ComputationReport,
    ProfileReport,
    compute_report,
    profile_report,
    read_off,
)

__version__ = "0.1.0"
