"""The functions that the benchmark's span tracer wraps by name still exist.

The tracer looks each (module, attribute) pair up at run time and reports a
missing one as a layer of zero time, so a rename would silently zero a
per-layer metric. The pairs are listed here rather than read from the
benchmark, so that this test fails on the rename itself.
"""

import importlib

import pytest

TRACED_NAMES = (
    ("spq.groups", "all_subgroups"),
    ("spq.lattice", "subgroup_lattice"),
    ("spq.lattice", "chains_up_to"),
    ("spq.lattice", "chain_classes"),
    ("spq.lattice", "build_complex"),
    ("spq.intmatrix", "rank_exact"),
    ("spq.homology", "betti_numbers"),
    ("spq.homology", "coinvariants_of_homology_oracle"),
    ("spq.reports", "compute_report"),
    ("spq.reports", "profile_report"),
    ("spq.global_functor", "restrict"),
    ("spq.global_functor", "verify_d0_compatibility"),
    ("spq.global_functor", "transfer"),
    ("spq.partition", "fixed_partition_poset"),
    ("spq.partition", "_reduced_betti_augmented"),
    ("spq.cli", "main"),
)


@pytest.mark.parametrize("module,attr", TRACED_NAMES)
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
