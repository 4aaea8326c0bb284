"""What `import spq` and each command load, and the names the package exports."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import spq

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

# every name `spq` exports, pinned so that a name dropped from its table fails here
EXPORTED = [
    "BasisCapExceeded", "ChainClass", "ChainNotEndingAtTop", "ChainNotInSubgroup",
    "ChainVector", "ComputationReport", "DoubleCosetDecomposition",
    "FiltrationViolation", "FiniteGroup", "GSet", "GroupHom", "HomologyResult",
    "InvalidPermutation", "InvariantViolation", "NotAComplex", "NotAGroup",
    "NotASubgroupInclusion", "NotNormal", "OrderCapExceeded", "Poset",
    "ProductCapExceeded", "ProfileReport", "ResourceCapExceeded", "SizeCapExceeded",
    "SparseIntMatrix", "SpqError", "Subgroup", "SubgroupLattice", "UnknownSpec",
    "all_subgroups", "basis_vector", "betti_numbers", "boundary", "build_complex",
    "builtin", "chain_classes", "chains_up_to", "check_transitive_iso",
    "coinvariants_of_homology_oracle", "compute_report",
    "conjugacy_classes_of_subgroups", "core_in", "direct_product",
    "double_coset_decomposition", "enumerate_homomorphisms", "filtration_levels",
    "fixed_partition_poset", "from_cayley_table", "from_permutation_generators",
    "group_from_json", "index", "interval_poset", "invariant_partitions",
    "is_normal", "is_simple", "level_cut", "normalizer", "profile_report",
    "quotient", "rank_exact", "read_off", "reduced_betti_of_order_complex",
    "restrict", "simple_decomposition", "subgroup_conjugation_action",
    "subgroup_lattice", "top_slice", "transfer", "verify_d0_compatibility",
    "verify_projective_decomposition",
]

# modules that compute and profile never use
VERIFY_ONLY = ("spq.global_functor", "spq.partition", "spq.suites", "fractions", "typing")
# modules no command loads: dataclasses pulls in inspect, ast, dis and tokenize
NEVER_LOADED = ("dataclasses", "inspect")
# modules of a process pool: no command starts one, whatever --threads says
POOL = ("concurrent.futures", "multiprocessing")

# Runs under `python -S`, so that no site hook preloads a module. Prints, as
# JSON, the spq modules that `import spq` loads, then per command its exit
# code and which of the watched modules are loaded after it.
CHILD = f"""
import json, os, sys
import spq
bare = sorted(name for name in sys.modules if name.startswith("spq."))
from spq.cli import main
watched = {VERIFY_ONLY + POOL + NEVER_LOADED!r}
commands = json.loads(sys.argv[1])
out, sys.stdout = sys.stdout, open(os.devnull, "w")
runs = [(main(argv), [name for name in watched if name in sys.modules]) for argv in commands]
sys.stdout = out
print(json.dumps({{"bare": bare, "runs": runs}}))
"""


def test_compute_and_profile_leave_the_verify_layers_unloaded():
    commands = [
        ["compute", "--json", "-n", "4", "-g", "S4"],
        ["profile", "--json", "-g", "C30"],
        ["subgroups", "--json", "-g", "S4"],
        ["partition", "--json", "-g", "S3", "--gset", "regular"],
        ["verify", "--suite", "paper"],
        ["profile", "--json", "-g", "D16", "--threads", "2"],
    ]
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-S", "-c", CHILD, json.dumps(commands)],
                          env=env, check=True, capture_output=True, text=True)
    result = json.loads(done.stdout)
    assert result["bare"] == []
    codes, loaded = zip(*result["runs"])
    assert codes == (0, 0, 0, 0, 0, 0)
    assert loaded[:3] == ([], [], [])
    assert loaded[3] == ["spq.partition"]
    assert set(VERIFY_ONLY) - {"typing"} <= set(loaded[4])
    assert not set(NEVER_LOADED) & set(loaded[4])
    assert not set(POOL) & set(loaded[5])


def test_exported_names_are_pinned():
    assert sorted(spq.__all__) == EXPORTED


def test_each_exported_name_is_the_object_of_its_submodule():
    for name in EXPORTED:
        obj = getattr(spq, name)
        assert obj.__module__.startswith("spq."), name
        assert obj is getattr(importlib.import_module(obj.__module__), name), name


def test_star_import_and_dir_list_every_exported_name():
    namespace: dict = {}
    exec("from spq import *", namespace)
    assert set(EXPORTED) <= set(namespace)
    assert set(EXPORTED) <= set(dir(spq))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        spq.no_such_name  # noqa: B018
    assert not hasattr(spq, "EmbeddedSubgroup")  # defined in spq.groups, never exported
    with pytest.raises(ImportError):
        exec("from spq import no_such_name", {})
