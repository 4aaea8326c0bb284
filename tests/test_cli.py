"""CLI behavior: output formats, exit codes, determinism, JSON round-trips."""

import concurrent.futures
import hashlib
import json
import os
import pickle
import subprocess
import sys
import time

import pytest
from helpers import subspace_chains

import spq.reports
from spq import (
    ComputationReport,
    OrderCapExceeded,
    builtin,
    compute_report,
    profile_report,
)
from spq.cli import main
from spq.partition import GSet

# sha256 of `spq verify --suite all` stdout; bench/reference.json holds the same
VERIFY_ALL_SHA256 = "6817534be8fdd1b1a4a2d57f293b859f2c940865aa13351ecad04dddcc6c5369"
# sha256 of `spq profile --json -g G` stdout; bench/reference.json holds the same
PROFILE_SHA256 = {
    "C2xS4": "addd50d4666a63ae2805d1984a73941ffdac3df83ff1e25dda011ea53f86da49",
    "EA(2,4)": "d38cd1b076de3555f7ad457b45fe920b77df5b18812c8dcc68d6014491b7df25",
    "D32": "a0586332eb39fed5f7c91cf32f28e3e3dfbc09ff5a93410d9402fb54a0d9427f",
    "S4": "5c7462d0a201e97c7756798f8dda24ff9877621a2c649d7f1f0efbf41b4a4c3e",
    "SL2F3": "ff7dce1b54fd344048ad2530a75985c8abc50076f49e4da280642ae064eddec5",
    "C30": "e133293cb75c79bf6c14020ac5dec490936961b93957cd42f8e17193433accfd",
}

# sha256 of `spq profile --json -g C4xD16` stdout, with --threads 1 and 2: a
# group of order 64, beyond the roster, with six gap probes
C4XD16_PROFILE_SHA256 = "5437c7e5132ba0718a80b4f1246882edd291d80b0ab5f4e2f19f2bc90ea4409b"

# sha256 of `spq profile --json -g G` stdout for the frontier groups, whose
# gap probes rank level cuts of one complex of 10^4 to 10^5 classes
FRONTIER_PROFILE_SHA256 = {
    "EA(2,5)": "1fe5dc6f0a837f3780ecaec9e56ccaa4c955b59879ea156b4bf616c1f67368e0",
    "C2xC2xS4": "f8231d8bca69b58709dd67b47e4ae4f19479b7bbfcf3d4096d13ab3767302799",
}

# sha256 of `spq compute --json -n 64 -g EA(2,6)` stdout: a report counted from
# 9,031,551 classes, more than the rank route has ever reached
EA26_COMPUTE_SHA256 = "5fd24ee84d21b84a6a543a078cb1668bb7f038f20c442a72459fd7c47981a64b"

# sha256 of `spq compute --json -n 48 -g C2xC2xS4` stdout: a group not of
# prime-power order, read off one filtered reduction of 10^4+ classes
C2XC2XS4_COMPUTE_SHA256 = "eab7e8fded34c1366e6958af4eadfddae3218b39b6adae2d1dc7a1b89e86d364"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_json(capsys):
    code, out, _ = run_cli(capsys, "compute", "-g", "S3", "-n", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "group": "S3", "order": 6, "n": 3, "n_effective": 3,
        "pi": [1, 1], "phi": [0, 1], "chains": [4, 4], "euler": 0,
    }


def test_compute_clamps(capsys):
    code, out, _ = run_cli(capsys, "compute", "-g", "C7", "-n", "100", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["n_effective"] == 7
    assert data["pi"][0] == 1 and all(x == 0 for x in data["pi"][1:])


def test_compute_text(capsys):
    code, out, _ = run_cli(capsys, "compute", "-g", "C30", "-n", "15", "--phi")
    assert code == 0
    assert "group C30  order 30" in out
    assert "euler 2" in out


def test_json_round_trip():
    report = compute_report(builtin("SL2F3"), 5)
    back = ComputationReport.from_json_dict(
        json.loads(json.dumps(report.to_json_dict())))
    assert back == report  # wall time excluded from comparison


def test_compute_deterministic(capsys):
    runs = set()
    for _ in range(2):
        code, out, _ = run_cli(capsys, "compute", "-g", "D16", "-n", "8", "--json")
        assert code == 0
        runs.add(out)
    assert len(runs) == 1


def test_profile_c2(capsys):
    code, out, _ = run_cli(capsys, "profile", "-g", "C2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["levels"] == [1, 2]
    assert data["reports"][0]["pi"] == [2]
    assert data["reports"][1]["pi"] == [1, 0]


def test_profile_text_ranges(capsys):
    code, out, _ = run_cli(capsys, "profile", "-g", "D16")
    assert code == 0
    assert "[4,inf]" in out
    assert "[2,3]" in out


def test_profile_matches_threaded():
    G = builtin("S3")
    seq = profile_report(G, threads=1)
    par = profile_report(G, threads=2)
    assert [r.to_json_dict() for r in seq.reports] == \
        [r.to_json_dict() for r in par.reports]


def test_shared_instance_concurrent_reads():
    # operations on one shared group must be deterministic under threading
    from concurrent.futures import ThreadPoolExecutor
    G = builtin("D16")  # fresh instance, caches cold
    levels = [1, 2, 4, 8, 16] * 4
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda n: compute_report(G, n).to_json_dict(),
                                levels))
    reference = {}
    for data in results:
        assert reference.setdefault(data["n"], data) == data


def test_profile_bytes_identical_across_thread_counts(capsys):
    outputs = set()
    for threads in ("1", "3"):
        code, out, _ = run_cli(capsys, "profile", "-g", "SL2F3", "--json",
                               "--threads", threads)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_subgroups_listing(capsys):
    code, out, _ = run_cli(capsys, "subgroups", "-g", "S3", "--json")
    assert code == 0
    data = json.loads(out)
    assert [c["order"] for c in data["classes"]] == [1, 2, 3, 6]
    code, out, _ = run_cli(capsys, "subgroups", "-g", "C1")
    assert code == 0
    assert "classes 1" in out


def test_partition_command(capsys):
    code, out, _ = run_cli(capsys, "partition", "-g", "S3", "--gset", "regular",
                           "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["elements"]) == 4
    assert data["relations"] == 0
    code, out, _ = run_cli(capsys, "partition", "-g", "C2",
                           "--gset", "trivial:1+coset:")
    assert code == 0
    assert "invariant proper partitions: 1" in out


def test_trivial_gset_of_eight_points_finishes(capsys):
    # 4138 invariant partitions; comparing every pair of them took 41.7 s
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "partition", "-g", "S3", "--gset", "trivial:8")
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert "invariant proper partitions: 4138" in out


def test_trivial_gset_of_nine_points_lists_every_partition(capsys):
    # Bell(9) = 21147 invariant partitions, under PARTITION_CAP
    code, out, _ = run_cli(capsys, "partition", "-g", "S3", "--gset", "trivial:9")
    assert code == 0
    assert "invariant proper partitions: 21145" in out


@pytest.mark.parametrize("gset", ["trivial:10", "trivial:12"])
def test_gset_with_too_many_partitions_fails_fast(capsys, gset):
    # Bell(10) = 115975 and Bell(12) = 4213597 partitions; listing them took minutes
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "partition", "-g", "S3", "--gset", gset)
    assert time.perf_counter() - start < 5.0
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "25000" in err


def test_coset_gset_is_the_generated_subgroup(capsys):
    # element 3 of S3 has order 3, so it generates A3, which has two cosets
    code, out, err = run_cli(capsys, "partition", "-g", "S3", "--gset", "coset:3",
                             "--json")
    assert code == 0 and err == ""
    assert json.loads(out)["gset_size"] == 2


def assert_one_error_line(code, err):
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("gset", ["coset:99", "coset:-1", "coset:6"])
def test_coset_gset_rejects_out_of_range_indices(capsys, gset):
    code, _, err = run_cli(capsys, "partition", "-g", "S3", "--gset", gset)
    assert_one_error_line(code, err)
    assert "out of range" in err


def assert_fast_cap_error(capsys, *argv):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("spec", [
    "EA(1000000000000000003,1)", "EA(3,100000000)", "EA(2,100000000)"])
def test_huge_elementary_abelian_is_over_the_cap_at_once(capsys, spec):
    # neither the primality test of p nor p**k runs before the cap rejects it
    with pytest.raises(OrderCapExceeded):
        builtin(spec)
    assert_fast_cap_error(capsys, "compute", "-n", "2", "-g", spec)


def test_huge_trivial_gset_is_over_the_cap_at_once(capsys):
    # the term is priced before its action table is built
    assert_fast_cap_error(capsys, "partition", "-g", "S3", "--gset", "trivial:100000000")


def test_gset_term_below_one_is_rejected_before_any_term_is_built(monkeypatch, capsys):
    # trivial:-1 would lower the summed size under the cap; regular must not be built
    def refuse(G):
        raise AssertionError("a G-set term was built")

    monkeypatch.setattr(GSet, "regular", refuse)
    code, _, err = run_cli(capsys, "partition", "-g", "C2", "--gset", "regular+trivial:-1")
    assert_one_error_line(code, err)


@pytest.mark.parametrize("data,named", [
    ({"kind": "cayley"}, "'table'"),
    ({"kind": "permutation", "generators": [[1, 0, 2]]}, "'degree'"),
    ({"kind": "builtin"}, "'spec'"),
    ([1, 2], "JSON object"),
    ({"kind": "cayley", "table": 5}, "'table'"),
    ({"kind": "permutation", "degree": "3", "generators": [[1, 0, 2]]}, "'degree'"),
])
def test_malformed_group_json_is_a_usage_error(tmp_path, capsys, data, named):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run_cli(capsys, "compute", "-g", f"@{path}", "-n", "2")
    assert_one_error_line(code, err)
    assert named in err


def test_verify_exit_one_on_failure(monkeypatch, capsys):
    import spq.suites as suites
    from spq.suites import CheckResult
    monkeypatch.setitem(
        suites.SUITES, "stub",
        lambda reports: [CheckResult("always-fails", False, "1", "2")])
    code, out, _ = run_cli(capsys, "verify", "--suite", "stub")
    assert code == 1
    assert "FAIL always-fails" in out
    assert "0/1 checks passed" in out


def test_verify_lets_a_key_error_inside_a_check_propagate(monkeypatch, capsys):
    import spq.suites as suites

    def broken(reports):
        return {}["missing"]

    monkeypatch.setitem(suites.SUITES, "stub", broken)
    with pytest.raises(KeyError, match="missing"):
        main(["verify", "--suite", "stub"])
    assert capsys.readouterr().err == ""
    code, _, err = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 2 and err == "unknown suite 'bogus'\n"


def test_exit_codes(capsys):
    code, _, err = run_cli(capsys, "compute", "-g", "nonsense", "-n", "2")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "compute", "-g", "C30", "-n", "2",
                           "--cap-order", "8")
    assert code == 3
    code, _, err = run_cli(capsys, "compute", "-g", "C4", "-n", "0")
    assert code == 2
    code, out, err = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 2
    code, _, err = run_cli(capsys, "partition", "-g", "C2", "--gset", "wat")
    assert code == 2


def test_group_json_input(tmp_path, capsys):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({
        "label": "K4", "kind": "permutation", "degree": 4,
        "generators": [[1, 0, 3, 2], [2, 3, 0, 1]],
    }), encoding="utf-8")
    code, out, _ = run_cli(capsys, "subgroups", "-g", f"@{path}", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 4
    assert len(data["classes"]) == 5

    path2 = tmp_path / "cayley.json"
    path2.write_text(json.dumps({
        "label": "Z3", "kind": "cayley",
        "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
    }), encoding="utf-8")
    code, out, _ = run_cli(capsys, "compute", "-g", f"@{path2}", "-n", "3",
                           "--json")
    assert code == 0
    assert json.loads(out)["pi"] == [1, 0]  # full lattice is contractible


def test_profile_gap_probes_in_pool_match_serial(capsys):
    # D16 has gap probes at n = 3, 5, 9 and 17; with --threads they run in workers
    outputs = []
    for threads in ("1", "2"):
        code, out, _ = run_cli(capsys, "profile", "-g", "D16", "--json",
                               "--threads", threads)
        assert code == 0
        outputs.append(out)
    assert json.loads(outputs[0])["gap_checks"] == 4
    assert outputs[0] == outputs[1]


@pytest.fixture
def pool_sizes(monkeypatch):
    """Pool sizes asked of ProcessPoolExecutor, whose stand-in starts no process."""
    sizes = []

    class SerialExecutor:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialExecutor)
    monkeypatch.setattr(spq.reports, "_worker_group", None)
    return sizes


def test_profile_pool_has_at_most_one_worker_per_probe(capsys, pool_sizes):
    # D16 has four gap probes, so a larger pool would only hold idle workers
    code, serial, _ = run_cli(capsys, "profile", "-g", "D16", "--json")
    assert code == 0 and pool_sizes == []
    for threads, size in (("2", 2), ("4", 4), ("64", 4)):
        code, out, _ = run_cli(capsys, "profile", "-g", "D16", "--json",
                               "--threads", threads)
        assert code == 0 and out == serial
        assert pool_sizes.pop() == size


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_profile_rejects_thread_counts_below_one(capsys, pool_sizes, threads):
    code, out, err = run_cli(capsys, "profile", "-g", "S3", "--threads", threads)
    assert_one_error_line(code, err)
    assert "threads" in err and out == "" and pool_sizes == []


def test_verify_all_stdout_digest(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256


@pytest.mark.parametrize("spec", sorted(PROFILE_SHA256))
def test_profile_roster_stdout_digest(capsys, spec):
    code, out, _ = run_cli(capsys, "profile", "--json", "-g", spec)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PROFILE_SHA256[spec]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_profile_beyond_the_roster_stdout_digest(capsys, threads):
    code, out, _ = run_cli(capsys, "profile", "--json", "-g", "C4xD16", "--threads", threads)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == C4XD16_PROFILE_SHA256


@pytest.mark.parametrize("spec", sorted(FRONTIER_PROFILE_SHA256))
def test_profile_frontier_stdout_digest(capsys, spec):
    code, out, _ = run_cli(capsys, "profile", "--json", "-g", spec)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FRONTIER_PROFILE_SHA256[spec]


# the compute commands of bench/reference.json: A5, C3xS4, D48 and C2xS4 at
# n = 4 and EA(2,5) at n = 2, larger groups than the other digests cover
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "bench", "reference.json")) as fh:
    BENCH_COMPUTE = {cmd: ref for cmd, ref in json.load(fh)["commands"].items()
                     if cmd.split()[0] == "compute"}


def test_bench_has_five_compute_commands():
    assert len(BENCH_COMPUTE) == 5


@pytest.mark.parametrize("cmd", sorted(BENCH_COMPUTE))
def test_bench_compute_stdout_digest(capsys, cmd):
    code, out, _ = run_cli(capsys, *cmd.split())
    assert code == BENCH_COMPUTE[cmd]["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == BENCH_COMPUTE[cmd]["sha256"]


def test_group_pickles_with_its_lattice():
    # spawned pool workers receive the group pickled, cached lattice included
    G = builtin("D16")
    expected = profile_report(G).to_json_dict()
    copy = pickle.loads(pickle.dumps(G))
    assert "_subgroup_lattice" in copy.__dict__
    assert profile_report(copy).to_json_dict() == expected


def test_import_leaves_out_the_process_pool():
    # only profile --threads N>1 needs concurrent.futures; it is imported there
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import spq, sys; assert 'concurrent.futures' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_threaded_profile_under_start_method(method):
    # spawn and forkserver workers rebuild their state from the pickled group;
    # forkserver is the default start method on Linux from Python 3.14
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = (f"import multiprocessing; multiprocessing.set_start_method({method!r})\n"
            "from spq import builtin, profile_report\n"
            "par = profile_report(builtin('D16'), threads=2).to_json_dict()\n"
            "assert par == profile_report(builtin('D16'), threads=1).to_json_dict()\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_counted_compute_of_ea26_stdout_digest(capsys):
    # every chain has index at most 64: the chains are all strict chains of subspaces of F_2^6
    code, out, _ = run_cli(capsys, "compute", "--json", "-n", "64", "-g", "EA(2,6)")
    assert code == 0
    assert json.loads(out)["chains"] == [subspace_chains(6, 2, k) for k in range(7)]
    assert hashlib.sha256(out.encode()).hexdigest() == EA26_COMPUTE_SHA256


def test_read_off_compute_of_c2xc2xs4_stdout_digest(capsys):
    code, out, _ = run_cli(capsys, "compute", "--json", "-n", "48", "-g", "C2xC2xS4")
    assert code == 0
    assert sum(json.loads(out)["chains"]) > 10 ** 4
    assert hashlib.sha256(out.encode()).hexdigest() == C2XC2XS4_COMPUTE_SHA256
