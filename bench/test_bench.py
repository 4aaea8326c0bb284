"""Self-tests of the benchmark: span arithmetic, failure accounting, checks.

    PYTHONPATH=src python -m pytest -q bench
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from tracing import Span, Tracer, aggregate, self_times  # noqa: E402

QUICK = ("compute", "--json", "-n", "1", "-g", "C1")
SLOW = ("compute", "--json", "-n", "4", "-g", "A5")


def test_self_times_on_synthetic_tree():
    spans = [
        Span("root", None, 0.0, 10.0),
        Span("a", 0, 1.0, 4.0),
        Span("a.child", 1, 2.0, 3.0),
        Span("b", 0, 5.0, 7.0),
        Span("c", 0, 6.0, 8.0),     # overlaps b: the union [5, 8] counts once
        Span("d", 0, 9.0, 12.0),    # runs past its parent: only [9, 10] counts
    ]
    assert self_times(spans) == [10.0 - 3.0 - 3.0 - 1.0, 2.0, 1.0, 2.0, 2.0, 3.0]


def test_aggregate_sums_times_and_counts():
    spans = [
        Span("x", None, 0.0, 4.0, {"n": 2, "max_abs_coeff": 3}),
        Span("y", 0, 1.0, 2.0),
        Span("x", None, 5.0, 6.0, {"n": 5, "max_abs_coeff": 1}),
    ]
    out = aggregate(spans)
    assert out["x"] == {"calls": 2, "total_s": 5.0, "self_s": 4.0,
                        "n": 7, "max_abs_coeff": 3}
    assert out["y"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_tracer_nests_spans_and_traces_first_call_per_group():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda group: [1, 2, 3],
                        counter=lambda result, group: {"items": len(result)},
                        once_per_group=True)
    outer = tracer.wrap("outer", lambda group: inner(group) + inner(group))
    group = object()
    assert outer(group) == [1, 2, 3, 1, 2, 3]
    assert [(s.name, s.parent, s.counts) for s in tracer.spans] == [
        ("outer", None, None), ("inner", 0, {"items": 3})]


def test_install_wraps_every_binding_and_tolerates_missing_functions(monkeypatch):
    import spq.cli  # noqa: F401  (loads every spq module)
    import spq.lattice
    import spq.reports
    import tracing

    attrs = {entry[1] for entry in tracing.TRACED}
    saved = [(module, attr, module.__dict__[attr])
             for name, module in list(sys.modules.items())
             if name == "spq" or name.startswith("spq.")
             for attr in attrs if attr in module.__dict__]
    original = spq.reports.build_complex
    monkeypatch.setattr(tracing, "TRACED", tracing.TRACED + (
        ("spq.lattice", "no_such_function", "lattice.gone", None, False),))
    try:
        assert tracing.install(Tracer()) == ["lattice.gone"]
        assert spq.reports.build_complex is spq.lattice.build_complex
        assert spq.reports.build_complex is not original
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)


def test_calibrator_scales_by_the_runs_on_either_side(monkeypatch):
    times = iter([0.1, 0.3, 0.2])
    monkeypatch.setattr(run.Calibrator, "_measure", lambda self: next(times))
    calibrator = run.Calibrator(None)
    assert calibrator.scale() == 2 * run.CAL_REF_S / (0.1 + 0.3)
    assert calibrator.scale() == 2 * run.CAL_REF_S / (0.3 + 0.2)


def test_calibration_program_runs():
    outcome = run.run_command([sys.executable, run.CALIBRATION], 60)
    assert outcome.exit_code == 0


def test_run_command_times_out_and_reaps_the_child():
    start = time.perf_counter()
    outcome = run.run_command([sys.executable, "-c", "import time; time.sleep(30)"], 0.3)
    assert outcome.timed_out
    assert time.perf_counter() - start < 10
    assert run.judge(outcome, {"exit": 0, "sha256": ""}, 0.3).startswith("timeout")


def _reference_for(cmd, stdout=b"", exit_code=0):
    return {" ".join(cmd): {"exit": exit_code, "sha256": run.digest(stdout)}}


def test_matching_reference_passes():
    outcome = run.run_command([sys.executable, "-m", "spq.cli", *QUICK], 60,
                              run.child_env())
    session = run.Session(_reference_for(QUICK, outcome.stdout), time.perf_counter() + 60)
    session.run(QUICK)
    assert session.attempted == 1 and session.failures == [] and session.correct


def test_reference_mismatch_is_a_failed_command():
    session = run.Session(_reference_for(QUICK, b"something else\n"),
                          time.perf_counter() + 60)
    session.run(QUICK)
    assert session.attempted == 1
    assert len(session.failures) == 1 and "differs" in session.failures[0]
    assert not session.correct


def test_exit_code_3_is_a_failed_command():
    cmd = QUICK + ("--cap-order", "0")
    session = run.Session(_reference_for(cmd), time.perf_counter() + 60)
    session.run(cmd)
    assert len(session.failures) == 1 and "exit code 3" in session.failures[0]


def test_timeout_is_a_failed_command_and_not_dropped():
    session = run.Session(_reference_for(SLOW), time.perf_counter() + 0.3)
    outcome, _ = session.run(SLOW)
    assert outcome.timed_out
    session.run(SLOW)   # the deadline has passed: recorded, never started
    assert session.attempted == 2
    assert "timeout" in session.failures[0]
    assert "not started" in session.failures[1]


def test_traced_command_is_checked_against_the_reference():
    outcome = run.run_command([sys.executable, "-m", "spq.cli", *QUICK], 60,
                              run.child_env())
    session = run.Session(_reference_for(QUICK, outcome.stdout), time.perf_counter() + 60)
    _, payload = session.run(QUICK, traced=True)
    assert session.failures == []
    assert payload["layers"]["cli.main"]["calls"] == 1
    assert payload["layers"]["groups.all_subgroups"]["subgroups"] == 1


def test_published_table_check():
    good = (b'{"ranges": [{"start": 1, "end": 1, "pi": [2]},'
            b' {"start": 2, "end": null, "pi": [1, 0]}]}')
    cmd = ("profile", "--json", "-g", "C2")
    tables = {"C2": [(1, 1, (2,)), (2, None, (1,))]}
    assert run.published_table_problem(cmd, good, tables) is None
    assert run.published_table_problem(cmd, good.replace(b"[2]", b"[3]"), tables)
    other = ("profile", "--json", "-g", "C3")
    assert run.published_table_problem(other, b"", tables) is None
    assert "S3" in run.expected_tables()
