#!/usr/bin/env python3
"""Benchmark of the spq command line, end to end and per layer.

Run from the root of a checkout (stdlib only; the program runs from src/):

    python3 bench/run.py --workload profile --seed 1 --seconds 30 --trace 0

Workloads are fixed rosters of ``python -m spq.cli`` commands; the seed
only shuffles the order of the commands within each pass. Each command
runs in a fresh process, one at a time, and its exit code and stdout bytes
are checked against ``bench/reference.json``; the ``profile`` ranges of
the groups with published tables are also checked against
``spq.suites.EXPECTED_TABLES``. A command fails on a timeout, an exit code
other than the reference's, or differing stdout; failures are counted,
never dropped.

``--trace 0`` repeats passes over the workload's roster for ``--seconds``
seconds and reports the end-to-end metrics:

    solve_s      median over passes of the summed command wall times
    setup_s      median wall time of a process that imports spq and builds
                 the workload's groups
    peak_rss_mb  median over passes of the largest child peak RSS

Times are in reference seconds: each wall time is rescaled by the runs of
a fixed calibration program on either side of it (see ``Calibrator``), so
that drifts in the host's speed cancel; the unscaled median is printed too.

``--trace 1`` runs the rosters of all workloads, whatever ``--workload``
names, so that every per-layer metric is measured in every traced
invocation. Each command runs once untraced and twice traced (in-process
through ``spq.cli.main`` in a child, see tracing.py). It reports per-layer
self times and counts as ``<workload>.<layer metric>`` and the tracing
overhead; counts must repeat exactly between the two traced runs.

Every invocation also checks that ``profile --threads 2`` prints the same
bytes as ``--threads 1`` for one group of the profile roster, chosen by
the seed. Lines before the last report medians, quartiles, sample counts
and ``failed_frac`` (failed / attempted commands); the last stdout line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--record`` rewrites reference.json from the current tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from tracing import MAX_COUNTS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
TRACE_CHILD = os.path.join(BENCH_DIR, "tracing.py")
CALIBRATION = os.path.join(BENCH_DIR, "calibrate.py")

PROFILE_GROUPS = ("C2xS4", "EA(2,4)", "D32", "S4", "SL2F3", "C30")
VERIFY_GROUPS = ("C1", "C2", "C3", "C4", "C6", "C8", "C9", "C27", "C30",
                 "C2xC2", "C2xC6", "S3", "D8", "D16", "Q8", "Q16",
                 "EA(3,2)", "EA(2,3)", "SL2F3", "A4", "EA(2,2)")

# profile: every level and gap probe rebuilds both complexes, so chain
#   orbits, boundary assembly and exact rank dominate (EA(2,4) is rank-bound,
#   C2xS4 canonicalization-bound);
# compute-low: low levels of larger groups, where subgroup enumeration
#   dominates and the complexes are small;
# verify: many tiny catalog groups, so fixed per-call costs show; the only
#   workload that runs the oracle, global_functor and partition.
# Groups out of reach at the seed (EA(2,5) at n=4, S5) are left out.
WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    "profile": tuple(("profile", "--json", "-g", g) for g in PROFILE_GROUPS),
    "compute-low": tuple(("compute", "--json", "-n", "4", "-g", g)
                         for g in ("A5", "C3xS4", "D48", "C2xS4"))
    + (("compute", "--json", "-n", "2", "-g", "EA(2,5)"),),
    "verify": (("verify", "--suite", "all"),),
}

# groups each workload builds, for the set-up measurement
SETUP_GROUPS = {
    "profile": PROFILE_GROUPS,
    "compute-low": ("A5", "C3xS4", "D48", "C2xS4", "EA(2,5)"),
    "verify": VERIFY_GROUPS,
}

SETUP_CODE = "import sys, spq\nfor spec in sys.argv[1:]:\n    spq.builtin(spec)"
SETUP_SAMPLES = 7
CAL_REF_S = 0.2           # calibration wall time that defines a reference second
COMMAND_BUDGET_S = 60.0   # about ten times the slowest command at the seed
RUN_DEADLINE_S = 165.0    # no command starts or runs past this point

# per-layer metrics: name -> (span names, field, unit); "self_s" sums self
# times, "calls" counts spans, other fields are counts read from results
LAYER_METRICS: dict[str, tuple[tuple[str, ...], str, str]] = {
    "groups.all_subgroups_s": (("groups.all_subgroups",), "self_s", "s"),
    "groups.subgroups": (("groups.all_subgroups",), "subgroups", "count"),
    "lattice.conj_data_s": (("lattice.subgroup_lattice",), "self_s", "s"),
    "lattice.conj_perms": (("lattice.subgroup_lattice",), "conj_perms", "count"),
    "lattice.chains_up_to_s": (("lattice.chains_up_to",), "self_s", "s"),
    "lattice.chains": (("lattice.chains_up_to",), "chains", "count"),
    "lattice.chain_classes_s": (("lattice.chain_classes",), "self_s", "s"),
    "lattice.classes": (("lattice.chain_classes",), "classes", "count"),
    "lattice.build_complex_s": (("lattice.build_complex",), "self_s", "s"),
    "lattice.boundary_nnz": (("lattice.build_complex",), "boundary_nnz", "count"),
    "lattice.max_abs_coeff": (("lattice.build_complex",), "max_abs_coeff", "count"),
    "intmatrix.rank_exact_s": (("intmatrix.rank_exact",), "self_s", "s"),
    "intmatrix.rank_calls": (("intmatrix.rank_exact",), "calls", "count"),
    "intmatrix.rank_sum": (("intmatrix.rank_exact",), "rank", "count"),
    "homology.betti_numbers_s": (("homology.betti_numbers",), "self_s", "s"),
    "homology.oracle_s": (("homology.oracle",), "self_s", "s"),
    "reports.compute_report_s": (("reports.compute_report",), "self_s", "s"),
    "reports.profile_report_s": (("reports.profile_report",), "self_s", "s"),
    "reports.compute_calls": (("reports.compute_report",), "calls", "count"),
    "global_functor.restrict_s": (("global_functor.restrict",
                                   "global_functor.verify_d0_compatibility"),
                                  "self_s", "s"),
    "global_functor.transfer_s": (("global_functor.transfer",), "self_s", "s"),
    "partition.poset_s": (("partition.fixed_partition_poset",), "self_s", "s"),
    "partition.order_complex_s": (("partition.order_complex",), "self_s", "s"),
    "cli.main_s": (("cli.main",), "self_s", "s"),
}
# layers a workload never reaches: left out of its metrics, which would
# read zero on every run
UNUSED_LAYERS = {
    "profile": {"homology.oracle_s", "global_functor.restrict_s",
                "global_functor.transfer_s", "partition.poset_s",
                "partition.order_complex_s"},
    "compute-low": {"homology.oracle_s", "global_functor.restrict_s",
                    "global_functor.transfer_s", "partition.poset_s",
                    "partition.order_complex_s", "reports.profile_report_s"},
    "verify": set(),
}


def layer_metric_names(workload: str) -> list[str]:
    names = [m for m in LAYER_METRICS if m not in UNUSED_LAYERS[workload]]
    names += ["lattice.classes_per_chain", "trace.overhead_frac"]
    return [f"{workload}.{m}" for m in names]


# ---------------------------------------------------------------------------
# running one command


@dataclass
class Outcome:
    exit_code: int | None   # None when the command was killed at its budget
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_kb: int

    @property
    def timed_out(self) -> bool:
        return self.exit_code is None


def run_command(argv: list[str], budget_s: float, env: dict | None = None) -> Outcome:
    """Run argv in a new session; time it from spawn to exit.

    The child and everything it starts are killed at ``budget_s``. The
    peak RSS comes from ``os.wait4`` on this child alone.
    """
    lock = threading.Lock()
    state = {"exited": False, "killed": False}
    chunks: dict[str, bytes] = {}
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT,
                            start_new_session=True)

    def kill_group() -> None:
        with lock:
            if not state["exited"]:
                state["killed"] = True
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def drain(key: str, stream) -> None:
        chunks[key] = stream.read()

    readers = [threading.Thread(target=drain, args=("out", proc.stdout)),
               threading.Thread(target=drain, args=("err", proc.stderr))]
    for t in readers:
        t.start()
    timer = threading.Timer(budget_s, kill_group)
    timer.start()
    wall = None
    try:
        # wait without reaping, so the pid stays ours while the timer may fire
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
    finally:
        timer.cancel()
        if wall is None:   # interrupted: stop the child before reaping it
            kill_group()
        with lock:
            state["exited"] = True
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.join()
        for t in readers:
            t.join()
        proc.stdout.close()
        proc.stderr.close()
    code = None if state["killed"] else proc.returncode
    return Outcome(code, chunks.get("out", b""), chunks.get("err", b""),
                   wall, usage.ru_maxrss)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def judge(outcome: Outcome, expected: dict | None, budget_s: float) -> str | None:
    """Why the command failed against its reference entry, or None."""
    if outcome.timed_out:
        return f"timeout after {budget_s:.1f} s"
    if expected is None:
        return "no reference output recorded"
    if outcome.exit_code != expected["exit"]:
        tail = outcome.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit code {outcome.exit_code} (reference {expected['exit']})" + \
            (f": {tail[0]}" if tail else "")
    if digest(outcome.stdout) != expected["sha256"]:
        return "stdout differs from the reference"
    return None


def _strip(values) -> tuple[int, ...]:
    values = list(values)
    while values and values[-1] == 0:
        values.pop()
    return tuple(values)


def expected_tables() -> dict:
    """The published profile tables that spq's own suites check against."""
    sys.path.insert(0, SRC)
    from spq.suites import EXPECTED_TABLES
    return EXPECTED_TABLES


def published_table_problem(cmd: tuple[str, ...], stdout: bytes,
                            tables: dict) -> str | None:
    """Compare the ranges of a profile command with its published table, if any."""
    group = cmd[cmd.index("-g") + 1]
    if group not in tables:
        return None
    try:
        ranges = json.loads(stdout)["ranges"]
    except (ValueError, KeyError, TypeError):
        return "profile output is not the expected JSON"
    got = [(r["start"], r["end"], _strip(r["pi"])) for r in ranges]
    want = [(s, e, _strip(pi)) for s, e, pi in tables[group]]
    return None if got == want else "profile ranges differ from the published table"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    # an installed spq runs from cached bytecode: let the warm-up write the
    # cache, so that no timed process compiles the sources
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Session:
    """Runs the commands of one invocation and keeps its failure ledger."""

    def __init__(self, reference: dict, deadline: float):
        self.reference = reference
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []   # failed checks that are not one command
        self.tables: dict | None = None

    def spawn(self, argv: list[str]) -> tuple[Outcome | None, float]:
        """Run argv within its budget; None when the run deadline has passed."""
        budget = min(COMMAND_BUDGET_S, self.deadline - time.perf_counter())
        if budget <= 0:
            return None, budget
        return run_command(argv, budget, self.env), budget

    def run(self, cmd: tuple[str, ...], traced: bool = False,
            reference_cmd: tuple[str, ...] | None = None):
        """Run and check one spq command; returns (outcome, trace payload).

        The outcome is None when the run deadline left no time to start it.
        """
        self.attempted += 1
        label = " ".join(cmd) + ("  [traced]" if traced else "")
        program = [sys.executable, TRACE_CHILD] if traced else \
            [sys.executable, "-m", "spq.cli"]
        outcome, budget = self.spawn(program + list(cmd))
        if outcome is None:
            self.failures.append(f"{label}: not started, run deadline reached")
            return None, None
        payload = None
        checked = outcome
        if traced and not outcome.timed_out:
            try:
                payload = json.loads(outcome.stdout)
                checked = Outcome(payload["exit"], payload["stdout"].encode(),
                                  outcome.stderr, outcome.wall_s, outcome.maxrss_kb)
            except (ValueError, KeyError, TypeError):
                payload = None
                checked = Outcome(-1, b"", outcome.stderr, outcome.wall_s,
                                  outcome.maxrss_kb)
        key = " ".join(reference_cmd or cmd)
        problem = judge(checked, self.reference.get(key), budget)
        if problem is None and cmd[0] == "profile":
            if self.tables is None:
                self.tables = expected_tables()
            problem = published_table_problem(cmd, checked.stdout, self.tables)
        if problem is not None:
            self.failures.append(f"{label}: {problem}")
        return outcome, payload

    @property
    def correct(self) -> bool:
        return not self.failures and not self.problems


# ---------------------------------------------------------------------------
# measurements


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Calibrator:
    """Rescales wall times to a reference host speed.

    On a shared host the speed drifts by up to 1.5x over minutes, which no
    median within one run removes. calibrate.py, a fixed pure-Python
    program, runs between measurements; the measurements made between two
    calibration runs are multiplied by CAL_REF_S over the mean of the two
    calibration times. Times then read as seconds on a host where the
    calibration program takes CAL_REF_S.
    """

    def __init__(self, session: Session):
        self.session = session
        self.samples: list[float] = []
        self.last = self._measure()

    def _measure(self) -> float:
        outcome, _ = self.session.spawn([sys.executable, CALIBRATION])
        if outcome is None or outcome.exit_code != 0:
            self.session.problems.append("the calibration program did not run")
            return CAL_REF_S
        self.samples.append(outcome.wall_s)
        return outcome.wall_s

    def scale(self) -> float:
        """Factor for the measurements made since the previous calibration."""
        now = self._measure()
        factor = 2.0 * CAL_REF_S / (self.last + now)
        self.last = now
        return factor


def measure_setup(session: Session, workload: str) -> float | None:
    """Wall time of one process that imports spq and builds the groups."""
    session.attempted += 1
    argv = [sys.executable, "-c", SETUP_CODE, *SETUP_GROUPS[workload]]
    outcome, _ = session.spawn(argv)
    if outcome is not None and outcome.exit_code == 0:
        return outcome.wall_s
    session.failures.append(
        f"set-up of {workload}: " +
        ("not started" if outcome is None else f"exit {outcome.exit_code}"))
    return None


def warm_up(session: Session) -> None:
    """Import the program once, untimed, so that its bytecode cache is filled."""
    session.spawn([sys.executable, "-c", "import spq.cli"])


def timed_pass(session: Session, calibrator: Calibrator, workload: str,
               rng: random.Random, setup: list[float]):
    """One pass over the roster in seeded order.

    Each command is followed by a set-up sample and a calibration run, and
    both are scaled by it. Returns the summed scaled and raw wall times,
    the largest peak RSS (kB) and the scaled wall time of each command.
    """
    order = list(WORKLOADS[workload])
    rng.shuffle(order)
    walls: dict[tuple[str, ...], float] = {}
    raw, rss = 0.0, 0
    for cmd in order:
        outcome, _ = session.run(cmd)
        setup_wall = measure_setup(session, workload)
        factor = calibrator.scale()
        if outcome is not None:
            walls[cmd] = outcome.wall_s * factor
            raw += outcome.wall_s
            rss = max(rss, outcome.maxrss_kb)
        if setup_wall is not None:
            setup.append(setup_wall * factor)
    return sum(walls.values()), raw, rss, walls


def check_threads(session: Session, rng: random.Random) -> None:
    """profile --threads 2 must print the reference bytes of --threads 1.

    One group of the profile roster per invocation, chosen by the seed:
    with two workers C2xS4 alone takes over ten seconds, so the whole
    roster in every invocation would not fit the time the runs are given.
    """
    cmd = rng.choice(WORKLOADS["profile"])
    session.run(cmd + ("--threads", "2"), reference_cmd=cmd)


def run_timed(session: Session, workload: str, seed: int, seconds: float) -> dict:
    rng = random.Random(seed)
    warm_up(session)
    calibrator = Calibrator(session)
    setup: list[float] = []
    passes, raw, rss, per_cmd = [], [], [], {}
    start = time.perf_counter()
    while True:
        total, raw_total, peak, walls = timed_pass(session, calibrator, workload,
                                                   rng, setup)
        passes.append(total)
        raw.append(raw_total)
        rss.append(peak / 1024.0)
        for cmd, w in walls.items():
            per_cmd.setdefault(cmd, []).append(w)
        elapsed = time.perf_counter() - start
        # another pass only when it should end within half a pass of the window
        if elapsed + elapsed / len(passes) / 2 > seconds \
                or time.perf_counter() > session.deadline:
            break
    for _ in range(SETUP_SAMPLES - len(setup)):
        setup_wall = measure_setup(session, workload)
        factor = calibrator.scale()
        if setup_wall is not None:
            setup.append(setup_wall * factor)
    check_threads(session, rng)

    print(f"workload {workload}  seed {seed}  passes {len(passes)}  "
          f"commands per pass {len(WORKLOADS[workload])}")
    if calibrator.samples:
        print(f"calibration  median {statistics.median(calibrator.samples):.4f} s "
              f"(reference {CAL_REF_S} s, {len(calibrator.samples)} runs); "
              f"unscaled solve median {statistics.median(raw):.4f} s")
    q1, med, q3 = quartiles(passes)
    print(f"solve_s      median {med:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  "
          f"({len(passes)} passes)")
    if setup:
        s1, smed, s3 = quartiles(setup)
        print(f"setup_s      median {smed:.4f} s  q1 {s1:.4f}  q3 {s3:.4f}  "
              f"({len(setup)} processes)")
    print(f"peak_rss_mb  median {statistics.median(rss):.2f} MB  max {max(rss):.2f}  "
          f"({len(passes)} passes)")
    for cmd, walls in per_cmd.items():
        print(f"  {statistics.median(walls):8.4f} s  {' '.join(cmd)}")
    return {
        "solve_s": {"value": statistics.median(passes), "unit": "s"},
        "setup_s": {"value": statistics.median(setup) if setup else 0.0, "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }


def layer_values(payloads: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (the payloads of its commands)."""
    merged: dict[str, dict[str, float]] = {}
    for payload in payloads:
        for name, entry in payload["layers"].items():
            into = merged.setdefault(name, {})
            for key, value in entry.items():
                if key in MAX_COUNTS:
                    into[key] = max(into.get(key, value), value)
                else:
                    into[key] = into.get(key, 0) + value
    out = {}
    for metric, (spans, field, _) in LAYER_METRICS.items():
        values = [merged.get(s, {}).get(field, 0) for s in spans]
        out[metric] = max(values) if field in MAX_COUNTS else sum(values)
    chains = out["lattice.chains"]
    out["lattice.classes_per_chain"] = out["lattice.classes"] / chains if chains else 0.0
    return out


def rescale(payload: dict, factor: float) -> None:
    """Scale the span times of one traced command to the reference speed."""
    for entry in payload["layers"].values():
        entry["total_s"] *= factor
        entry["self_s"] *= factor


def top_layers(payload: dict, count: int = 3) -> str:
    layers = sorted(payload["layers"].items(), key=lambda kv: -kv[1]["self_s"])
    return ", ".join(f"{name} {entry['self_s']:.3f}" for name, entry in layers[:count])


def run_traced(session: Session, seed: int) -> dict:
    """Every workload's roster: each command untraced once, then traced twice.

    The three runs of a command follow each other, so that the overhead
    compares runs made under the same load on the host.
    """
    rng = random.Random(seed)
    metrics: dict[str, dict] = {}
    warm_up(session)
    check_threads(session, rng)
    calibrator = Calibrator(session)
    for workload, roster in WORKLOADS.items():
        order = list(roster)
        rng.shuffle(order)
        untraced, traced = 0.0, [0.0, 0.0]
        payloads: tuple[list, list] = ([], [])
        for cmd in order:
            outcome, _ = session.run(cmd)
            if outcome is not None:
                untraced += outcome.wall_s
            for i in range(2):
                outcome, payload = session.run(cmd, traced=True)
                if payload is not None:
                    payloads[i].append(payload)
                    traced[i] += outcome.wall_s
            factor = calibrator.scale()
            for i in range(2):
                if payloads[i]:
                    rescale(payloads[i][-1], factor)
            if payloads[0]:
                print(f"  {' '.join(cmd)}: self s {top_layers(payloads[0][-1])}")
        runs = [layer_values(p) for p in payloads]
        gone = sorted({name for p in payloads[0] for name in p["missing"]})
        if gone:
            print(f"  not traced, the function no longer exists: {', '.join(gone)}")
        for name, (_, _, unit) in LAYER_METRICS.items():
            if unit == "count" and runs[0][name] != runs[1][name]:
                session.problems.append(
                    f"{workload}: {name} differs between traced runs "
                    f"({runs[0][name]} vs {runs[1][name]})")
        overhead = statistics.median(traced) / untraced - 1.0 if untraced else 0.0
        print(f"workload {workload}: untraced {untraced:.4f} s, traced "
              f"{traced[0]:.4f} / {traced[1]:.4f} s, overhead {overhead:+.2%}")
        for name in layer_metric_names(workload):
            metric = name[len(workload) + 1:]
            if metric == "trace.overhead_frac":
                value, unit = overhead, "ratio"
            elif metric == "lattice.classes_per_chain":
                value, unit = runs[0][metric], "ratio"
            else:
                unit = LAYER_METRICS[metric][2]
                value = statistics.median([r[metric] for r in runs]) if unit == "s" \
                    else runs[0][metric]
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:48s} {value:>14.6g} {unit}")
    return metrics


# ---------------------------------------------------------------------------


def record_reference() -> int:
    """Rewrite reference.json from one run of every command."""
    env = child_env()
    entries = {}
    for roster in WORKLOADS.values():
        for cmd in roster:
            outcome = run_command([sys.executable, "-m", "spq.cli", *cmd],
                                  COMMAND_BUDGET_S, env)
            if outcome.exit_code != 0:
                print(f"error: {' '.join(cmd)} exited with {outcome.exit_code}",
                      file=sys.stderr)
                return 1
            entries[" ".join(cmd)] = {"exit": 0, "sha256": digest(outcome.stdout),
                                      "bytes": len(outcome.stdout)}
            print(f"{outcome.wall_s:8.3f} s  {' '.join(cmd)}")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"commands": entries}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json from the current tree")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spq", "cli.py")):
        print(f"error: no spq sources under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)["commands"]

    session = Session(reference, time.perf_counter() + RUN_DEADLINE_S)
    if args.trace:
        metrics = run_traced(session, args.seed)
    else:
        metrics = run_timed(session, args.workload, args.seed, args.seconds)
    failed = len(session.failures)
    print(f"failed_frac  {failed / session.attempted:.4f}  "
          f"({failed} of {session.attempted} commands)")
    for line in session.failures + session.problems:
        print(f"FAILED {line}")
    print(json.dumps({"correct": session.correct, "attempted": session.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
