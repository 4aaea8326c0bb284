"""Span tracing of one spq command, run in-process through ``spq.cli.main``.

The tracer replaces public functions of the spq layers by timing wrappers,
on every ``spq`` module attribute that is bound to the original function,
so the wrapper is found whatever module a caller looks the name up in.
Each call becomes a span (name, start, end, parent); a span's self time is
its duration minus the part of it that its child spans cover. Counts are
read from the wrapped functions' return values.

Run as a script, it executes one command and prints one JSON object with
the command's exit code, its stdout text and the per-span aggregates:

    PYTHONPATH=src python3 bench/tracing.py profile --json -g S4
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import sys
import time


class Span:
    """One call of a traced function; ``parent`` indexes the enclosing span."""

    __slots__ = ("name", "parent", "start", "end", "counts")

    def __init__(self, name: str, parent: int | None, start: float = 0.0,
                 end: float = 0.0, counts: dict | None = None):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.counts = counts


class Tracer:
    """Records nested spans in memory, one list per traced command."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None, once_per_group: bool = False):
        """Timing wrapper around ``fn``.

        ``counter(result, *args)`` returns the span's counts. With
        ``once_per_group`` only the first call per group object (the first
        positional argument) is traced: later calls hit the group's cache
        and are passed straight through.
        """
        spans, stack = self.spans, self._stack
        seen: dict[int, object] = {}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if once_per_group:
                if id(args[0]) in seen:
                    return fn(*args, **kwargs)
                seen[id(args[0])] = args[0]  # keep the group alive: ids stay unique
            span = Span(name, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(result, *args)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.end - s.start - covered)
    return out


# counts aggregated by maximum rather than by sum
MAX_COUNTS = frozenset({"max_abs_coeff"})


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, and the summed counts."""
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span.end - span.start
        entry["self_s"] += own
        for key, value in (span.counts or {}).items():
            if key in MAX_COUNTS:
                entry[key] = max(entry.get(key, value), value)
            else:
                entry[key] = entry.get(key, 0) + value
    return out


def _complex_counts(C, *args) -> dict:
    values = [abs(v) for m in C.boundaries for _, _, v in m.entries]
    return {"boundary_nnz": len(values), "max_abs_coeff": max(values, default=0)}


# (module, attribute, span name, counter, once per group)
TRACED = (
    ("spq.groups", "all_subgroups", "groups.all_subgroups",
     lambda subs, *a: {"subgroups": len(subs)}, True),
    ("spq.lattice", "subgroup_lattice", "lattice.subgroup_lattice",
     lambda lat, *a: {"conj_perms": len(lat.conj_perms)}, True),
    ("spq.lattice", "chains_up_to", "lattice.chains_up_to",
     lambda chains, *a: {"chains": len(chains)}, False),
    ("spq.lattice", "chain_classes", "lattice.chain_classes",
     lambda classes, *a: {"classes": sum(len(level) for level in classes)}, False),
    ("spq.lattice", "build_complex", "lattice.build_complex", _complex_counts, False),
    ("spq.intmatrix", "rank_exact", "intmatrix.rank_exact",
     lambda rank, *a: {"rank": rank}, False),
    ("spq.homology", "betti_numbers", "homology.betti_numbers", None, False),
    ("spq.homology", "coinvariants_of_homology_oracle", "homology.oracle", None, False),
    ("spq.reports", "compute_report", "reports.compute_report", None, False),
    ("spq.reports", "profile_report", "reports.profile_report", None, False),
    ("spq.global_functor", "restrict", "global_functor.restrict", None, False),
    ("spq.global_functor", "verify_d0_compatibility",
     "global_functor.verify_d0_compatibility", None, False),
    ("spq.global_functor", "transfer", "global_functor.transfer", None, False),
    ("spq.partition", "fixed_partition_poset", "partition.fixed_partition_poset",
     None, False),
    ("spq.partition", "_reduced_betti_augmented", "partition.order_complex",
     None, False),
    ("spq.cli", "main", "cli.main", None, False),
)


def install(tracer: Tracer) -> list[str]:
    """Wrap every TRACED function on each spq module bound to it.

    Returns the span names whose function no longer exists, so that a
    removed layer reads as zero time instead of stopping the benchmark.
    """
    missing = []
    for module_name, attr, span_name, counter, once in TRACED:
        original = getattr(importlib.import_module(module_name), attr, None)
        if original is None:
            missing.append(span_name)
            continue
        wrapper = tracer.wrap(span_name, original, counter, once)
        for name, module in list(sys.modules.items()):
            if (name == "spq" or name.startswith("spq.")) \
                    and module.__dict__.get(attr) is original:
                setattr(module, attr, wrapper)
    return missing


def trace_command(argv: list[str]) -> dict:
    """Run one spq command in this process with tracing on."""
    import spq.cli

    tracer = Tracer()
    missing = install(tracer)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            code = spq.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return {"exit": code, "stdout": buffer.getvalue(),
            "layers": aggregate(tracer.spans), "missing": missing}


if __name__ == "__main__":
    print(json.dumps(trace_command(sys.argv[1:])))
