"""Command-line front end.

    spq compute   -g <spec> -n <int> [--json] [--phi]
    spq profile   -g <spec> [--json]
    spq verify    --suite paper|properties|all
    spq subgroups -g <spec> [--json]
    spq partition -g <spec> --gset <gset spec> [--json]

Group specs follow the builtin grammar (C30, D16, S3, Q8, EA(2,3), SL2F3,
products via x); ``-g @file.json`` loads the JSON group input format.
G-set specs are ``+``-separated terms: ``regular``, ``trivial:<k>`` or
``coset:<i,j,...>`` (subgroup generated by the listed element indices).

``profile --threads N``, N >= 1, is accepted for old scripts and has no effect.

Exit codes: 0 success, 1 verification failure, 2 usage or spec error,
3 resource cap exceeded.

Each command loads only the layers it runs: ``compute``, ``profile`` and
``subgroups`` load ``groups``, ``lattice``, ``intmatrix``, ``homology`` and
``reports``; ``partition`` imports ``spq.partition`` and ``verify`` imports
``spq.suites`` (and through it every layer) inside their handlers.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from .errors import ResourceCapExceeded, SizeCapExceeded, SpqError
from .groups import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    builtin,
    group_from_json,
)
from .lattice import conjugacy_classes_of_subgroups
from .reports import profile_report, read_off

TYPE_CHECKING = False  # true only to type checkers: no command loads typing
if TYPE_CHECKING:
    from .partition import GSet


def _load_group(spec: str, order_cap: int) -> FiniteGroup:
    if spec.startswith("@"):
        with open(spec[1:], encoding="utf-8") as fh:
            return group_from_json(json.load(fh), order_cap=order_cap)
    return builtin(spec, order_cap=order_cap)


def _parse_gset(G: FiniteGroup, text: str) -> GSet:
    """Build the G-set of a spec; its size is checked against the cap before any term is built."""
    from .partition import DEFAULT_SIZE_CAP, GSet

    terms = []  # (size, constructor)
    for term in text.split("+"):
        term = term.strip()
        if term == "regular":
            terms.append((G.order, partial(GSet.regular, G)))
        elif term.startswith("trivial:"):
            size = int(term.split(":", 1)[1])
            if size < 1:  # a term below 1 would lower the sum under the cap
                raise SpqError(f"G-set term {term!r} has size {size}, below 1")
            terms.append((size, partial(GSet.trivial, G, size)))
        elif term.startswith("coset:"):
            body = term.split(":", 1)[1]
            H = G.subgroup(int(x) for x in body.split(",") if x != "")
            terms.append((G.order // H.order, partial(GSet.from_cosets, G, H)))
        else:
            raise SpqError(f"unrecognized G-set term {term!r}")
    size = sum(s for s, _ in terms)
    if size > DEFAULT_SIZE_CAP:
        raise SizeCapExceeded(f"G-set of size {size} above the cap {DEFAULT_SIZE_CAP}")
    parts = [build() for _, build in terms]
    return parts[0] if len(parts) == 1 else GSet.disjoint_union(parts)


def _emit(data: dict) -> None:
    print(json.dumps(data, indent=2))


def _format_vector(values) -> str:
    return " ".join(str(x) for x in values)


def _cmd_compute(args) -> int:
    G = _load_group(args.group, args.cap_order)
    report = read_off(G, [args.n])[0]
    if args.json:
        _emit(report.to_json_dict())
        return 0
    print(f"group {report.group}  order {report.order}")
    print(f"n {report.n}  effective {report.n_effective}")
    header = "degree  chains  pi" + ("  phi" if args.phi else "")
    print(header)
    for k in range(len(report.pi)):
        line = f"{k:<7} {report.chains[k]:<7} {report.pi[k]}"
        if args.phi:
            line += f"   {report.phi[k]}"
        print(line)
    print(f"euler {report.euler}")
    return 0


def _cmd_profile(args) -> int:
    if args.threads < 1:
        raise SpqError(f"threads must be at least 1, got {args.threads}")
    G = _load_group(args.group, args.cap_order)
    prof = profile_report(G)
    if args.json:
        _emit(prof.to_json_dict())
        return 0
    print(f"group {prof.group}  order {prof.order}")
    print("levels " + " ".join(str(l) for l in prof.levels))
    print("n-range     pi / phi")
    for rng in prof.ranges:
        end = "inf" if rng.end is None else rng.end
        label = f"[{rng.start},{end}]"
        print(f"{label:<11} {_format_vector(rng.report.pi)} / "
              f"{_format_vector(rng.report.phi)}")
    print(f"certified constant on {prof.gap_checks} gap probes")
    return 0


def _cmd_verify(args) -> int:
    from .suites import SUITES, run_suite

    if args.suite != "all" and args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}", file=sys.stderr)
        return 2
    results = run_suite(args.suite)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        line = f"{status} {res.name}"
        if not res.passed:
            line += f"  expected {res.expected}  computed {res.computed}"
            failed += 1
        print(line)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _cmd_subgroups(args) -> int:
    G = _load_group(args.group, args.cap_order)
    classes = conjugacy_classes_of_subgroups(G)
    if args.json:
        _emit({
            "group": G.label,
            "order": G.order,
            "classes": [{"order": rep.order, "orbit": len(orbit),
                         "members": list(rep.elements)}
                        for rep, orbit in classes],
        })
        return 0
    print(f"group {G.label}  order {G.order}")
    print(f"classes {len(classes)}")
    print("order  orbit  representative")
    for rep, orbit in classes:
        print(f"{rep.order:<6} {len(orbit):<6} {list(rep.elements)}")
    return 0


def _cmd_partition(args) -> int:
    from .partition import fixed_partition_poset

    G = _load_group(args.group, args.cap_order)
    M = _parse_gset(G, args.gset)
    poset = fixed_partition_poset(M)
    relations = sum(m.bit_count() for m in poset.lt_masks)
    if args.json:
        _emit({
            "group": G.label,
            "gset_size": M.size,
            "elements": [[list(block) for block in part]
                         for part in poset.elements],
            "relations": relations,
        })
        return 0
    print(f"group {G.label}  gset size {M.size}")
    print(f"invariant proper partitions: {len(poset)}")
    for part in poset.elements:
        text = " | ".join(",".join(str(x) for x in block) for block in part)
        print(f"  {{{text}}}")
    print(f"strict relations: {relations}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spq",
        description="Homotopy dimension tables for symmetric products of "
                    "equivariant spheres, by exact subgroup-lattice homology.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("-g", "--group", required=True,
                       help="group spec (or @file.json)")
        p.add_argument("--cap-order", type=int, default=DEFAULT_ORDER_CAP,
                       help="maximum group order")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    p_compute = sub.add_parser("compute", help="dimensions at one level")
    add_common(p_compute)
    p_compute.add_argument("-n", type=int, required=True,
                           help="filtration level (clamped to |G|)")
    p_compute.add_argument("--phi", action="store_true",
                           help="include the reduced (phi) column in text output")
    p_compute.set_defaults(func=_cmd_compute)

    p_profile = sub.add_parser("profile", help="dimensions at every level")
    add_common(p_profile)
    p_profile.add_argument("--threads", type=int, default=1,
                           help="kept for old scripts; has no effect")
    p_profile.set_defaults(func=_cmd_profile)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", default="all",
                          help="paper, properties or all")
    p_verify.set_defaults(func=_cmd_verify)

    p_sub = sub.add_parser("subgroups", help="conjugacy classes of subgroups")
    add_common(p_sub)
    p_sub.set_defaults(func=_cmd_subgroups)

    p_part = sub.add_parser("partition", help="fixed-point partition poset")
    add_common(p_part)
    p_part.add_argument("--gset", required=True,
                        help="regular | trivial:<k> | coset:<i,j,..>, joined by +")
    p_part.set_defaults(func=_cmd_partition)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SpqError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
