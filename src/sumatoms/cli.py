"""Command-line interface.

Subcommands: ``group`` (construct/ingest and report), ``atoms`` (fragment
report with optional oracle cross-check), ``classify`` (structure case),
``verify`` (exhaustive sweeps), ``example`` (family member build/verify),
``quotient`` (coset digraph dump and certification), ``scan`` (family
parameter table).  Exit codes: 0 success, 1 input error, 2 oracle mismatch,
3 not separable or precondition unmet, 4 theorem violation / sweep failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from . import reports
from .classify import Case, check_corollary_bound, classify
from .digraphs import (
    arc_connectivity,
    build_quotient_graph,
    format_graph_dump,
    is_antisymmetric,
    verify_translation_transitivity,
)
from .errors import EngineMismatchError, ParseError, PreconditionError, SumatomsError
from .family import build_example, classify_example, sophie_germain_scan, verify_example
from .groups import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    GroupSubset,
    enumerate_subgroups,
    load_group_table,
    make_cyclic,
    make_dihedral,
    make_semidirect,
)
from .sumsets import DEFAULT_ATOM_CAP, DEFAULT_ORACLE_ORDER_CAP, find_atoms, oracle_atoms
from .sweeps import (
    SweepResult,
    sweep_graph_lemmas,
    sweep_intersection,
    sweep_main_theorem,
    sweep_mann,
    sweep_oracle_catalog,
    sweep_oracle_random,
    sweep_two_coset,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_ORACLE_MISMATCH = 2
EXIT_NOT_SEPARABLE = 3
EXIT_VIOLATION = 4

DEFAULT_SEED = 0


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as input errors (exit 1), not argparse's exit 2."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        raise ParseError(message)


# Each option is (flag, keyword arguments); a parser takes only those its
# command reads.
_FORMAT = ("--format", {"choices": ("human", "machine"), "default": "human"})
_ORDER_CAP = ("--order-cap", {"type": int, "default": DEFAULT_ORDER_CAP})
_ORACLE_CAP = ("--oracle-cap", {"type": int, "default": DEFAULT_ORACLE_ORDER_CAP})
_ATOM_CAP = ("--atom-cap", {"type": int, "default": DEFAULT_ATOM_CAP, "help": "atom list size cap"})
_SEED = ("--seed", {"type": int, "default": DEFAULT_SEED, "help": "seed for sampled checks"})
_WORKERS = ("--workers", {"type": int, "default": 1})
_MAX_ORDER = ("--max-order", {"type": int, "default": 12})
_SAMPLES = ("--samples", {"type": int, "default": 200, "help": "sample count"})
_LIMIT = ("--limit", {"type": int, "default": 25, "help": "prime limit"})


def _add_options(parser: argparse.ArgumentParser, *options: tuple[str, dict]) -> None:
    for flag, kwargs in options:
        parser.add_argument(flag, **kwargs)


def _add_group_source(parser: argparse.ArgumentParser) -> None:
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--cyclic", type=int, metavar="N")
    src.add_argument("--dihedral", type=int, metavar="M")
    src.add_argument("--semidirect", type=int, nargs=2, metavar=("P", "Q"))
    src.add_argument("--file", type=Path, metavar="PATH")


def _resolve_group(args: argparse.Namespace) -> FiniteGroup:
    cap = args.order_cap
    if args.cyclic is not None:
        return make_cyclic(args.cyclic, cap=cap)
    if args.dihedral is not None:
        return make_dihedral(args.dihedral, cap=cap)
    if args.semidirect is not None:
        return make_semidirect(args.semidirect[0], args.semidirect[1], cap=cap)
    return load_group_table(args.file.read_text(encoding="utf-8"), cap=cap)


def _emit(args: argparse.Namespace, pairs: list[tuple[str, object]], human_lines: list[str]) -> None:
    if args.format == "machine":
        # A command without one of these flags runs with, and prints, its default.
        header = reports.header_pairs(
            args.command,
            getattr(args, "seed", DEFAULT_SEED),
            getattr(args, "order_cap", DEFAULT_ORDER_CAP),
            getattr(args, "oracle_cap", DEFAULT_ORACLE_ORDER_CAP),
        )
        sys.stdout.write(reports.render_kv(header + pairs))
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_group(args: argparse.Namespace) -> int:
    group = _resolve_group(args)
    subgroups = enumerate_subgroups(group)
    sizes = [len(h) for h in subgroups]
    pairs = reports.group_pairs(group, sizes)
    human = [
        f"group {group.name}: order {group.order}, "
        f"{'abelian' if group.is_abelian else 'nonabelian'}, validation passed",
        f"subgroups: {len(subgroups)} (sizes {' '.join(map(str, sizes))})",
    ]
    _emit(args, pairs, human)
    return EXIT_OK


def cmd_atoms(args: argparse.Namespace) -> int:
    group = _resolve_group(args)
    subset = GroupSubset.from_literal(group, args.set)
    report = find_atoms(subset, args.k, atom_cap=args.atom_cap)
    mismatch = False
    if args.oracle:
        reference = oracle_atoms(
            subset, args.k, order_cap=args.oracle_cap, atom_cap=args.atom_cap
        )
        mismatch = not report.same_result(reference)
        report = reference if mismatch else report
    pairs = reports.fragment_report_pairs(report)
    if args.oracle:
        pairs.append(("oracle_match", not mismatch))
    human = [
        f"k={report.k}: kappa={report.kappa} alpha={report.alpha} "
        f"fragments(with 1)={report.fragment_count}"
        + ("" if report.fragment_count_exact else " (lower bound)"),
        "atoms containing 1:",
    ]
    human.extend(f"  {{{atom.to_literal()}}}" for atom in report.atoms)
    if args.oracle:
        human.append(f"oracle cross-check: {'MISMATCH' if mismatch else 'match'}")
    _emit(args, pairs, human)
    return EXIT_ORACLE_MISMATCH if mismatch else EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    if args.example:
        if args.semidirect is None or args.set is not None:
            args.parser.error("--example takes --semidirect P Q and no --set")
        inst = build_example(args.semidirect[0], args.semidirect[1], cap=args.order_cap)
        group, subset = inst.group, inst.subset
    else:
        if args.set is None:
            args.parser.error("provide --set or --example")
        group = _resolve_group(args)
        subset = GroupSubset.from_literal(group, args.set)
    result = classify(group, subset)
    corollary = check_corollary_bound(group, subset, result)
    pairs = reports.classification_pairs(result) + reports.corollary_pairs(corollary)
    human = [f"case: {result.case.value}"]
    human.extend(f"  {k.split('.', 1)[-1]} = {reports._fmt(v)}" for k, v in reports.witness_pairs(result))
    human.extend("  " + e.render() for e in result.transcript)
    if corollary.applicable:
        human.append(f"size bound check: {'pass' if corollary.passed else 'FAIL'}")
    _emit(args, pairs, human)
    return EXIT_VIOLATION if result.case is Case.VIOLATION else EXIT_OK


def _verify_oracle(args: argparse.Namespace) -> SweepResult:
    catalog = sweep_oracle_catalog(args.max_order, workers=args.workers)
    sampled = sweep_oracle_random(args.samples, args.seed, args.max_order)
    return SweepResult("oracle", catalog.rows + sampled.rows, catalog.failures + sampled.failures)


_CATALOG_SWEEP = (_MAX_ORDER, _WORKERS)
# Suite name -> (the sweep, run on the parsed arguments; the options it reads).
_SUITES = {
    "main-theorem": (lambda a: sweep_main_theorem(a.max_order, workers=a.workers), _CATALOG_SWEEP),
    "intersection": (lambda a: sweep_intersection(a.max_order, workers=a.workers), _CATALOG_SWEEP),
    "mann": (lambda a: sweep_mann(a.max_order, workers=a.workers), _CATALOG_SWEEP),
    "two-coset": (lambda a: sweep_two_coset(a.limit), (_LIMIT,)),
    "graph-lemmas": (lambda a: sweep_graph_lemmas(a.max_order), (_MAX_ORDER,)),
    "oracle": (_verify_oracle, (_MAX_ORDER, _SAMPLES, _SEED, _WORKERS)),
}


def cmd_verify(args: argparse.Namespace) -> int:
    result = _SUITES[args.suite][0](args)
    pairs = reports.sweep_pairs(result)
    human = [f"suite {result.suite}: {len(result.rows)} rows"]
    human.extend(f"  FAIL {f}" for f in result.failures)
    human.append("result: PASS" if result.passed else "result: FAIL")
    _emit(args, pairs, human)
    return EXIT_OK if result.passed else EXIT_VIOLATION


def cmd_example(args: argparse.Namespace) -> int:
    inst = build_example(args.p, args.q, cap=args.order_cap)
    transcript = verify_example(inst)
    result = classify_example(inst)
    passed = sum(1 for e in transcript if e.passed)
    pairs: list[tuple[str, object]] = [
        ("example.p", inst.p),
        ("example.q", inst.q),
        ("example.order", inst.group.order),
        ("example.subgroup", inst.subgroup),
        ("example.a", inst.a),
        ("example.set_size", len(inst.subset)),
        ("example.checks_passed", passed),
        ("example.checks_total", len(transcript)),
    ]
    pairs.extend(reports.transcript_pairs("example.transcript", transcript))
    pairs.extend(reports.classification_pairs(result))
    human = [
        f"family member ({inst.p},{inst.q}): order {inst.group.order}, "
        f"|S| = {len(inst.subset)}",
        f"checks: {passed}/{len(transcript)} passed",
    ]
    human.extend("  " + e.render() for e in transcript)
    human.append(f"classification: {result.case.value}")
    if args.dump_gtf:
        human.append(_gtf_dump(inst.group))
        pairs.append(("example.gtf", _gtf_dump(inst.group).replace("\n", ";")))
    _emit(args, pairs, human)
    ok = passed == len(transcript) and result.case is Case.CASE_III
    return EXIT_OK if ok else EXIT_VIOLATION


def _gtf_dump(group: FiniteGroup) -> str:
    lines = [str(group.order)]
    lines.extend(" ".join(map(str, row)) for row in group.table)
    if group.labels:
        lines.extend(f"# {i} {label}" for i, label in enumerate(group.labels))
    return "\n".join(lines)


def cmd_quotient(args: argparse.Namespace) -> int:
    group = _resolve_group(args)
    subgroup = GroupSubset.from_literal(group, args.subgroup)
    graph = build_quotient_graph(group, subgroup, args.element)
    verdict = verify_translation_transitivity(graph, group, subgroup, args.element)
    dump = format_graph_dump(graph)
    pairs: list[tuple[str, object]] = [
        ("quotient.vertices", graph.vertex_count),
        ("quotient.arcs", graph.arc_count),
        ("quotient.degree", verdict.degree),
        ("quotient.transitive", verdict.passed),
        ("quotient.antisymmetric", is_antisymmetric(graph)),
    ]
    human = [
        f"quotient on {graph.vertex_count} cosets, degree {verdict.degree}, "
        f"translation symmetry {'certified' if verdict.passed else 'FAILED'}",
    ]
    if args.k is not None:
        report = arc_connectivity(graph, args.k, arc_transitive=verdict.passed)
        pairs.extend(reports.arc_cut_pairs(report))
        human.append(
            f"lambda_{args.k} = {report.lam} "
            f"(atoms of size {len(report.atoms[0]) if report.atoms else 0}, method {report.method})"
        )
    pairs.append(("quotient.dump", dump.replace("\n", ";")))
    human.append(dump.rstrip("\n"))
    _emit(args, pairs, human)
    return EXIT_OK if verdict.passed else EXIT_NOT_SEPARABLE


def cmd_scan(args: argparse.Namespace) -> int:
    rows = sophie_germain_scan(args.limit, cap=args.order_cap)
    pairs: list[tuple[str, object]] = [("scan.limit", args.limit), ("scan.count", len(rows))]
    for i, row in enumerate(rows):
        pairs.append((f"scan.{i}", f"{row.p} {row.q} {row.order} {row.set_size} {row.ratio:.6f}"))
    human = ["p q |G| |S| gap-ratio"]
    human.extend(
        f"{row.p} {row.q} {row.order} {row.set_size} {row.ratio:.6f}" for row in rows
    )
    _emit(args, pairs, human)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sumatoms",
        description="Finite-group sumset structure: boundaries, atoms, "
        "classification, and exhaustive verification sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_group = sub.add_parser("group", help="construct or load a group and report on it")
    _add_group_source(p_group)
    _add_options(p_group, _FORMAT, _ORDER_CAP)
    p_group.set_defaults(fn=cmd_group, parser=p_group)

    p_atoms = sub.add_parser("atoms", help="isoperimetric number and atoms of a set")
    _add_group_source(p_atoms)
    p_atoms.add_argument("--set", required=True, help="subset literal, e.g. '0 1 3'")
    p_atoms.add_argument("--k", type=int, default=2)
    p_atoms.add_argument("--oracle", action="store_true", help="cross-check exhaustively")
    _add_options(p_atoms, _FORMAT, _ORDER_CAP, _ORACLE_CAP, _ATOM_CAP)
    p_atoms.set_defaults(fn=cmd_atoms, parser=p_atoms)

    p_classify = sub.add_parser("classify", help="structure case of (G, S)")
    _add_group_source(p_classify)
    p_classify.add_argument("--set", help="subset literal")
    p_classify.add_argument(
        "--example",
        action="store_true",
        help="use the family set of the --semidirect group",
    )
    _add_options(p_classify, _FORMAT, _ORDER_CAP)
    p_classify.set_defaults(fn=cmd_classify, parser=p_classify)

    p_verify = sub.add_parser("verify", help="run an exhaustive verification sweep")
    suites = p_verify.add_subparsers(dest="suite", required=True)
    for name, (_, options) in _SUITES.items():
        p_suite = suites.add_parser(name)
        _add_options(p_suite, *options, _FORMAT)
        p_suite.set_defaults(parser=p_suite)
    p_verify.set_defaults(fn=cmd_verify)

    p_example = sub.add_parser("example", help="build and verify a family member")
    p_example.add_argument("p", type=int)
    p_example.add_argument("q", type=int)
    p_example.add_argument("--dump-gtf", action="store_true")
    _add_options(p_example, _FORMAT, _ORDER_CAP)
    p_example.set_defaults(fn=cmd_example, parser=p_example)

    p_quot = sub.add_parser("quotient", help="coset quotient digraph: dump and certify")
    _add_group_source(p_quot)
    p_quot.add_argument("--subgroup", required=True, help="subgroup literal, e.g. '0 1 2'")
    p_quot.add_argument("--element", type=int, required=True, help="element a outside H")
    p_quot.add_argument("--k", type=int, help="also compute arc connectivity at level k")
    _add_options(p_quot, _FORMAT, _ORDER_CAP)
    p_quot.set_defaults(fn=cmd_quotient, parser=p_quot)

    p_scan = sub.add_parser("scan", help="list family parameter pairs up to a limit")
    _add_options(p_scan, _LIMIT, _FORMAT, _ORDER_CAP)
    p_scan.set_defaults(fn=cmd_scan, parser=p_scan)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:
            # parse_args would report these under the top-level usage line; the
            # command's own parser shows the options it does take.
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
        if getattr(args, "workers", 1) < 1:
            raise PreconditionError("worker count must be at least 1")
        if min(getattr(args, cap, 1) for cap in ("order_cap", "oracle_cap", "atom_cap")) < 1:
            raise PreconditionError("caps must be positive")
        return args.fn(args)
    except EngineMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE_MISMATCH
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_SEPARABLE
    except (SumatomsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
