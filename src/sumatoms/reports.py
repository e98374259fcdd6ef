"""Report rendering: a flat, ordered key-value machine format plus a human one.

The machine format is one "key value" pair per line, keys dotted for
grouping and suffixed with indices for lists.  It contains nothing
nondeterministic (no timing, no worker counts), so identical inputs produce
byte-identical documents.
"""

from __future__ import annotations

from typing import Iterable

from .classify import ClassificationResult, CorollaryVerdict, TranscriptEntry
from .digraphs import ArcCutReport
from .groups import FiniteGroup, GroupSubset
from .sumsets import FragmentReport
from .sweeps import SweepResult

KV = list[tuple[str, object]]


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    if value is None:
        return "-"
    if isinstance(value, GroupSubset):
        return value.to_literal() or "(empty)"
    return str(value)


def render_kv(pairs: KV) -> str:
    return "\n".join(f"{key} {_fmt(value)}" for key, value in pairs) + "\n"


def header_pairs(command: str, seed: int, order_cap: int, oracle_cap: int) -> KV:
    return [
        ("config.command", command),
        ("config.seed", seed),
        ("config.order_cap", order_cap),
        ("config.oracle_cap", oracle_cap),
    ]


def group_pairs(group: FiniteGroup, subgroup_sizes: Iterable[int]) -> KV:
    sizes = list(subgroup_sizes)
    pairs: KV = [
        ("group.name", group.name),
        ("group.order", group.order),
        ("group.abelian", group.is_abelian),
        ("group.valid", True),
        ("group.subgroups", len(sizes)),
    ]
    pairs.append(("group.subgroup_sizes", " ".join(map(str, sizes))))
    return pairs


def fragment_report_pairs(report: FragmentReport) -> KV:
    pairs: KV = [
        ("k", report.k),
        ("separable", report.separable),
        ("kappa", report.kappa),
        ("alpha", report.alpha),
    ]
    for i, atom in enumerate(report.atoms):
        pairs.append((f"atoms.{i}", atom))
    pairs.extend(
        [
            ("fragment_count", report.fragment_count),
            ("fragment_count_exact", report.fragment_count_exact),
            ("oracle_used", report.oracle_used),
            ("atoms_truncated", report.atoms_truncated),
        ]
    )
    return pairs


def transcript_pairs(prefix: str, entries: Iterable[TranscriptEntry]) -> KV:
    return [(f"{prefix}.{i}", e.render()) for i, e in enumerate(entries)]


def witness_pairs(result: ClassificationResult) -> KV:
    # Witness fields are declared in the order the report prints them.
    if result.witness is None:
        return []
    return [(f"witness.{name}", value) for name, value in _dataclass_items(result.witness)]


def classification_pairs(result: ClassificationResult) -> KV:
    pairs: KV = [
        ("case", result.case.value),
        ("normalized_set", result.normalized),
        ("translator", result.translator),
    ]
    pairs.extend(witness_pairs(result))
    pairs.append(("verified", result.verified))
    pairs.extend(transcript_pairs("transcript", result.transcript))
    return pairs


def corollary_pairs(verdict: CorollaryVerdict) -> KV:
    pairs: KV = [
        ("corollary.applicable", verdict.applicable),
        ("corollary.passed", verdict.passed),
    ]
    pairs.extend(transcript_pairs("corollary.transcript", verdict.transcript))
    return pairs


def arc_cut_pairs(report: ArcCutReport) -> KV:
    pairs: KV = [
        ("arc_cut.k", report.k),
        ("arc_cut.lambda", report.lam),
        ("arc_cut.separable", report.separable),
        ("arc_cut.method", report.method),
        ("arc_cut.atoms_complete", report.atoms_complete),
    ]
    for i, atom in enumerate(report.atoms):
        pairs.append((f"arc_cut.atoms.{i}", " ".join(map(str, atom))))
    return pairs


def sweep_pairs(result: SweepResult) -> KV:
    """Rows are dataclasses: emit every scalar field, tuples as counts."""
    pairs: KV = [("suite", result.suite), ("rows", len(result.rows))]
    for i, row in enumerate(result.rows):
        for field, value in _dataclass_items(row):
            key = f"row.{i}.{field}"
            if isinstance(value, tuple):
                pairs.append((key + "_count", len(value)))
            else:
                pairs.append((key, value))
    pairs.append(("failures", len(result.failures)))
    for i, failure in enumerate(result.failures):
        pairs.append((f"failure.{i}", failure))
    pairs.append(("passed", result.passed))
    return pairs


def _dataclass_items(row: object) -> list[tuple[str, object]]:
    from dataclasses import fields

    return [(f.name, getattr(row, f.name)) for f in fields(row)]
