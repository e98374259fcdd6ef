"""Acceptance gate: every criterion at its stated tolerance, one line each.

All checks are exact (integer equalities / zero-failure sweeps); the only
stated tolerance is the 10-second budget of the family criterion.  Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import time

from sumatoms import (
    Case,
    build_example,
    check_corollary_bound,
    classify_example,
    verify_example,
)
from sumatoms.reports import render_kv, sweep_pairs
from sumatoms.sweeps import (
    sweep_graph_lemmas,
    sweep_intersection,
    sweep_main_theorem,
    sweep_mann,
    sweep_oracle_catalog,
    sweep_oracle_random,
    sweep_two_coset,
)

MAIN_SWEEP_ORDER = 16
SMALL_ORDER = 12


def _report(criterion, passed, detail):
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_family_exact():
    start = time.monotonic()
    failures = []
    for p, q in ((7, 3), (11, 5), (23, 11)):
        inst = build_example(p, q)
        n, hsize = inst.group.order, len(inst.subgroup)
        if len(inst.subset) != n - 4 * hsize + 1:
            failures.append(f"({p},{q}) size formula")
        transcript = verify_example(inst)
        failures.extend(
            f"({p},{q}) {e.name}" for e in transcript if not e.passed
        )
        result = classify_example(inst)
        if result.case is not Case.CASE_III or not result.verified:
            failures.append(f"({p},{q}) classification {result.case.value}")
        bound = check_corollary_bound(inst.group, inst.subset, result)
        if not (bound.applicable and bound.passed):
            failures.append(f"({p},{q}) size bound")
    elapsed = time.monotonic() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s budget")
    _report(
        1,
        not failures,
        f"family members verified and classified in {elapsed:.2f}s"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_2_main_theorem_sweep():
    result = sweep_main_theorem(MAIN_SWEEP_ORDER, workers=1)
    classified = sum(r.case_i + r.case_ii + r.case_iii for r in result.rows)
    hyp = sum(r.hypothesis_true for r in result.rows)
    _report(
        2,
        result.passed and classified == hyp,
        f"{len(result.rows)} groups to order {MAIN_SWEEP_ORDER}, "
        f"{hyp} hypothesis-true subsets, {classified} classified, "
        f"{len(result.failures)} violations",
    )


def test_criterion_3_oracle_equivalence():
    sampled = sweep_oracle_random(samples=200, seed=20260810, max_order=SMALL_ORDER)
    catalog = sweep_oracle_catalog(SMALL_ORDER, workers=1)
    instances = sum(r.instances for r in sampled.rows + catalog.rows)
    failures = sampled.failures + catalog.failures
    _report(
        3,
        not failures,
        f"{instances} instances (200 sampled + catalog to order {SMALL_ORDER}), "
        f"{len(failures)} mismatches",
    )


def test_criterion_4_mann_sweep():
    result = sweep_mann(SMALL_ORDER, workers=1)
    subsets = sum(r.subsets for r in result.rows)
    hyp = sum(r.hypothesis_true for r in result.rows)
    _report(
        4,
        result.passed,
        f"{subsets} subsets to order {SMALL_ORDER}, {hyp} hypothesis-true, "
        f"{len(result.failures)} failures",
    )


def test_criterion_5_intersection_properties():
    result = sweep_intersection(SMALL_ORDER, workers=1)
    pairwise = sum(r.pairwise_checked for r in result.rows)
    fragments = sum(r.fragment_checked for r in result.rows)
    subgroups = sum(r.subgroup_checked for r in result.rows)
    _report(
        5,
        result.passed,
        f"{pairwise} atom-pair instances, {fragments} atom-fragment instances, "
        f"{subgroups} level-1 subgroup instances, {len(result.failures)} failures",
    )


def test_criterion_6_graph_layer():
    result = sweep_graph_lemmas(16)
    checks = sum(r.checks for r in result.rows)
    _report(
        6,
        result.passed,
        f"{len(result.rows)} graphs, {checks} checks (engine agreement, "
        f"atom caps, degree bound), {len(result.failures)} failures",
    )


def test_criterion_7_two_coset_linkage():
    result = sweep_two_coset(25)
    _report(
        7,
        result.passed and all(r.applicable and r.holds for r in result.rows),
        f"{len(result.rows)} family members: complement of HS is two cosets "
        f"and HS = AS, {len(result.failures)} failures",
    )


def test_criterion_8_determinism_across_workers():
    runs = {
        "two-coset": lambda w: sweep_two_coset(25),
        "graph-lemmas": lambda w: sweep_graph_lemmas(16),
        "main-theorem": lambda w: sweep_main_theorem(SMALL_ORDER, workers=w),
        "oracle-catalog": lambda w: sweep_oracle_catalog(10, workers=w),
        "oracle-random": lambda w: sweep_oracle_random(50, seed=1, max_order=10),
        "mann": lambda w: sweep_mann(10, workers=w),
        "intersection": lambda w: sweep_intersection(10, workers=w),
    }
    diffs = []
    for name, run in runs.items():
        first = render_kv(sweep_pairs(run(1))).encode()
        second = render_kv(sweep_pairs(run(2))).encode()
        if first != second:
            diffs.append(name)
    _report(
        8,
        not diffs,
        f"{len(runs)} machine reports byte-identical across worker counts"
        + (f"; differing: {diffs}" if diffs else ""),
    )
