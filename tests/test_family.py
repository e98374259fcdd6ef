import gc
import math

import pytest

from sumatoms import (
    Case,
    FiniteGroup,
    ValidationError,
    arc_atom_cardinality_check,
    build_example,
    build_quotient_graph,
    classify_example,
    enumerate_subgroups,
    sophie_germain_scan,
    verify_example,
    verify_two_coset_theorem,
)
from sumatoms.family import _conjugate_subgroups, _order_p_subgroup


def test_build_sizes():
    inst = build_example(7, 3)
    assert inst.group.order == 21
    assert len(inst.subgroup) == 3
    assert len(inst.pair) == 6
    assert len(inst.removed) == 11
    assert len(inst.subset) == 10
    inst2 = build_example(11, 5)
    assert inst2.group.order == 55 and len(inst2.subset) == 36


def test_build_rejects_bad_pairs():
    with pytest.raises(ValidationError):
        build_example(5, 3)  # 3 does not divide 4
    with pytest.raises(ValidationError):
        build_example(7, 2)  # even q
    with pytest.raises(ValidationError):
        build_example(9, 3)  # p not prime


def test_build_is_deterministic():
    a = build_example(7, 3)
    b = build_example(7, 3)
    assert a.group.table == b.group.table
    assert a.subset.mask == b.subset.mask
    assert a.pair.mask == b.pair.mask


def test_verify_all_checks_pass():
    for p, q in ((7, 3), (11, 5)):
        inst = build_example(p, q)
        transcript = verify_example(inst)
        assert all(e.passed for e in transcript), [
            e.render() for e in transcript if not e.passed
        ]
        names = [e.name for e in transcript]
        assert "four_coset_overlap_is_identity" in names
        assert "pair_product_complement" in names
        assert "double_coset_square" in names


def test_verify_detects_perturbation():
    # moving one element from the removed block into S must break a check
    inst = build_example(7, 3)
    import dataclasses

    from sumatoms import GroupSubset

    moved = (inst.removed.mask & -inst.removed.mask)  # the identity bit
    bad_subset = GroupSubset(inst.group, inst.subset.mask | moved)
    perturbed = dataclasses.replace(inst, subset=bad_subset)
    transcript = verify_example(perturbed)
    assert any(not e.passed for e in transcript)


def test_subgroup_census():
    inst = build_example(7, 3)
    sizes = sorted(len(h) for h in enumerate_subgroups(inst.group))
    assert sizes == [1] + [3] * 7 + [7, 21]
    # the unique order-p subgroup covers G together with S
    gp = _order_p_subgroup(inst)
    assert gp.bit_count() == 7


def test_multiplicative_subgroup_unique():
    # the h-parts form the unique order-q subgroup of the units mod p
    for p, q in ((7, 3), (11, 5)):
        h0 = sorted(h for h in range(1, p) if pow(h, q, p) == 1)
        assert len(h0) == q
        # unique: any element of order dividing q lies in h0
        for h in range(1, p):
            if pow(h, q, p) == 1:
                assert h in h0


def test_coverage_anomaly_at_smallest_member():
    # At (7,3) two conjugates K_x (x = 2, 6) sit entirely inside the removed
    # block, so K_x S misses the identity: literal full coverage fails even
    # though the covering-growth bound is still defeated.
    inst = build_example(7, 3)
    conjugates = _conjugate_subgroups(inst)
    inside_b = [
        x
        for x in range(2, inst.p)
        if conjugates[x] & ~inst.removed.mask == 0
    ]
    assert inside_b == [2, 6]
    transcript = {e.name: e for e in verify_example(inst)}
    assert transcript["conjugates_defeat_cover"].passed
    assert transcript["conjugates_cover_group"].lhs == 3  # of 5
    # at (11,5) the literal claim does hold
    inst2 = build_example(11, 5)
    transcript2 = {e.name: e for e in verify_example(inst2)}
    assert transcript2["conjugates_cover_group"].lhs == inst2.p - 2


def test_classify_example():
    for p, q in ((7, 3), (11, 5)):
        inst = build_example(p, q)
        result = classify_example(inst)
        assert result.case is Case.CASE_III
        conj_entry = [
            e for e in result.transcript if e.name == "witness_subgroup_conjugate"
        ]
        assert conj_entry and conj_entry[0].passed


def _live_groups():
    return sum(1 for o in gc.get_objects() if isinstance(o, FiniteGroup))


def test_a_member_and_its_caches_die_by_reference_counting():
    # With the collector off, a member whose subgroups, translate masks and
    # flows have been cached must be freed by reference counting alone, so a
    # long run does not keep every dropped group's tables until the next
    # full collection.
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = _live_groups()
        inst = build_example(7, 3)
        assert classify_example(inst).case is Case.CASE_III
        assert all(e.passed for e in verify_example(inst))
        assert verify_two_coset_theorem(inst.group, inst.subset).holds is True
        graph = build_quotient_graph(inst.group, inst.subgroup, inst.a)
        assert arc_atom_cardinality_check(graph, 1, arc_transitive=True).passed
        assert len(enumerate_subgroups(inst.group)) > 2
        assert _live_groups() == before + 1
        del inst, graph
        assert _live_groups() == before
    finally:
        if enabled:
            gc.enable()


def test_sophie_germain_scan():
    rows = sophie_germain_scan(25)
    assert [(r.p, r.q) for r in rows] == [(7, 3), (11, 5), (23, 11)]
    assert sophie_germain_scan(6) == []
    last = rows[-1]
    assert last.order == 253 and last.set_size == 210
    assert abs(last.ratio - 43 / math.sqrt(253)) < 1e-12
    # the gap ratio approaches 2*sqrt(2) from below
    assert all(r.ratio < 2 * math.sqrt(2) for r in rows)
    assert rows[0].ratio < rows[1].ratio < rows[2].ratio
