import io
import random
import sys
from contextlib import redirect_stdout
from itertools import combinations

import pytest

from sumatoms import (
    Case,
    GroupMismatchError,
    GroupSubset,
    PreconditionError,
    build_example,
    check_corollary_bound,
    classify,
    detect_geometric_progression,
    enumerate_subgroups,
    find_case_ii_subgroup,
    find_case_iii_witness,
    hypothesis_holds,
    make_cyclic,
    make_dihedral,
    normalize,
    product_set,
    verify_mann,
    verify_two_coset_theorem,
)
from sumatoms.bitset import permute_mask
from sumatoms.catalog import build_group, catalog_specs
from sumatoms.groups import closure_mask


def subset(group, *indices):
    return GroupSubset.from_indices(group, indices)


# ---------------------------------------------------------------------------
# Hypothesis


def test_hypothesis_examples():
    g7 = make_cyclic(7)
    rep = hypothesis_holds(g7, subset(g7, 0, 1, 2))
    assert rep.holds and rep.generates and rep.witness is not None
    inst = build_example(7, 3)
    rep2 = hypothesis_holds(inst.group, inst.subset)
    assert rep2.holds
    # witness re-check: boundary of the witness is within |S| - 1
    w = rep2.witness
    prod = product_set(w, rep2.normalized)
    assert len(prod) - len(w) <= len(inst.subset) - 1
    assert len(prod) <= inst.group.order - 2
    g5 = make_cyclic(5)
    rep3 = hypothesis_holds(g5, GroupSubset.full(g5))
    assert not rep3.holds and rep3.two_separable is False
    with pytest.raises(PreconditionError):
        hypothesis_holds(g5, subset(g5, 0))


def test_hypothesis_non_generating_routes_to_cover():
    g6 = make_cyclic(6)
    rep = hypothesis_holds(g6, subset(g6, 2, 4))
    assert rep.holds and not rep.generates


def test_hypothesis_invariant_under_right_translation():
    rng = random.Random(97)
    specs = [s for s in catalog_specs(10) if s.order >= 5]
    for _ in range(30):
        spec = specs[rng.randrange(len(specs))]
        group = build_group(spec)
        n = group.order
        size = rng.randint(2, n - 1)
        s = GroupSubset.from_indices(group, rng.sample(range(n), size))
        base = hypothesis_holds(group, s).holds
        for t in list(s)[:3]:
            moved = s.right_translate(t)
            assert hypothesis_holds(group, moved).holds == base


def test_inverse_side_witness_conversion():
    # A low-boundary admissible set for S^-1 converts, via its remainder,
    # into one for S with no larger boundary: the mechanism behind checking
    # structured witnesses on both sides.
    rng = random.Random(101)
    from sumatoms import remainder
    from sumatoms.classify import _converted_witness
    from sumatoms.sumsets import product_mask

    specs = [s for s in catalog_specs(12) if s.order >= 6]
    checked = 0
    for _ in range(150):
        spec = specs[rng.randrange(len(specs))]
        group = build_group(spec)
        n = group.order
        size = rng.randint(2, n - 1)
        s = GroupSubset.from_indices(group, [0] + rng.sample(range(1, n), size - 1))
        sinv = s.inverse_set()
        xsize = rng.randint(2, max(2, n // 2))
        x = GroupSubset.from_indices(group, rng.sample(range(n), xsize))
        prod = product_mask(group, x.mask, sinv.mask)
        if n - prod.bit_count() < 2:
            continue  # not admissible for the inverse side
        b_inv = prod.bit_count() - len(x)
        converted = GroupSubset(group, _converted_witness(group, x.mask, prod))
        assert converted.mask == remainder(sinv, x).mask
        assert len(converted) >= 2
        prod_s = product_mask(group, converted.mask, s.mask)
        assert n - prod_s.bit_count() >= len(x) >= 2
        assert prod_s.bit_count() - len(converted) <= b_inv
        checked += 1
    assert checked > 25


def test_hypothesis_matches_exact_kappa():
    # The structured+search decision must agree with a direct oracle scan.
    rng = random.Random(71)
    specs = [s for s in catalog_specs(12) if s.order >= 5]
    from sumatoms import oracle_atoms
    from sumatoms.sumsets import _separability_witness

    for _ in range(100):
        spec = specs[rng.randrange(len(specs))]
        group = build_group(spec)
        n = group.order
        size = rng.randint(2, n - 1)
        s = GroupSubset.from_indices(group, [0] + rng.sample(range(1, n), size - 1))
        if closure_mask(group, s.indices()) != (1 << n) - 1:
            continue
        rep = hypothesis_holds(group, s)
        if _separability_witness(s, 2) is None:
            assert not rep.holds
            continue
        kappa = oracle_atoms(s, 2).kappa
        assert rep.holds == (kappa <= len(s) - 1)


def test_structured_witness_below_the_exact_cap():
    # hypothesis_holds only runs the structured scan above order 48, so it
    # is checked directly here against the complete search and a literal
    # one-sided cover scan, on S and on S^-1.
    from sumatoms.classify import _structured_boundary_witness
    from sumatoms.sumsets import boundary_witness, product_mask

    rng = random.Random(113)
    specs = [s for s in catalog_specs(12) if s.order >= 4]
    found = covered = 0
    for _ in range(150):
        spec = specs[rng.randrange(len(specs))]
        group = build_group(spec)
        n = group.order
        size = rng.randint(2, n - 1)
        s0 = GroupSubset.from_indices(group, [0] + rng.sample(range(1, n), size - 1))
        for s in (s0, s0.inverse_set()):
            target = len(s) - 1
            x = _structured_boundary_witness(s, target)
            if x is not None:
                found += 1
                prod = product_mask(group, x, s.mask)
                assert x.bit_count() >= 2
                assert prod.bit_count() <= n - 2
                assert (prod & ~x).bit_count() <= target
                assert boundary_witness(s, 2, target) is not None
            literal = None
            for h in enumerate_subgroups(group):
                if not 2 <= len(h) < n:
                    continue
                if len(product_set(h, s)) <= len(h) + target:
                    literal = (h.mask, "HS")
                elif len(product_set(s, h)) <= len(h) + target:
                    literal = (h.mask, "SH")
                if literal is not None:
                    break
            w = find_case_ii_subgroup(group, s)
            got = None if w is None else (w.subgroup.mask, "HS" if w.epsilon == 1 else "SH")
            assert got == literal
            covered += literal is not None
    assert found > 50 and covered > 50


def test_violation_branch_when_no_case_fits(monkeypatch):
    # No input reaches VIOLATION while the theorem holds, so the three
    # detectors are silenced to exercise the branch and its exit code.
    from sumatoms.cli import main

    module = sys.modules["sumatoms.classify"]
    for name in (
        "detect_geometric_progression",
        "find_case_ii_subgroup",
        "find_case_iii_witness",
    ):
        monkeypatch.setattr(module, name, lambda group, s: None)
    c7 = make_cyclic(7)
    result = classify(c7, subset(c7, 0, 1, 2))
    assert result.case is Case.VIOLATION and result.witness is None
    first = result.transcript[0]
    assert first.name == "hypothesis_boundary" and first.passed
    assert not result.verified
    with redirect_stdout(io.StringIO()):
        assert main(["classify", "--cyclic", "7", "--set", "0 1 2"]) == 4


def test_scans_share_one_set_of_masks_per_side(xs_builds):
    # Every scan of one call reads the masks of the normalized set and of
    # its inverse, so a call builds at most two.
    for p, q in ((11, 5), (23, 11)):
        inst = build_example(p, q)
        for check in (classify, verify_two_coset_theorem):
            xs_builds.clear()
            check(inst.group, GroupSubset(inst.group, inst.subset.mask))
            assert 1 <= len(xs_builds) <= 2, (p, q, check.__name__, len(xs_builds))


# ---------------------------------------------------------------------------
# Case detectors


def test_progression_examples():
    g7 = make_cyclic(7)
    w = detect_geometric_progression(g7, subset(g7, 0, 2, 4))
    assert w is not None and w.a == 2
    assert detect_geometric_progression(g7, subset(g7, 0, 1, 3)) is None
    d3 = make_dihedral(3)
    w2 = detect_geometric_progression(d3, subset(d3, 0, 3))
    assert w2 is not None and w2.a == 3  # two-element sets are progressions


def test_progression_agrees_with_triple_scan():
    # Sg = {1, a, ...} gives gS = g(Sg)g^-1 = {1, gag^-1, ...} for the same
    # g, so the detector scans left translates only.  A literal two-sided
    # check agrees with it on every subset of the small catalog groups, and
    # no set has a right-hand progression without a left-hand one.
    checked = found = 0
    for spec in catalog_specs(10):
        group = build_group(spec)
        n = group.order
        progressions = set()
        for a in range(n):
            powers, x = 1 << 0, 0
            for _ in range(n - 1):
                x = group.table[a][x]
                if powers >> x & 1:
                    break
                powers |= 1 << x
                progressions.add(powers)
        perms = [("left", group.table[g]) for g in range(n)]
        perms += [("right", group.column(g)) for g in range(n)]
        for smask in range(1 << n):
            if smask.bit_count() < 2:
                continue
            sides = {side for side, perm in perms if permute_mask(smask, perm) in progressions}
            w = detect_geometric_progression(group, GroupSubset(group, smask))
            assert (w is not None) == bool(sides) == ("left" in sides)
            assert w is None or w.side == "left"
            checked += 1
            found += w is not None
    assert (checked, found) == (4305, 935)


def test_progression_scan_skips_short_orders(monkeypatch):
    # SD(11,5)'s set has 36 elements and no element of order 36 or more, so
    # no candidate a can generate a progression that long.
    module = sys.modules["sumatoms.classify"]
    real = module._is_progression
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, "_is_progression", counting)
    inst = build_example(11, 5)
    assert detect_geometric_progression(inst.group, inst.subset) is None
    assert calls == []


def test_classify_layer_rejects_a_set_of_another_group():
    # C8 and D4 have the same order, so index-level code would run silently
    # and mix the two tables.
    g8 = make_cyclic(8)
    d4 = make_dihedral(4)
    s = subset(d4, 0, 1, 4)
    checks = (
        hypothesis_holds,
        classify,
        detect_geometric_progression,
        find_case_ii_subgroup,
        find_case_iii_witness,
        verify_mann,
        verify_two_coset_theorem,
    )
    for check in checks:
        with pytest.raises(GroupMismatchError):
            check(g8, s)
    with pytest.raises(GroupMismatchError):
        check_corollary_bound(g8, s, classify(d4, s))


def test_case_ii_examples():
    g6 = make_cyclic(6)
    w = find_case_ii_subgroup(g6, subset(g6, 0, 2, 3))
    assert w is not None and w.subgroup.indices() == (0, 3)
    inst = build_example(7, 3)
    s, _ = normalize(inst.subset)
    assert find_case_ii_subgroup(inst.group, s) is None
    # a subgroup is covered by itself
    d4 = make_dihedral(4)
    h = subset(d4, 0, 2)
    assert find_case_ii_subgroup(d4, h) is not None


def test_case_iii_examples():
    inst = build_example(7, 3)
    s, _ = normalize(inst.subset)
    w = find_case_iii_witness(inst.group, s)
    assert w is not None
    assert len(w.subgroup) == 3
    g7 = make_cyclic(7)
    assert find_case_iii_witness(g7, subset(g7, 0, 1, 2)) is None


def test_classify_examples():
    g7 = make_cyclic(7)
    r1 = classify(g7, subset(g7, 0, 1, 2))
    assert r1.case is Case.CASE_I and r1.verified
    g6 = make_cyclic(6)
    r2 = classify(g6, subset(g6, 0, 2, 3))
    assert r2.case is Case.CASE_II and r2.witness.subgroup.indices() == (0, 3)
    inst = build_example(7, 3)
    r3 = classify(inst.group, inst.subset)
    assert r3.case is Case.CASE_III and r3.verified
    r4 = classify(g6, subset(g6, 2, 4))  # non-generating: covered by closure
    assert r4.case is Case.CASE_II
    assert r4.witness.subgroup.indices() == (0, 2, 4)
    assert r4.verified


def test_classify_hypothesis_fails():
    g5 = make_cyclic(5)
    r = classify(g5, GroupSubset.full(g5))
    assert r.case is Case.HYPOTHESIS_FAILS


def test_corollary_bound():
    inst = build_example(7, 3)
    result = classify(inst.group, inst.subset)
    verdict = check_corollary_bound(inst.group, inst.subset, result)
    assert verdict.applicable and verdict.passed
    # |S| = |G| + 1 - 4|H|: 10 = 21 + 1 - 12
    assert len(inst.subset) == 10
    g6 = make_cyclic(6)
    r2 = classify(g6, subset(g6, 0, 2, 3))
    v2 = check_corollary_bound(g6, subset(g6, 0, 2, 3), r2)
    assert not v2.applicable and v2.passed


# ---------------------------------------------------------------------------
# Covering verifier


def test_mann_subgroup_self_cover():
    g6 = make_cyclic(6)
    v = verify_mann(g6, subset(g6, 0, 2, 4))
    assert v.hypothesis and v.consistent
    assert v.witness_subgroup.indices() == (0, 2, 4)


def test_mann_negative_example():
    g6 = make_cyclic(6)
    v = verify_mann(g6, subset(g6, 0, 3, 4))
    # exhaustive scan over all T confirms the hypothesis fails here
    brute = _t_scan(g6, subset(g6, 0, 3, 4))
    assert v.hypothesis == brute == False  # noqa: E712


def test_mann_prime_order_vacuous():
    g7 = make_cyclic(7)
    for size in range(2, 6):
        for combo in combinations(range(1, 7), size - 1):
            s = subset(g7, 0, *combo)
            v = verify_mann(g7, s)
            assert not v.hypothesis
            assert not _t_scan(g7, s)


def _t_scan(group, s):
    # literal scan over every nonempty T
    n = group.order
    full = (1 << n) - 1
    s1, _ = normalize(s)
    from sumatoms.sumsets import product_mask

    for tmask in range(1, 1 << n):
        prod = product_mask(group, tmask, s1.mask)
        if prod != full and prod.bit_count() <= tmask.bit_count() + len(s) - 2:
            return True
    return False


def test_mann_agreement_random():
    rng = random.Random(83)
    specs = [s for s in catalog_specs(8) if s.order >= 4]
    for _ in range(60):
        spec = specs[rng.randrange(len(specs))]
        group = build_group(spec)
        n = group.order
        size = rng.randint(2, n)
        s = GroupSubset.from_indices(group, rng.sample(range(n), size))
        v = verify_mann(group, s)
        assert v.hypothesis == _t_scan(group, s)
        assert v.consistent


# ---------------------------------------------------------------------------
# Two-coset verifier


def test_two_coset_family_instances():
    for p, q in ((7, 3), (11, 5)):
        inst = build_example(p, q)
        verdict = verify_two_coset_theorem(inst.group, inst.subset)
        assert verdict.applicable, verdict.preconditions
        assert verdict.holds
        # with the original set, the complement of HS is the coset pair itself
        hs = product_set(inst.subgroup, inst.subset)
        assert ~hs.mask & ((1 << inst.group.order) - 1) == inst.pair.mask
        assert hs.mask == product_set(inst.pair, inst.subset).mask


def test_two_coset_statuses():
    inst = build_example(11, 5)
    verdict = verify_two_coset_theorem(inst.group, inst.subset)
    statuses = {p.name: p.status for p in verdict.preconditions}
    assert statuses["atom_minimality"] == "assumed"  # order 55: certified path
    inst_small = build_example(7, 3)
    verdict2 = verify_two_coset_theorem(inst_small.group, inst_small.subset)
    assert all(p.status == "verified" for p in verdict2.preconditions)


def test_two_coset_early_exits():
    # Each unmet early precondition stops the verifier before any atom
    # search, and the report names it.
    g6, g7, g5 = make_cyclic(6), make_cyclic(7), make_cyclic(5)
    cases = (
        (g6, subset(g6, 0, 2, 4), "generates"),  # spans only {0, 2, 4}
        (g7, subset(g7, 0, 1), "set_size"),
        # |XS| >= 4 for every pair X in C5 (Cauchy-Davenport): no 2-fragment
        (g5, subset(g5, 0, 1, 2), "two_separable"),
    )
    for group, s, name in cases:
        verdict = verify_two_coset_theorem(group, s)
        assert not verdict.applicable and verdict.holds is None
        assert [p.name for p in verdict.preconditions if p.status == "failed"] == [name]
        assert verdict.transcript == ()


def test_two_coset_precondition_not_met():
    g6 = make_cyclic(6)
    verdict = verify_two_coset_theorem(g6, subset(g6, 0, 2, 3))
    assert not verdict.applicable
    failed = {p.name for p in verdict.preconditions if p.status == "failed"}
    assert "no_subgroup_fragment" in failed or "two_coset_atom" in failed


def test_classification_probe_where_case_iii_lives():
    # order 21 is the smallest scale where the double-coset-pair case can
    # fire; probe random subsets there for trichotomy violations
    rng = random.Random(2027)
    inst = build_example(7, 3)
    group = inst.group
    n = group.order
    candidates = []
    for _ in range(300):
        size = rng.randint(2, n - 1)
        candidates.append(rng.sample(range(n), size))
    # deliberate shapes: translated power chains and subgroup-padded sets.
    # A normalized progression generates a cyclic subgroup, so in this
    # non-cyclic group the progression case cannot fire: chains land in the
    # covering case through the non-generating route.
    for g in range(1, n):
        for a in range(1, n):
            chain = [g]
            x = a
            for _ in range(2):
                chain.append(group.table[g][x])
                x = group.table[a][x]
            if len(set(chain)) == 3:
                candidates.append(chain)
    subgroups = [h for h in enumerate_subgroups(group) if 2 <= len(h) < n]
    for h in subgroups[:6]:
        extra = [g for g in range(n) if g not in h][:2]
        candidates.append(list(h.indices()) + extra[:1])
        candidates.append(list(h.indices()) + extra)
    seen = {case: 0 for case in Case}
    for members in candidates:
        s = GroupSubset.from_indices(group, members)
        result = classify(group, s)
        assert result.case is not Case.VIOLATION, s.to_literal()
        if result.case is not Case.HYPOTHESIS_FAILS:
            assert result.verified, (s.to_literal(), result.case)
        seen[result.case] += 1
    assert seen[Case.CASE_I] == 0  # structurally impossible here
    assert seen[Case.CASE_II] > 0
    # the family set itself fires the third case
    assert classify(group, inst.subset).case is Case.CASE_III
    # the cyclic group of the same order does produce progressions
    c21 = make_cyclic(21)
    r = classify(c21, GroupSubset.from_indices(c21, [0, 1, 2]))
    assert r.case is Case.CASE_I and r.verified


def test_sweep_consistency_spotcheck():
    # a couple of deliberate spot classifications against known outcomes
    d4 = make_dihedral(4)
    for smask in range(1, 1 << 8, 2):
        if smask.bit_count() != 3:
            continue
        s = GroupSubset(d4, smask)
        if closure_mask(d4, s.indices()) != (1 << 8) - 1:
            continue
        result = classify(d4, s)
        assert result.case is not Case.VIOLATION
        if result.case in (Case.CASE_I, Case.CASE_II, Case.CASE_III):
            assert result.verified
