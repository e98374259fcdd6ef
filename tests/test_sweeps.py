"""The catalog sweeps' subset enumerator and theorem sweeps against references.

``reference_generating_subsets`` and ``reference_class_mask`` are the
enumeration the sweeps used before the block-wise scan: one closure per odd
mask to test generation, and |S| ``permute_mask`` calls to find the least
right translate.  The block-wise scan must give the same (mask, class) list
in the same order.  ``reference_main_theorem_group`` is the main sweep as it
was before it decided once per orbit: one hypothesis walk per class and one
``classify`` per hypothesis-true subset.  ``reference_mann_group`` and
``reference_intersection_group`` are the Mann and intersection sweeps as
they were before they decided once per orbit: ``verify_mann`` on every
subset, and every check of the intersection sweep on every generating set.
"""

import dataclasses

import pytest

from sumatoms import SizeCapError, make_cyclic, sweeps
from sumatoms.bitset import bit_indices, indices_tuple, permute_mask
from sumatoms.catalog import build_group, catalog_specs
from sumatoms.classify import Case, entry, hypothesis_holds
from sumatoms.groups import GroupSubset, automorphism_generators, closure_mask
from sumatoms.sumsets import (
    DEFAULT_ATOM_CAP,
    _left_translates,
    _overlapping_pair,
    _walk_report,
    atom_translates,
    find_atoms,
)
from sumatoms.sweeps import (
    _class_keys,
    _generating_masks,
    _mask_blocks,
    _straddles,
    _subset_orbits,
    _t_enumeration,
    _translate_images,
)


def reference_class_mask(group, smask):
    # Least right translate S*s^-1 (s in S) as an integer; each contains 1.
    return min(permute_mask(smask, group.column(group.inverse[s])) for s in bit_indices(smask))


def reference_generating_subsets(group):
    """Masks of the generating subsets with 1 and at least 2 elements, ascending."""
    full = (1 << group.order) - 1
    for smask in range(3, 1 << group.order, 2):
        if closure_mask(group, indices_tuple(smask)) == full:
            yield smask


def reference_classes(group, masks):
    return [(m, reference_class_mask(group, m)) for m in masks]


def class_pairs(group, generating):
    """Each mask of the block-wise scan with its class key, as the orbit
    enumerator computes them."""
    translates = _translate_images(group)
    return [
        (m, c)
        for masks in _mask_blocks(group, generating)
        for m, c in zip(masks.tolist(), _class_keys(translates, masks).tolist())
    ]


def test_generating_subsets_and_classes_match_the_reference_up_to_order_14():
    specs = catalog_specs(14)
    assert len(specs) == 23
    for spec in specs:
        group = build_group(spec)
        expected = list(reference_generating_subsets(group))
        assert list(_generating_masks(group)) == expected, spec.name
        assert class_pairs(group, True) == reference_classes(group, expected), spec.name


def test_elementary_abelian_16_needs_five_generators():
    (spec,) = [s for s in catalog_specs(16) if s.name == "C2xC2xC2xC2"]
    group = build_group(spec)
    expected = list(reference_generating_subsets(group))
    got = class_pairs(group, True)
    assert got == reference_classes(group, expected)
    assert min(m.bit_count() for m, _ in got) == 5
    assert [m for m, _ in got] == list(_generating_masks(group))


def test_all_subset_classes_match_the_reference_up_to_order_12():
    for spec in catalog_specs(12):
        group = build_group(spec)
        masks = [m for m in range(1, 1 << group.order) if m.bit_count() >= 2]
        assert class_pairs(group, False) == reference_classes(group, masks), spec.name


def test_groups_above_64_elements_are_refused():
    group = make_cyclic(65)
    with pytest.raises(SizeCapError):
        next(_generating_masks(group))
    with pytest.raises(SizeCapError):
        _translate_images(group)
    with pytest.raises(SizeCapError):
        next(_subset_orbits(group, True))


class _InlineExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    created: list[int] = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_workers_are_capped_by_the_number_of_groups(monkeypatch):
    monkeypatch.setattr(_InlineExecutor, "created", [])
    monkeypatch.setattr(sweeps, "ProcessPoolExecutor", _InlineExecutor)
    specs = catalog_specs(4)
    assert len(specs) == 4
    result = sweeps.sweep_main_theorem(4, workers=64)
    assert result.passed and len(result.rows) == 4
    assert sweeps._map_specs(lambda s: s.order, specs, 2) == [2, 3, 4, 4]
    assert _InlineExecutor.created == [4, 2]


# ---------------------------------------------------------------------------
# Orbits and the main sweep


def reference_main_theorem_group(spec):
    """The main-theorem row with one hypothesis walk per right-translate
    class and one ``classify`` per hypothesis-true subset."""
    group = build_group(spec)
    n = group.order
    cache = {}
    generating = hyp_true = 0
    cases = {Case.CASE_I: 0, Case.CASE_II: 0, Case.CASE_III: 0}
    violations = []
    unverified = []
    for smask, canon in class_pairs(group, True):
        generating += 1
        if canon not in cache:
            cache[canon] = hypothesis_holds(group, GroupSubset(group, canon)).holds
        if not cache[canon]:
            continue
        hyp_true += 1
        subset = GroupSubset(group, smask)
        result = sweeps.classify(group, subset)
        if result.case in cases:
            cases[result.case] += 1
            if not result.verified:
                unverified.append(f"{spec.name} S={subset.to_literal()}")
        else:
            violations.append(f"{spec.name} S={subset.to_literal()} -> {result.case.value}")
    return sweeps.MainTheoremRow(
        group=spec.name,
        order=n,
        subsets=(1 << (n - 1)) - 1,
        generating=generating,
        hypothesis_true=hyp_true,
        case_i=cases[Case.CASE_I],
        case_ii=cases[Case.CASE_II],
        case_iii=cases[Case.CASE_III],
        violations=tuple(violations),
        unverified=tuple(unverified),
    )


def test_main_sweep_rows_match_the_per_class_reference_up_to_order_15():
    specs = catalog_specs(15)
    assert len(specs) == 24
    for spec in specs:
        assert sweeps._main_theorem_group(spec) == reference_main_theorem_group(spec), spec.name


def _counting(monkeypatch, name, calls, counts=lambda *args: True):
    """Replace ``sweeps.<name>`` by a wrapper that records (group, mask) of
    each call that ``counts`` accepts."""
    original = getattr(sweeps, name)

    def counted(*args):
        if counts(*args):
            s = next(a for a in args if isinstance(a, GroupSubset))
            calls.append((s.group.name, s.mask))
        return original(*args)

    monkeypatch.setattr(sweeps, name, counted)


def test_main_sweep_walks_the_hypothesis_once_per_orbit(monkeypatch):
    calls = []
    _counting(monkeypatch, "classify", calls)
    result = sweeps.sweep_main_theorem(15)
    assert result.passed
    assert sum(row.generating for row in result.rows) == 45698
    # One classify (so one walk) per G x G x Aut(G) orbit; one walk per
    # right-translate class was 6,842.
    assert len(calls) == len(set(calls)) == 1206


def brute_orbit_keys(group):
    """The orbit key of every generating mask: the least mask containing 1
    among the phi(g S h), over all g, h and every phi the generators give."""
    n = group.order
    auts = {tuple(range(n))}
    frontier = list(auts)
    gens = automorphism_generators(group)
    while frontier:
        step = []
        for p in frontier:
            for g in gens:
                q = tuple(g[x] for x in p)
                if q not in auts:
                    auts.add(q)
                    step.append(q)
        frontier = step
    keys = {}
    for smask in _generating_masks(group):
        if smask in keys:
            continue
        orbit = set()
        for g in range(n):
            left = permute_mask(smask, group.table[g])
            for h in range(n):
                both = permute_mask(left, group.column(h))
                orbit.update(permute_mask(both, phi) for phi in auts)
        key = min(m for m in orbit if m & 1)
        keys.update((m, key) for m in orbit if m & 1)
    return keys


def test_orbit_keys_match_brute_force_up_to_order_12():
    for spec in catalog_specs(12):
        group = build_group(spec)
        keys = brute_orbit_keys(group)
        expected = [(m, keys[m]) for m in _generating_masks(group)]
        assert list(_subset_orbits(group, True)) == expected, spec.name


# Generating subsets with 1, and their G x G x Aut(G) orbits, at order 16.
ORBIT_COUNTS = {
    "D8": (32400, 294),
    "C16": (32640, 669),
    "C2xD4": (31968, 251),
    "C4xC4": (32400, 161),
}


@pytest.mark.parametrize("name", sorted(ORBIT_COUNTS))
def test_orbit_counts_at_order_16(name):
    (spec,) = [s for s in catalog_specs(16) if s.name == name]
    pairs = list(_subset_orbits(build_group(spec), True))
    assert (len(pairs), len({key for _, key in pairs})) == ORBIT_COUNTS[name]


def _flagging(members, failure):
    """A ``classify`` that reports ``failure`` on every set in ``members``."""
    classify = sweeps.classify

    def patched(group, s):
        result = classify(group, s)
        if s.mask not in members:
            return result
        if failure == "violation":
            return dataclasses.replace(result, case=Case.VIOLATION)
        return dataclasses.replace(result, transcript=(entry("patched", 0, "==", 1),))

    return patched


@pytest.mark.parametrize("failure", ["violation", "unverified"])
def test_a_failing_orbit_lists_every_member_like_the_reference(monkeypatch, failure):
    (spec,) = [s for s in catalog_specs(10) if s.name == "D5"]
    group = build_group(spec)
    orbits = {}
    for smask, key in _subset_orbits(group, True):
        orbits.setdefault(key, []).append(smask)
    # The largest orbit whose key satisfies the hypothesis; it spans classes.
    holding = [k for k in orbits if hypothesis_holds(group, GroupSubset(group, k)).holds]
    key = max(holding, key=lambda k: (len(orbits[k]), -k))
    members = orbits[key]
    assert len({reference_class_mask(group, m) for m in members}) > 1
    monkeypatch.setattr(sweeps, "classify", _flagging(set(members), failure))
    row = sweeps._main_theorem_group(spec)
    assert row == reference_main_theorem_group(spec)
    literals = [GroupSubset(group, m).to_literal() for m in sorted(members)]
    if failure == "violation":
        assert row.violations == tuple(f"D5 S={lit} -> VIOLATION" for lit in literals)
        assert row.unverified == ()
    else:
        assert row.unverified == tuple(f"D5 S={lit}" for lit in literals)
        assert row.violations == ()


# ---------------------------------------------------------------------------
# The Mann and intersection sweeps


def reference_mann_group(spec):
    """The Mann row with ``verify_mann`` on every subset and the
    T-enumeration cached by orbit key."""
    group = build_group(spec)
    agreement_cache = {}
    subsets = hyp_true = 0
    disagreements = []
    missing = []
    for smask, key in _subset_orbits(group, False):
        subsets += 1
        subset = GroupSubset(group, smask)
        verdict = sweeps.verify_mann(group, subset)
        if key in agreement_cache:
            brute = agreement_cache[key]
        else:
            brute = _t_enumeration(group, key)
            agreement_cache[key] = brute
        if verdict.hypothesis != brute:
            disagreements.append(
                f"{spec.name} S={subset.to_literal()}: kappa-form {verdict.hypothesis}, scan {brute}"
            )
        if verdict.hypothesis:
            hyp_true += 1
            if not verdict.consistent:
                missing.append(f"{spec.name} S={subset.to_literal()}")
    return sweeps.MannRow(spec.name, subsets, hyp_true, tuple(disagreements), tuple(missing))


def reference_intersection_group(spec):
    """The intersection row with every check made on every generating set."""
    group = build_group(spec)
    n = group.order
    pairwise = frag_checked = subgroup_checked = 0
    failures = []
    for smask in _generating_masks(group):
        subset = GroupSubset(group, smask)
        name = f"{spec.name} S={subset.to_literal()}"
        sinv = subset.inverse_set()
        two_separable = sweeps._separability_witness(subset, 2) is not None
        if two_separable:
            rep, tally = _walk_report(subset, 2, DEFAULT_ATOM_CAP)
            rep_inv = find_atoms(sinv, 2)
            if rep.atoms_truncated:
                failures.append(f"atom list truncated: {name}")
            atoms_all = atom_translates(rep, group)
            if n >= 2 * rep.alpha + rep.kappa:
                pairwise += 1
                if _overlapping_pair(atoms_all, 2) is not None:
                    failures.append(f"atom pair overlap: {name}")
            if rep.kappa != rep_inv.kappa:
                failures.append(f"kappa differs under inversion: {name}")
            if rep.alpha <= rep_inv.alpha:
                frag_checked += 1
                frag_masks = _left_translates(group, tally.fragment_masks())
                if any(_straddles(atom.mask, frag_masks, 2) for atom in rep.atoms):
                    failures.append(f"atom/fragment overlap: {name}")
        if sweeps._separability_witness(subset, 1) is not None:
            rep1, tally1 = _walk_report(subset, 1, DEFAULT_ATOM_CAP)
            rep1_inv = find_atoms(sinv, 1)
            if rep1.alpha <= rep1_inv.alpha:
                subgroup_checked += 1
                for atom in rep1.atoms:
                    if sweeps.generated_subgroup(group, atom).mask != atom.mask:
                        failures.append(f"level-1 atom not a subgroup: {name}")
            if two_separable and rep.alpha <= rep_inv.alpha:
                frag_masks = _left_translates(group, tally1.fragment_masks())
                for atom in rep1.atoms:
                    if _straddles(atom.mask, frag_masks, 1):
                        failures.append(f"level-1 atom straddles fragment: {name}")
    return sweeps.IntersectionRow(
        spec.name, pairwise, frag_checked, subgroup_checked, tuple(failures)
    )


def test_mann_sweep_rows_match_the_per_subset_reference_up_to_order_12():
    specs = catalog_specs(12)
    assert len(specs) == 20
    for spec in specs:
        assert sweeps._mann_group(spec) == reference_mann_group(spec), spec.name


def test_intersection_sweep_rows_match_the_per_set_reference_up_to_order_12():
    for spec in catalog_specs(12):
        assert sweeps._intersection_group(spec) == reference_intersection_group(spec), spec.name


def test_mann_sweep_decides_once_per_orbit(monkeypatch):
    calls = []
    _counting(monkeypatch, "verify_mann", calls)
    result = sweeps.sweep_mann(12)
    assert result.passed
    assert sum(row.subsets for row in result.rows) == 18590
    assert len(calls) == len(set(calls)) == 566


def test_intersection_sweep_checks_once_per_orbit(monkeypatch):
    calls = []
    _counting(monkeypatch, "_separability_witness", calls, lambda s, k: k == 2)
    result = sweeps.sweep_intersection(12)
    assert result.passed
    assert len(calls) == len(set(calls)) == 477


def _literals(group, name, masks):
    return tuple(f"{name} S={GroupSubset(group, m).to_literal()}" for m in masks)


def test_a_missing_cover_lists_every_member_like_the_reference(monkeypatch):
    verify_mann = sweeps.verify_mann
    monkeypatch.setattr(
        sweeps,
        "verify_mann",
        lambda group, s: dataclasses.replace(verify_mann(group, s), consistent=False),
    )
    listed = 0
    for spec in catalog_specs(8):
        row = sweeps._mann_group(spec)
        assert row == reference_mann_group(spec), spec.name
        group = build_group(spec)
        holding = [
            m
            for m in range(1, 1 << group.order)
            if m.bit_count() >= 2 and verify_mann(group, GroupSubset(group, m)).hypothesis
        ]
        assert row.hypothesis_true == len(holding)
        assert row.missing_witness == _literals(group, spec.name, holding), spec.name
        listed += len(holding)
    assert listed > 0


def test_a_level_1_atom_failure_lists_every_member_like_the_reference(monkeypatch):
    monkeypatch.setattr(
        sweeps,
        "generated_subgroup",
        lambda group, s: GroupSubset(group, (1 << group.order) - 1),
    )
    kind = "level-1 atom not a subgroup"
    listed = 0
    for spec in catalog_specs(8):
        row = sweeps._intersection_group(spec)
        assert row == reference_intersection_group(spec), spec.name
        group = build_group(spec)
        checked = [
            m
            for m in _generating_masks(group)
            if kind in sweeps._intersection_checks(GroupSubset(group, m))[3]
        ]
        assert len(checked) == row.subgroup_checked
        flagged = _literals(group, f"{kind}: {spec.name}", checked)
        assert tuple(f for f in row.failures if f.startswith(kind)) == flagged, spec.name
        listed += len(checked)
    assert listed > 0
