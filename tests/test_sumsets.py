import random
import sys

import pytest

from sumatoms import (
    GroupSubset,
    NotGeneratingError,
    NotSeparableError,
    OracleCapError,
    PreconditionError,
    boundary,
    build_example,
    find_atoms,
    find_fragments,
    generated_subgroup,
    is_k_separable,
    isoperimetric_number,
    make_cyclic,
    make_dihedral,
    maximal_left_period,
    normalize,
    oracle_atoms,
    product_set,
    remainder,
    restrict_to_subgroup,
)
from sumatoms.bitset import indices_tuple
from sumatoms.catalog import build_group, catalog_specs
from sumatoms.groups import closure_mask
from sumatoms.sumsets import (
    _overlapping_pair,
    _separability_witness,
    atom_translates,
    boundary_witness,
    product_mask,
)


def subset(group, *indices):
    return GroupSubset.from_indices(group, indices)


def random_generating_set(rng, group, min_size=2):
    n = group.order
    while True:
        size = rng.randint(min_size, n - 1)
        members = [0] + rng.sample(range(1, n), size - 1)
        s = GroupSubset.from_indices(group, members)
        if closure_mask(group, s.indices()) == (1 << n) - 1:
            return s


def test_product_set_examples():
    g6 = make_cyclic(6)
    s = subset(g6, 0, 1)
    assert product_set(s, subset(g6, 0)).mask == s.mask
    assert product_set(s, s).indices() == (0, 1, 2)
    inst = build_example(7, 3)
    assert product_set(inst.pair, inst.subset).mask == inst.pair.complement().mask


def test_translate_tables_inverse():
    inst = build_example(7, 3)
    for s in (inst.subgroup, inst.subset):
        assert s.inverse_set() == s
        assert s.translates.inverse() is s.translates
    rng = random.Random(61)
    specs = catalog_specs(12)
    asymmetric = 0
    for _ in range(80):
        group = build_group(specs[rng.randrange(len(specs))])
        n = group.order
        s = GroupSubset.from_indices(group, rng.sample(range(n), rng.randint(1, n)))
        tables = s.translates
        assert s.translates is tables
        inv = tables.inverse()
        sinv = s.inverse_set().mask
        assert inv.smask == sinv and tables.inverse() is inv
        assert (inv is tables) == (sinv == s.mask)
        asymmetric += inv is not tables
        for _ in range(5):
            x = rng.getrandbits(n)
            assert inv.product(x) == product_mask(group, x, sinv)
        # the tables are not a field
        copy = GroupSubset(group, s.mask)
        assert copy == s and hash(copy) == hash(s) and repr(copy) == repr(s)
    assert asymmetric > 20


def test_boundary_and_remainder():
    g7 = make_cyclic(7)
    s = subset(g7, 0, 1, 3)
    x = subset(g7, 0, 1)
    assert boundary(s, x).indices() == (2, 3, 4)
    assert remainder(s, x).indices() == (5, 6)
    assert boundary(s, GroupSubset.full(g7)).mask == 0
    assert boundary(s, subset(g7, 0)).indices() == (1, 3)
    assert remainder(s, GroupSubset.full(g7)).mask == 0
    assert remainder(s, GroupSubset.empty(g7)).mask == GroupSubset.full(g7).mask
    with pytest.raises(PreconditionError):
        boundary(subset(g7, 1, 2), x)  # boundary needs 1 in S


def test_separability():
    g6 = make_cyclic(6)
    assert not is_k_separable(GroupSubset.full(g6), 1)
    assert is_k_separable(subset(g6, 0, 1), 2)
    g7 = make_cyclic(7)
    assert not is_k_separable(subset(g7, 0, 1, 3), 3)


def test_nonpositive_k_is_a_precondition():
    s = subset(make_cyclic(7), 0, 1, 2)
    for call in (is_k_separable, find_atoms, find_fragments, oracle_atoms):
        with pytest.raises(PreconditionError, match="k must be positive"):
            call(s, 0)


def test_separability_matches_brute_force():
    rng = random.Random(5)
    from itertools import combinations

    for spec in catalog_specs(8):
        group = build_group(spec)
        n = group.order
        for _ in range(10):
            size = rng.randint(1, n)
            s = GroupSubset.from_indices(group, rng.sample(range(n), size))
            for k in (1, 2, 3):
                brute = False
                for m in range(k, n + 1):
                    for combo in combinations(range(n), m):
                        x = GroupSubset.from_indices(group, combo)
                        prod = product_set(x, s)
                        rem = n - len(x.union(prod))
                        if rem >= k:
                            brute = True
                            break
                    if brute:
                        break
                assert is_k_separable(s, k) == brute, (spec.name, s, k)


def test_isoperimetric_examples():
    g6 = make_cyclic(6)
    g7 = make_cyclic(7)
    assert isoperimetric_number(subset(g6, 0, 1), 1) == 1
    assert isoperimetric_number(subset(g7, 0, 1, 3), 2) == 3
    assert isoperimetric_number(subset(g6, 0, 2, 3), 2) == 2
    with pytest.raises(NotSeparableError):
        isoperimetric_number(GroupSubset.full(g6), 1)
    with pytest.raises(NotGeneratingError):
        isoperimetric_number(subset(g6, 0, 2), 1)


def test_find_atoms_examples():
    g7 = make_cyclic(7)
    rep = find_atoms(subset(g7, 0, 1, 2), 2)
    assert rep.kappa == 2 and rep.alpha == 2
    assert [a.indices() for a in rep.atoms] == [(0, 1), (0, 6)]
    g6 = make_cyclic(6)
    rep2 = find_atoms(subset(g6, 0, 2, 3), 2)
    assert [a.indices() for a in rep2.atoms] == [(0, 3)]
    assert rep2.atoms[0].is_subgroup()


def test_family_atom_is_coset_pair():
    inst = build_example(7, 3)
    s, _ = normalize(inst.subset)
    rep = find_atoms(s, 2)
    assert rep.kappa == len(inst.subset) - 1
    assert rep.alpha == 2 * len(inst.subgroup)
    assert any(a.mask == inst.pair.mask for a in rep.atoms)
    # confirmed exhaustively at order 21
    reference = oracle_atoms(s, 2, order_cap=21)
    assert rep.same_result(reference)


def test_oracle_cap_and_errors():
    g = make_cyclic(24)
    s = subset(g, 0, 1)
    with pytest.raises(OracleCapError):
        oracle_atoms(s, 2)
    g2 = make_cyclic(2)
    with pytest.raises(NotSeparableError):
        oracle_atoms(GroupSubset.full(g2), 1)
    with pytest.raises(NotSeparableError):
        find_atoms(GroupSubset.full(g2), 1)


def test_oracle_agreement_random():
    rng = random.Random(123)
    specs = [s for s in catalog_specs(10) if s.order >= 4]
    for _ in range(60):
        spec = specs[rng.randrange(len(specs))]
        group = build_group(spec)
        s = random_generating_set(rng, group)
        for k in (1, 2, 3):
            if _separability_witness(group, s.mask, k) is None:
                continue
            assert find_atoms(s, k).same_result(oracle_atoms(s, k))


def test_boundary_witness_matches_oracle_kappa():
    # The decision is exact: no witness below kappa, an admissible one at it.
    rng = random.Random(61)
    specs = [s for s in catalog_specs(12) if s.order >= 6]
    checked = 0
    for _ in range(40):
        spec = specs[rng.randrange(len(specs))]
        group = build_group(spec)
        s = random_generating_set(rng, group)
        for k in (1, 2, 3):
            if _separability_witness(group, s.mask, k) is None:
                continue
            kappa = oracle_atoms(s, k).kappa
            assert boundary_witness(group, s.mask, k, kappa - 1) is None
            witness = boundary_witness(group, s.mask, k, kappa)
            assert witness is not None
            x = GroupSubset(group, witness)
            assert 0 in x and len(x) >= k
            assert len(remainder(s, x)) >= k
            assert len(boundary(s, x)) <= kappa
            checked += 1
    assert checked > 60


def test_deep_searches_leave_recursion_limit_alone():
    # Search depth grows with |X|; an explicit stack keeps it off the
    # interpreter's call stack.
    limit = sys.getrecursionlimit()
    n = 2048
    c2048 = make_cyclic(n)
    x = boundary_witness(c2048, 0b11, n // 2 - 1, 1)
    assert x is not None and x.bit_count() == n // 2 - 1
    assert sys.getrecursionlimit() == limit
    rep = find_atoms(subset(make_cyclic(300), 0, 1), 1)
    assert (rep.kappa, rep.alpha, rep.fragment_count) == (1, 1, 44551)
    assert sys.getrecursionlimit() == limit


def test_kappa_inversion_invariance():
    # kappa_k(S) = kappa_k(S^-1) whenever both are defined
    rng = random.Random(17)
    specs = [s for s in catalog_specs(16) if 6 <= s.order <= 16]
    for _ in range(40):
        spec = specs[rng.randrange(len(specs))]
        group = build_group(spec)
        s = random_generating_set(rng, group)
        sinv = s.inverse_set()
        for k in (1, 2):
            if _separability_witness(group, s.mask, k) is None:
                continue
            assert _separability_witness(group, sinv.mask, k) is not None
            assert isoperimetric_number(s, k) == isoperimetric_number(sinv, k)


def test_right_translate_preserves_atoms():
    # kappa_k(S) = kappa_k(Ss) and the atom lists coincide, for s in S^-1
    rng = random.Random(29)
    specs = [s for s in catalog_specs(12) if s.order >= 6]
    checked = 0
    for _ in range(30):
        spec = specs[rng.randrange(len(specs))]
        group = build_group(spec)
        s = random_generating_set(rng, group)
        if _separability_witness(group, s.mask, 2) is None:
            continue
        rep = find_atoms(s, 2)
        for elem in s.inverse_set():
            translated = s.right_translate(elem)
            if 0 not in translated:
                continue
            rep2 = find_atoms(translated, 2)
            assert rep2.kappa == rep.kappa and rep2.alpha == rep.alpha
            assert [a.mask for a in rep2.atoms] == [a.mask for a in rep.atoms]
            checked += 1
    assert checked > 10


def test_remainder_fragment_duality():
    # If F is a k-fragment of S then its remainder is a k-fragment of S^-1.
    rng = random.Random(31)
    specs = [s for s in catalog_specs(10) if s.order >= 5]
    checked = 0
    for _ in range(30):
        spec = specs[rng.randrange(len(specs))]
        group = build_group(spec)
        s = random_generating_set(rng, group)
        for k in (1, 2):
            if _separability_witness(group, s.mask, k) is None:
                continue
            sinv = s.inverse_set()
            kappa_inv = isoperimetric_number(sinv, k)
            for frag in find_fragments(s, k):
                rem = remainder(s, frag)
                b = len(boundary(sinv, rem))
                assert len(rem) >= k
                assert len(remainder(sinv, rem)) >= k
                assert b == kappa_inv
                checked += 1
    assert checked > 20


def test_kappa_monotone_in_k():
    rng = random.Random(37)
    specs = [s for s in catalog_specs(12) if s.order >= 6]
    for _ in range(25):
        spec = specs[rng.randrange(len(specs))]
        group = build_group(spec)
        s = random_generating_set(rng, group)
        if _separability_witness(group, s.mask, 2) is None:
            continue
        k1 = isoperimetric_number(s, 1)
        k2 = isoperimetric_number(s, 2)
        assert 1 <= k1 <= k2


def atoms_overlap(s, k):
    """The first two k-atoms meeting in k or more points, as the intersection
    sweep finds them; the property needs room for two atoms, |G| >= 2*alpha + kappa."""
    report = find_atoms(s, k)
    assert s.group.order >= 2 * report.alpha + report.kappa
    return _overlapping_pair(atom_translates(report, s.group), k)


def test_intersection_property_examples():
    g7 = make_cyclic(7)
    assert atoms_overlap(subset(g7, 0, 1, 2), 2) is None
    inst = build_example(7, 3)
    s, _ = normalize(inst.subset)
    assert atoms_overlap(s, 2) is None
    # conjugate of H by a meets H only at 1
    group = inst.group
    a = inst.a
    conj = inst.subgroup.left_translate(group.inverse[a]).right_translate(a)
    assert inst.subgroup.intersection(conj).indices() == (0,)


def test_intersection_property_level_1_disjoint():
    g7 = make_cyclic(7)
    assert atoms_overlap(subset(g7, 0, 1, 3), 1) is None  # distinct level-1 atoms are disjoint


def test_maximal_left_period():
    g6 = make_cyclic(6)
    assert maximal_left_period(subset(g6, 0)).indices() == (0,)
    assert maximal_left_period(subset(g6, 0, 1, 3, 4)).indices() == (0, 3)
    inst = build_example(7, 3)
    assert maximal_left_period(inst.pair).mask == inst.subgroup.mask
    with pytest.raises(PreconditionError):
        maximal_left_period(GroupSubset.empty(g6))


def test_normalize():
    g6 = make_cyclic(6)
    s, rep = normalize(subset(g6, 0, 1))
    assert s.indices() == (0, 1) and rep.translator == 0 and rep.generates
    s2, rep2 = normalize(subset(g6, 2, 3))
    assert s2.indices() == (0, 1) and rep2.generates
    s3, rep3 = normalize(subset(g6, 2, 4))
    assert s3.indices() == (0, 2) and not rep3.generates
    with pytest.raises(PreconditionError):
        normalize(GroupSubset.empty(g6))


def test_atoms_listed_lexicographically():
    rng = random.Random(43)
    specs = [s for s in catalog_specs(10) if s.order >= 5]
    for _ in range(20):
        group = build_group(specs[rng.randrange(len(specs))])
        s = random_generating_set(rng, group)
        if _separability_witness(group, s.mask, 2) is None:
            continue
        rep = find_atoms(s, 2)
        keys = [a.indices() for a in rep.atoms]
        assert keys == sorted(keys)
        for atom in rep.atoms:
            assert 0 in atom
            assert len(atom) == rep.alpha
            assert len(boundary(s, atom)) == rep.kappa
            assert len(remainder(s, atom)) >= 2


# ---------------------------------------------------------------------------
# Invariants of nonperiodic atoms (checked whenever the search produces one)


def _nonperiodic_atom_instances():
    # Deterministic scan: instances with a nonperiodic 2-atom of size >= 3
    # under the room assumption |G| >= 2*alpha + kappa.
    out = []
    for spec in catalog_specs(12):
        if spec.order != 12:
            continue
        group = build_group(spec)
        n = group.order
        full = (1 << n) - 1
        for smask in range(1, 1 << n, 2):
            if smask.bit_count() < 3:
                continue
            if closure_mask(group, indices_tuple(smask)) != full:
                continue
            if _separability_witness(group, smask, 2) is None:
                continue
            s = GroupSubset(group, smask)
            rep = find_atoms(s, 2)
            if rep.alpha < 3 or n < 2 * rep.alpha + rep.kappa:
                continue
            for atom in rep.atoms:
                if len(maximal_left_period(atom)) == 1:
                    out.append((group, s, rep, atom))
                    break
            if len(out) >= 6:
                return out
    return out


def test_nonperiodic_atom_invariants():
    instances = _nonperiodic_atom_instances()
    assert instances, "scan should produce nonperiodic atoms of size >= 3"
    for group, s, rep, atom in instances:
        n = group.order
        # translate-overlap bound: both-sided intersections of size <= 1
        for g in range(1, n):
            assert len(atom.intersection(atom.right_translate(g))) <= 1
            assert len(atom.intersection(atom.left_translate(g))) <= 1
        # size bounds: proof-derived form, and the boundary-based cap
        assert len(atom) <= max(2, len(s) - 1)
        assert len(atom) <= rep.kappa - len(s) + 3
        # inner growth: the atom is 2-separable inside its own closure with
        # second number 2|A| - 3 and first number |A| - 1
        closure = generated_subgroup(group, atom)
        sub, elems = restrict_to_subgroup(group, closure)
        pos = {e: i for i, e in enumerate(elems)}
        inner = GroupSubset.from_indices(sub, [pos[e] for e in atom])
        assert is_k_separable(inner, 2)
        assert isoperimetric_number(inner, 2) == 2 * len(atom) - 3
        assert isoperimetric_number(inner, 1) == len(atom) - 1


def test_remainder_antimonotone():
    # A inside B forces the remainder of B inside the remainder of A
    rng = random.Random(53)
    g = make_dihedral(4)
    s = subset(g, 0, 1, 4)
    for _ in range(25):
        a_members = rng.sample(range(8), rng.randint(1, 6))
        b = GroupSubset.from_indices(
            g, a_members + rng.sample(range(8), rng.randint(0, 4))
        )
        a = GroupSubset.from_indices(g, a_members)
        assert remainder(s, b).issubset(remainder(s, a))


def test_left_translates_of_atoms_are_atoms():
    rng = random.Random(59)
    specs = [s for s in catalog_specs(10) if s.order >= 5]
    for _ in range(15):
        spec = specs[rng.randrange(len(specs))]
        group = build_group(spec)
        s = random_generating_set(rng, group)
        if _separability_witness(group, s.mask, 2) is None:
            continue
        rep = find_atoms(s, 2)
        for atom in rep.atoms:
            for g in range(group.order):
                moved = atom.left_translate(g)
                assert len(boundary(s, moved)) == rep.kappa
                assert len(remainder(s, moved)) >= 2


def test_periodic_atom_translate_bound():
    # For a 2-atom with maximal left period H: |A & Ag| <= |H| for g != 1,
    # and the overlap sits inside H when g is a nontrivial period element.
    rng = random.Random(61)
    specs = [s for s in catalog_specs(12) if s.order >= 6]
    checked = 0
    for _ in range(60):
        spec = specs[rng.randrange(len(specs))]
        group = build_group(spec)
        s = random_generating_set(rng, group, min_size=3)
        if _separability_witness(group, s.mask, 2) is None:
            continue
        rep = find_atoms(s, 2)
        if group.order < 2 * rep.alpha + rep.kappa:
            continue
        for atom in rep.atoms:
            period = maximal_left_period(atom)
            for g in range(1, group.order):
                overlap = atom.intersection(atom.right_translate(g))
                assert len(overlap) <= len(period)
                if g in period:
                    assert overlap.issubset(period)
            checked += 1
    assert checked > 10


def test_fragment_count_matches_oracle():
    rng = random.Random(47)
    specs = [s for s in catalog_specs(9) if s.order >= 5]
    for _ in range(25):
        spec = specs[rng.randrange(len(specs))]
        group = build_group(spec)
        s = random_generating_set(rng, group)
        for k in (1, 2):
            if _separability_witness(group, s.mask, k) is None:
                continue
            fast = find_atoms(s, k)
            slow = oracle_atoms(s, k)
            assert fast.fragment_count == slow.fragment_count
            assert fast.fragment_count == len(find_fragments(s, k))
