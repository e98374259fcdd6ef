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
from sumatoms.bitset import indices_tuple, permute_mask
from sumatoms.catalog import build_group, catalog_specs
from sumatoms.groups import IDENTITY, closure_mask
from sumatoms.sumsets import (
    _fragment_report,
    _overlapping_pair,
    _separability_witness,
    _tally,
    atom_translates,
    boundary_witness,
    product_mask,
)
from sumatoms.sweeps import _t_enumeration


def subset(group, *indices):
    return GroupSubset.from_indices(group, indices)


def random_generating_set(rng, group, min_size=2, max_size=None):
    n = group.order
    while True:
        size = rng.randint(min_size, max_size or n - 1)
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
    full = (1 << inst.group.order) - 1
    assert product_set(inst.pair, inst.subset).mask == full & ~inst.pair.mask


def test_inverse_set_is_built_once_and_round_trips():
    inst = build_example(7, 3)
    for s in (inst.subgroup, inst.subset):
        assert s.inverse_set() is s
    rng = random.Random(61)
    specs = catalog_specs(12)
    asymmetric = 0
    for _ in range(80):
        group = build_group(specs[rng.randrange(len(specs))])
        n = group.order
        s = GroupSubset.from_indices(group, rng.sample(range(n), rng.randint(1, n)))
        xs = s.xs_masks
        assert s.xs_masks is xs
        inv = s.inverse_set()
        sinv = GroupSubset.from_indices(group, (group.inverse[x] for x in s))
        assert inv == sinv and s.inverse_set() is inv
        assert inv.inverse_set() is s
        assert (inv is s) == (sinv.mask == s.mask)
        asymmetric += inv is not s
        for _ in range(5):
            x = rng.getrandbits(n)
            assert s.product(x) == product_mask(group, x, s.mask)
            assert inv.product(x) == product_mask(group, x, sinv.mask)
        # the translate masks and the inverse are not fields
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


def test_a_set_builds_its_translate_masks_once(xs_builds):
    # The walk, the separability scan and the oracle's block scan all read
    # the masks the set owns.
    from sumatoms.classify import hypothesis_holds

    s = subset(make_cyclic(12), 0, 1, 5)
    for call in (find_atoms, find_fragments, oracle_atoms, is_k_separable):
        call(s, 2)
    assert xs_builds == [s.mask]
    # kappa_2 of {0, 1, 3} in C7 is 3 > |S| - 1: the walk finds no witness,
    # and the separability fallback reuses its masks.
    g7 = make_cyclic(7)
    t = subset(g7, 0, 1, 3)
    xs_builds.clear()
    report = hypothesis_holds(g7, t)
    assert not report.holds and report.two_separable
    assert xs_builds == [t.mask]


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
                        rem = n - (x.mask | prod.mask).bit_count()
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
            if _separability_witness(s, k) is None:
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
            if _separability_witness(s, k) is None:
                continue
            kappa = oracle_atoms(s, k).kappa
            assert boundary_witness(s, k, kappa - 1) is None
            witness = boundary_witness(s, k, kappa)
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
    x = boundary_witness(GroupSubset(c2048, 0b11), n // 2 - 1, 1)
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
            if _separability_witness(s, k) is None:
                continue
            assert _separability_witness(sinv, k) is not None
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
        if _separability_witness(s, 2) is None:
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
            if _separability_witness(s, k) is None:
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
        if _separability_witness(s, 2) is None:
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
    h = inst.subgroup.mask
    conj = permute_mask(permute_mask(h, group.table[group.inverse[a]]), group.column(a))
    assert h & conj == 1


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
        if _separability_witness(s, 2) is None:
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
            if _separability_witness(GroupSubset(group, smask), 2) is None:
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
            assert (atom.mask & atom.right_translate(g).mask).bit_count() <= 1
            assert (atom.mask & permute_mask(atom.mask, group.table[g])).bit_count() <= 1
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
        assert remainder(s, b).mask & ~remainder(s, a).mask == 0


def test_left_translates_of_atoms_are_atoms():
    rng = random.Random(59)
    specs = [s for s in catalog_specs(10) if s.order >= 5]
    for _ in range(15):
        spec = specs[rng.randrange(len(specs))]
        group = build_group(spec)
        s = random_generating_set(rng, group)
        if _separability_witness(s, 2) is None:
            continue
        rep = find_atoms(s, 2)
        for atom in rep.atoms:
            for g in range(group.order):
                moved = GroupSubset(group, permute_mask(atom.mask, group.table[g]))
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
        if _separability_witness(s, 2) is None:
            continue
        rep = find_atoms(s, 2)
        if group.order < 2 * rep.alpha + rep.kappa:
            continue
        for atom in rep.atoms:
            period = maximal_left_period(atom)
            for g in range(1, group.order):
                overlap = atom.mask & atom.right_translate(g).mask
                assert overlap.bit_count() <= len(period)
                if g in period:
                    assert overlap & ~period.mask == 0
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
            if _separability_witness(s, k) is None:
                continue
            fast = find_atoms(s, k)
            slow = oracle_atoms(s, k)
            assert fast.fragment_count == slow.fragment_count
            assert fast.fragment_count == len(find_fragments(s, k))


# ---------------------------------------------------------------------------
# The block-wise oracle against the per-subset walk it replaced


def every_admissible_set(group, smask, k):
    """(X, |X|, boundary) for every admissible X containing 1, one stack frame
    per subset, in lexicographic order of the sorted index tuples."""
    n = group.order
    limit = n - k
    xs = GroupSubset(group, smask).xs_masks
    seed = 1 << IDENTITY
    seed_u = xs[IDENTITY]
    if k <= 1 and seed_u.bit_count() <= limit:
        yield seed, 1, seed_u.bit_count() - 1
    # Frame (X, XS, |X|, c): add element c to X, then try c + 1 onwards.
    stack = [(seed, seed_u, 1, 1)] if n > 1 else []
    while stack:
        x, u, size, c = stack.pop()
        if c + 1 < n:
            stack.append((x, u, size, c + 1))
        x |= 1 << c
        u |= xs[c]
        size += 1
        usize = u.bit_count()
        if size >= k and usize <= limit:
            yield x, size, usize - size
        if c + 1 < n:
            stack.append((x, u, size, c + 1))


def assert_oracle_matches_walk(s, k, atom_cap):
    """oracle_atoms equals the walk's tally, or both find s not k-separable."""
    group = s.group
    try:
        tally = _tally(every_admissible_set(group, s.mask, k), k, atom_cap)
    except NotSeparableError:
        with pytest.raises(NotSeparableError):
            oracle_atoms(s, k, order_cap=group.order, atom_cap=atom_cap)
        return None
    expected = _fragment_report(group, k, tally, atom_cap, oracle_used=True)
    assert oracle_atoms(s, k, order_cap=group.order, atom_cap=atom_cap) == expected
    return expected


def generating_sets_with_identity(group):
    full = (1 << group.order) - 1
    for smask in range(1, 1 << group.order, 2):
        if closure_mask(group, indices_tuple(smask)) == full:
            yield GroupSubset(group, smask)


def test_oracle_matches_walk_on_every_small_generating_set():
    groups = [make_cyclic(n) for n in (1, 2, 3)]
    groups += [build_group(spec) for spec in catalog_specs(8) if spec.order > 3]
    separable = truncated = 0
    for group in groups:
        for s in generating_sets_with_identity(group):
            for k in (1, 2, 3):
                for atom_cap in (1, 3, 256):
                    report = assert_oracle_matches_walk(s, k, atom_cap)
                    separable += report is not None
                    truncated += report is not None and report.atoms_truncated
    assert separable > 3000 and truncated > 400


def test_oracle_matches_walk_across_blocks():
    # One block holds 2^13 subsets, so only n >= 15 spans several.
    rng = random.Random(1515)
    specs = [spec for spec in catalog_specs(17) if spec.order >= 15]
    checked = truncated = 0
    for i in range(8):
        group = build_group(specs[i % len(specs)])
        s = random_generating_set(rng, group, min_size=3)
        for k, atom_cap in ((1 + i % 3, 256), (1 + i % 3, 1)):
            report = assert_oracle_matches_walk(s, k, atom_cap)
            checked += report is not None
            truncated += report is not None and report.atoms_truncated
    assert checked >= 12 and truncated >= 1


def test_t_enumeration_matches_walk_on_every_subset():
    nothing_admissible = 0
    for spec in catalog_specs(8):
        if spec.name not in ("C6", "D3", "C2xC4"):
            continue
        group = build_group(spec)
        for smask in range(1, 1 << group.order):
            walk = [b for _, _, b in every_admissible_set(group, smask, 1)]
            nothing_admissible += not walk
            slack = smask.bit_count() - 2
            assert _t_enumeration(group, smask) == any(b <= slack for b in walk)
    assert nothing_admissible > 0


# ---------------------------------------------------------------------------
# The branch-and-bound search against the unbounded walk it replaced


def unbounded_admissible_sets(group, smask, k):
    """(X, |X|, boundary) for every admissible X containing 1, connected for
    k <= 2, in the order of the pruned search with no bound on the boundary."""
    n = group.order
    limit = n - k
    s = GroupSubset(group, smask)
    xs = s.xs_masks
    nbr = s.neighbor_masks if k <= 2 else [(1 << n) - 1] * n
    seed = 1 << IDENTITY
    seed_u = xs[IDENTITY]
    if seed_u.bit_count() > limit:
        return
    if k <= 1:
        yield seed, 1, seed_u.bit_count() - 1
    # Node (X, XS, frontier, untried candidates, banned candidates).
    x, u, frontier, ban = seed, seed_u, nbr[IDENTITY], 0
    cands = frontier & ~seed
    stack = []
    while True:
        while cands:
            low = cands & -cands
            cands ^= low
            c = low.bit_length() - 1
            nu = u | xs[c]
            usize = nu.bit_count()
            if usize <= limit:
                nx = x | low
                size = nx.bit_count()
                if size >= k:
                    yield nx, size, usize - size
                grown = frontier | nbr[c]
                child_cands = grown & ~(ban | nx)
                if child_cands:
                    if cands:
                        stack.append((x, u, frontier, cands, ban | low))
                    x, u, frontier, cands = nx, nu, grown, child_cands
                    continue
            ban |= low
        if not stack:
            return
        x, u, frontier, cands, ban = stack.pop()


def assert_search_matches_unbounded_walk(s, k):
    """find_atoms, find_fragments and boundary_witness equal what the
    unbounded walk gives, or all find s not k-separable."""
    group = s.group
    walk = list(unbounded_admissible_sets(group, s.mask, k))
    if not walk:
        with pytest.raises(NotSeparableError):
            find_atoms(s, k)
        with pytest.raises(NotSeparableError):
            find_fragments(s, k)
        assert boundary_witness(s, k, group.order) is None
        return None
    reports = []
    for atom_cap in (1, 3, 256):
        tally = _tally(walk, k, atom_cap)
        reports.append(_fragment_report(group, k, tally, atom_cap, oracle_used=False))
        assert find_atoms(s, k, atom_cap=atom_cap) == reports[-1]
    assert [f.mask for f in find_fragments(s, k)] == tally.fragment_masks()
    for target in (tally.kappa - 1, tally.kappa, tally.kappa + 1):
        first = next((x for x, _, b in walk if b <= target), None)
        assert boundary_witness(s, k, target) == first
    return reports


def test_search_matches_unbounded_walk_on_every_small_generating_set():
    separable = truncated = 0
    for spec in catalog_specs(10):
        group = build_group(spec)
        for s in generating_sets_with_identity(group):
            for k in (1, 2, 3):
                reports = assert_search_matches_unbounded_walk(s, k) or []
                separable += bool(reports)
                truncated += any(r.atoms_truncated for r in reports)
    assert separable > 3000 and truncated > 1000


def test_search_matches_unbounded_walk_at_orders_17_to_20():
    # Sets of 3 to 6 elements, as in the benchmark's atoms schedule: the
    # walks there are long enough for the bound to cut.
    rng = random.Random(1617)
    specs = [spec for spec in catalog_specs(20) if spec.order >= 17]
    checked = 0
    for i in range(8):
        group = build_group(specs[i * len(specs) // 8])
        s = random_generating_set(rng, group, min_size=3, max_size=6)
        checked += assert_search_matches_unbounded_walk(s, 1 + i % 3) is not None
    assert checked >= 6


def test_atom_cap_zero_flags_truncation():
    # No atom is listed, so the one atom that exists must be flagged.
    s = subset(make_cyclic(6), 0, 2, 3)
    for engine in (find_atoms, oracle_atoms):
        report = engine(s, 2, atom_cap=0)
        assert (report.kappa, report.alpha, report.fragment_count) == (2, 2, 1)
        assert report.atoms == () and report.atoms_truncated
