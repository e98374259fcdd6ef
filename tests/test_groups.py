import gc
import hashlib
import json
import math
import random
import weakref

import numpy as np
import pytest

from sumatoms import (
    FiniteGroup,
    GroupMismatchError,
    GroupSubset,
    ParseError,
    PreconditionError,
    SizeCapError,
    ValidationError,
    direct_product,
    enumerate_subgroups,
    generated_subgroup,
    load_group_table,
    make_cyclic,
    make_dihedral,
    make_semidirect,
    restrict_to_subgroup,
    right_coset_decomposition,
)
from sumatoms.bitset import bit_indices, mask_from_indices, permute_mask
from sumatoms.catalog import build_group, catalog_specs
from sumatoms.family import build_example
from sumatoms.groups import (
    _full_associativity_failure,
    _light_associativity_failure,
    automorphism_generators,
    closure_mask,
    double_coset_mask,
    double_coset_pairs,
    product_mask,
    translate_masks,
)

# SHA-256 over (name, table, inverse, labels) of the catalog groups up to
# order 20, then SD(23,11) and SD(47,23), recorded from the per-entry
# constructors that preceded the numpy ones.
TABLES_DIGEST = "863f5002aca32cc7bc257c29535aa99b98855080b03fde52b470a3780c705939"
ORDER5_LOOP = "5\n0 1 2 3 4\n1 0 3 4 2\n2 4 0 1 3\n3 2 4 0 1\n4 3 1 2 0\n"


def test_load_trivial_group():
    g = load_group_table("1\n0\n")
    assert g.order == 1
    assert g.inverse == [0]


def test_load_z2():
    g = load_group_table("2\n0 1\n1 0\n")
    assert g.order == 2
    assert g.inverse[1] == 1


def test_load_non_latin_row_rejected():
    with pytest.raises(ValidationError, match="row 1 not a permutation"):
        load_group_table("3\n0 1 2\n1 1 1\n2 0 1\n")


def test_load_identity_must_be_first():
    # Z2 with relabeled elements: identity sits at index 1.
    with pytest.raises(ValidationError, match="identity not at index 0"):
        load_group_table("2\n1 0\n0 1\n")


def test_load_broken_associativity():
    # A Latin square with identity row/column that is not a group (order 5
    # quasigroup): rows form a valid Latin square but fail associativity.
    with pytest.raises(ValidationError, match="associativity"):
        load_group_table(ORDER5_LOOP)


def _swapped_intercalate(table, rng):
    """The table with one 2x2 Latin subsquare away from row and column 0
    swapped, or None if no draw finds one (groups of odd order have none)."""
    n = len(table)
    for _ in range(200):
        r1, r2 = rng.sample(range(1, n), 2)
        c1 = rng.randrange(1, n)
        c2 = table[r2].index(table[r1][c1])
        if c2 and table[r1][c2] == table[r2][c1]:
            out = [row[:] for row in table]
            out[r1][c1], out[r1][c2] = table[r1][c2], table[r1][c1]
            out[r2][c1], out[r2][c2] = table[r2][c2], table[r2][c1]
            return out
    return None


def test_light_test_matches_full_check_on_groups():
    specs = catalog_specs(64)
    assert len(specs) == 194
    for spec in specs:
        arr = np.array(build_group(spec).table)
        assert _light_associativity_failure(arr) is None
        assert _full_associativity_failure(arr) is None


# The catalog up to order 20, which the golden digests and the benchmark's
# atoms schedule read; the divisor-chain rule first drops a product at order
# 24 (C4xC6).
CATALOG_20 = (
    "C2", "C3", "C2xC2", "C4", "C5", "C6", "D3", "C7", "C2xC2xC2", "C2xC4", "C8", "D4",
    "C3xC3", "C9", "C10", "D5", "C11", "C12", "C2xC6", "D6", "C13", "C14", "D7", "C15",
    "C16", "C2xC2xC2xC2", "C2xC2xC4", "C2xC8", "C2xD4", "C4xC4", "D8", "C17", "C18",
    "C3xC6", "C3xD3", "D9", "C19", "C20", "C2xC10", "D10",
)


def test_catalog_products_keep_the_invariant_factor_form():
    specs = catalog_specs(64)
    for spec in specs:
        if spec.kind == "product":
            pairs = zip(spec.params[::2], spec.params[1::2])
            cyclic = [param for param, dihedral in pairs if not dihedral]
            assert all(b % a == 0 for a, b in zip(cyclic, cyclic[1:])), spec.name
    names = {spec.name for spec in specs}
    assert "C2xC12" in names and "C4xC6" not in names
    assert tuple(spec.name for spec in catalog_specs(20)) == CATALOG_20


def test_both_associativity_checks_reject_loops():
    # Loops with an identity at 0 and Latin rows and columns, but not groups.
    rng = random.Random(8)
    loops = [[[int(t) for t in line.split()] for line in ORDER5_LOOP.splitlines()[1:]]]
    for spec in catalog_specs(24):
        if spec.order >= 6:
            loop = _swapped_intercalate(build_group(spec).table, rng)
            if loop is not None:
                loops.append(loop)
    assert len(loops) > 30
    assert {len(t) for t in loops} >= {5, 6, 8, 12, 16, 20, 24}
    for t in loops:
        arr = np.array(t)
        full = _full_associativity_failure(arr)
        assert full is not None
        i, j, k = full
        assert t[t[i][j]][k] != t[i][t[j][k]]
        light = _light_associativity_failure(arr)
        assert light is not None
        x, g, y = light
        assert t[t[x][g]][y] != t[x][t[g][y]]
        with pytest.raises(ValidationError, match=rf"associativity fails at triple \({x},{g},{y}\)"):
            FiniteGroup(t)


def test_constructed_tables_are_pinned():
    groups = [build_group(spec) for spec in catalog_specs(20)]
    assert len(groups) == 40
    groups += [make_semidirect(23, 11), make_semidirect(47, 23)]
    digest = hashlib.sha256()
    for g in groups:
        digest.update(json.dumps([g.name, g.table, g.inverse, g.labels]).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == TABLES_DIGEST


def test_load_out_of_range_entries():
    with pytest.raises(ValidationError, match=r"row 1 entry 7 out of range \[0,2\)"):
        FiniteGroup([[0, 1], [1, 7]])
    with pytest.raises(ValidationError, match=r"row 0 entry -1 out of range"):
        FiniteGroup([[0, -1], [1, 0]])
    with pytest.raises(ValidationError, match=rf"row 1 entry {10**30} out of range"):
        FiniteGroup([[0, 1], [1, 10**30]])
    with pytest.raises(ValidationError, match="row 1 has 1 entries, expected 2"):
        FiniteGroup([[0, 1], [1]])


def test_load_parse_errors():
    with pytest.raises(ParseError):
        load_group_table("")
    with pytest.raises(ParseError):
        load_group_table("x\n")
    with pytest.raises(ParseError):
        load_group_table("2\n0 1\n")
    with pytest.raises(ParseError):
        load_group_table("2\n0 1\n1 zero\n")


def test_load_labels():
    g = load_group_table("2\n0 1\n1 0\n# 0 e\n# 1 s\n")
    assert g.label(0) == "e" and g.label(1) == "s"


def test_order_cap():
    with pytest.raises(SizeCapError):
        make_cyclic(10, cap=5)
    with pytest.raises(SizeCapError):
        load_group_table("6\n", cap=5)


def test_cyclic_tables():
    g = make_cyclic(6)
    assert g.table[2][5] == 1
    assert make_cyclic(7).inverse[3] == 4
    assert make_cyclic(1).order == 1
    assert g.is_abelian


def test_dihedral_structure():
    d3 = make_dihedral(3)
    assert d3.order == 6
    assert not d3.is_abelian
    # f * r has order 2
    fr = d3.table[3][1]
    assert d3.element_order(fr) == 2
    # center of D4 has order 2 (brute-force scan)
    d4 = make_dihedral(4)
    center = [
        z
        for z in range(8)
        if all(d4.table[z][x] == d4.table[x][z] for x in range(8))
    ]
    assert len(center) == 2
    with pytest.raises(ValidationError):
        make_dihedral(2)


def test_semidirect_construction():
    g = make_semidirect(7, 3)
    assert g.order == 21
    assert not g.is_abelian
    # H0 = {1,2,4}: solved independently by scanning cubes mod 7
    h0 = sorted(h for h in range(1, 7) if h**3 % 7 == 1)
    assert h0 == [1, 2, 4]
    # (1,1)*(1,1) = (2,1): indices 3 and 6
    assert g.table[3][3] == 6
    assert make_semidirect(11, 5).order == 55
    for bad in [(5, 3), (7, 2), (8, 3), (7, 4)]:
        with pytest.raises(ValidationError):
            make_semidirect(*bad)


def test_generated_subgroup():
    g6 = make_cyclic(6)
    assert generated_subgroup(g6, GroupSubset.from_indices(g6, [0])).indices() == (0,)
    assert generated_subgroup(g6, GroupSubset.from_indices(g6, [2])).indices() == (0, 2, 4)
    d3 = make_dihedral(3)
    assert len(generated_subgroup(d3, GroupSubset.from_indices(d3, [1, 3]))) == 6
    with pytest.raises(PreconditionError):
        generated_subgroup(g6, GroupSubset.empty(g6))


def test_generated_subgroup_idempotent_monotone():
    rng = random.Random(7)
    for spec in catalog_specs(10):
        group = build_group(spec)
        n = group.order
        for _ in range(5):
            xs = rng.sample(range(n), rng.randint(1, n))
            x = GroupSubset.from_indices(group, xs)
            gen = generated_subgroup(group, x)
            assert generated_subgroup(group, gen).mask == gen.mask
            y = GroupSubset.from_indices(group, xs + [rng.randrange(n)])
            assert gen.mask & ~generated_subgroup(group, y).mask == 0


def _mask_sizes(n):
    """Set sizes below, at and above n/2, with the empty and the full set."""
    sizes = {0, 1, n // 2 - 1, n // 2, (n + 1) // 2, n // 2 + 1, n - 1, n}
    return sorted(sizes & set(range(n + 1)))


@pytest.mark.parametrize("n", [1, 2, 7, 8, 15, 16, 65, 66])
def test_permute_mask_matches_the_literal_image(n):
    # Masks of more than n/2 bits take the complement branch; the reference
    # maps every set bit on its own.
    rng = random.Random(n)
    perms = [list(range(n)), list(range(n))[::-1]]
    for _ in range(4):
        perm = list(range(n))
        rng.shuffle(perm)
        perms.append(perm)
    for size in _mask_sizes(n):
        for perm in perms:
            for _ in range(3):
                mask = mask_from_indices(rng.sample(range(n), size))
                image = mask_from_indices(perm[i] for i in bit_indices(mask))
                assert permute_mask(mask, perm) == image, (n, size)
                assert permute_mask(mask, tuple(perm)) == image, (n, size)


def test_permute_mask_matches_the_literal_image_on_group_permutations():
    rng = random.Random(22)
    for spec in catalog_specs(12):
        group = build_group(spec)
        n = group.order
        perms = [group.inverse] + [group.table[x] for x in range(n)]
        perms += [group.column(x) for x in range(n)]
        for size in _mask_sizes(n):
            mask = mask_from_indices(rng.sample(range(n), size))
            for perm in perms:
                image = mask_from_indices(perm[i] for i in bit_indices(mask))
                assert permute_mask(mask, perm) == image, (spec.name, size)


def _product_reference(group, xmask, ymask):
    """Every product x*y, with no early exit."""
    table = group.table
    return mask_from_indices(
        table[x][y] for x in bit_indices(xmask) for y in bit_indices(ymask)
    )


def test_product_mask_matches_the_full_union():
    rng = random.Random(5)
    for spec in catalog_specs(14):
        group = build_group(spec)
        n = group.order
        subgroups = [h.mask for h in enumerate_subgroups(group)]
        masks = subgroups + [
            mask_from_indices(rng.sample(range(n), size))
            for size in _mask_sizes(n)
            for _ in range(2)
        ]
        for xmask in masks:
            for ymask in masks:
                expected = _product_reference(group, xmask, ymask)
                assert product_mask(group, xmask, ymask) == expected, spec.name


def test_product_mask_matches_the_full_union_on_the_family():
    inst = build_example(23, 11)
    group = inst.group
    masks = [inst.subgroup.mask, inst.pair.mask, inst.removed.mask, inst.subset.mask]
    masks.append(mask_from_indices(random.Random(3).sample(range(group.order), 30)))
    for xmask in masks:
        for ymask in masks:
            expected = _product_reference(group, xmask, ymask)
            assert product_mask(group, xmask, ymask) == expected


def _translates_reference(group, mask):
    """One :func:`permute_mask` call per table row."""
    return [permute_mask(mask, row) for row in group.table]


def _kernel_masks(n, rng):
    """The empty set, {1}, G, the masks of floor(n/2) and floor(n/2) + 1
    bits on either side of the complement rule, and seeded sparse and dense
    sets."""
    masks = [0, 1, (1 << n) - 1]
    for size in (n // 2, n // 2 + 1, max(1, n // 10), n - max(1, n // 10)):
        masks += [mask_from_indices(rng.sample(range(n), size)) for _ in range(2)]
    return masks


def _kernel_groups():
    yield from (build_group(spec) for spec in catalog_specs(20))
    yield make_semidirect(23, 11)


def test_translate_masks_match_the_per_row_reference():
    rng = random.Random(27)
    orders = set()
    for group in _kernel_groups():
        orders.add(group.order)
        for mask in _kernel_masks(group.order, rng):
            assert translate_masks(group, mask) == _translates_reference(group, mask), (
                group.name,
                mask,
            )
    assert {n % 8 for n in orders} == set(range(8))


def test_translate_masks_match_the_per_row_reference_at_order_1081():
    inst = build_example(47, 23)
    group = inst.group
    assert group.table_array.dtype == np.uint16
    # The family's S and B stand in for the seeded dense and sparse sets.
    masks = _kernel_masks(group.order, random.Random(1081))[:7]
    for mask in masks + [inst.subset.mask, inst.removed.mask]:
        assert translate_masks(group, mask) == _translates_reference(group, mask)


def test_table_array_is_the_read_only_table():
    for group in [make_cyclic(1), make_cyclic(256), make_cyclic(257), make_semidirect(7, 3)]:
        arr = group.table_array
        assert arr.dtype == (np.uint8 if group.order <= 256 else np.uint16)
        assert arr.tolist() == group.table
        assert not arr.flags.writeable


def test_neighbor_masks_match_the_per_row_reference():
    rng = random.Random(28)
    for group in _kernel_groups():
        n = group.order
        table = group.table
        for mask in _kernel_masks(n, rng):
            s = GroupSubset(group, mask)
            shared = product_mask(group, mask, s.inverse_set().mask)
            expected = [permute_mask(shared, table[x]) & ~(1 << x) for x in range(n)]
            assert s.neighbor_masks == expected, (group.name, mask)


def _closure_reference(group, generators):
    """Closure of the identity under the generators and their inverses."""
    gens = set(generators)
    gens.update(group.inverse[g] for g in list(gens))
    table = group.table
    members = 1
    queue = [0]
    while queue:
        x = queue.pop()
        row = table[x]
        for g in gens:
            y = row[g]
            bit = 1 << y
            if not members & bit:
                members |= bit
                queue.append(y)
    return members


def test_closure_mask_matches_the_inverse_closed_search():
    # Every single element, then seeded lists of 1 to 4 elements, which may
    # repeat an element or hold ones already generated by the others.
    rng = random.Random(11)
    for spec in catalog_specs(16):
        group = build_group(spec)
        n = group.order
        lists = [[g] for g in range(n)]
        lists += [[rng.randrange(n) for _ in range(rng.randint(1, 4))] for _ in range(40)]
        for gens in lists:
            assert closure_mask(group, gens) == _closure_reference(group, gens), (
                spec.name,
                gens,
            )
    assert closure_mask(make_cyclic(6), []) == 1


def test_closure_mask_matches_the_inverse_closed_search_on_the_family_set():
    inst = build_example(23, 11)
    group = inst.group
    gens = inst.subset.indices()
    assert len(gens) == 210
    expected = _closure_reference(group, gens)
    assert expected == (1 << group.order) - 1
    assert closure_mask(group, gens) == expected
    for sample in (gens[:3], gens[-4:], inst.subgroup.indices()[1:3]):
        assert closure_mask(group, sample) == _closure_reference(group, sample)


def test_enumerate_subgroups_small():
    assert [len(h) for h in enumerate_subgroups(make_cyclic(6))] == [1, 2, 3, 6]
    assert len(enumerate_subgroups(make_cyclic(7))) == 2
    sd = make_semidirect(7, 3)
    sizes = sorted(len(h) for h in enumerate_subgroups(sd))
    assert sizes == [1] + [3] * 7 + [7, 21]


def test_enumerate_subgroups_lagrange_and_closure():
    for spec in catalog_specs(12):
        group = build_group(spec)
        subgroups = enumerate_subgroups(group)
        masks = [h.mask for h in subgroups]
        assert masks[0] == 1 and masks[-1] == (1 << group.order) - 1
        assert len(set(masks)) == len(masks)
        for h in subgroups:
            assert group.order % len(h) == 0
            assert h.is_subgroup()
        # canonical order: size then lexicographic index sequence
        keys = [(len(h), h.indices()) for h in subgroups]
        assert keys == sorted(keys)


def _subgroups_reference(group):
    """The subgroup search with its Lagrange test redone for every (H, g)."""
    n = group.order
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    found = {1: ()}
    work = [1]
    while work:
        h = work.pop(0)
        gens = found[h]
        hsize = h.bit_count()
        for g in range(1, n):
            if h >> g & 1:
                continue
            step = math.lcm(hsize, group.element_order(g))
            candidates = [d for d in divisors if d > hsize and d % step == 0]
            m = (1 << n) - 1 if candidates == [n] else closure_mask(group, gens + (g,))
            if m not in found:
                found[m] = gens + (g,)
                work.append(m)
    return sorted(found, key=lambda m: (m.bit_count(), tuple(bit_indices(m))))


def test_enumerate_subgroups_matches_the_per_pair_lagrange_loop():
    groups = [build_group(spec) for spec in catalog_specs(24)] + [make_semidirect(23, 11)]
    for group in groups:
        expected = _subgroups_reference(group)
        assert [h.mask for h in enumerate_subgroups(group)] == expected, group.name


def test_double_coset_size():
    sd = make_semidirect(7, 3)
    h = GroupSubset.from_indices(sd, [0, 1, 2])
    assert double_coset_mask(sd, h.mask, 1).bit_count() == 3  # a inside H
    assert double_coset_mask(sd, h.mask, 3).bit_count() == 9  # |H|^2
    g6 = make_cyclic(6)
    h2 = GroupSubset.from_indices(g6, [0, 3])
    assert double_coset_mask(g6, h2.mask, 1).bit_count() == 2  # abelian: HaH = Ha


def test_double_coset_multiple_of_subgroup():
    rng = random.Random(3)
    for spec in catalog_specs(12):
        group = build_group(spec)
        for h in enumerate_subgroups(group):
            a = rng.randrange(group.order)
            size = double_coset_mask(group, h.mask, a).bit_count()
            assert size % len(h) == 0
            assert size <= len(h) ** 2


def test_double_coset_pairs_match_brute_force():
    # Every H and a outside H with |HaH| = |H|^2, built from the definitions,
    # in enumerate_subgroups order and then ascending a.
    for spec in catalog_specs(20):
        group = build_group(spec)
        n, t = group.order, group.table

        def brute(keep):
            out = []
            for h in enumerate_subgroups(group):
                if not keep(len(h)):
                    continue
                for a in range(n):
                    if a in h:
                        continue
                    haH = {t[t[x][a]][y] for x in h for y in h}
                    if len(haH) == len(h) ** 2:
                        pair = h.mask
                        for x in h:
                            pair |= 1 << t[x][a]
                        out.append((h.mask, a, pair))
            return out

        got = [(h.mask, a, pair) for h, a, pair in double_coset_pairs(group)]
        assert got == brute(lambda size: size >= 2 and size * size <= n)
        trivial = [(h.mask, a, pair) for h, a, pair in double_coset_pairs(group, 1)]
        assert trivial == [(1, a, 1 | 1 << a) for a in range(1, n)]
        for size in {len(h) for h in enumerate_subgroups(group)}:
            got = [(h.mask, a, pair) for h, a, pair in double_coset_pairs(group, size)]
            assert got == brute(lambda hsize: hsize == size)


def test_right_coset_decomposition():
    g6 = make_cyclic(6)
    h = GroupSubset.from_indices(g6, [0, 3])
    x = GroupSubset.from_indices(g6, [0, 1, 3])
    parts = right_coset_decomposition(g6, x, h)
    assert [p.indices() for p in parts] == [(0, 3), (1,)]
    assert right_coset_decomposition(g6, h, h)[0].mask == h.mask
    full = right_coset_decomposition(g6, GroupSubset.full(g6), h)
    assert len(full) == 3 and all(len(p) == 2 for p in full)


def test_right_coset_decomposition_partitions():
    rng = random.Random(11)
    for spec in catalog_specs(10):
        group = build_group(spec)
        subgroups = enumerate_subgroups(group)
        for _ in range(5):
            h = subgroups[rng.randrange(len(subgroups))]
            xs = rng.sample(range(group.order), rng.randint(1, group.order))
            x = GroupSubset.from_indices(group, xs)
            parts = right_coset_decomposition(group, x, h)
            union = 0
            for p in parts:
                assert p.mask and union & p.mask == 0
                union |= p.mask
            assert union == x.mask


def test_constructed_groups_validate():
    # Builders validate at construction; re-validating the raw table from
    # scratch must agree.
    for spec in catalog_specs(10):
        group = build_group(spec)
        text = "\n".join(
            [str(group.order)] + [" ".join(map(str, row)) for row in group.table]
        )
        reloaded = load_group_table(text)
        assert reloaded.table == group.table


def test_direct_product():
    g = direct_product(make_cyclic(2), make_cyclic(3))
    assert g.order == 6 and g.is_abelian
    d = direct_product(make_cyclic(2), make_dihedral(4))
    assert d.order == 16 and not d.is_abelian


def test_restrict_to_subgroup():
    g6 = make_cyclic(6)
    h = GroupSubset.from_indices(g6, [0, 2, 4])
    sub, elems = restrict_to_subgroup(g6, h)
    assert sub.order == 3 and elems == [0, 2, 4]
    assert sub.table[1][2] == 0  # 2 + 4 = 0 in the ambient group


@pytest.mark.parametrize("literal", ["0 1 2", "0 3"])
def test_restrict_to_subgroup_refuses_a_subgroup_of_another_group(literal):
    # Both are subgroups of D3; as masks, {0 1 2} is no subgroup of C6 and
    # {0 3} is one.
    h = GroupSubset.from_literal(make_dihedral(3), literal)
    with pytest.raises(GroupMismatchError):
        restrict_to_subgroup(make_cyclic(6), h)


def test_subset_basics():
    g = make_cyclic(5)
    s = GroupSubset.from_literal(g, "0 2 3")
    assert len(s) == 3 and 2 in s and 1 not in s
    assert s.to_literal() == "0 2 3"
    assert tuple(bit_indices(~s.mask & 0b11111)) == (1, 4)
    assert s.inverse_set().indices() == (0, 2, 3)
    assert list(bit_indices(permute_mask(s.mask, g.table[1]))) == [1, 3, 4]
    with pytest.raises(ParseError):
        GroupSubset.from_literal(g, "0 x")
    with pytest.raises(ValidationError):
        GroupSubset.from_literal(g, "0 9")


def test_inverse_links_form_no_reference_cycle():
    # With the collector off, a set and its inverse must die by reference
    # counting alone, while the round trip holds as long as the set lives.
    g = make_cyclic(7)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for literal, symmetric in (("0 1 3", False), ("0 1 6", True)):
            s = GroupSubset.from_literal(g, literal)
            assert (s.inverse_set() is s) == symmetric
            assert s.inverse_set().inverse_set() is s
            dead = weakref.ref(s)
            dead_inverse = weakref.ref(s.inverse_set())
            del s
            assert dead() is None and dead_inverse() is None, literal
        # The inverse outlives its set: it then builds a new inverse.
        s = GroupSubset.from_literal(g, "0 1 3")
        inv = s.inverse_set()
        del s
        again = inv.inverse_set()
        assert again.to_literal() == "0 1 3" and again.inverse_set() is inv
    finally:
        if enabled:
            gc.enable()


def _generated_order(n, perms):
    """Size of the permutation group the perms generate, by closure."""
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        step = []
        for p in frontier:
            for g in perms:
                q = tuple(g[x] for x in p)
                if q not in seen:
                    seen.add(q)
                    step.append(q)
        frontier = step
    return len(seen)


AUT_ORDERS = {
    "C15": 8,
    "D7": 42,
    "C2xC2xC2": 168,
    "C3xC3": 48,
    "D8": 32,
    "C4xC4": 96,
    "C2xD4": 64,
    "C2xC2xC2xC2": 20160,
}


@pytest.mark.parametrize("name", sorted(AUT_ORDERS))
def test_automorphism_generators_generate_the_whole_automorphism_group(name):
    (spec,) = [s for s in catalog_specs(16) if s.name == name]
    group = build_group(spec)
    n = group.order
    perms = automorphism_generators(group)
    table = group.table
    for phi in perms:
        assert sorted(phi) == list(range(n))
        assert all(
            phi[table[x][y]] == table[phi[x]][phi[y]] for x in range(n) for y in range(n)
        )
    assert _generated_order(n, perms) == AUT_ORDERS[name]


def test_automorphism_generators_are_automorphisms_on_the_catalog():
    for spec in catalog_specs(14):
        group = build_group(spec)
        n = group.order
        arr = np.array(group.table)
        for phi in automorphism_generators(group):
            p = np.array(phi)
            assert sorted(phi) == list(range(n)), spec.name
            assert np.array_equal(p[arr], arr[np.ix_(p, p)]), spec.name
