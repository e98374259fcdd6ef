"""The catalog sweeps' subset enumerator against the per-subset reference.

``reference_generating_subsets`` and ``reference_class_mask`` are the
enumeration the sweeps used before the block-wise scan: one closure per odd
mask to test generation, and |S| ``permute_mask`` calls to find the least
right translate.  The block-wise scan must give the same (mask, class) list
in the same order.
"""

import pytest

from sumatoms import SizeCapError, make_cyclic, sweeps
from sumatoms.bitset import bit_indices, indices_tuple, permute_mask
from sumatoms.catalog import build_group, catalog_specs
from sumatoms.groups import closure_mask
from sumatoms.sweeps import _generating_masks, _subset_classes


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


def test_generating_subsets_and_classes_match_the_reference_up_to_order_14():
    specs = catalog_specs(14)
    assert len(specs) == 23
    for spec in specs:
        group = build_group(spec)
        expected = list(reference_generating_subsets(group))
        assert list(_generating_masks(group)) == expected, spec.name
        assert list(_subset_classes(group, True)) == reference_classes(group, expected), spec.name


def test_elementary_abelian_16_needs_five_generators():
    (spec,) = [s for s in catalog_specs(16) if s.name == "C2xC2xC2xC2"]
    group = build_group(spec)
    expected = list(reference_generating_subsets(group))
    got = list(_subset_classes(group, True))
    assert got == reference_classes(group, expected)
    assert min(m.bit_count() for m, _ in got) == 5
    assert [m for m, _ in got] == list(_generating_masks(group))


def test_all_subset_classes_match_the_reference_up_to_order_12():
    for spec in catalog_specs(12):
        group = build_group(spec)
        masks = [m for m in range(1, 1 << group.order) if m.bit_count() >= 2]
        assert list(_subset_classes(group, False)) == reference_classes(group, masks), spec.name


def test_groups_above_64_elements_are_refused():
    group = make_cyclic(65)
    with pytest.raises(SizeCapError):
        next(_generating_masks(group))
    with pytest.raises(SizeCapError):
        next(_subset_classes(group, False))


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
