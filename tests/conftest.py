from functools import cached_property

import pytest

from sumatoms import GroupSubset


@pytest.fixture
def xs_builds(monkeypatch):
    """The mask of every set whose ``xs_masks`` is built during the test."""
    built = []
    build = GroupSubset.xs_masks.func

    def counting(self):
        built.append(self.mask)
        return build(self)

    prop = cached_property(counting)
    prop.__set_name__(GroupSubset, "xs_masks")
    monkeypatch.setattr(GroupSubset, "xs_masks", prop)
    return built
