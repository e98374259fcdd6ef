"""Small helpers for element sets stored as Python-int bitmasks."""

from __future__ import annotations

from typing import Iterable, Iterator


def mask_from_indices(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def bit_indices(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def indices_tuple(mask: int) -> tuple[int, ...]:
    return tuple(bit_indices(mask))


def permute_mask(mask: int, perm) -> int:
    """Image of a bitmask under an index permutation (``perm[i]`` = image of i).

    ``perm`` must be a permutation of ``range(len(perm))``.  A mask holding
    more than half of those bits is mapped through its complement, since a
    bijection takes the complement of a set to the complement of its image;
    so the work is the smaller side's size either way.
    """
    n = len(perm)
    full = (1 << n) - 1 if mask.bit_count() * 2 > n else 0
    mask ^= full
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out ^ full
