"""Product sets, boundaries, isoperimetric numbers, fragments and atoms.

For a generating set S containing the identity, the boundary of X is
XS \\ X and the remainder is everything outside X and its boundary.  The
k-th isoperimetric number is the minimum boundary size over sets X with
|X| >= k and remainder at least k; minimizers are k-fragments, and minimum
cardinality minimizers are k-atoms.  Two computations of these live here:
a pruned search (:func:`find_atoms`) and a plain exhaustive oracle
(:func:`oracle_atoms`) that must always agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Optional

import numpy as np

from .bitset import indices_tuple, mask_from_indices, permute_mask
from .errors import (
    NotGeneratingError,
    NotSeparableError,
    OracleCapError,
    PreconditionError,
)
from .groups import (
    IDENTITY,
    FiniteGroup,
    GroupSubset,
    closure_mask,
    product_mask,
    require_same_group,
)

DEFAULT_ATOM_CAP = 256
FRAGMENT_COUNT_EXACT_CAP = 20
DEFAULT_ORACLE_ORDER_CAP = 20


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class FragmentReport:
    """Result of an atom computation for one (group, set, k) triple."""

    k: int
    separable: bool
    kappa: Optional[int]
    alpha: Optional[int]
    atoms: tuple[GroupSubset, ...]
    fragment_count: int
    fragment_count_exact: bool
    oracle_used: bool
    atoms_truncated: bool = False

    def same_result(self, other: "FragmentReport") -> bool:
        """Semantic equality, ignoring which engine produced the report."""
        return (
            self.k == other.k
            and self.separable == other.separable
            and self.kappa == other.kappa
            and self.alpha == other.alpha
            and tuple(a.mask for a in self.atoms) == tuple(a.mask for a in other.atoms)
            and self.fragment_count == other.fragment_count
        )


@dataclass(frozen=True)
class NormalizeReport:
    generates: bool
    translator: int


# ---------------------------------------------------------------------------
# Elementary set arithmetic


def product_set(x: GroupSubset, y: GroupSubset) -> GroupSubset:
    group = require_same_group(x.group, y)
    return GroupSubset(group, product_mask(group, x.mask, y.mask))


def _require_identity(smask: int) -> None:
    if not smask & (1 << IDENTITY):
        raise PreconditionError(
            "set must contain the identity; apply normalize() first"
        )


def boundary(s: GroupSubset, x: GroupSubset) -> GroupSubset:
    """The boundary XS \\ X of X under right multiplication by S."""
    group = require_same_group(s.group, x)
    _require_identity(s.mask)
    xs = product_mask(group, x.mask, s.mask)
    return GroupSubset(group, xs & ~x.mask)

def remainder(s: GroupSubset, x: GroupSubset) -> GroupSubset:
    """Everything outside X and its boundary (the complement of XS when 1 is in S)."""
    group = require_same_group(s.group, x)
    xs = product_mask(group, x.mask, s.mask)
    full = (1 << group.order) - 1
    return GroupSubset(group, full & ~(x.mask | xs))


# ---------------------------------------------------------------------------
# Separability


def _separability_witness(s: GroupSubset, k: int) -> Optional[int]:
    """A mask X containing the identity with |X| = k and |X*| >= k, or None.

    Product masks grow with X, so size-k candidates decide separability, and
    every candidate class has a representative containing the identity.
    """
    n = s.group.order
    if k < 1:
        raise PreconditionError(f"k must be positive, got {k}")
    if 2 * k > n:
        return None
    full = (1 << n) - 1
    xs = s.xs_masks
    base = 1 << IDENTITY
    base_xs = xs[IDENTITY]
    for combo in combinations(range(1, n), k - 1):
        x = base | mask_from_indices(combo)
        u = base_xs
        for g in combo:
            u |= xs[g]
        if (full & ~(x | u)).bit_count() >= k:
            return x
    return None


def is_k_separable(s: GroupSubset, k: int) -> bool:
    """Whether some X has |X| >= k and remainder of size >= k."""
    return _separability_witness(s, k) is not None


def _require_generating(group: FiniteGroup, smask: int) -> None:
    full = (1 << group.order) - 1
    if closure_mask(group, indices_tuple(smask)) != full:
        raise NotGeneratingError("set does not generate the group")


# ---------------------------------------------------------------------------
# Fragment search
#
# All searches normalize 1 into X (boundaries are invariant under left
# translation).  For k <= 2 they may further restrict to connected X in the
# shared-growth adjacency: a disconnected admissible X splits into parts with
# disjoint product masks, and either some part beats X (contradicting
# minimality) or all parts are singletons, in which case the pair {1, s} for
# any s in S is admissible with a strictly smaller boundary.
#
# The walk is also a branch and bound.  Every set X' below a node X with
# banned set B contains X and misses B, so X'S \ X' contains XS & B and
# b(X') >= |XS & B|.  A child whose product meets B in more elements than
# the least boundary still wanted leads only to worse sets, so it is banned
# like a child whose product is too large.


def _admissible_sets(
    s: GroupSubset, k: int, target: Optional[int] = None
) -> Iterator[tuple[int, int, int]]:
    """Yield (X, |X|, boundary size) for admissible X containing 1.

    Admissible means |X| >= k and a remainder of at least k elements, i.e.
    |XS| <= n - k.  For k <= 2 only connected X are visited, which is
    complete there.  The walk is depth first on an explicit stack: the
    lowest candidate is tried first, and once its subtree is done it is
    banned from the subtrees of its later siblings, so each X appears once.

    An X is yielded, in that order, exactly when its boundary is at most the
    bound at the time: ``target`` (n when None) or the least boundary
    yielded before it, whichever is smaller.  So every minimizer and the
    first X with boundary <= ``target`` are yielded.
    """
    n = s.group.order
    limit = n - k
    bound = n if target is None else target
    xs = s.xs_masks
    nbr = s.neighbor_masks if k <= 2 else [(1 << n) - 1] * n
    seed = 1 << IDENTITY
    seed_u = xs[IDENTITY]
    if seed_u.bit_count() > limit:
        return
    if k <= 1 and seed_u.bit_count() - 1 <= bound:
        bound = seed_u.bit_count() - 1
        yield seed, 1, bound
    # The current node is (X, XS, frontier, untried candidates, banned
    # candidates); a parent with untried candidates waits on the stack.
    x, u, frontier, ban = seed, seed_u, nbr[IDENTITY], 0
    cands = frontier & ~seed
    stack: list[tuple[int, int, int, int, int]] = []
    push = stack.append
    pop = stack.pop
    while True:
        while cands:
            low = cands & -cands
            cands ^= low
            c = low.bit_length() - 1
            nu = u | xs[c]
            usize = nu.bit_count()
            if usize <= limit and (nu & ban).bit_count() <= bound:
                nx = x | low
                size = nx.bit_count()
                if size >= k and usize - size <= bound:
                    bound = usize - size
                    yield nx, size, bound
                grown = frontier | nbr[c]
                child_cands = grown & ~(ban | nx)
                if child_cands:
                    if cands:
                        push((x, u, frontier, cands, ban | low))
                    x, u, frontier, cands = nx, nu, grown, child_cands
                    continue
            ban |= low
        if not stack:
            return
        x, u, frontier, cands, ban = pop()


def boundary_witness(s: GroupSubset, k: int, target: int) -> Optional[int]:
    """A mask X (1 in X, |X| >= k, |X*| >= k) with boundary <= target, or None.

    Complete decision via the same search as the atom computation, stopping
    at the first witness.
    """
    if target < 0 or 2 * k > s.group.order:
        return None
    return next((x for x, _, _ in _admissible_sets(s, k, target)), None)


@dataclass(frozen=True)
class _Tally:
    """Least boundary per size over the admissible sets, with its achievers.

    ``achievers`` keeps at most ``atom_cap`` masks per size, in the order
    they were found; ``counts`` counts all of them.  The engines skip sets
    that cannot be fragments, so ``best_by_size``, ``achievers`` and
    ``counts`` are exact at the fragment sizes, the only sizes a report
    reads, and may be missing or too large at other sizes.
    """

    kappa: int
    best_by_size: dict[int, int]
    achievers: dict[int, list[int]]
    counts: dict[int, int]

    def fragment_sizes(self) -> list[int]:
        return sorted(s for s, b in self.best_by_size.items() if b == self.kappa)

    def fragment_masks(self) -> list[int]:
        masks = (m for size in self.fragment_sizes() for m in self.achievers[size])
        return sorted(masks, key=indices_tuple)


def _tally(
    admissible: Iterable[tuple[int, int, int]], k: int, atom_cap: int
) -> _Tally:
    best_by_size: dict[int, int] = {}
    achievers: dict[int, list[int]] = {}
    counts: dict[int, int] = {}
    for x, size, b in admissible:
        cur = best_by_size.get(size)
        if cur is None or b < cur:
            best_by_size[size] = b
            achievers[size] = [x]
            counts[size] = 1
        elif b == cur:
            counts[size] += 1
            bucket = achievers[size]
            if len(bucket) < atom_cap:
                bucket.append(x)
    if not best_by_size:
        raise NotSeparableError(f"set is not {k}-separable")
    return _Tally(min(best_by_size.values()), best_by_size, achievers, counts)


def _fragment_report(
    group: FiniteGroup, k: int, tally: _Tally, atom_cap: int, *, oracle_used: bool
) -> FragmentReport:
    sizes = tally.fragment_sizes()
    alpha = sizes[0]
    atom_masks = sorted(tally.achievers[alpha], key=indices_tuple)[:atom_cap]
    return FragmentReport(
        k=k,
        separable=True,
        kappa=tally.kappa,
        alpha=alpha,
        atoms=tuple(GroupSubset(group, m) for m in atom_masks),
        fragment_count=sum(tally.counts[size] for size in sizes),
        fragment_count_exact=oracle_used or group.order <= FRAGMENT_COUNT_EXACT_CAP,
        oracle_used=oracle_used,
        atoms_truncated=tally.counts[alpha] > len(atom_masks),
    )


def _checked_input(s: GroupSubset, k: int) -> None:
    if k < 1:
        raise PreconditionError(f"k must be positive, got {k}")
    _require_identity(s.mask)
    _require_generating(s.group, s.mask)


def _walk_report(s: GroupSubset, k: int, atom_cap: int) -> tuple[FragmentReport, _Tally]:
    """The pruned search's report for (S, k), with the tally it was read from."""
    _checked_input(s, k)
    tally = _tally(_admissible_sets(s, k), k, atom_cap)
    return _fragment_report(s.group, k, tally, atom_cap, oracle_used=False), tally


def find_atoms(
    s: GroupSubset, k: int, *, atom_cap: int = DEFAULT_ATOM_CAP
) -> FragmentReport:
    """Exact isoperimetric number, atom size and all atoms containing 1.

    Atoms not containing the identity are left translates of the listed ones.
    Requires S to contain the identity, generate the group and be k-separable.
    """
    return _walk_report(s, k, atom_cap)[0]


def isoperimetric_number(s: GroupSubset, k: int) -> int:
    """The k-th isoperimetric number of S (minimum admissible boundary size)."""
    return find_atoms(s, k).kappa


def find_fragments(s: GroupSubset, k: int) -> tuple[GroupSubset, ...]:
    """All k-fragments containing the identity, of every size, at most ``DEFAULT_ATOM_CAP`` per size."""
    tally = _walk_report(s, k, DEFAULT_ATOM_CAP)[1]
    return tuple(GroupSubset(s.group, m) for m in tally.fragment_masks())


# ---------------------------------------------------------------------------
# Exhaustive oracle
#
# The oracle visits all 2^(n-1) subsets X containing 1, with no pruning and no
# adjacency restriction.  The top elements of the group form a block whose
# patterns are scanned together as uint64 masks, so each pattern of the
# elements below the block costs a few numpy calls instead of a Python frame
# per subset.  uint64 masks hold at most 64 elements.

# 2^13 uint64 masks are 64 KB, below glibc's default 128 KB mmap threshold.
_BLOCK_BITS = 13
ORACLE_ORDER_LIMIT = 64


@lru_cache(maxsize=_BLOCK_BITS + 1)
def _block_patterns(bits: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The 2^bits block patterns by size, and where each size starts and ends.

    Bit j of a pattern is the j-th lowest block element.  Patterns of one size
    come in indices_tuple order: first the one holding the lowest element in
    which two differ.  ``bounds[t]:bounds[t + 1]`` are the patterns of size t.
    """
    patterns = np.arange(1 << bits, dtype=np.uint16)
    mirrored = np.zeros_like(patterns)
    for j in range(bits):
        mirrored |= (patterns >> j & 1) << (bits - 1 - j)
    sizes = np.bitwise_count(patterns)
    order = np.lexsort((~mirrored, sizes))
    order.flags.writeable = False
    bounds = tuple(np.searchsorted(sizes[order], np.arange(bits + 2)).tolist())
    return order, bounds


def _pattern_unions(rows: np.ndarray) -> np.ndarray:
    """``out[..., p]`` is the OR of ``rows[..., j]`` over the bits j of p.

    The last axis of ``rows`` has m entries and that of ``out`` 2^m; the table
    is built by doubling, one row per step.
    """
    m = rows.shape[-1]
    out = np.zeros(rows.shape[:-1] + (1 << m,), dtype=rows.dtype)
    for j in range(m):
        np.bitwise_or(out[..., : 1 << j], rows[..., j : j + 1], out=out[..., 1 << j : 2 << j])
    return out


def _block_layout(n: int) -> tuple[int, np.ndarray, tuple[int, ...]]:
    """The lowest block element of an order-n group, and the block's patterns."""
    bits = min(_BLOCK_BITS, n - 1)
    return (n - bits, *_block_patterns(bits))


def _exhaustive_blocks(s: GroupSubset) -> Iterator[tuple[int, list[int], np.ndarray]]:
    """Every subset X containing 1, one block at a time.

    Yields (low, least, usize).  ``low`` is the part of X below the block,
    1 included.  ``usize[i]`` is |XS| when X is ``low`` plus the i-th pattern
    of :func:`_block_layout`, and ``least[t]`` is the least of them over the
    patterns of t elements.  ``usize`` is overwritten by the next block.
    Within each size |X| the subsets come in indices_tuple order.
    """
    n = s.group.order
    xs = s.xs_masks
    first, order, bounds = _block_layout(n)
    block = _pattern_unions(np.array(xs[first:], dtype=np.uint64))[order]
    u = np.empty_like(block)
    usize = np.empty(len(block), dtype=np.uint8)
    below = first - 1
    for q in range((1 << below) - 1, -1, -1):
        # Bit below-1-j of q holds element 1+j, so descending q takes the
        # parts below the block in indices_tuple order.
        low, ulow = 1 << IDENTITY, xs[IDENTITY]
        for j in range(below):
            if q >> (below - 1 - j) & 1:
                low |= 1 << (1 + j)
                ulow |= xs[1 + j]
        np.bitwise_or(block, np.uint64(ulow), out=u)
        np.bitwise_count(u, out=usize)
        yield low, np.minimum.reduceat(usize, bounds[:-1]).tolist(), usize


def _exhaustive_tally(s: GroupSubset, k: int, atom_cap: int) -> _Tally:
    """The :func:`_tally` of the admissible sets, found among every subset containing 1.

    Counts and achievers are kept only while a size's least boundary is the
    least of all sizes so far, which the fragment sizes' always is.
    """
    limit = s.group.order - k
    first, order, bounds = _block_layout(s.group.order)
    best_by_size: dict[int, int] = {}
    achievers: dict[int, list[int]] = {}
    counts: dict[int, int] = {}
    kappa = limit  # above every admissible boundary
    for low, least, usize in _exhaustive_blocks(s):
        base = low.bit_count()
        for t, u in enumerate(least):
            size = base + t
            if size < k or u > limit:
                continue
            b = u - size
            cur = best_by_size.get(size)
            if cur is None or b < cur:
                best_by_size[size] = b
                achievers[size] = []
                counts[size] = 0
            elif b > cur:
                continue
            if b > kappa:
                continue
            kappa = b
            lo = bounds[t]
            hits = np.flatnonzero(usize[lo : bounds[t + 1]] == u)
            counts[size] += len(hits)
            bucket = achievers[size]
            # Like _tally, keep a size's first achiever whatever the cap.
            room = max(atom_cap, 1) - len(bucket)
            bucket.extend(low | int(p) << first for p in order[lo + hits[:room]])
    if not best_by_size:
        raise NotSeparableError(f"set is not {k}-separable")
    return _Tally(kappa, best_by_size, achievers, counts)


def _exhaustive_boundary_within(s: GroupSubset, k: int, target: int) -> bool:
    """Whether an admissible X containing 1 has boundary at most ``target``.

    Decided over every subset containing 1, independently of
    :func:`boundary_witness`.
    """
    limit = s.group.order - k
    for low, least, _ in _exhaustive_blocks(s):
        base = low.bit_count()
        for t, u in enumerate(least):
            if base + t >= k and u <= limit and u - (base + t) <= target:
                return True
    return False


def oracle_atoms(
    s: GroupSubset,
    k: int,
    *,
    order_cap: int = DEFAULT_ORACLE_ORDER_CAP,
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> FragmentReport:
    """Same contract as :func:`find_atoms` by plain exhaustive enumeration.

    Every subset containing the identity is visited; the only normalization
    is pinning 1 into X.  Intended as an independent cross-check engine.
    Groups above ``ORACLE_ORDER_LIMIT`` elements are refused at any cap.
    """
    _checked_input(s, k)
    group = s.group
    if group.order > ORACLE_ORDER_LIMIT:
        raise OracleCapError(
            f"group order {group.order} exceeds the oracle's limit of "
            f"{ORACLE_ORDER_LIMIT} elements"
        )
    if group.order > order_cap:
        raise OracleCapError(
            f"group order {group.order} exceeds oracle cap {order_cap}"
        )
    tally = _exhaustive_tally(s, k, atom_cap)
    return _fragment_report(group, k, tally, atom_cap, oracle_used=True)


# ---------------------------------------------------------------------------
# Structure of atoms


def maximal_left_period(a: GroupSubset) -> GroupSubset:
    """The largest subgroup H with H*A = A (the left stabilizer of A)."""
    if not a:
        raise PreconditionError("empty set has no left period")
    group = a.group
    table = group.table
    target = a.mask
    out = 0
    for g in range(group.order):
        if permute_mask(target, table[g]) == target:
            out |= 1 << g
    return GroupSubset(group, out)


def _left_translates(group: FiniteGroup, masks: Iterable[int]) -> set[int]:
    """The distinct masks gX for g in the group and X in ``masks``."""
    return {permute_mask(m, row) for m in masks for row in group.table}


def atom_translates(report: FragmentReport, group: FiniteGroup) -> list[int]:
    """Masks of all distinct atoms, i.e. all left translates of the listed ones."""
    return sorted(_left_translates(group, (a.mask for a in report.atoms)), key=indices_tuple)


def _overlapping_pair(masks: list[int], k: int) -> Optional[tuple[int, int]]:
    """The first pair of masks, in list order, meeting in more than k-1 points."""
    for i, a in enumerate(masks):
        for b in masks[i + 1 :]:
            if (a & b).bit_count() > k - 1:
                return a, b
    return None


def normalize(s: GroupSubset) -> tuple[GroupSubset, NormalizeReport]:
    """Right-translate S so its smallest element lands on the identity.

    Returns the translated set, which contains the identity, and a report:
    whether it generates the group and which element was translated away.
    """
    if not s:
        raise PreconditionError("cannot normalize the empty set")
    group = s.group
    smallest = (s.mask & -s.mask).bit_length() - 1
    if smallest == IDENTITY:
        translated = s
    else:
        translated = s.right_translate(group.inverse[smallest])
    full = (1 << group.order) - 1
    generates = closure_mask(group, translated.indices()) == full
    return translated, NormalizeReport(generates=generates, translator=smallest)
