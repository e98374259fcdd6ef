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
from itertools import combinations
from typing import Iterable, Iterator, Optional

from .bitset import bit_indices, indices_tuple, mask_from_indices, permute_mask
from .errors import (
    GroupMismatchError,
    NotGeneratingError,
    NotSeparableError,
    OracleCapError,
    PreconditionError,
)
from .groups import IDENTITY, FiniteGroup, GroupSubset, closure_mask

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


def product_mask(group: FiniteGroup, xmask: int, ymask: int) -> int:
    """Bitmask of {x*y : x in X, y in Y}."""
    table = group.table
    out = 0
    for x in bit_indices(xmask):
        out |= permute_mask(ymask, table[x])
    return out


def _check_pair(a: GroupSubset, b: GroupSubset) -> FiniteGroup:
    if a.group is not b.group:
        raise GroupMismatchError("operands belong to different groups")
    return a.group


def product_set(x: GroupSubset, y: GroupSubset) -> GroupSubset:
    group = _check_pair(x, y)
    return GroupSubset(group, product_mask(group, x.mask, y.mask))


def _require_identity(smask: int) -> None:
    if not smask & (1 << IDENTITY):
        raise PreconditionError(
            "set must contain the identity; apply normalize() first"
        )


def boundary(s: GroupSubset, x: GroupSubset) -> GroupSubset:
    """The boundary XS \\ X of X under right multiplication by S."""
    group = _check_pair(s, x)
    _require_identity(s.mask)
    xs = product_mask(group, x.mask, s.mask)
    return GroupSubset(group, xs & ~x.mask)

def remainder(s: GroupSubset, x: GroupSubset) -> GroupSubset:
    """Everything outside X and its boundary (the complement of XS when 1 is in S)."""
    group = _check_pair(s, x)
    xs = product_mask(group, x.mask, s.mask)
    full = (1 << group.order) - 1
    return GroupSubset(group, full & ~(x.mask | xs))


class TranslateTables:
    """Lazy per-element translate masks for one (group, set) pair.

    ``xs_masks()[x]`` is the mask of x*S and ``neighbor_masks()[x]`` the mask
    of x*(S*S^-1) without x, the adjacency used by the connected fragment
    search: two elements whose product sets overlap are neighbors.
    :meth:`product` pays for n translates once; a one-off product is cheaper
    with :func:`product_mask`.  The tables of a set are owned by the set:
    ``GroupSubset.translates`` builds them once per set object, and
    :meth:`inverse` builds those of S^-1 once per table.
    """

    __slots__ = ("group", "smask", "_xs", "_nbr", "_sinv_mask", "_inv")

    def __init__(self, group: FiniteGroup, smask: int) -> None:
        self.group = group
        self.smask = smask
        self._xs: Optional[list[int]] = None
        self._nbr: Optional[list[int]] = None
        self._sinv_mask: Optional[int] = None
        self._inv: Optional[TranslateTables] = None

    @property
    def sinv_mask(self) -> int:
        if self._sinv_mask is None:
            self._sinv_mask = permute_mask(self.smask, self.group.inverse)
        return self._sinv_mask

    def inverse(self) -> "TranslateTables":
        """The tables of S^-1, built on first use; ``self`` when S = S^-1."""
        if self.sinv_mask == self.smask:
            return self
        if self._inv is None:
            self._inv = TranslateTables(self.group, self.sinv_mask)
        return self._inv

    def xs_masks(self) -> list[int]:
        if self._xs is None:
            table = self.group.table
            smask = self.smask
            self._xs = [permute_mask(smask, table[x]) for x in range(self.group.order)]
        return self._xs

    def product(self, xmask: int) -> int:
        """Mask of X*S, the union of the translates x*S for x in X."""
        xs = self.xs_masks()
        out = 0
        for x in bit_indices(xmask):
            out |= xs[x]
        return out

    def neighbor_masks(self) -> list[int]:
        if self._nbr is None:
            shared = product_mask(self.group, self.smask, self.sinv_mask)
            table = self.group.table
            self._nbr = [
                permute_mask(shared, table[x]) & ~(1 << x)
                for x in range(self.group.order)
            ]
        return self._nbr


# ---------------------------------------------------------------------------
# Separability


def _separability_witness(group: FiniteGroup, smask: int, k: int) -> Optional[int]:
    """A mask X containing the identity with |X| = k and |X*| >= k, or None.

    Product masks grow with X, so size-k candidates decide separability, and
    every candidate class has a representative containing the identity.
    """
    n = group.order
    if k < 1:
        raise PreconditionError(f"k must be positive, got {k}")
    if 2 * k > n:
        return None
    full = (1 << n) - 1
    tables = TranslateTables(group, smask)
    xs = tables.xs_masks()
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
    return _separability_witness(s.group, s.mask, k) is not None


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


def _admissible_sets(
    group: FiniteGroup, smask: int, k: int
) -> Iterator[tuple[int, int, int]]:
    """Yield (X, |X|, boundary size) for every admissible X containing 1.

    Admissible means |X| >= k and a remainder of at least k elements, i.e.
    |XS| <= n - k.  For k <= 2 only connected X are visited, which is
    complete there.  The walk is depth first on an explicit stack: the
    lowest candidate is tried first, and once its subtree is done it is
    banned from the subtrees of its later siblings, so each X appears once.
    """
    n = group.order
    limit = n - k
    tables = TranslateTables(group, smask)
    xs = tables.xs_masks()
    nbr = tables.neighbor_masks() if k <= 2 else [(1 << n) - 1] * n
    seed = 1 << IDENTITY
    seed_u = xs[IDENTITY]
    if seed_u.bit_count() > limit:
        return
    if k <= 1:
        yield seed, 1, seed_u.bit_count() - 1
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
            if usize <= limit:
                nx = x | low
                size = nx.bit_count()
                if size >= k:
                    yield nx, size, usize - size
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


def boundary_witness(
    group: FiniteGroup, smask: int, k: int, target: int
) -> Optional[int]:
    """A mask X (1 in X, |X| >= k, |X*| >= k) with boundary <= target, or None.

    Complete decision via the same search as the atom computation, stopping
    at the first witness.
    """
    if target < 0 or 2 * k > group.order:
        return None
    for x, _, b in _admissible_sets(group, smask, k):
        if b <= target:
            return x
    return None


@dataclass(frozen=True)
class _Tally:
    """Least boundary per size over the admissible sets, with its achievers.

    ``achievers`` keeps at most ``atom_cap`` masks per size, in the order
    they were found; ``counts`` counts all of them.
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
    atom_masks = sorted(tally.achievers[alpha], key=indices_tuple)
    return FragmentReport(
        k=k,
        separable=True,
        kappa=tally.kappa,
        alpha=alpha,
        atoms=tuple(GroupSubset(group, m) for m in atom_masks[:atom_cap]),
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


def find_atoms(
    s: GroupSubset, k: int, *, atom_cap: int = DEFAULT_ATOM_CAP
) -> FragmentReport:
    """Exact isoperimetric number, atom size and all atoms containing 1.

    Atoms not containing the identity are left translates of the listed ones.
    Requires S to contain the identity, generate the group and be k-separable.
    """
    _checked_input(s, k)
    tally = _tally(_admissible_sets(s.group, s.mask, k), k, atom_cap)
    return _fragment_report(s.group, k, tally, atom_cap, oracle_used=False)


def isoperimetric_number(s: GroupSubset, k: int) -> int:
    """The k-th isoperimetric number of S (minimum admissible boundary size)."""
    return find_atoms(s, k).kappa


def find_fragments(s: GroupSubset, k: int) -> tuple[GroupSubset, ...]:
    """All k-fragments containing the identity, of every size, at most ``DEFAULT_ATOM_CAP`` per size."""
    _checked_input(s, k)
    tally = _tally(_admissible_sets(s.group, s.mask, k), k, DEFAULT_ATOM_CAP)
    return tuple(GroupSubset(s.group, m) for m in tally.fragment_masks())


def _atoms_and_fragment_masks(s: GroupSubset, k: int) -> tuple[FragmentReport, list[int]]:
    """``find_atoms(s, k)`` and the masks of ``find_fragments(s, k)`` from one scan."""
    _checked_input(s, k)
    tally = _tally(_admissible_sets(s.group, s.mask, k), k, DEFAULT_ATOM_CAP)
    report = _fragment_report(s.group, k, tally, DEFAULT_ATOM_CAP, oracle_used=False)
    return report, tally.fragment_masks()


def _every_admissible_set(
    group: FiniteGroup, smask: int, k: int
) -> Iterator[tuple[int, int, int]]:
    """Like :func:`_admissible_sets`, by visiting every subset containing 1.

    Subsets come in lexicographic order of their sorted index tuples, with no
    pruning and no adjacency restriction.
    """
    n = group.order
    limit = n - k
    xs = TranslateTables(group, smask).xs_masks()
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
    """
    _checked_input(s, k)
    group = s.group
    if group.order > order_cap:
        raise OracleCapError(
            f"group order {group.order} exceeds oracle cap {order_cap}"
        )
    tally = _tally(_every_admissible_set(group, s.mask, k), k, atom_cap)
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
